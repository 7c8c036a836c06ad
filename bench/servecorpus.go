package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path"
	"sort"
	"strings"
	"time"

	"lyra"
	"lyra/internal/lang/parser"
	"lyra/internal/serve"
)

// serve-corpus: many small heterogeneous compiles answered over the serve
// wire. lang, frontend, synth, smt, backend, verify and serve do nearly all
// the work; topology-size code does almost none (the testbed has ten
// switches).

// programFS is the benchmark's own copy of the evaluation corpus, so a
// change to testdata/programs cannot silently change the measured inputs.
//
//go:embed testdata/programs/*.lyra
var programFS embed.FS

// corpusEntry is one request of the sweep and its reference answer.
type corpusEntry struct {
	program string
	req     serve.CompileRequest // un-nonced
	refFP   string               // fingerprint of the set-up library compile
	loc     int
	tables  int
}

// scopeShapes are the three deployments every program is compiled for: a
// Tofino ToR, a Trident-4 Agg (so P4 and NPL both come out), and a
// multi-switch placement over both layers.
var scopeShapes = []string{
	"%s: [ ToR1 | PER-SW | - ]\n",
	"%s: [ Agg1 | PER-SW | - ]\n",
	"%s: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n",
}

func loadPrograms() (names []string, sources map[string]string, err error) {
	files, err := programFS.ReadDir("testdata/programs")
	if err != nil {
		return nil, nil, err
	}
	sources = map[string]string{}
	for _, f := range files {
		b, err := programFS.ReadFile(path.Join("testdata/programs", f.Name()))
		if err != nil {
			return nil, nil, err
		}
		name := strings.TrimSuffix(f.Name(), ".lyra")
		names = append(names, name)
		sources[name] = string(b)
	}
	sort.Strings(names)
	return names, sources, nil
}

// buildCorpus is programs x scope shapes x dialects, each compiled once
// through the library (verification on) for its reference fingerprint.
func buildCorpus(small bool) ([]corpusEntry, error) {
	names, sources, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	if small {
		names = names[:3]
	}
	var corpus []corpusEntry
	for _, name := range names {
		src := sources[name]
		prog, err := parser.Parse(name+".lyra", []byte(src))
		if err != nil {
			return nil, err
		}
		for _, shape := range scopeShapes {
			var scope strings.Builder
			for _, a := range prog.Algorithms {
				fmt.Fprintf(&scope, shape, a.Name)
			}
			for _, dialect := range []string{"p4_14", "p4_16"} {
				e := corpusEntry{program: name, req: serve.CompileRequest{
					Source: src, Scope: scope.String(), Topology: "testbed",
					Dialect: dialect, IncludeCode: true,
				}}
				opts := []lyra.Option{lyra.WithParallelism(1)}
				if dialect == "p4_16" {
					opts = append(opts, lyra.WithDialect(lyra.P416))
				}
				res, err := lyra.New(opts...).Compile(context.Background(), src, e.req.Scope, lyra.Testbed())
				if err != nil {
					return nil, fmt.Errorf("reference compile of %s (%s, %s): %w", name, dialect, strings.TrimSpace(e.req.Scope), err)
				}
				if err := allVerified(res); err != nil {
					return nil, fmt.Errorf("reference compile of %s: %w", name, err)
				}
				e.refFP = res.ArtifactFingerprint()
				e.loc, e.tables = counts(res)
				corpus = append(corpus, e)
			}
		}
	}
	return corpus, nil
}

type serveCorpus struct {
	cfg    config
	corpus []corpusEntry
	srv    *serve.Server
	hs     *http.Server
	served chan error // result of hs.Serve
	httpc  *http.Client
	client *serve.Client
	// lastSweep and lastSeq are the index and request order of the most
	// recent sweep, which the cache-hit probe replays.
	lastSweep int
	lastSeq   []int
}

// warmSweeps is how many full sweeps set-up sends before the window opens.
const warmSweeps = 4

func setupServeCorpus(cfg config, m map[string]float64) (instance, error) {
	corpus, err := buildCorpus(cfg.small)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serveCorpus{cfg: cfg, corpus: corpus, served: make(chan error, 1)}
	w.srv = serve.NewServer(serve.Config{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.httpc = &http.Client{Transport: &http.Transport{}}
	w.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: w.httpc}
	for i := -warmSweeps; i < 0; i++ {
		if _, err := w.sweep(i, nil, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	if cfg.corrupt {
		corpus[0].refFP = "corrupt"
	}
	return w, nil
}

// order is sweep i's request order: a permutation drawn from (seed, i).
func (w *serveCorpus) order(i int) []int {
	rng := rand.New(rand.NewSource(w.cfg.seed*1_000_003 + int64(i)))
	return rng.Perm(len(w.corpus))
}

// sweep sends every corpus entry once, in a seeded order, each with a
// nonce comment that makes it a miss in the daemon's artifact cache.
func (w *serveCorpus) sweep(i int, tr *tracer, m map[string]float64) (opOut, error) {
	var out opOut
	w.lastSweep, w.lastSeq = i, w.order(i)
	for _, idx := range w.lastSeq {
		e := &w.corpus[idx]
		req := e.req
		req.Source = nonced(req.Source, w.cfg.seed, i)
		id := tr.begin("serve.roundtrip", i)
		start := time.Now()
		resp, err := w.client.Compile(context.Background(), req)
		out.dur += time.Since(start)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.program, err)
		}
		if err := e.check(resp); err != nil {
			return out, fmt.Errorf("%s (%s): %w", e.program, req.Dialect, err)
		}
		out.units++
		out.loc += e.loc
		out.tables += e.tables
		if tr == nil {
			continue
		}
		tr.note("serve.compile", i, time.Duration(resp.CompileMs*float64(time.Millisecond)))
		st, err := staged(tr, i, stagedIn{
			source: req.Source, sourceName: "serve.lyra", scopeSpec: req.Scope,
			net: lyra.Testbed(), dialect: dialectOf(req.Dialect), parallelism: 1,
		})
		if err != nil {
			return out, fmt.Errorf("%s: staged pipeline: %w", e.program, err)
		}
		for _, sw := range resp.Switches {
			if a := st.arts[sw.Switch]; a == nil || a.Code != sw.Code || len(st.arts) != len(resp.Switches) {
				return out, fmt.Errorf("%s: staged pipeline emitted different code for %s", e.program, sw.Switch)
			}
		}
		planCounters(m, st)
		tr.note("synth.synthesize", i, frontEndProbe(m, st.irp))
	}
	return out, nil
}

func dialectOf(wire string) lyra.Dialect {
	if wire == "p4_16" {
		return lyra.P416
	}
	return lyra.P414
}

// check holds one response against the entry's reference: full service
// (not degraded, not shed), freshly compiled, and byte-identical artifacts.
func (e *corpusEntry) check(resp serve.CompileResponse) error {
	switch {
	case len(resp.Degraded) > 0:
		return fmt.Errorf("degraded response: %v", resp.Degraded)
	case resp.Cached || resp.Deduped:
		return fmt.Errorf("answered from the cache; every request is meant to compile")
	case resp.Fingerprint != e.refFP:
		return fmt.Errorf("fingerprint %s, reference %s", resp.Fingerprint, e.refFP)
	}
	loc, tables := 0, 0
	for _, sw := range resp.Switches {
		loc += sw.LoC
		tables += sw.Tables
		if sw.Code == "" {
			return fmt.Errorf("no code for %s", sw.Switch)
		}
	}
	if loc != e.loc || tables != e.tables {
		return fmt.Errorf("%d lines in %d tables, reference %d in %d", loc, tables, e.loc, e.tables)
	}
	return nil
}

func (w *serveCorpus) op(i int) (opOut, error) { return w.sweep(i, nil, nil) }

func (w *serveCorpus) traced(i int, tr *tracer, m map[string]float64) (opOut, error) {
	return w.sweep(i, tr, m)
}

// probes uses the serve layer the ways the all-miss timed loop does not:
// cache hits, and a tenant session's create / recompile / table stream.
func (w *serveCorpus) probes(m map[string]float64) error {
	ctx := context.Background()
	// Replay the last sweep verbatim: every request is now a cache hit.
	var hitMs, bodyKB []float64
	for _, idx := range w.lastSeq {
		req := w.corpus[idx].req
		req.Source = nonced(req.Source, w.cfg.seed, w.lastSweep)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := w.httpc.Post(w.client.BaseURL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		hitMs = append(hitMs, ms(time.Since(start)))
		if err != nil {
			return err
		}
		var cr serve.CompileResponse
		if err := json.Unmarshal(raw, &cr); err != nil || !cr.Cached {
			return fmt.Errorf("replayed request was not a cache hit (status %d)", resp.StatusCode)
		}
		bodyKB = append(bodyKB, float64(len(raw))/1024)
	}
	m["serve.cache_hit_ms"] = median(hitMs)
	m["serve.response_kb"] = median(bodyKB)

	lb := strings.NewReplacer("5500000", "4096", "1000000", "1024").Replace(lbSource)
	start := time.Now()
	sess, err := w.client.NewSession(ctx, serve.CompileRequest{
		Source: lb, Topology: "testbed",
		Scope: "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
	})
	if err != nil {
		return fmt.Errorf("session create: %w", err)
	}
	m["serve.session_create_ms"] = ms(time.Since(start))
	if len(sess.Compile.Switches) == 0 {
		return fmt.Errorf("session programmed no switch")
	}
	entries := make([]serve.TableEntry, 64)
	for i := range entries {
		entries[i] = serve.TableEntry{Extern: "vip_table", Key: uint64(i), Value: 0xC0A80000 + uint64(i)}
	}
	start = time.Now()
	if n, err := w.client.Tables(ctx, sess.ID, entries); err != nil || n != len(entries) {
		return fmt.Errorf("table stream applied %d of %d: %v", n, len(entries), err)
	}
	m["serve.tables_ms"] = ms(time.Since(start))
	start = time.Now()
	status, err := w.client.Recompile(ctx, sess.ID, []serve.WireEvent{{Kind: "switch-down", Switch: sess.Compile.Switches[0].Switch}})
	if err != nil {
		return fmt.Errorf("session recompile: %w", err)
	}
	m["serve.session_recompile_ms"] = ms(time.Since(start))
	if status.Degraded || status.Fingerprint == sess.Compile.Fingerprint {
		return fmt.Errorf("session recompile left the base plan live: %+v", status)
	}
	if err := w.client.Close(ctx, sess.ID); err != nil {
		return err
	}

	snap, err := w.client.Metrics(ctx)
	if err != nil {
		return err
	}
	m["serve.cache_misses"] = float64(snap.CacheMisses)
	m["serve.cache_hits"] = float64(snap.CacheHits)
	m["serve.shed"] = float64(snap.Shed)
	m["serve.degraded"] = float64(snap.DegradedSkipVerify + snap.DegradedStale)
	return nil
}

// close drains the daemon, stops the listener and waits for both.
func (w *serveCorpus) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Drain(ctx)
	w.hs.Shutdown(ctx)
	<-w.served
	w.httpc.CloseIdleConnections()
}
