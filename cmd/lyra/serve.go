package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"lyra/internal/serve"
)

// serveCmd is "lyra serve": the HTTP+JSON API of internal/serve (compile,
// sessions, fault events, table updates, health, metrics). It drains cleanly
// on SIGINT/SIGTERM: new work is refused with 429/"draining", in-flight work
// finishes, then the process exits. See DESIGN.md "The serve daemon".
func serveCmd(fs *flag.FlagSet) func() error {
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		inflight   = fs.Int("inflight", 0, "max concurrently executing compiles (0 = all CPUs)")
		queue      = fs.Int("queue", 0, "admitted-but-waiting work beyond -inflight (0 = 4x inflight)")
		deadline   = fs.Duration("deadline", 15*time.Second, "default per-request deadline")
		maxDl      = fs.Duration("max-deadline", 60*time.Second, "cap on client-requested deadlines")
		parallel   = fs.Int("parallel", 1, "per-compile worker fan-out")
		cacheN     = fs.Int("cache", 256, "artifact cache entries")
		drainWait  = fs.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		testFaults = fs.Bool("test-faults", false, "honor X-Lyra-Test-* fault-injection headers (testing only)")
	)
	return func() error {
		srv := serve.NewServer(serve.Config{
			MaxInflight:      *inflight,
			QueueDepth:       *queue,
			DefaultDeadline:  *deadline,
			MaxDeadline:      *maxDl,
			Parallelism:      *parallel,
			CacheEntries:     *cacheN,
			EnableTestFaults: *testFaults,
		})
		httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()

		errCh := make(chan error, 1)
		go func() {
			fmt.Printf("lyra serve: listening on %s\n", *addr)
			errCh <- httpSrv.ListenAndServe()
		}()

		select {
		case err := <-errCh:
			return err // listener failed before any signal
		case <-ctx.Done():
		}
		stop()
		fmt.Println("lyra serve: draining")

		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		drainErr := srv.Drain(drainCtx)
		if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
			drainErr = err
		}
		if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && drainErr == nil {
			drainErr = serveErr
		}
		if drainErr == nil {
			fmt.Println("lyra serve: drained cleanly")
		}
		return drainErr
	}
}
