package lyra

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/topo"
	"lyra/internal/verify"
)

// podLB is the load balancer with a connection table too large for one
// switch, so every pod splits it along its Agg->ToR paths: the plan has
// sharded externs, bridged hit signals and, on a uniform fabric, one
// placement component per pod that is a renaming of every other.
const podLB = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[4000000] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[100000] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`

const podScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`

func uniformPods(pods, k int) *Network {
	return topo.MultiPodFatTree(pods, k, func(string, int) *asic.Model { return asic.Tofino32Q })
}

var podSwitch = regexp.MustCompile(`^(?:ToR|Agg)(\d+)_\d+$`)

// podOf returns the pod number in a fat-tree switch name ("Agg12_3" -> 12),
// or 0 for a core switch.
func podOf(sw string) int {
	m := podSwitch.FindStringSubmatch(sw)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// sameAsScratch demands that an incremental result is the deployment a
// from-scratch compile of the same topology produces — every artifact's code,
// control-plane stub and plan fingerprint — and that it is fully verified.
func sameAsScratch(t *testing.T, label string, inc, scratch *Result) {
	t.Helper()
	if !reflect.DeepEqual(inc.Switches(), scratch.Switches()) {
		t.Fatalf("%s: switch sets differ:\n  incremental %v\n  scratch     %v", label, inc.Switches(), scratch.Switches())
	}
	for _, sw := range scratch.Switches() {
		a, b := inc.Artifact(sw), scratch.Artifact(sw)
		if a.Code != b.Code {
			t.Errorf("%s: %s: code differs from a from-scratch compile", label, sw)
		}
		if a.ControlPlane != b.ControlPlane {
			t.Errorf("%s: %s: control-plane stub differs from a from-scratch compile:\n--- incremental\n%s--- scratch\n%s",
				label, sw, a.ControlPlane, b.ControlPlane)
		}
		if inc.Fingerprints[sw] != scratch.Fingerprints[sw] {
			t.Errorf("%s: %s: fingerprint differs from a from-scratch compile", label, sw)
		}
	}
	if len(inc.Reports) != len(inc.Artifacts) {
		t.Fatalf("%s: %d reports for %d artifacts", label, len(inc.Reports), len(inc.Artifacts))
	}
	for i, r := range inc.Reports {
		if r.Switch != inc.Switches()[i] {
			t.Errorf("%s: report %d is for %s, want %s (sorted, one per artifact)", label, i, r.Switch, inc.Switches()[i])
		}
		if !r.OK {
			t.Errorf("%s: %s: verification failed: %v", label, r.Switch, r.Problems)
		}
	}
}

// TestRecompileEqualsFromScratch: whatever the fault, Recompile must hand
// back exactly what compiling the mutated topology from nothing would. The
// degrade row is the stale-artifact regression: shrinking one Agg of pod 1
// re-shards pod 1 only, and a pod-2 stub that listed the whole fabric's
// shards went stale behind an unchanged fingerprint.
func TestRecompileEqualsFromScratch(t *testing.T) {
	ctx := context.Background()
	c := New()
	for _, dim := range [][2]int{{2, 4}, {4, 8}} {
		pods, k := dim[0], dim[1]
		base, err := c.Compile(ctx, podLB, podScope, uniformPods(pods, k))
		if err != nil {
			t.Fatalf("pods=%d k=%d: base compile: %v", pods, k, err)
		}
		for _, ev := range []FaultEvent{
			SwitchDown("ToR1_1"),
			LinkDown("ToR1_2", "Agg1_1"),
			Degrade("Agg1_1", 1, 0.8, 1),
		} {
			label := fmt.Sprintf("pods=%d k=%d %s", pods, k, ev)
			sc := Scenario{Name: ev.String(), Events: []FaultEvent{ev}}
			inc, _, err := c.Recompile(ctx, base, sc)
			if err != nil {
				t.Fatalf("%s: recompile: %v", label, err)
			}
			mutated := uniformPods(pods, k)
			if err := sc.Apply(mutated); err != nil {
				t.Fatal(err)
			}
			scratch, err := c.Compile(ctx, podLB, podScope, mutated)
			if err != nil {
				t.Fatalf("%s: from-scratch compile: %v", label, err)
			}
			sameAsScratch(t, label, inc, scratch)
			// Every fault above is in pod 1: the other pods are bound again
			// to an unchanged template, so each of their switches keeps the
			// base result's artifact — the object itself, not a re-emission.
			for _, sw := range base.Switches() {
				if podOf(sw) != 1 && inc.Artifact(sw) != base.Artifact(sw) {
					t.Errorf("%s: %s: artifact of an untouched pod was not kept", label, sw)
				}
			}
		}
	}
}

// TestRecompileLocality: a fault inside one pod must not reprogram another,
// and a switch-down encodes at most the one component it damaged.
func TestRecompileLocality(t *testing.T) {
	ctx := context.Background()
	c := New()
	base, err := c.Compile(ctx, podLB, podScope, uniformPods(4, 8))
	if err != nil {
		t.Fatalf("base compile: %v", err)
	}
	for pod := 1; pod <= 4; pod++ {
		tor := fmt.Sprintf("ToR%d_%d", pod, pod)
		inc, delta, err := c.Recompile(ctx, base, Scenario{Events: []FaultEvent{SwitchDown(tor)}})
		if err != nil {
			t.Fatalf("switch-down %s: %v", tor, err)
		}
		if n := inc.SolverStats.Encodes; n > 1 {
			t.Errorf("switch-down %s encoded %d components, more than the one it damaged", tor, n)
		}
		if !reflect.DeepEqual(delta.Removed, []string{tor}) {
			t.Errorf("switch-down %s: Removed = %v", tor, delta.Removed)
		}
		if len(delta.Reprogram) == 0 {
			t.Errorf("switch-down %s reprogrammed nothing", tor)
		}
		for _, sw := range delta.Reprogram {
			if podOf(sw) != pod {
				t.Errorf("switch-down %s reprogrammed %s, a switch of another pod", tor, sw)
			}
		}

		agg := fmt.Sprintf("Agg%d_1", pod)
		_, delta, err = c.Recompile(ctx, base, Scenario{Events: []FaultEvent{LinkDown(tor, agg)}})
		if err != nil {
			t.Fatalf("link-down %s-%s: %v", tor, agg, err)
		}
		if len(delta.Removed) != 0 {
			t.Errorf("link-down %s-%s: Removed = %v", tor, agg, delta.Removed)
		}
		for _, sw := range delta.Reprogram {
			if podOf(sw) != pod {
				t.Errorf("link-down %s-%s reprogrammed %s, a switch of another pod", tor, agg, sw)
			}
		}
	}
}

// TestShardStubListsOwnComponent: the shard list of a control-plane stub
// names exactly the ShardCount switches its header line counts, all of them
// in the switch's own placement component (here: its pod), with the entries
// the plan gave them.
func TestShardStubListsOwnComponent(t *testing.T) {
	res, err := New().Compile(context.Background(), podLB, podScope, uniformPods(4, 8))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	head := regexp.MustCompile(`^# (\w+) is split across (\d+) switches:$`)
	row := regexp.MustCompile(`^#   (\S+)\s+holds (\d+) entries$`)
	split := 0
	for _, sw := range res.Switches() {
		lines := strings.Split(res.Artifact(sw).ControlPlane, "\n")
		for i := 0; i < len(lines); i++ {
			m := head.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			split++
			want, _ := strconv.Atoi(m[2])
			listed := 0
			for i+1 < len(lines) {
				r := row.FindStringSubmatch(lines[i+1])
				if r == nil {
					break
				}
				i++
				listed++
				if podOf(r[1]) != podOf(sw) {
					t.Errorf("%s: stub of %s lists %s, a switch of another component", sw, m[1], r[1])
				}
				if n, _ := strconv.ParseInt(r[2], 10, 64); n != res.Shards(m[1])[r[1]] {
					t.Errorf("%s: stub says %s holds %d entries of %s, plan says %d", sw, r[1], n, m[1], res.Shards(m[1])[r[1]])
				}
			}
			if listed != want {
				t.Errorf("%s: stub of %s lists %d hosts under a header counting %d", sw, m[1], listed, want)
			}
		}
	}
	if split == 0 {
		t.Fatal("no split extern in the plan — the test is vacuous")
	}
}

// translateAndVerify runs the two memoised stages on a compiled plan.
func translateAndVerify(t *testing.T, res *Result, d Dialect) (map[string]*Artifact, []Report) {
	t.Helper()
	arts, err := backend.Translate(res.plan, &backend.Options{P4Dialect: d})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return arts, verify.PlanParallel(res.plan, arts, 0)
}

// TestShapeMemoMatchesPerSwitch: emitting and verifying once per plan shape
// must give every switch byte-for-byte the artifact and the report that
// emitting and verifying it on its own gives. A no-op backend.TestMutation
// forces the per-switch path, the same switch the seeded-bug tests rely on.
// Covers every program under testdata/programs in both P4 dialects on the
// testbed (PER-SW on all ToRs and Aggs: four Tofino twins emitting P4, four
// Trident-4 twins emitting NPL) and the sharded load balancer on a
// mixed-chip multi-pod tree.
func TestShapeMemoMatchesPerSwitch(t *testing.T) {
	type input struct {
		name, src, scope string
		net              *Network
	}
	var inputs []input
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.lyra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under testdata/programs: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".lyra")
		src := loadProgram(t, name)
		inputs = append(inputs, input{name, src, perSwitchScope(t, src, "ToR*,Agg*"), Testbed()})
	}
	inputs = append(inputs, input{"pod-lb-mixed-chips", podLB, podScope,
		topo.MultiPodFatTree(4, 4, func(layer string, _ int) *asic.Model {
			if layer == "Agg" {
				return asic.Trident4
			}
			return asic.Tofino32Q
		})})

	shared, npl := 0, 0
	for _, in := range inputs {
		for _, d := range []Dialect{P414, P416} {
			label := fmt.Sprintf("%s/%s", in.name, d)
			res, err := New(WithDialect(d)).Compile(context.Background(), in.src, in.scope, in.net)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			arts, reports := translateAndVerify(t, res, d)
			backend.TestMutation = func(string, *backend.SwitchProgram) {}
			plainArts, plainReports := translateAndVerify(t, res, d)
			backend.TestMutation = nil

			shapes := map[string]bool{}
			for _, sw := range res.Switches() {
				shapes[res.plan.Shape(sw)] = true
			}
			shared += len(arts) - len(shapes)
			if len(arts) != len(plainArts) {
				t.Fatalf("%s: %d artifacts with the memo, %d without", label, len(arts), len(plainArts))
			}
			for sw, want := range plainArts {
				got := arts[sw]
				if got == nil {
					t.Fatalf("%s: %s missing with the memo", label, sw)
				}
				if got.Dialect == "NPL" {
					npl++
				}
				if got.Code != want.Code || got.ControlPlane != want.ControlPlane {
					t.Errorf("%s: %s: text differs between per-shape and per-switch emission", label, sw)
				}
				if got.Dialect != want.Dialect || got.LoC != want.LoC || got.LogicLoC != want.LogicLoC ||
					got.Tables != want.Tables || got.Actions != want.Actions || got.Registers != want.Registers ||
					got.Switch != want.Switch || got.Model != want.Model || got.Alloc != want.Alloc {
					t.Errorf("%s: %s: artifact metadata differs between per-shape and per-switch emission", label, sw)
				}
				// The compile itself went through the memo too.
				if c := res.Artifact(sw); c.Code != want.Code || c.ControlPlane != want.ControlPlane {
					t.Errorf("%s: %s: compiled artifact differs from per-switch emission", label, sw)
				}
			}
			if !reflect.DeepEqual(reports, plainReports) {
				t.Errorf("%s: reports differ between per-shape and per-switch verification:\n  memo  %+v\n  plain %+v",
					label, reports, plainReports)
			}
		}
	}
	if shared == 0 || npl == 0 {
		t.Fatalf("%d switches shared a shape, %d NPL artifacts — the test is vacuous", shared, npl)
	}
}

// TestShapeMemoBypassedUnderMutation: a seeded backend bug changes one
// switch's program without changing its plan shape. If that switch took its
// text from a same-shape twin the bug would vanish from the artifact, so
// translation must emit every switch on its own while a mutation is set.
func TestShapeMemoBypassedUnderMutation(t *testing.T) {
	res, err := New().Compile(context.Background(), podLB, podScope, uniformPods(2, 4))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// The last switch exporting a bridge variable that has a twin earlier in
	// the order: with the memo on it would be instantiated, not emitted.
	seen := map[string]bool{}
	target := ""
	for _, sw := range res.Switches() {
		if seen[res.plan.Shape(sw)] && len(res.plan.BridgesOf(sw)) > 0 {
			target = sw
		}
		seen[res.plan.Shape(sw)] = true
	}
	if target == "" {
		t.Fatal("no exporting switch with a same-shape twin before it")
	}
	backend.TestMutation = func(sw string, sp *backend.SwitchProgram) {
		if sw == target {
			backend.MutationDropExports(sw, sp)
		}
	}
	defer func() { backend.TestMutation = nil }()
	arts, err := backend.Translate(res.plan, nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if arts[target].Code == res.Artifact(target).Code {
		t.Errorf("%s: the seeded bug is invisible in its artifact — it was instantiated from a twin", target)
	}
	for sw, a := range arts {
		if sw != target && a.Code != res.Artifact(sw).Code {
			t.Errorf("%s: code changed although only %s was mutated", sw, target)
		}
	}
}

// deepDigest renders everything reachable from v — through pointers, unexported
// fields, maps in key order — into one hash, so two digests of a value differ
// iff something it reaches was written in between. A pointer met again below
// itself renders as a back-reference.
func deepDigest(v any) string {
	var walk func(h hash.Hash, v reflect.Value, open map[unsafe.Pointer]bool)
	walk = func(h hash.Hash, v reflect.Value, open map[unsafe.Pointer]bool) {
		fmt.Fprintf(h, "%s:", v.Kind())
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				h.Write([]byte("nil"))
			} else if p := v.UnsafePointer(); open[p] {
				h.Write([]byte("back"))
			} else {
				open[p] = true
				walk(h, v.Elem(), open)
				delete(open, p)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(h, v.Elem(), open)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(h, v.Field(i), open)
			}
		case reflect.Slice, reflect.Array:
			fmt.Fprintf(h, "%d[", v.Len())
			for i := 0; i < v.Len(); i++ {
				walk(h, v.Index(i), open)
			}
		case reflect.Map:
			entries := make([]string, 0, v.Len())
			for it := v.MapRange(); it.Next(); {
				sub := sha256.New()
				walk(sub, it.Key(), open)
				walk(sub, it.Value(), open)
				entries = append(entries, string(sub.Sum(nil)))
			}
			sort.Strings(entries)
			fmt.Fprintf(h, "%q", entries)
		case reflect.String:
			fmt.Fprintf(h, "%q", v.String())
		case reflect.Bool:
			fmt.Fprint(h, v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprint(h, v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			fmt.Fprint(h, v.Uint())
		case reflect.Float32, reflect.Float64:
			fmt.Fprint(h, v.Float())
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			fmt.Fprint(h, v.IsNil())
		}
	}
	h := sha256.New()
	walk(h, reflect.ValueOf(v), map[unsafe.Pointer]bool{})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestConcurrentRecompilesShareTwinPlans: a template is shared by reference —
// by every pod bound to it, by the programs built from it, by the simulator,
// and across recompiles through the solver cache's synthesised tables and
// memoised allocations — so it must never be written. The base compile's
// templates are digested, deeply, before and after translating, verifying and
// simulating the plan and two recompiles from that base running at once; under
// -race any write to shared state is a reported race as well. Both recompiles
// must still equal from-scratch compiles.
func TestConcurrentRecompilesShareTwinPlans(t *testing.T) {
	ctx := context.Background()
	c := New()
	base, err := c.Compile(ctx, podLB, podScope, uniformPods(4, 8))
	if err != nil {
		t.Fatalf("base compile: %v", err)
	}
	bindings := base.plan.Bindings()
	if len(bindings) != 4 || base.plan.Replayed != 3 {
		t.Fatalf("%d bindings, %d of them twins; want 4 and 3", len(bindings), base.plan.Replayed)
	}
	digest := func() string {
		var templates []any
		for _, b := range bindings {
			templates = append(templates, b.Template)
		}
		return deepDigest(templates)
	}
	before := digest()
	// The digest must see a write behind a pointer, or the test proves nothing.
	type node struct {
		next *node
		m    map[string][]int
	}
	probe := &node{next: &node{m: map[string][]int{"a": {1}}}}
	probe.next.next = probe
	clean := deepDigest(probe)
	probe.next.m["a"][0] = 2
	if deepDigest(probe) == clean {
		t.Fatal("deepDigest does not see a write into a nested slice")
	}

	translateAndVerify(t, base, P414)
	sim, err := base.Simulate(NewTables())
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if _, err := sim.RunPath([]string{"Agg1_1", "ToR1_1"}, &SimContext{}, NewPacket()); err != nil {
		t.Fatalf("run path: %v", err)
	}

	scs := []Scenario{
		{Name: "a", Events: []FaultEvent{SwitchDown("ToR2_1")}},
		{Name: "b", Events: []FaultEvent{SwitchDown("ToR3_4")}},
	}
	incs := make([]*Result, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			incs[i], _, errs[i] = c.Recompile(ctx, base, scs[i])
		}(i)
	}
	wg.Wait()
	if after := digest(); after != before {
		t.Error("something wrote into a template of the base compile")
	}
	for i, sc := range scs {
		if errs[i] != nil {
			t.Fatalf("%s: recompile: %v", sc.Name, errs[i])
		}
		if incs[i].plan.Replayed == 0 {
			t.Errorf("%s: no pod was bound to a twin's template", sc.Name)
		}
		mutated := uniformPods(4, 8)
		if err := sc.Apply(mutated); err != nil {
			t.Fatal(err)
		}
		scratch, err := c.Compile(ctx, podLB, podScope, mutated)
		if err != nil {
			t.Fatalf("%s: from-scratch compile: %v", sc.Name, err)
		}
		sameAsScratch(t, sc.Name, incs[i], scratch)
	}
}

// TestDeclarationOrderMetamorphic: the order in which a topology's switches
// and links are declared is not part of its meaning. The k=8 fabric rebuilt
// with both inserted in a seeded shuffled order (and every link's endpoints
// possibly swapped) must compile to byte-identical code, control-plane stub
// and fingerprint for every switch name.
func TestDeclarationOrderMetamorphic(t *testing.T) {
	ctx := context.Background()
	c := New()
	ref := uniformPods(8, 8)
	want, err := c.Compile(ctx, podLB, podScope, ref)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		switches := append([]*Switch(nil), ref.Switches...)
		rng.Shuffle(len(switches), func(i, j int) { switches[i], switches[j] = switches[j], switches[i] })
		var links [][2]string
		for _, a := range ref.Names() {
			for _, b := range ref.Neighbors(a) {
				if a < b {
					links = append(links, [2]string{a, b})
				}
			}
		}
		sort.Slice(links, func(i, j int) bool {
			return links[i][0]+"\x00"+links[i][1] < links[j][0]+"\x00"+links[j][1]
		})
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		shuffled := topo.New()
		for _, sw := range switches {
			if _, err := shuffled.AddSwitch(sw.Name, sw.Layer, sw.ASIC); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range links {
			if rng.Intn(2) == 1 {
				l[0], l[1] = l[1], l[0]
			}
			if err := shuffled.AddLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Compile(ctx, podLB, podScope, shuffled)
		if err != nil {
			t.Fatalf("seed %d: compile of the shuffled fabric: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Switches(), want.Switches()) {
			t.Fatalf("seed %d: programmed switches differ:\n  shuffled  %v\n  reference %v", seed, got.Switches(), want.Switches())
		}
		for _, sw := range want.Switches() {
			a, b := got.Artifact(sw), want.Artifact(sw)
			if a.Code != b.Code || a.ControlPlane != b.ControlPlane {
				t.Errorf("seed %d: %s: text depends on declaration order", seed, sw)
			}
			if got.Fingerprints[sw] != want.Fingerprints[sw] {
				t.Errorf("seed %d: %s: fingerprint depends on declaration order", seed, sw)
			}
		}
	}
}

// TestCompileAllocBudget keeps what a full compile allocates proportional to
// what it must hand back, per programmed switch. The load balancer on the k=8
// fabric (8 twin pods, 64 programmed switches) measured 15.3 KB and 166
// mallocs per switch when the budget was set — against 29 KB and 430 before
// twins were bound to templates — most of it the one solved class amortised
// over few switches (at k=32: 11.2 KB and 73). Solver slabs, one PHV pass per
// switch and pooled render buffers took it to 9.7 KB and 84, and a plan kept
// as its bindings, with no name-keyed maps beside them, to 9.0 KB and 82
// (9.1 KB and 83 with path sets marked by switch id). The budget is ~1.3x the
// measurement, so work that creeps back from per class or
// per shape to per pod or per switch fails here rather than in the gate
// benchmark.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	const bytesPerSwitch, mallocsPerSwitch = 11700, 107
	ctx := context.Background()
	c := New(WithParallelism(1))
	net := uniformPods(8, 8)
	res, err := c.Compile(ctx, podLB, podScope, net) // warm-up: lazily built tables of the toolchain
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	switches := uint64(len(res.Artifacts))
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := c.Compile(ctx, podLB, podScope, net); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs / switches
	mallocs := (after.Mallocs - before.Mallocs) / runs / switches
	t.Logf("%d switches: %d bytes, %d mallocs per programmed switch", switches, bytes, mallocs)
	if bytes > bytesPerSwitch {
		t.Errorf("a compile allocates %d bytes per programmed switch, budget %d", bytes, bytesPerSwitch)
	}
	if mallocs > mallocsPerSwitch {
		t.Errorf("a compile makes %d mallocs per programmed switch, budget %d", mallocs, mallocsPerSwitch)
	}
}
