package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/workloads/graph500"
)

// spanTotals checks the nesting identity the per-layer rows rest on: the
// self times of all spans add up exactly to the time root spans cover.
func spanTotals(t *testing.T, rec *recorder) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var self int64
	for _, v := range rec.busy {
		self += v
	}
	for _, v := range rec.wait {
		self += v
	}
	if self != rec.rootNs {
		t.Errorf("self times sum to %dns, root spans cover %dns", self, rec.rootNs)
	}
	if len(rec.stacks) != 0 {
		t.Errorf("%d goroutines still have open spans", len(rec.stacks))
	}
}

func TestDecoratedBFSPassesValidateTree(t *testing.T) {
	w := loadBFS(7, 10, 1)
	rec := newRecorder(time.Now(), nil)
	s := w.solve(0, rec)
	if s.err != nil {
		t.Fatalf("decorated solve failed: %v", s.err)
	}
	in := w.in[0]
	parent, _ := graph500.SequentialBFS(in.g, in.root)
	var visited int64
	for _, p := range parent {
		if p != -1 {
			visited++
		}
	}
	if int64(s.work) != visited {
		t.Errorf("visited %v vertices, sequential BFS %d", s.work, visited)
	}
	for _, l := range stackLayers {
		if rec.ops[l+".Put"]+rec.ops[l+".Send"] == 0 {
			t.Errorf("no traffic recorded at the %s rung: %v", l, rec.ops)
		}
	}
	if s.counts["fabric.sim.msgs"] == 0 {
		t.Errorf("no Sim messages counted: %v", s.counts)
	}
	spanTotals(t, rec)
}

func TestUntracedStackHasNoRungs(t *testing.T) {
	st := buildStack(2, nil)
	if len(st.rungs) != 0 {
		t.Fatalf("untraced stack built %d rung wrappers", len(st.rungs))
	}
	if _, ok := st.top.(*fabric.Virtual); !ok {
		t.Fatalf("untraced stack top is %T, want *fabric.Virtual", st.top)
	}
	if st := buildStack(2, newRecorder(time.Now(), nil)); len(st.rungs) != len(stackLayers) {
		t.Fatalf("traced stack built %d rungs, want %d", len(st.rungs), len(stackLayers))
	}
}

func TestRungCompletionsFireOnce(t *testing.T) {
	rec := newRecorder(time.Now(), nil)
	st := buildStack(2, rec)
	const ops = 400
	var applied, done [2 * ops]atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2 * ops)
	for i := 0; i < ops; i++ {
		put, get := i, ops+i
		st.top.Put(0, 1, 64, func() { applied[put].Add(1) }, func() { done[put].Add(1); wg.Done() })
		st.top.Get(1, 0, 64, func() { applied[get].Add(1) }, func() { done[get].Add(1); wg.Done() })
	}
	st.top.Put(0, 1, 8, nil, nil) // nil callbacks stay legal through the rungs
	wg.Wait()
	for i := range done {
		if a, d := applied[i].Load(), done[i].Load(); a != 1 || d != 1 {
			t.Fatalf("op %d: apply ran %d times, onDone %d times", i, a, d)
		}
	}
	rec.mu.Lock()
	lat := len(rec.opLat)
	rec.mu.Unlock()
	if lat != 2*ops+1 {
		t.Errorf("top boundary timed %d completions, want %d", lat, 2*ops+1)
	}
	spanTotals(t, rec)
}

func TestRungPreservesLinkFIFO(t *testing.T) {
	rec := newRecorder(time.Now(), nil)
	st := buildStack(2, rec)
	const msgs = 500
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				st.top.Send(src, 1-src, 3, []byte{byte(i), byte(i >> 8)})
			}
		}(src)
	}
	for dst := 0; dst < 2; dst++ {
		for i := 0; i < msgs; i++ {
			m := st.top.Recv(dst, 1-dst, 3)
			if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
				t.Fatalf("link %d->%d delivered message %d at position %d", 1-dst, dst, got, i)
			}
		}
	}
	wg.Wait()
	spanTotals(t, rec)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.wait["reliable"] == 0 {
		t.Errorf("blocking receives recorded no wait time: %v", rec.wait)
	}
}

func TestChromeTraceValidates(t *testing.T) {
	log := newChromeLog(1 << 20)
	m := newMeter(time.Now())
	m.log = log
	s := m.solve(loadBFS(3, 10, 1), 0)
	if s.err != nil {
		t.Fatal(s.err)
	}
	data, err := log.encode()
	if err != nil {
		t.Fatalf("chrome trace rejected: %v", err)
	}
	for _, name := range []string{`"virtual.Put"`, `"reliable.Put"`, `"chaos.Send"`, `"sim.Send"`, `"solve 0"`} {
		if !strings.Contains(string(data), name) {
			t.Errorf("chrome trace has no %s slice", name)
		}
	}
}

func TestChromeLogCapKeepsSlicesBalanced(t *testing.T) {
	log := newChromeLog(3)
	rec := newRecorder(time.Now(), log)
	st := buildStack(2, rec)
	for i := 0; i < 10; i++ {
		st.top.Put(0, 1, 8, nil, nil)
	}
	if log.capped == 0 {
		t.Fatal("cap of 3 spans never reached")
	}
	if _, err := log.encode(); err != nil {
		t.Fatalf("capped trace rejected: %v", err)
	}
}

// wrongSizeBFS hands graph500 a transport sized for three ranks while
// asking for two. RunHiPER does not check the size; its barriers wait
// for a third rank forever, so the solve must end as a timed-out
// failure.
type wrongSizeBFS struct{ bfsLoad }

func (w *wrongSizeBFS) solve(i int, _ *recorder) sample {
	in := w.in[0]
	t0 := time.Now()
	res, err := graph500.RunHiPER(graph500.RunConfig{Graph: in.g, Root: in.root, Ranks: ranks,
		Workers: workersPerRank, Transport: fabric.NewSim(ranks+1, fabric.CostModel{})})
	return sample{wall: time.Since(t0), solve: res.Elapsed, phases: 1, attempts: 1, err: err}
}

// flaky fails every other solve with an oracle verdict.
type flaky struct{ n int }

func (f *flaky) solve(i int, _ *recorder) sample {
	f.n++
	s := sample{wall: 2 * time.Millisecond, solve: time.Millisecond, work: 1, phases: 1, attempts: 1}
	if i%2 == 1 {
		s.err = errors.New("oracle: wrong answer")
	}
	return s
}
func (f *flaky) baseline() []float64 { return []float64{0.001} }
func (f *flaky) describe() string    { return "flaky" }

func TestFailedSolvesAreCountedNotDropped(t *testing.T) {
	f := &flaky{}
	sp := spec{name: "flaky", prepare: func(int64) (workload, error) { return f, nil }}
	res, err := run(sp, options{seconds: 0.01, out: t.TempDir(), timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != f.n || res.Attempted < minSolves {
		t.Fatalf("attempted %d, solves run %d", res.Attempted, f.n)
	}
	if want := res.Attempted / 2; res.Failed != want || res.correct() {
		t.Fatalf("failed %d of %d (correct=%v), want %d failures", res.Failed, res.Attempted, res.correct(), want)
	}
	if got, want := res.Metrics["ok_ratio"].Value, float64(res.Attempted-res.Failed)/float64(res.Attempted); got != want {
		t.Errorf("ok_ratio %v, want %v", got, want)
	}
	for _, v := range res.Solves {
		if !v.OK && v.Err != "oracle: wrong answer" {
			t.Errorf("solve %d lost its error text: %q", v.Solve, v.Err)
		}
	}
}

func TestWrongSizeTransportIsAFailedSolve(t *testing.T) {
	w := &wrongSizeBFS{*loadBFS(5, 8, 1)}
	sp := spec{name: "bfs-wrong-size", prepare: func(int64) (workload, error) { return w, nil }}
	res, err := run(sp, options{seconds: 0.01, out: t.TempDir(), timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 1 || res.Failed != 1 || res.correct() || len(res.Problems) == 0 {
		t.Fatalf("wrong-size solve: attempted %d, failed %d, problems %q", res.Attempted, res.Failed, res.Problems)
	}
	if res.Metrics["ok_ratio"].Value != 0 {
		t.Errorf("ok_ratio %v, want 0", res.Metrics["ok_ratio"].Value)
	}
}

func TestTailHasTenSamplesAbove(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i)
	}
	v, pct := tail(xs)
	if v != 89 || pct != 90 {
		t.Fatalf("tail = %v at p%v, want 89 at p90", v, pct)
	}
	if v, _ := tail([]float64{3, 1, 2}); v != 3 {
		t.Fatalf("tail of 3 samples = %v, want the maximum", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	buckets := []float64{0, 1, 2, 4}
	counts := []uint64{0, 10, 10}
	if q := histQuantile(buckets, counts, 0.75); q != 3 {
		t.Fatalf("q75 = %v, want 3", q)
	}
	if q := histQuantile(buckets, []uint64{0, 0, 0}, 0.9); q != 0 {
		t.Fatalf("empty histogram q90 = %v", q)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// tables the program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v listed, %+v reported", i, m, d)
		}
	}
	defs := perLayerDefs()
	if len(b.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(b.PerLayer), len(defs))
	}
	for i, m := range b.PerLayer {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v listed, %+v reported", i, m, d)
		}
	}
}
