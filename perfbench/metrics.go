package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// def declares one metric as BENCHMARK.json lists it.
type def struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndDefs are reported by untraced runs of every workload.
var endToEndDefs = []def{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"work_per_s", "units/s", "higher", 0.25},
	{"ok_ratio", "ratio", "higher", 0.05},
	{"completed_work_ratio", "ratio", "higher", 0.05},
	{"retained_mb", "MiB", "lower", 0.15},
}

// moduleAPIs are the stats.Track keys ("module.api") the traced pass
// reports, each as calls per solve and as a share of rank time.
var moduleAPIs = []string{
	"shmem.shmem_get",
	"shmem.shmem_set_lock",
	"shmem.shmem_put",
	"shmem.shmem_atomic_add",
	"shmem.shmem_barrier_all",
	"shmem.shmem_async_when",
	"upcxx.rput",
	"mpi.MPI_Allreduce",
	"ckpt.checkpoint_async",
	"ckpt.restore",
}

// moduleLayer maps a stats module name to the repository module that
// records it.
var moduleLayer = map[string]string{
	"shmem": "hipershmem",
	"upcxx": "hiperupcxx",
	"mpi":   "hipermpi",
	"ckpt":  "hiperckpt",
}

// perLayerDefs are reported by traced runs of every workload. Rows of a
// layer a workload does not exercise read 0; none of them is a time,
// so every time-valued row is measured on every workload.
func perLayerDefs() []def {
	var ds []def
	add := func(name, unit string) { ds = append(ds, def{name: name, unit: unit, better: betterOf(name)}) }
	for _, l := range stackLayers {
		add("fabric."+l+".pingpong_ns", "ns")
		add("fabric."+l+".pingpong_allocs", "allocs/op")
	}
	add("core.spawn_ns", "ns")
	add("core.spawn_allocs", "allocs/op")
	add("core.future_wait_ns", "ns")
	add("deque.push_pop_ns", "ns")
	for _, l := range stackLayers {
		add("fabric."+l+".ops", "count")
		add("fabric."+l+".self_frac", "ratio")
	}
	add("fabric.upcall_frac", "ratio")
	add("fabric.recv_wait_frac", "ratio")
	add("fabric.top_frac", "ratio")
	add("fabric.op_wait_frac", "ratio")
	add("fabric.reliable.frames_per_op", "ratio")
	add("fabric.reliable.retries", "count")
	add("fabric.reliable.useful_frac", "ratio")
	add("fabric.sim.msgs", "count")
	add("fabric.sim.bytes", "B")
	add("fabric.detector.detections", "count")
	add("fabric.detector.rounds", "count")
	add("fabric.detector.detect_frac", "ratio")
	add("job.attempts", "count")
	add("job.retries", "count")
	add("job.remaps", "count")
	add("job.evictions", "count")
	add("job.downtime_frac", "ratio")
	add("job.commit_frac", "ratio")
	for _, k := range moduleAPIs {
		add(moduleMetric(k)+".calls", "count")
		add(moduleMetric(k)+".frac", "ratio")
	}
	for _, mod := range []string{"hipershmem", "hiperupcxx", "hipermpi", "hiperckpt"} {
		add(mod+".frac", "ratio")
	}
	add("proc.cpu_util", "ratio")
	add("proc.peak_rss_mb", "MiB")
	add("go.gc_cpu_frac", "ratio")
	add("go.alloc_bytes_per_solve", "B")
	add("go.sched_latency_p90_s", "s")
	add("workloads.baseline_s", "s")
	add("bench.solve_tail_s", "s")
	add("bench.trace_overhead", "ratio")
	return ds
}

// betterOf gives a per-layer row's direction: fewer wasted frames,
// retries and recoveries are better, more useful work is.
func betterOf(name string) string {
	switch name {
	case "fabric.reliable.useful_frac", "job.commit_frac", "proc.cpu_util":
		return "higher"
	}
	return "lower"
}

// moduleMetric renames a stats key ("shmem.shmem_get") to its layer
// ("hipershmem.shmem_get").
func moduleMetric(key string) string {
	mod, api, _ := strings.Cut(key, ".")
	return moduleLayer[mod] + "." + api
}

// memory is what the run measured of the process's memory over its
// first memSolves solves.
type memory struct {
	retained float64 // live heap after a full GC, MiB
	peakRSS  float64 // resident high-water mark, MiB
}

// endToEnd computes the untraced run's metrics over its successful
// solves; failures are counted in ok_ratio and the result line.
func endToEnd(ss []sample, mem memory) map[string]metric {
	var solve, setup, rate []float64
	var phases, attempts, ok int
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		ok++
		solve = append(solve, s.solve.Seconds())
		setup = append(setup, (s.wall - s.solve).Seconds())
		rate = append(rate, s.work/s.solve.Seconds())
		phases += s.phases
		attempts += s.attempts
	}
	out := map[string]metric{}
	put := func(name string, v float64, n int) {
		out[name] = metric{Value: v, Unit: unitOf(endToEndDefs, name), Samples: n}
	}
	put("setup_s", median(setup), len(setup))
	put("solve_s", median(solve), len(solve))
	put("work_per_s", median(rate), len(rate))
	put("ok_ratio", ratio(float64(ok), float64(len(ss))), len(ss))
	put("completed_work_ratio", ratio(float64(phases), float64(attempts)), ok)
	put("retained_mb", mem.retained, min(len(ss), memSolves))
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func unitOf(ds []def, name string) string {
	for _, d := range ds {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// meter runs the traced solves and sums what they measured.
type meter struct {
	epoch  time.Time
	log    *chromeLog
	ladder map[string]float64
	spans  int // traced solves whose spans still go to the chrome log

	n                       int // successful traced solves
	solveS, wallS, cpuS     float64
	gcCPU, totalCPU, allocB float64
	sched                   []uint64
	buckets                 []float64
	counts                  map[string]float64
	calls, apiS             map[string]float64 // stats key -> calls, seconds
	busy, wait, ops         map[string]float64 // from the rung recorders
	rootS                   float64
	opLat                   []float64
}

// chromeSpanSolves is how many traced solves keep their rung spans in the
// chrome trace; every traced solve keeps its solve slice.
const chromeSpanSolves = 2

func newMeter(epoch time.Time) *meter {
	return &meter{
		epoch: epoch, log: newChromeLog(400000), spans: chromeSpanSolves,
		counts: map[string]float64{}, calls: map[string]float64{}, apiS: map[string]float64{},
		busy: map[string]float64{}, wait: map[string]float64{}, ops: map[string]float64{},
	}
}

func statsByKey() map[string]stats.Entry {
	m := map[string]stats.Entry{}
	for _, e := range stats.Snapshot() {
		m[e.Module+"."+e.API] = e
	}
	return m
}

// solve runs one traced solve, reading public counters around it.
func (m *meter) solve(w workload, i int) sample {
	var log *chromeLog
	if m.spans > 0 {
		log = m.log
		m.spans--
	}
	rec := newRecorder(m.epoch, log)
	st0, g0, c0 := statsByKey(), readGo(), cpuTime()
	start := time.Since(m.epoch)
	s := w.solve(i, rec)
	end := time.Since(m.epoch)
	c1, g1, st1 := cpuTime(), readGo(), statsByKey()
	s.traced = true
	m.log.slice(fmt.Sprintf("solve %d", i), int64(start), int64(end),
		map[string]any{"traced": true, "solve_s": s.solve.Seconds(), "ok": s.err == nil})
	if s.err != nil {
		return s
	}
	m.n++
	m.solveS += s.solve.Seconds()
	m.wallS += s.wall.Seconds()
	m.cpuS += (c1 - c0).Seconds()
	m.gcCPU += g1.gcCPU - g0.gcCPU
	m.totalCPU += g1.totalCPU - g0.totalCPU
	m.allocB += g1.allocBytes - g0.allocBytes
	d := schedCounts(g0, g1)
	if m.sched == nil {
		m.sched, m.buckets = make([]uint64, len(d)), g1.sched.Buckets
	}
	for k := range d {
		m.sched[k] += d[k]
	}
	for k, v := range s.counts {
		m.counts[k] += v
	}
	for k, e := range st1 {
		m.calls[k] += float64(e.Calls - st0[k].Calls)
		m.apiS[k] += (e.Time - st0[k].Time).Seconds()
	}
	rec.mu.Lock()
	for k, v := range rec.busy {
		m.busy[k] += float64(v) / 1e9
	}
	for k, v := range rec.wait {
		m.wait[k] += float64(v) / 1e9
	}
	for k, v := range rec.ops {
		m.ops[k] += float64(v)
	}
	m.rootS += float64(rec.rootNs) / 1e9
	for _, ns := range rec.opLat {
		m.opLat = append(m.opLat, float64(ns)/1e9)
	}
	rec.mu.Unlock()
	return s
}

// perLayer turns the sums into the per-layer rows.
func (m *meter) perLayer(ss []sample, baseline []float64, mem memory) map[string]metric {
	defs := perLayerDefs()
	out := map[string]metric{}
	put := func(name string, v float64, n int) {
		out[name] = metric{Value: v, Unit: unitOf(defs, name), Samples: n}
	}
	for name, v := range m.ladder {
		put(name, v, ladderRepeats)
	}
	n := float64(m.n)
	perSolve := func(v float64) float64 { return ratio(v, n) }
	rankS := m.solveS * ranks // rank-seconds of solving: the *_frac denominator

	var waitS float64
	for _, l := range stackLayers {
		var ops float64
		for _, op := range []string{"Send", "Recv", "RecvAsync", "TryRecv", "Probe", "Put", "Get"} {
			ops += m.ops[l+"."+op]
		}
		put("fabric."+l+".ops", perSolve(ops), m.n)
		put("fabric."+l+".self_frac", ratio(m.busy[l], rankS), m.n)
		waitS += m.wait[l]
	}
	put("fabric.upcall_frac", ratio(m.busy["app"], rankS), m.n)
	put("fabric.recv_wait_frac", ratio(waitS, rankS), m.n)
	put("fabric.top_frac", ratio(m.rootS, rankS), m.n)
	var latS float64
	for _, l := range m.opLat {
		latS += l
	}
	put("fabric.op_wait_frac", ratio(latS, rankS), len(m.opLat))
	frames := m.ops["chaos.Send"]
	relOps := m.ops["reliable.Send"] + m.ops["reliable.Put"] + m.ops["reliable.Get"]
	retries := m.counts["fabric.reliable.retries"]
	put("fabric.reliable.frames_per_op", ratio(frames, relOps), m.n)
	put("fabric.reliable.retries", perSolve(retries), m.n)
	useful := 1.0
	if frames > 0 {
		useful = 1 - retries/frames
	}
	put("fabric.reliable.useful_frac", useful, m.n)
	put("fabric.sim.msgs", perSolve(m.counts["fabric.sim.msgs"]), m.n)
	put("fabric.sim.bytes", perSolve(m.counts["fabric.sim.bytes"]), m.n)

	dets := m.counts["fabric.detector.detections"]
	put("fabric.detector.detections", perSolve(dets), m.n)
	put("fabric.detector.rounds", ratio(m.counts["detect_rounds_sum"], dets), int(dets))
	put("fabric.detector.detect_frac", ratio(m.counts["detect_s_sum"], m.counts["downtime_s_sum"]), int(dets))
	for _, k := range []string{"job.attempts", "job.retries", "job.remaps", "job.evictions"} {
		put(k, perSolve(m.counts[k]), m.n)
	}
	put("job.downtime_frac", ratio(m.counts["downtime_s_sum"], m.solveS), m.n)
	put("job.commit_frac", ratio(m.counts["phase_s_sum"], m.solveS), m.n)

	modS := map[string]float64{}
	for k, v := range m.apiS {
		mod, _, _ := strings.Cut(k, ".")
		if layer, ok := moduleLayer[mod]; ok {
			modS[layer] += v
		}
	}
	for _, k := range moduleAPIs {
		put(moduleMetric(k)+".calls", perSolve(m.calls[k]), m.n)
		put(moduleMetric(k)+".frac", ratio(m.apiS[k], rankS), m.n)
	}
	for _, layer := range moduleLayer {
		put(layer+".frac", ratio(modS[layer], rankS), m.n)
	}

	put("proc.cpu_util", ratio(m.cpuS, m.wallS*ranks*workersPerRank), m.n)
	put("proc.peak_rss_mb", mem.peakRSS, min(len(ss), memSolves))
	put("go.gc_cpu_frac", ratio(m.gcCPU, m.totalCPU), m.n)
	put("go.alloc_bytes_per_solve", perSolve(m.allocB), m.n)
	put("go.sched_latency_p90_s", histQuantile(m.buckets, m.sched, 0.9), m.n)
	put("workloads.baseline_s", median(baseline), len(baseline))

	var traced, untraced []float64
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		if s.traced {
			traced = append(traced, s.solve.Seconds())
		} else {
			untraced = append(untraced, s.solve.Seconds())
		}
	}
	tv, pct := tail(untraced)
	put("bench.solve_tail_s", tv, len(untraced))
	fmt.Printf("solve tail: p%.0f of %d untraced solves\n", pct, len(untraced))
	put("bench.trace_overhead", ratio(median(traced), median(untraced)), len(traced))

	if len(m.opLat) > 0 {
		fmt.Printf("top-boundary op latency: p50 %.3gs p90 %.3gs over %d ops\n",
			percentile(m.opLat, 50), percentile(m.opLat, 90), len(m.opLat))
	}
	var selfS float64
	for _, v := range m.busy {
		selfS += v
	}
	if m.rootS > 0 {
		fmt.Printf("fabric spans: root %.4fs = self %.4fs + wait %.4fs\n", m.rootS, selfS, waitS)
	}
	return out
}
