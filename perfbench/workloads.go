package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/job"
	"repro/internal/workloads/graph500"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/isx"
	"repro/internal/workloads/uts"
)

// Every workload runs 2 ranks x 1 runtime worker: no more workers than
// the 2-vCPU hosts the benchmark was sized on have CPUs.
const (
	ranks          = 2
	workersPerRank = 1
)

// sample is the outcome of one solve.
type sample struct {
	wall     time.Duration // the public call, plus building what the benchmark passes in
	solve    time.Duration // the solve time the workload reports
	work     float64       // work units completed
	phases   int           // committed phases (1 for unphased workloads)
	attempts int           // attempted phases (1 for unphased workloads)
	err      error         // the call's error or a failed oracle check
	traced   bool

	// Traced solves only: counters read from public APIs.
	counts map[string]float64
}

// workload is one prepared set of inputs. solve runs solve number i; a
// non-nil rec asks it to decorate whatever transport it builds itself.
type workload interface {
	solve(i int, rec *recorder) sample
	// baseline returns the seconds each of the benchmark's reference
	// computations took while preparing the inputs.
	baseline() []float64
	// describe names the inputs, for the result file.
	describe() string
}

// spec names a workload, its work unit and how to prepare it from a seed.
type spec struct {
	name, unit string
	prepare    func(seed int64) (workload, error)
}

var specs = []spec{
	{"uts", "tree nodes", prepareUTS},
	{"hpgmg", "fine cells x V-cycles", prepareHPGMG},
	{"bfs", "vertices visited", prepareBFS},
	{"isx-supervised", "keys sorted in committed phases", prepareISx},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// mix derives the k-th sub-seed of seed (splitmix64), so every input of a
// run follows from the run's seed alone.
func mix(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// ---------- uts ----------

// UTS geometric tree, linear taper: B0=4, GenMax=15 gives ~135k nodes.
// Trees within utsBand of utsTarget nodes are kept, so the seed picks
// the trees but not the amount of work.
const (
	utsTarget = 135000
	utsBand   = 0.03
	utsPool   = 12
)

type utsLoad struct {
	trees  []uts.TreeConfig
	counts []int64
	secs   []float64
}

func prepareUTS(seed int64) (workload, error) {
	w := &utsLoad{}
	for k := 0; len(w.trees) < utsPool; k++ {
		if k >= 40*utsPool {
			return nil, fmt.Errorf("uts: only %d of %d candidate trees within %.0f%% of %d nodes",
				len(w.trees), k, 100*utsBand, utsTarget)
		}
		t := uts.TreeConfig{B0: 4, GenMax: 15, Seed: mix(seed, k)}
		t0 := time.Now()
		n := uts.CountSequential(t)
		d := time.Since(t0)
		if math.Abs(float64(n-utsTarget)) > utsBand*utsTarget {
			continue
		}
		w.trees = append(w.trees, t)
		w.counts = append(w.counts, n)
		w.secs = append(w.secs, d.Seconds())
	}
	return w, nil
}

func (w *utsLoad) describe() string {
	return fmt.Sprintf("%d trees B0=4 GenMax=15 within %.0f%% of %d nodes; 2 ranks x 1 worker; Network cost",
		len(w.trees), 100*utsBand, utsTarget)
}

func (w *utsLoad) baseline() []float64 { return w.secs }

func (w *utsLoad) solve(i int, _ *recorder) sample {
	k := i % len(w.trees)
	cfg := uts.RunConfig{Tree: w.trees[k], Ranks: ranks, Threads: workersPerRank, Cost: bench.Network()}
	t0 := time.Now()
	res, err := uts.RunHiPER(cfg)
	s := sample{wall: time.Since(t0), solve: res.Elapsed, work: float64(res.Nodes), phases: 1, attempts: 1, err: err}
	if err == nil && res.Nodes != w.counts[k] {
		s.err = fmt.Errorf("uts: tree %d counted %d nodes, sequential count %d", k, res.Nodes, w.counts[k])
	}
	return s
}

// ---------- hpgmg ----------

// hpgmgConfig is the HiPER composition: UPC++ halos plus MPI allreduce.
func hpgmgConfig() hpgmg.Config {
	return hpgmg.Config{N: 32, NZ: 16, Ranks: ranks, Workers: workersPerRank, Cycles: 3, Cost: bench.Network()}
}

// hpgmgRefRuns is how many MPI+OpenMP reference solves set the expected
// residual history (the variants share the multigrid code, so their
// iterates are bit-identical) and the baseline time.
const hpgmgRefRuns = 3

type hpgmgLoad struct {
	want []float64
	secs []float64
}

// prepareHPGMG ignores the seed: the problem (right-hand side, grid) is
// fixed by the size alone.
func prepareHPGMG(int64) (workload, error) {
	w := &hpgmgLoad{}
	for k := 0; k < hpgmgRefRuns; k++ {
		res, err := hpgmg.RunReference(hpgmgConfig())
		if err != nil {
			return nil, fmt.Errorf("hpgmg reference: %w", err)
		}
		w.want = res.Residuals
		w.secs = append(w.secs, res.Elapsed.Seconds())
	}
	return w, nil
}

func (w *hpgmgLoad) describe() string {
	c := hpgmgConfig()
	return fmt.Sprintf("N=%d NZ=%d per rank, %d V-cycles; 2 ranks x 1 worker; Network cost", c.N, c.NZ, c.Cycles)
}

func (w *hpgmgLoad) baseline() []float64 { return w.secs }

func (w *hpgmgLoad) solve(int, *recorder) sample {
	c := hpgmgConfig()
	t0 := time.Now()
	res, err := hpgmg.RunHiPER(c)
	cells := float64(c.N * c.N * c.NZ * c.Ranks * c.Cycles)
	s := sample{wall: time.Since(t0), solve: res.Elapsed, work: cells, phases: 1, attempts: 1, err: err}
	if err == nil {
		s.err = sameResiduals(res.Residuals, w.want)
	}
	return s
}

func sameResiduals(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("hpgmg: %d residuals, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hpgmg: residual %d is %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

// ---------- bfs ----------

// Graph500 Kronecker graphs, scale 14, edge factor 16. The generator
// does not permute vertex ids, so the low power-of-two ids the roots are
// drawn from are hubs of the giant component.
const (
	bfsScale = 14
	bfsPool  = 4
)

type bfsInput struct {
	g       graph500.GraphConfig
	root    int64
	visited int64
	levels  int
}

type bfsLoad struct {
	in   []bfsInput
	secs []float64
}

func prepareBFS(seed int64) (workload, error) { return loadBFS(seed, bfsScale, bfsPool), nil }

func loadBFS(seed int64, scale, pool int) *bfsLoad {
	w := &bfsLoad{}
	for k := 0; k < pool; k++ {
		in := bfsInput{
			g:    graph500.GraphConfig{Scale: scale, EdgeFactor: 16, Seed: mix(seed, 2*k)},
			root: int64(1) << (mix(seed, 2*k+1) % 4),
		}
		t0 := time.Now()
		parent, depth := graph500.SequentialBFS(in.g, in.root)
		w.secs = append(w.secs, time.Since(t0).Seconds())
		var deepest int64
		for v := range parent {
			if parent[v] != -1 {
				in.visited++
				deepest = max(deepest, depth[v])
			}
		}
		in.levels = int(deepest) + 1
		w.in = append(w.in, in)
	}
	return w
}

func (w *bfsLoad) describe() string {
	return fmt.Sprintf("%d graphs scale %d edge factor 16; HiPER shmem_async_when over Virtual(Reliable(Chaos(Sim))), zero cost, zero faults; 2 ranks x 1 worker",
		len(w.in), w.in[0].g.Scale)
}

func (w *bfsLoad) baseline() []float64 { return w.secs }

func (w *bfsLoad) solve(i int, rec *recorder) sample {
	in := w.in[i%len(w.in)]
	t0 := time.Now()
	st := buildStack(ranks, rec)
	res, err := graph500.RunHiPER(graph500.RunConfig{
		Graph: in.g, Root: in.root, Ranks: ranks, Workers: workersPerRank, Transport: st.top,
	})
	s := sample{wall: time.Since(t0), solve: res.Elapsed, work: float64(res.Visited), phases: 1, attempts: 1, err: err}
	if err == nil && (res.Visited != in.visited || res.Levels != in.levels) {
		s.err = fmt.Errorf("bfs: visited %d vertices in %d levels, sequential BFS %d in %d",
			res.Visited, res.Levels, in.visited, in.levels)
	}
	if rec != nil {
		msgs, bytes := st.sim.Stats()
		s.counts = map[string]float64{
			"fabric.sim.msgs":         float64(msgs),
			"fabric.sim.bytes":        float64(bytes),
			"fabric.reliable.retries": float64(st.rel.Retries()),
		}
	}
	return s
}

// ---------- isx-supervised ----------

// Supervised ISx: 2 ranks plus spare endpoints, 5% drop + 5% dup, and a
// seeded kill plan (up to two unscripted kills). The kill and chaos
// seeds change every solve; the key streams come from a small pool
// whose fault-free digests are the oracle.
const (
	isxStreams  = 8
	isxKeys     = 256
	isxPhases   = 4
	isxCapacity = 6
	isxPool     = 4
)

type isxLoad struct {
	seed    int64
	inputs  []int64
	digests [][]uint64
	secs    []float64
}

func isxConfig(input int64) isx.SuperviseConfig {
	return isx.SuperviseConfig{
		Streams: isxStreams, KeysPerStream: isxKeys,
		Ranks: ranks, Capacity: isxCapacity, Phases: isxPhases, Seed: input,
		Rel: fabric.RelConfig{
			RetryBase: 50 * time.Microsecond, RetryCap: 200 * time.Microsecond,
			MaxAttempts: 12, DeathSilence: 100 * time.Millisecond,
		},
		Workers: workersPerRank,
	}
}

func prepareISx(seed int64) (workload, error) {
	w := &isxLoad{seed: seed}
	for k := 0; k < isxPool; k++ {
		input := mix(seed, k) % 1000000
		t0 := time.Now()
		res, err := isx.RunSupervised(isxConfig(input))
		if err != nil {
			return nil, fmt.Errorf("isx fault-free reference: %w", err)
		}
		w.secs = append(w.secs, time.Since(t0).Seconds())
		w.inputs = append(w.inputs, input)
		w.digests = append(w.digests, res.Digests)
	}
	return w, nil
}

func (w *isxLoad) describe() string {
	return fmt.Sprintf("%d key-stream seeds, %d streams x %d keys, %d phases; 2 ranks, capacity %d; drop 5%% dup 5%%; kills Prob 0.9 Max 2",
		len(w.inputs), isxStreams, isxKeys, isxPhases, isxCapacity)
}

func (w *isxLoad) baseline() []float64 { return w.secs }

func (w *isxLoad) solve(i int, rec *recorder) sample {
	k := i % len(w.inputs)
	cfg := isxConfig(w.inputs[k])
	fault := mix(w.seed, 1000+i)
	cfg.Plan = fabric.FaultPlan{Seed: uint64(fault), Drop: 0.05, Dup: 0.05}
	kills := job.KillPlan{Seed: uint64(fault) + 1000, Prob: 0.9, Max: 2}
	// The supervised job starts when its first attempt launches; what
	// precedes it (stack, world, detector baseline) is set-up.
	var first time.Time
	cfg.Inject = func(tab *fabric.EpochTable, kill func(ep int)) func(phase, attempt int) {
		inj := kills.Injector(tab, kill)
		return func(phase, attempt int) {
			if first.IsZero() {
				first = time.Now()
			}
			inj(phase, attempt)
		}
	}
	t0 := time.Now()
	res, err := isx.RunSupervised(cfg)
	end := time.Now()
	s := sample{wall: end.Sub(t0), work: float64(res.TotalKeys), err: err}
	if !first.IsZero() {
		s.solve = end.Sub(first)
	}
	if rep := res.Report; rep != nil {
		s.phases, s.attempts = rep.Phases, rep.Attempts
	}
	if err == nil {
		s.err = sameDigests(res.Digests, w.digests[k])
	}
	if err == nil && s.err == nil && res.TotalKeys != int64(isxPhases*isxStreams*isxKeys) {
		s.err = fmt.Errorf("isx: %d keys sorted, want %d", res.TotalKeys, isxPhases*isxStreams*isxKeys)
	}
	if rec != nil && res.Report != nil {
		s.counts = recoveryCounts(res.Report, res.PhaseTimes)
	}
	return s
}

func sameDigests(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("isx: %d phases committed, fault-free run committed %d", len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			return fmt.Errorf("isx: phase %d digest %#x, fault-free run %#x", p, got[p], want[p])
		}
	}
	return nil
}

// recoveryCounts condenses a RecoveryReport into per-solve sums; the
// traced pass turns them into per-layer rows.
func recoveryCounts(rep *job.RecoveryReport, phases []time.Duration) map[string]float64 {
	c := map[string]float64{
		"job.attempts":               float64(rep.Attempts),
		"job.retries":                float64(rep.Retries),
		"job.remaps":                 float64(rep.Remaps),
		"job.evictions":              float64(rep.Evictions),
		"fabric.detector.detections": float64(len(rep.Detections)),
	}
	for _, d := range rep.Detections {
		c["detect_rounds_sum"] += float64(d.Rounds)
		c["detect_s_sum"] += d.Latency.Seconds()
	}
	for _, r := range rep.Recoveries {
		c["downtime_s_sum"] += r.Downtime.Seconds()
	}
	for _, p := range phases {
		c["phase_s_sum"] += p.Seconds()
	}
	return c
}
