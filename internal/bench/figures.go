package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cuda"
	"repro/internal/simnet"
	"repro/internal/workloads/geo"
	"repro/internal/workloads/graph500"
	"repro/internal/workloads/hpgmg"
	"repro/internal/workloads/isx"
	"repro/internal/workloads/uts"
)

// Scale selects sweep sizes: Quick for unit benches and smoke runs, Full
// for the figure-regeneration binaries.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// Network stands in for the Cray Aries fabrics of Edison/Titan: a few
// microseconds of latency, finite bandwidth, and congestion that punishes
// deep fan-in (the effect behind flat ISx's collapse at scale). The
// window models a NIC absorbing a credit window of in-flight messages
// per service cycle: backlog is charged per excess *window* (see
// CostModel.CongestPenalty), so a single sender's pipelined burst rides
// the window while deep incast still pays the full queueing collapse.
func Network() simnet.CostModel {
	return simnet.CostModel{
		Alpha:          15 * time.Microsecond,
		BytesPerSec:    2e9,
		CongestWindow:  8,
		CongestPenalty: 150 * time.Microsecond,
	}
}

// GPU stands in for Titan's K20X: kernel launch overhead and a PCIe-2
// class link.
func GPU() cuda.Config {
	return cuda.Config{
		SMs:             4,
		LaunchOverhead:  8 * time.Microsecond,
		PCIeBytesPerSec: 5e9,
		MemcpyAlpha:     10 * time.Microsecond,
	}
}

// SlowGPU and SlowNetwork scale the GEO experiment's transfer and message
// latencies into the many-millisecond range, where the host OS timer can
// park concurrent delays instead of spin-serializing them. On single-core
// benchmark hosts this is what lets the overlap the HiPER variant creates
// actually manifest as wall-clock savings, at the cost of an exaggerated
// communication:compute ratio (the paper's was ~2%; see EXPERIMENTS.md).
func SlowGPU() cuda.Config {
	return cuda.Config{
		SMs:             4,
		LaunchOverhead:  8 * time.Microsecond,
		PCIeBytesPerSec: 5e9,
		MemcpyAlpha:     8 * time.Millisecond,
	}
}

// SlowNetwork pairs with SlowGPU for the GEO experiment.
func SlowNetwork() simnet.CostModel {
	return simnet.CostModel{
		Alpha:       8 * time.Millisecond,
		BytesPerSec: 2e9,
	}
}

const (
	warmup  = 1
	repeats = 5 // the paper uses 10; Full sweeps use 10 below
)

func reps(s Scale) (int, int) {
	if s == Full {
		return 1, 10
	}
	return warmup, repeats
}

// Fig4HPGMG regenerates Figure 4: HPGMG-FV weak scaling, reference hybrid
// vs HiPER (expected: comparable performance).
func Fig4HPGMG(w io.Writer, s Scale) *Figure {
	ranksSweep := []int{1, 2, 4, 8}
	n, nz, cycles := 16, 8, 2
	if s == Full {
		ranksSweep = []int{1, 2, 4, 8, 16}
		n, nz, cycles = 32, 16, 3
	}
	wu, rep := reps(s)
	fig := NewFigure("Figure 4: HPGMG-FV weak scaling (lower is better)", "ranks")
	ref := fig.NewSeries("MPI+OMP (reference)")
	hip := fig.NewSeries("HiPER (UPC+++MPI)")
	for _, r := range ranksSweep {
		cfg := hpgmg.Config{N: n, NZ: nz, Ranks: r, Workers: 4, Cycles: cycles, Cost: Network()}
		var want []float64
		ref.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := hpgmg.RunReference(cfg)
			must(err)
			want = res.Residuals
			return res.Elapsed
		}))
		hip.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := hpgmg.RunHiPER(cfg)
			must(err)
			must(sameHistory(r, want, res.Residuals))
			return res.Elapsed
		}))
	}
	if w != nil {
		fig.Render(w)
	}
	return fig
}

// Fig5ISx regenerates Figure 5: ISx weak scaling across flat OpenSHMEM,
// OpenSHMEM+OpenMP, and HiPER AsyncSHMEM (expected: flat fastest at small
// scale, collapsing under the all-to-all at large scale; hybrids
// comparable to each other).
func Fig5ISx(w io.Writer, s Scale) *Figure {
	pesSweep := []int{4, 8, 16, 32}
	keys := 1 << 12
	if s == Full {
		pesSweep = []int{4, 8, 16, 32, 64}
		keys = 1 << 14
	}
	wu, rep := reps(s)
	fig := NewFigure("Figure 5: ISx weak scaling (lower is better)", "PEs")
	flat := fig.NewSeries("Flat OpenSHMEM")
	hyb := fig.NewSeries("OpenSHMEM+OMP")
	hip := fig.NewSeries("HiPER AsyncSHMEM")
	const coresPerNode = 4
	for _, pes := range pesSweep {
		// Flat: one PE per core, coresPerNode PEs share a node, so much of
		// the all-to-all rides the cheap shared-memory transport — until
		// the inter-node message count (R²-ish) collapses under congestion.
		flatCost := Network()
		flatCost.RanksPerNode = coresPerNode
		flatCost.LocalAlpha = time.Microsecond
		flatCost.LocalBytesPerSec = 10e9
		flatCfg := isx.Config{PEs: pes, Threads: coresPerNode, KeysPerPE: keys, Cost: flatCost, Seed: 42}
		// Hybrids: one rank per node; every message is inter-node, but
		// there are (R/threads)² of them instead of R².
		hybCfg := isx.Config{PEs: pes, Threads: coresPerNode, KeysPerPE: keys, Cost: Network(), Seed: 42}
		flat.Add(pes, Measure(wu, rep, func() time.Duration {
			res, err := isx.RunFlat(flatCfg)
			must(err)
			return res.Elapsed
		}))
		hyb.Add(pes, Measure(wu, rep, func() time.Duration {
			res, err := isx.RunHybridOMP(hybCfg)
			must(err)
			return res.Elapsed
		}))
		hip.Add(pes, Measure(wu, rep, func() time.Duration {
			res, err := isx.RunHiPER(hybCfg)
			must(err)
			return res.Elapsed
		}))
	}
	if w != nil {
		fig.Render(w)
	}
	return fig
}

// Fig6GEO regenerates Figure 6: GEO weak scaling, blocking MPI+CUDA vs
// future-based HiPER (expected: HiPER consistently a few percent faster by
// eliminating blocking CUDA operations).
func Fig6GEO(w io.Writer, s Scale) *Figure {
	ranksSweep := []int{1, 2, 4, 8}
	nx, nz, steps := 64, 24, 3
	if s == Full {
		ranksSweep = []int{1, 2, 4, 8, 16}
		nx, nz, steps = 64, 32, 5
	}
	wu, rep := reps(s)
	fig := NewFigure("Figure 6: GEO weak scaling (lower is better)", "ranks")
	ref := fig.NewSeries("MPI+CUDA (blocking)")
	hip := fig.NewSeries("HiPER (futures)")
	for _, r := range ranksSweep {
		cfg := geo.Config{NX: nx, NY: nx, NZ: nz, Steps: steps, Ranks: r, Workers: 4,
			Cost: SlowNetwork(), GPU: SlowGPU(), Seed: 11, PollInterval: 2 * time.Microsecond}
		ref.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := geo.RunMPICUDA(cfg)
			must(err)
			return res.Elapsed
		}))
		hip.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := geo.RunHiPER(cfg)
			must(err)
			return res.Elapsed
		}))
	}
	if w != nil {
		fig.Render(w)
	}
	return fig
}

// Fig7UTS regenerates Figure 7: UTS strong scaling across
// OpenSHMEM+OpenMP, OpenSHMEM+OpenMP Tasks, and HiPER AsyncSHMEM
// (expected: AsyncSHMEM best, Tasks worst due to coarse-grain region
// synchronization).
func Fig7UTS(w io.Writer, s Scale) *Figure {
	ranksSweep := []int{2, 4, 8}
	tree := uts.TreeConfig{B0: 4, GenMax: 11, Seed: 19}
	if s == Full {
		ranksSweep = []int{2, 4, 8, 16}
		tree = uts.DefaultTree
	}
	wu, rep := reps(s)
	fig := NewFigure("Figure 7: UTS strong scaling (lower is better)", "ranks")
	omp := fig.NewSeries("OpenSHMEM+OMP")
	tasks := fig.NewSeries("OpenSHMEM+OMP Tasks")
	hip := fig.NewSeries("HiPER AsyncSHMEM")
	for _, r := range ranksSweep {
		cfg := uts.RunConfig{Tree: tree, Ranks: r, Threads: 4, Cost: Network()}
		omp.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := uts.RunSHMEMOMP(cfg)
			must(err)
			return res.Elapsed
		}))
		tasks.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := uts.RunSHMEMOMPTasks(cfg)
			must(err)
			return res.Elapsed
		}))
		hip.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := uts.RunHiPER(cfg)
			must(err)
			return res.Elapsed
		}))
	}
	if w != nil {
		fig.Render(w)
	}
	return fig
}

// Graph500Study regenerates the Section III-C2 comparison: the polling
// reference BFS vs the HiPER shmem_async_when version (expected: similar
// performance — the win is programmability — with polling overhead removed
// from the application).
func Graph500Study(w io.Writer, s Scale) *Figure {
	ranksSweep := []int{1, 2, 4, 8}
	g := graph500.GraphConfig{Scale: 10, EdgeFactor: 16, Seed: 5}
	if s == Full {
		ranksSweep = []int{1, 2, 4, 8, 16}
		g = graph500.DefaultGraph
	}
	wu, rep := reps(s)
	fig := NewFigure("Graph500 BFS strong scaling (lower is better)", "ranks")
	ref := fig.NewSeries("Reference (polling)")
	hip := fig.NewSeries("HiPER shmem_async_when")
	for _, r := range ranksSweep {
		cfg := graph500.RunConfig{Graph: g, Root: 1, Ranks: r, Workers: 4, Cost: Network()}
		ref.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := graph500.RunReference(cfg)
			must(err)
			return res.Elapsed
		}))
		hip.Add(r, Measure(wu, rep, func() time.Duration {
			res, err := graph500.RunHiPER(cfg)
			must(err)
			return res.Elapsed
		}))
	}
	if w != nil {
		fig.Render(w)
	}
	return fig
}

// sameHistory is E1's oracle: the HiPER variant computes the reference's
// iterates, so its residual history must match bit for bit.
func sameHistory(ranks int, want, got []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("fig4: %d ranks: HiPER history has %d residuals, reference %d", ranks, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("fig4: %d ranks: HiPER residual %d is %v, reference %v", ranks, i, got[i], want[i])
		}
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
