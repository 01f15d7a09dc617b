package hpgmg

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/hipermpi"
	"repro/internal/hiperupcxx"
	"repro/internal/job"
	"repro/internal/modules"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/simnet"
	"repro/internal/upcxx"
)

// Smoother sweep counts: V(2,2) cycles with a heavily-smoothed coarsest
// level standing in for a direct bottom solve.
const (
	nu1          = 2
	nu2          = 2
	coarseSweeps = 24
)

// Config parameterizes a run. Weak scaling: every rank owns NZ planes of
// N×N cells ("target boxes per rank" in the paper maps to the slab size).
type Config struct {
	N       int // nx = ny
	NZ      int // planes per rank (fine level)
	Ranks   int
	Workers int
	Cycles  int
	Cost    simnet.CostModel
	// Policy selects the HiPER variant's scheduling policy (nil keeps the
	// built-in random-steal). The MPI+OMP reference ignores it.
	Policy core.SchedPolicy
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 16
	}
	if c.NZ == 0 {
		c.NZ = 8
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Cycles == 0 {
		c.Cycles = 3
	}
	return c
}

// Result reports one run.
type Result struct {
	Variant   string
	Ranks     int
	Elapsed   time.Duration
	Residuals []float64 // residual L2 norm after each V-cycle (index 0 = initial)
}

// engine abstracts what differs between the reference hybrid and the
// HiPER variant: ghost exchange, intra-rank parallel plane loops, and the
// global reduction. The multigrid algorithm itself is shared, so the two
// variants compute bit-identical iterates.
type engine interface {
	exchange(c *core.Ctx, li int, l *level, arr []float64)
	planes(c *core.Ctx, l *level, fn func(z int))
	allreduceSum(c *core.Ctx, v float64) float64
}

// haloFill refreshes arr's ghost layer: neighbour planes via the engine's
// exchange, then the odd Dirichlet reflection on global boundary faces.
func haloFill(c *core.Ctx, e engine, li int, l *level, arr []float64) {
	e.exchange(c, li, l, arr)
	l.reflectGhosts(arr)
}

// smooth performs one weighted-Jacobi sweep with a fresh halo.
func smooth(c *core.Ctx, e engine, li int, l *level) {
	haloFill(c, e, li, l, l.u)
	e.planes(c, l, l.smoothPlane)
	e.planes(c, l, l.commitSmoothPlane)
}

// vcycle runs one V-cycle rooted at level li.
func vcycle(c *core.Ctx, e engine, levels []*level, li int) {
	l := levels[li]
	if li == len(levels)-1 {
		for s := 0; s < coarseSweeps; s++ {
			smooth(c, e, li, l)
		}
		return
	}
	for s := 0; s < nu1; s++ {
		smooth(c, e, li, l)
	}
	haloFill(c, e, li, l, l.u)
	e.planes(c, l, l.residualPlane)
	l.restrictTo(levels[li+1])
	vcycle(c, e, levels, li+1)
	// Trilinear prolongation reads coarse ghost cells at slab boundaries.
	haloFill(c, e, li+1, levels[li+1], levels[li+1].u)
	l.prolongFrom(levels[li+1])
	for s := 0; s < nu2; s++ {
		smooth(c, e, li, l)
	}
}

// residualNorm computes the global residual L2 norm on the fine level.
// The local summation is sequential in plane order so every variant gets
// identical rounding.
func residualNorm(c *core.Ctx, e engine, levels []*level) float64 {
	l := levels[0]
	haloFill(c, e, 0, l, l.u)
	e.planes(c, l, l.residualPlane)
	var local float64
	for z := 1; z <= l.nz; z++ {
		local += l.residualNormSqPlane(z)
	}
	return math.Sqrt(e.allreduceSum(c, local))
}

// solve runs cfg.Cycles V-cycles and returns the residual history.
func solve(c *core.Ctx, e engine, levels []*level, cycles int) []float64 {
	hist := []float64{residualNorm(c, e, levels)}
	for k := 0; k < cycles; k++ {
		vcycle(c, e, levels, 0)
		hist = append(hist, residualNorm(c, e, levels))
	}
	return hist
}

// ---------- Reference hybrid: MPI + OpenMP ----------

const (
	tagGhostUp = iota + 10 // times 16 per level below
	tagGhostDown
)

type refEngine struct {
	comm     *mpi.Comm
	team     *omp.Team
	rank     int
	ranks    int
	planeBuf map[int][4][]float64 // per level: sendLo, sendHi; recv raw handled ad hoc
}

func newRefEngine(comm *mpi.Comm, team *omp.Team, rank, ranks int) *refEngine {
	return &refEngine{comm: comm, team: team, rank: rank, ranks: ranks, planeBuf: map[int][4][]float64{}}
}

func (e *refEngine) bufs(li int, ps int) [4][]float64 {
	if b, ok := e.planeBuf[li]; ok {
		return b
	}
	b := [4][]float64{make([]float64, ps), make([]float64, ps), make([]float64, ps), make([]float64, ps)}
	e.planeBuf[li] = b
	return b
}

func (e *refEngine) exchange(_ *core.Ctx, li int, l *level, arr []float64) {
	if e.ranks == 1 {
		return
	}
	ps := l.planeSize()
	b := e.bufs(li, ps)
	sendLo, sendHi := b[0], b[1]
	recvLo := make([]byte, 8*ps)
	recvHi := make([]byte, 8*ps)
	var reqs []*mpi.Request
	tagU := li*16 + tagGhostUp
	tagD := li*16 + tagGhostDown
	if e.rank > 0 {
		l.copyPlaneOut(arr, 1, sendLo)
		reqs = append(reqs,
			e.comm.Isend(mpi.EncodeFloat64s(sendLo), e.rank-1, tagD),
			e.comm.Irecv(recvLo, e.rank-1, tagU))
	}
	if e.rank < e.ranks-1 {
		l.copyPlaneOut(arr, l.nz, sendHi)
		reqs = append(reqs,
			e.comm.Isend(mpi.EncodeFloat64s(sendHi), e.rank+1, tagU),
			e.comm.Irecv(recvHi, e.rank+1, tagD))
	}
	mpi.Waitall(reqs...)
	if e.rank > 0 {
		l.copyPlaneIn(arr, 0, mpi.DecodeFloat64s(recvLo))
	}
	if e.rank < e.ranks-1 {
		l.copyPlaneIn(arr, l.nz+1, mpi.DecodeFloat64s(recvHi))
	}
}

func (e *refEngine) planes(_ *core.Ctx, l *level, fn func(z int)) {
	e.team.ParallelFor(1, l.nz+1, fn)
}

func (e *refEngine) allreduceSum(_ *core.Ctx, v float64) float64 {
	recv := make([]byte, 8)
	e.comm.Allreduce(recv, mpi.EncodeFloat64s([]float64{v}), mpi.SumFloat64)
	return mpi.DecodeFloat64s(recv)[0]
}

// RunReference runs the MPI+OpenMP hybrid.
func RunReference(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	world := mpi.NewWorld(cfg.Ranks, cfg.Cost)
	hists := make([][]float64, cfg.Ranks)

	start := time.Now()
	err := job.RunFlat(cfg.Ranks, func(r int) error {
		levels := buildHierarchy(cfg.N, cfg.N, cfg.NZ, 1.0/float64(cfg.N+1), r, cfg.Ranks)
		initRHS(levels[0], r, cfg.Ranks)
		e := newRefEngine(world.Comm(r), omp.NewTeam(cfg.Workers), r, cfg.Ranks)
		hists[r] = solve(nil, e, levels, cfg.Cycles)
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	return checkResult("mpi+omp", cfg, hists, elapsed)
}

// ---------- HiPER: UPC++ module (halo) + MPI module (reductions) ----------

type hiperEngine struct {
	um    *hiperupcxx.Module
	mm    *hipermpi.Module
	rank  int
	ranks int
	// ghosts[li]: symmetric array of 2 parities × 2 slots × planeSize.
	// Slot 0 holds the ghost arriving from below, slot 1 from above.
	ghosts []*upcxx.SharedArray
	// ctrs[li]: symmetric sequence counters — 2 parities × 2 direction
	// slots — rput by the sender after (chained on) the data rput.
	// Receiving sequence k+1 from a neighbour also proves the neighbour
	// finished READING our exchange-k data, so parity double-buffering
	// needs no barrier. The counters themselves are parity-split too:
	// consecutive counter rputs are independent (unordered) transfers, so
	// exchange k's counter could land AFTER exchange k+1's and regress the
	// value; with parity slots the only writers sharing a slot are
	// exchanges k and k+2, and k+2 cannot be issued until k's counter was
	// observed — so each slot is write-ordered by construction.
	ctrs  []*upcxx.SharedArray
	seq   []int64 // per level: exchanges completed
	bufLo map[int][]float64
	bufHi map[int][]float64
	grain int
}

// waitCtr waits for an inbound sequence counter to reach want. The wait
// suspends on the module's when-future, which the counter rput's arrival
// satisfies; meanwhile the worker helps with other runtime work (the
// chained counter rputs of THIS rank are tasks that may need this very
// worker).
func (e *hiperEngine) waitCtr(c *core.Ctx, a *upcxx.SharedArray, slot int, want float64) {
	c.Wait(e.um.WhenGE(a, slot, want))
}

func (e *hiperEngine) exchange(c *core.Ctx, li int, l *level, arr []float64) {
	if e.ranks == 1 {
		return
	}
	ps := l.planeSize()
	g := e.ghosts[li]
	ctr := e.ctrs[li]
	k := e.seq[li]
	e.seq[li] = k + 1
	par := int(k % 2)
	base := par * 2 * ps
	cbase := par * 2 // counter parity block: [fromBelow, fromAbove]
	want := float64(k + 1)
	if lo, ok := e.bufLo[li]; !ok || lo == nil {
		e.bufLo[li] = make([]float64, ps)
		e.bufHi[li] = make([]float64, ps)
	}
	sendLo, sendHi := e.bufLo[li], e.bufHi[li]
	if e.rank > 0 {
		l.copyPlaneOut(arr, 1, sendLo)
		// My plane 1 becomes the BELOW-neighbour's from-above ghost (slot 1).
		d := e.um.RPut(c, g, e.rank-1, base+ps, sendLo)
		e.um.RPutAwait(c, ctr, e.rank-1, cbase+1, []float64{want}, d)
	}
	if e.rank < e.ranks-1 {
		l.copyPlaneOut(arr, l.nz, sendHi)
		// My plane nz becomes the ABOVE-neighbour's from-below ghost (slot 0).
		d := e.um.RPut(c, g, e.rank+1, base, sendHi)
		e.um.RPutAwait(c, ctr, e.rank+1, cbase, []float64{want}, d)
	}
	loc := g.Local(e.rank)
	if e.rank > 0 {
		e.waitCtr(c, ctr, cbase, want)
		l.copyPlaneIn(arr, 0, loc[base:base+ps])
	}
	if e.rank < e.ranks-1 {
		e.waitCtr(c, ctr, cbase+1, want)
		l.copyPlaneIn(arr, l.nz+1, loc[base+ps:base+2*ps])
	}
}

func (e *hiperEngine) planes(c *core.Ctx, l *level, fn func(z int)) {
	c.ForasyncSync(core.Range{Lo: 1, Hi: l.nz + 1, Grain: e.grain}, func(_ *core.Ctx, z int) {
		fn(z)
	})
}

func (e *hiperEngine) allreduceSum(c *core.Ctx, v float64) float64 {
	recv := make([]byte, 8)
	e.mm.Allreduce(c, recv, mpi.EncodeFloat64s([]float64{v}), mpi.SumFloat64)
	return mpi.DecodeFloat64s(recv)[0]
}

// RunHiPER runs the HiPER variant (UPC++ + MPI modules composed).
func RunHiPER(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	uworld := upcxx.NewWorld(cfg.Ranks, cfg.Cost)
	mworld := mpi.NewWorld(cfg.Ranks, cfg.Cost)

	// Pre-compute the level shapes (identical on every rank) and allocate
	// the symmetric ghost arrays.
	shapes := buildHierarchy(cfg.N, cfg.N, cfg.NZ, 1.0/float64(cfg.N+1), 0, cfg.Ranks)
	ghosts := make([]*upcxx.SharedArray, len(shapes))
	ctrs := make([]*upcxx.SharedArray, len(shapes))
	for i, l := range shapes {
		ghosts[i] = uworld.AllocShared(2 * 2 * l.planeSize())
		ctrs[i] = uworld.AllocShared(2 * 2) // 2 parities × 2 directions
	}

	umods := make([]*hiperupcxx.Module, cfg.Ranks)
	mmods := make([]*hipermpi.Module, cfg.Ranks)
	hists := make([][]float64, cfg.Ranks)

	start := time.Now()
	err := job.Run(job.Spec{Ranks: cfg.Ranks, WorkersPerRank: cfg.Workers,
		Policy: cfg.Policy, OnStart: func() { start = time.Now() }},
		func(p *job.Proc) error {
			umods[p.Rank] = hiperupcxx.New(uworld.Rank(p.Rank), nil)
			mmods[p.Rank] = hipermpi.New(mworld.Comm(p.Rank), nil)
			if err := modules.Install(p.RT, umods[p.Rank]); err != nil {
				return err
			}
			return modules.Install(p.RT, mmods[p.Rank])
		},
		func(p *job.Proc, c *core.Ctx) {
			r := p.Rank
			levels := buildHierarchy(cfg.N, cfg.N, cfg.NZ, 1.0/float64(cfg.N+1), r, cfg.Ranks)
			initRHS(levels[0], r, cfg.Ranks)
			grain := levels[0].nz / (2 * cfg.Workers)
			if grain < 1 {
				grain = 1
			}
			e := &hiperEngine{
				um: umods[r], mm: mmods[r], rank: r, ranks: cfg.Ranks,
				ghosts: ghosts, ctrs: ctrs, seq: make([]int64, len(ghosts)),
				bufLo: map[int][]float64{}, bufHi: map[int][]float64{},
				grain: grain,
			}
			hists[r] = solve(c, e, levels, cfg.Cycles)
		})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	return checkResult("hiper", cfg, hists, elapsed)
}

// checkResult validates the residual history: every rank must agree (it is
// a global reduction), and every V-cycle must contract the residual.
func checkResult(variant string, cfg Config, hists [][]float64, elapsed time.Duration) (Result, error) {
	h0 := hists[0]
	for r := 1; r < cfg.Ranks; r++ {
		for i := range h0 {
			if hists[r][i] != h0[i] {
				return Result{}, fmt.Errorf("hpgmg: %s rank %d residual history diverges", variant, r)
			}
		}
	}
	for i := 1; i < len(h0); i++ {
		if !(h0[i] < h0[i-1]) {
			return Result{}, fmt.Errorf("hpgmg: %s V-cycle %d did not contract the residual: %v", variant, i, h0)
		}
	}
	return Result{Variant: variant, Ranks: cfg.Ranks, Elapsed: elapsed, Residuals: h0}, nil
}
