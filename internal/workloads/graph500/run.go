package graph500

import (
	"time"

	"repro/internal/core"
	"repro/internal/hipershmem"
	"repro/internal/job"
	"repro/internal/modules"
	"repro/internal/shmem"
)

// flushEvery controls how often senders flush claim batches mid-level, so
// claims flow while the level is still being expanded (and receivers have
// something to poll for).
const flushEvery = 64

// levelSlots bounds the BFS depth we can track in the per-level reduction
// array (ample: Kronecker graphs have tiny diameters).
const levelSlots = 128

// gatherResult assembles the global parent/depth arrays from per-rank
// state (post-run, single-threaded).
func gatherResult(g GraphConfig, states []*bfsState) (parent, depth []int64, visited int64) {
	n := g.numVertices()
	parent = make([]int64, n)
	depth = make([]int64, n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	for _, st := range states {
		for i := st.csr.vLo; i < st.csr.vHi; i++ {
			parent[i] = st.parent[i-st.csr.vLo]
			depth[i] = st.depth[i-st.csr.vLo]
			if parent[i] != -1 {
				visited++
			}
		}
	}
	return parent, depth, visited
}

// expandFrontier walks one rank's current frontier: local neighbours are
// claimed directly; remote neighbours are queued on the sender, flushed
// every flushEvery vertices; poll (may be nil) runs at the same cadence —
// the reference variant's manual polling hook.
func expandFrontier(st *bfsState, snd *sender, poll func()) {
	n := st.g.numVertices()
	for i, u := range st.frontier {
		for _, v := range st.csr.neighbors(u) {
			o := owner(n, st.ranks, v)
			if o == snd.pe.Rank() {
				st.claimLocked(v, u, st.level)
			} else {
				snd.claim(o, v, u, st.level)
			}
		}
		if (i+1)%flushEvery == 0 {
			snd.flush()
			if poll != nil {
				poll()
			}
		}
	}
	snd.flush()
}

// RunReference runs the polling reference: each rank's main loop
// interleaves frontier expansion with explicit channel polling, and drains
// after each level barrier.
func RunReference(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	world := cfg.world()
	cs := newComms(world, cfg.ChanCap)
	states := make([]*bfsState, cfg.Ranks)
	levels := 0

	start := time.Now()
	err := job.RunFlat(cfg.Ranks, func(r int) error {
		pe := world.PE(r)
		st := newBFSState(cfg.Graph, cfg.Ranks, r)
		states[r] = st
		snd := newSender(cs, pe)
		rcv := newReceiver(cs, r)
		handle := func(v, parent, depth int64) {
			if v < 0 {
				return
			}
			st.claimLocked(v, parent, depth)
		}

		n := cfg.Graph.numVertices()
		st.level = 0
		if owner(n, cfg.Ranks, cfg.Root) == r {
			st.tryClaim(cfg.Root, cfg.Root, 0)
		}
		st.frontier, st.next = st.next, nil

		for lvl := 0; lvl < levelSlots; lvl++ {
			st.level = int64(lvl + 1)
			expandFrontier(st, snd, func() { rcv.drain(handle) })
			pe.BarrierAll() // all claims for this level are visible
			rcv.drain(handle)
			// Swap while no claims are in flight: every rank is between the
			// two barriers, so nothing can land in st.next until after the
			// second barrier — by which point the swap is already done.
			// (Swapping after that barrier races with fast ranks whose
			// next-level claims would leak into this level's frontier.)
			st.frontier, st.next = st.next, nil
			// Global level termination: per-level accumulation slot.
			pe.Add(cs.levelSum, 0, lvl%levelSlots, int64(len(st.frontier)))
			pe.BarrierAll()
			total := pe.GetValue(cs.levelSum, 0, lvl%levelSlots)
			if r == 0 {
				levels = lvl + 1
			}
			if total == 0 {
				break
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	parent, depth, visited := gatherResult(cfg.Graph, states)
	if err := ValidateTree(cfg.Graph, cfg.Root, parent, depth); err != nil {
		return Result{}, err
	}
	return Result{Variant: "reference-polling", Ranks: cfg.Ranks, Elapsed: elapsed,
		Visited: visited, Levels: levels}, nil
}

// RunHiPER runs the HiPER variant: no application polling — each inbound
// channel has a shmem_async_when handler that fires when the channel
// counter advances, drains the new claims, and re-arms itself. The paper's
// Graph500 uses exactly this offload.
func RunHiPER(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	world := cfg.world()
	cs := newComms(world, cfg.ChanCap)
	states := make([]*bfsState, cfg.Ranks)
	mods := make([]*hipershmem.Module, cfg.Ranks)
	levels := 0

	start := time.Now()
	err := job.Run(job.Spec{Ranks: cfg.Ranks, WorkersPerRank: cfg.Workers,
		OnStart: func() { start = time.Now() }},
		func(p *job.Proc) error {
			mods[p.Rank] = hipershmem.New(world.PE(p.Rank), nil)
			return modules.Install(p.RT, mods[p.Rank])
		},
		func(p *job.Proc, c *core.Ctx) {
			r := p.Rank
			m := mods[r]
			pe := m.PE()
			st := newBFSState(cfg.Graph, cfg.Ranks, r)
			states[r] = st
			snd := newSender(cs, pe)
			rcv := newReceiver(cs, r)
			handle := func(v, parent, depth int64) {
				if v < 0 {
					return
				}
				st.claimLocked(v, parent, depth)
			}

			n := cfg.Graph.numVertices()
			st.level = 0
			if owner(n, cfg.Ranks, cfg.Root) == r {
				st.tryClaim(cfg.Root, cfg.Root, 0)
			}
			st.frontier, st.next = st.next, nil

			// Arm one shmem_async_when handler per inbound channel: fire
			// when the counter passes what we've consumed, drain, re-arm.
			// Arm only after the root frontier is swapped in: a peer that
			// owns the root can send depth-1 claims before this rank gets
			// here, and a handler draining them into st.next ahead of the
			// swap would put depth-1 vertices into the depth-0 frontier.
			// Re-arming stops when the channel is sealed — its sender's
			// end-of-stream sentinel has been consumed. Disarming must key
			// off the *sender's* sentinel, not this rank's own progress: a
			// fast peer's sentinel can arrive while this rank is still
			// looping, and a handler that re-arms past it would wait on a
			// counter that never advances again, keeping the finish scope
			// (and the whole job) open forever.
			var arm func(cc *core.Ctx, src int)
			arm = func(cc *core.Ctx, src int) {
				rcv.mu.Lock()
				threshold := rcv.read[src] + 1
				rcv.mu.Unlock()
				m.AsyncWhen(cc, cs.counters, src, shmem.CmpGE, threshold, func(hc *core.Ctx) {
					rcv.drain(handle)
					if !rcv.srcSealed(src) {
						arm(hc, src)
					}
				})
			}
			for src := 0; src < cfg.Ranks; src++ {
				if src != r {
					arm(c, src)
				}
			}

			for lvl := 0; lvl < levelSlots; lvl++ {
				st.level = int64(lvl + 1)
				expandFrontier(st, snd, nil) // no polling hook: handlers do it
				m.BarrierAll(c)
				rcv.drain(handle) // catch anything the handlers haven't reached yet
				// Swap between the barriers, while no claims are in flight:
				// once any rank passes the second barrier and starts the next
				// level, its claims must find st.next already emptied, or a
				// depth-L+2 vertex would ride into this rank's depth-L+1
				// frontier via a when-handler firing before the swap.
				st.frontier, st.next = st.next, nil
				m.Add(c, cs.levelSum, 0, lvl%levelSlots, int64(len(st.frontier)))
				m.BarrierAll(c)
				total := pe.GetValue(cs.levelSum, 0, lvl%levelSlots)
				if r == 0 {
					levels = lvl + 1
				}
				if total == 0 {
					break
				}
			}

			// Quiesce the handlers: a sentinel claim closes every outbound
			// channel. Each channel's last message is its sentinel, so every
			// still-armed condition eventually fires, sees the channel
			// sealed, and stops re-arming — the finish scope then drains.
			for dst := 0; dst < cfg.Ranks; dst++ {
				if dst != r {
					snd.claim(dst, -1, -1, -1)
				}
			}
			snd.flush()
			m.BarrierAll(c)
		})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	parent, depth, visited := gatherResult(cfg.Graph, states)
	if err := ValidateTree(cfg.Graph, cfg.Root, parent, depth); err != nil {
		return Result{}, err
	}
	return Result{Variant: "hiper-asyncwhen", Ranks: cfg.Ranks, Elapsed: elapsed,
		Visited: visited, Levels: levels}, nil
}
