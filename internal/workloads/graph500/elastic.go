package graph500

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hiperckpt"
	"repro/internal/job"
	"repro/internal/modules"
	"repro/internal/shmem"
	"repro/internal/simnet"
)

// Elastic Graph500: each phase is one complete distributed BFS from a
// deterministic per-phase root over a FIXED Kronecker graph, run on
// whatever logical membership the epoch table currently holds. Vertex
// ownership follows the current rank count, but the BFS depth array is
// a property of the graph alone — so every phase's gathered depths must
// be byte-identical to the sequential oracle no matter which endpoints
// carried the claims, how many ranks partitioned the graph, or what the
// chaos layer did to the wire.
//
// Per-rank accumulator state (BFS runs completed, vertices visited in
// owned ranges, folded depth digests) is checkpointed under the logical
// RankKey each phase; a scripted kill wipes the in-memory copy and the
// rank restores from checkpoint onto its fresh endpoint. Shrink
// redistributes dropped ranks' state through the store.

// ElasticConfig parameterizes an elastic BFS run.
type ElasticConfig struct {
	Graph    GraphConfig
	Ranks    int // initial logical ranks
	Capacity int // physical endpoints
	Phases   int // BFS runs; root varies per phase
	Cost     simnet.CostModel
	Plan     fabric.FaultPlan
	Rel      fabric.RelConfig
	Events   []job.ElasticEvent
	Workers  int
}

// EventCost reports one applied membership change.
type EventCost struct {
	Kind    string
	Latency time.Duration
}

// ElasticResult reports one elastic run.
type ElasticResult struct {
	Variant    string
	PhaseTimes []time.Duration
	Events     []EventCost
	Digests    []uint64 // per-phase depth-array digest
	Visited    int64    // vertices reached across all phases
}

// fnvDepths digests an int64 array byte-for-byte (little-endian).
func fnvDepths(vals []int64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range vals {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			h ^= (u >> (8 * b)) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

func fold48(d uint64) float64 { return float64(d & ((1 << 48) - 1)) }

// phaseRoot picks the BFS root for a phase — logical coordinates only.
func phaseRoot(g GraphConfig, phase int) int64 {
	return int64(job.RankSeed(uint64(g.Seed)+1, 0, uint64(phase)) % uint64(g.numVertices()))
}

// RunElastic runs cfg.Phases BFS traversals under the scripted
// membership schedule and verifies each phase's depth array
// byte-identical to the sequential oracle.
func RunElastic(cfg ElasticConfig) (ElasticResult, error) {
	if cfg.Ranks < 2 || cfg.Phases <= 0 {
		return ElasticResult{}, fmt.Errorf("graph500: elastic config incomplete: %+v", cfg)
	}
	if cfg.Capacity < cfg.Ranks {
		cfg.Capacity = cfg.Ranks * 2
	}
	g := cfg.Graph
	n := g.numVertices()
	// One channel must absorb every remote claim in the worst case — rank
	// counts change between phases, so size for the smallest membership.
	chanCap := int(2*g.numEdges()) + 16

	tab := fabric.NewEpochTable(cfg.Ranks, cfg.Capacity)
	chaos := fabric.NewChaos(fabric.NewSim(cfg.Capacity, cfg.Cost), cfg.Plan)
	rel := fabric.NewReliable(chaos, cfg.Rel)
	vt := fabric.NewVirtual(rel, tab)
	world := shmem.NewWorldOver(vt)

	store := hiperckpt.NewStore(hiperckpt.StoreConfig{})
	states := make([]*bfsState, cfg.Capacity)
	priv := make([][]float64, cfg.Capacity) // {runs, visitedOwned, digestFold}
	mods := make([]*hiperckpt.Module, cfg.Capacity)

	// Oracle depth digests per phase, computed once with no fabric over
	// one full-graph CSR that every phase's validation reuses.
	full := buildLocalCSR(g, 1, 0)
	oracleDigest := make([]uint64, cfg.Phases)
	for ph := 0; ph < cfg.Phases; ph++ {
		_, d := bfsOver(full, phaseRoot(g, ph))
		oracleDigest[ph] = fnvDepths(d)
	}

	res := ElasticResult{Variant: "elastic-bfs"}
	var expectRuns, expectVisited, expectDigest float64

	var errMu sync.Mutex
	var phaseErr error
	fail := func(err error) {
		errMu.Lock()
		if phaseErr == nil {
			phaseErr = err
		}
		errMu.Unlock()
	}

	var cs *comms
	var phaseStart time.Time

	spec := job.ElasticSpec{
		WorkersPerRank: cfg.Workers,
		NVM:            true,
		Table:          tab,
		Phases:         cfg.Phases,
		Events:         cfg.Events,
		Kill:           func(ep int) { chaos.Kill(ep) },
	}
	spec.OnEvent = func(ev job.ElasticEvent, oldEp, freshEp int) {
		t0 := time.Now()
		switch ev.Kind {
		case "kill":
			priv[ev.Rank] = nil
		case "shrink":
			newRanks := tab.Ranks()
			for d := newRanks; d < newRanks+ev.Delta; d++ {
				key := hiperckpt.RankKey(d, "g500-state")
				blob, ok := store.ReadBlob(key)
				if !ok {
					continue
				}
				t := d % newRanks
				tkey := hiperckpt.RankKey(t, "g500-state")
				tb, _ := store.ReadBlob(tkey)
				if tb == nil {
					tb = []float64{0, 0, 0}
				}
				for i := range tb {
					tb[i] += blob[i]
				}
				if err := store.WriteBlob(tkey, tb); err == nil {
					store.DeleteBlob(key)
				}
				if priv[t] != nil {
					for i := range priv[t] {
						priv[t][i] += blob[i]
					}
				} else {
					priv[t] = append([]float64(nil), blob...)
				}
				priv[d] = nil
			}
		}
		res.Events = append(res.Events, EventCost{Kind: ev.Kind, Latency: time.Since(t0)})
	}

	spec.AfterPhase = func(phase int) error {
		errMu.Lock()
		err := phaseErr
		errMu.Unlock()
		if err != nil {
			return err
		}
		ranks := tab.Ranks()
		root := phaseRoot(g, phase)
		parent, depth, visited := gatherResult(g, states[:ranks])
		if err := validateOver(full, root, parent, depth); err != nil {
			return fmt.Errorf("graph500: phase %d: %w", phase, err)
		}
		h := fnvDepths(depth)
		if h != oracleDigest[phase] {
			return fmt.Errorf("graph500: phase %d depth digest %#x != oracle %#x (result not byte-identical)",
				phase, h, oracleDigest[phase])
		}
		res.Digests = append(res.Digests, h)
		res.PhaseTimes = append(res.PhaseTimes, time.Since(phaseStart))
		res.Visited += visited
		// Driver-side expectation for the final accumulator balance.
		expectRuns += float64(ranks)
		expectVisited += float64(visited)
		for r := 0; r < ranks; r++ {
			st := states[r]
			expectDigest += fold48(fnvDepths(st.depth))
			states[r] = nil
		}
		return nil
	}

	setup := func(p *job.Proc) error {
		if p.Rank == 0 {
			// Fresh symmetric comms each phase: sized to the phase's
			// membership, counters and level sums zeroed. Setup runs
			// sequentially before launch, so rank 0 allocates for all.
			cs = newComms(world, chanCap)
			phaseStart = time.Now()
		}
		mods[p.Rank] = hiperckpt.New(store)
		return modules.Install(p.RT, mods[p.Rank])
	}

	body := func(p *job.Proc, c *core.Ctx) {
		r := p.Rank
		ranks := world.Size()
		pe := world.PE(r)
		m := mods[r]
		root := phaseRoot(g, p.Phase)

		// Recover or initialize the accumulator; on error, record and keep
		// participating — bailing before the level barriers would wedge
		// every other rank.
		acc := priv[r]
		if p.Restored {
			if acc != nil {
				fail(fmt.Errorf("graph500: rank %d restored but memory survived the kill", r))
			}
			blob, ok := m.Restore(c, hiperckpt.RankKey(r, "g500-state"))
			if !ok {
				fail(fmt.Errorf("graph500: rank %d has no checkpoint to restore", r))
			}
			acc = blob
		}
		if acc == nil {
			acc = []float64{0, 0, 0}
		}

		st := newBFSState(g, ranks, r)
		states[r] = st
		snd := newSender(cs, pe)
		rcv := newReceiver(cs, r)
		handle := func(v, parent, depth int64) {
			if v < 0 {
				return
			}
			st.claimLocked(v, parent, depth)
		}

		st.level = 0
		if owner(n, ranks, root) == r {
			st.tryClaim(root, root, 0)
		}
		st.frontier, st.next = st.next, nil

		for lvl := 0; lvl < levelSlots; lvl++ {
			st.level = int64(lvl + 1)
			expandFrontier(st, snd, func() { rcv.drain(handle) })
			pe.BarrierAll()
			rcv.drain(handle)
			st.frontier, st.next = st.next, nil
			pe.Add(cs.levelSum, 0, lvl%levelSlots, int64(len(st.frontier)))
			pe.BarrierAll()
			if pe.GetValue(cs.levelSum, 0, lvl%levelSlots) == 0 {
				break
			}
		}

		// Advance and persist the accumulator before the phase ends.
		var visited float64
		for _, pv := range st.parent {
			if pv != -1 {
				visited++
			}
		}
		acc[0]++
		acc[1] += visited
		acc[2] += fold48(fnvDepths(st.depth))
		priv[r] = acc
		f := m.CheckpointAsync(c, hiperckpt.RankKey(r, "g500-state"), acc)
		c.Wait(f)
	}

	if err := job.RunElastic(spec, setup, body); err != nil {
		return ElasticResult{}, err
	}
	if phaseErr != nil {
		return ElasticResult{}, phaseErr
	}

	var gotRuns, gotVisited, gotDigest float64
	for r := 0; r < cfg.Capacity; r++ {
		if priv[r] != nil {
			gotRuns += priv[r][0]
			gotVisited += priv[r][1]
			gotDigest += priv[r][2]
		}
	}
	if gotRuns != expectRuns || gotVisited != expectVisited || gotDigest != expectDigest {
		return ElasticResult{}, fmt.Errorf(
			"graph500: accumulator imbalance after elasticity: runs %v/%v visited %v/%v digest %v/%v",
			gotRuns, expectRuns, gotVisited, expectVisited, gotDigest, expectDigest)
	}
	return res, nil
}
