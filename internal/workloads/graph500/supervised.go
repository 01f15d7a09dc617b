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

// Supervised Graph500: unscripted BFS under detector-driven recovery.
// Same fixed Kronecker graph, same per-phase oracle-digest proof as the
// scripted elastic variant, but kills arrive from an opaque seeded
// KillPlan and job.Supervise must detect, roll back to the committed
// checkpoint, and remap or evict on its own.
//
// One structural difference from the scripted body: the level loop runs
// all levelSlots levels unconditionally instead of breaking on an empty
// global frontier. The early break reads the level sum through the
// fabric, and a dead rank — whose one-sided reads fail to zero — would
// break out early while live ranks continue, deadlocking the in-process
// level barriers. A fixed-trip loop keeps every rank's barrier count
// identical no matter what the wire does; the tail levels past the BFS
// frontier are empty and cost only local barrier hops. The attempt then
// completes with a wrong depth array and fails the digest — failures
// surface as verification errors, never hangs.
//
// Checkpoints follow the same two-slot pending/committed protocol as
// supervised ISx (see isx/supervised.go).

const (
	g500Committed = "g500-state"
	g500Pending   = "g500-pending"
)

// SuperviseConfig parameterizes a supervised BFS run.
type SuperviseConfig struct {
	Graph    GraphConfig
	Ranks    int
	Capacity int // table capacity; transport is sized Capacity+1 (monitor)
	Phases   int
	Cost     simnet.CostModel
	Plan     fabric.FaultPlan
	Rel      fabric.RelConfig
	Det      fabric.DetectorConfig
	Kills    job.KillPlan
	// Inject, when set, replaces Kills as the fault source (see the ISx
	// SuperviseConfig for semantics).
	Inject        func(tab *fabric.EpochTable, kill func(ep int)) func(phase, attempt int)
	Workers       int
	MinRanks      int
	RestartBudget int
	MaxAttempts   int
}

// SuperviseResult reports one supervised run; Report is always set.
type SuperviseResult struct {
	Variant    string
	PhaseTimes []time.Duration
	Digests    []uint64
	Visited    int64
	Report     *job.RecoveryReport
}

// RunSupervised runs cfg.Phases BFS traversals under detector-driven
// recovery, verifying each committed phase's depth array byte-identical
// to the sequential oracle.
func RunSupervised(cfg SuperviseConfig) (SuperviseResult, error) {
	res := SuperviseResult{Variant: "supervised-bfs", Report: &job.RecoveryReport{}}
	if cfg.Ranks < 2 || cfg.Phases <= 0 {
		return res, fmt.Errorf("graph500: supervised config incomplete: %+v", cfg)
	}
	if cfg.Capacity < cfg.Ranks {
		cfg.Capacity = cfg.Ranks * 2
	}
	g := cfg.Graph
	n := g.numVertices()
	chanCap := int(2*g.numEdges()) + 16

	tab := fabric.NewEpochTable(cfg.Ranks, cfg.Capacity)
	chaos := fabric.NewChaos(fabric.NewSim(cfg.Capacity+1, cfg.Cost), cfg.Plan)
	rel := fabric.NewReliable(chaos, cfg.Rel)
	vt := fabric.NewVirtual(rel, tab)
	world := shmem.NewWorldOver(vt)
	cfg.Det.Monitor = cfg.Capacity
	det := fabric.NewDetector(chaos, cfg.Det)

	store := hiperckpt.NewStore(hiperckpt.StoreConfig{})
	states := make([]*bfsState, cfg.Capacity)
	priv := make([][]float64, cfg.Capacity)
	mods := make([]*hiperckpt.Module, cfg.Capacity)

	// Oracle depth digests per phase, computed once with no fabric over
	// one full-graph CSR that every phase's validation reuses.
	full := buildLocalCSR(g, 1, 0)
	oracleDigest := make([]uint64, cfg.Phases)
	for ph := 0; ph < cfg.Phases; ph++ {
		_, d := bfsOver(full, phaseRoot(g, ph))
		oracleDigest[ph] = fnvDepths(d)
	}

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

	kill := func(ep int) { chaos.Kill(ep) }
	inject := cfg.Kills.Injector(tab, kill)
	if cfg.Inject != nil {
		inject = cfg.Inject(tab, kill)
	}
	spec := job.SuperviseSpec{
		WorkersPerRank: cfg.Workers,
		NVM:            true,
		Table:          tab,
		Detector:       det,
		Phases:         cfg.Phases,
		MinRanks:       cfg.MinRanks,
		RestartBudget:  cfg.RestartBudget,
		MaxAttempts:    cfg.MaxAttempts,
		Inject:         inject,
	}

	spec.OnRollback = func(phase, attempt int, suspects []int) {
		errMu.Lock()
		phaseErr = nil
		errMu.Unlock()
		for r := 0; r < cfg.Capacity; r++ {
			priv[r] = nil
			states[r] = nil
			store.DeleteBlob(hiperckpt.RankKey(r, g500Pending))
		}
	}

	spec.OnCommit = func(phase int) error {
		for r := 0; r < tab.Ranks(); r++ {
			pkey := hiperckpt.RankKey(r, g500Pending)
			blob, ok := store.ReadBlob(pkey)
			if !ok {
				return fmt.Errorf("graph500: phase %d rank %d verified but has no pending checkpoint", phase, r)
			}
			if err := store.WriteBlob(hiperckpt.RankKey(r, g500Committed), blob); err != nil {
				return err
			}
			store.DeleteBlob(pkey)
		}
		return nil
	}

	spec.OnEvent = func(ev job.ElasticEvent, oldEp, freshEp int) {
		switch ev.Kind {
		case "kill":
			priv[ev.Rank] = nil
		case "shrink":
			newRanks := tab.Ranks()
			for d := newRanks; d < newRanks+ev.Delta; d++ {
				key := hiperckpt.RankKey(d, g500Committed)
				blob, ok := store.ReadBlob(key)
				if !ok {
					continue
				}
				t := d % newRanks
				tkey := hiperckpt.RankKey(t, g500Committed)
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
				priv[d] = nil
			}
		}
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
		expectRuns += float64(ranks)
		expectVisited += float64(visited)
		for r := 0; r < ranks; r++ {
			expectDigest += fold48(fnvDepths(states[r].depth))
			states[r] = nil
		}
		return nil
	}

	setup := func(p *job.Proc) error {
		if p.Rank == 0 {
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

		acc := priv[r]
		if p.Restored {
			if acc != nil {
				fail(fmt.Errorf("graph500: rank %d restored but memory survived the rollback", r))
			}
			if blob, ok := m.Restore(c, hiperckpt.RankKey(r, g500Committed)); ok {
				acc = blob
			}
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

		// Fixed-trip level loop — see the package comment above for why
		// supervised BFS must not read the termination condition through
		// the fabric.
		for lvl := 0; lvl < levelSlots; lvl++ {
			st.level = int64(lvl + 1)
			expandFrontier(st, snd, func() { rcv.drain(handle) })
			pe.BarrierAll()
			rcv.drain(handle)
			st.frontier, st.next = st.next, nil
			pe.BarrierAll()
		}

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
		f := m.CheckpointAsync(c, hiperckpt.RankKey(r, g500Pending), acc)
		c.Wait(f)
	}

	rep, err := job.Supervise(spec, setup, body)
	res.Report = rep
	if err != nil {
		return res, err
	}
	if phaseErr != nil {
		return res, phaseErr
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
		return res, fmt.Errorf(
			"graph500: accumulator imbalance after supervision: runs %v/%v visited %v/%v digest %v/%v",
			gotRuns, expectRuns, gotVisited, expectVisited, gotDigest, expectDigest)
	}
	return res, nil
}
