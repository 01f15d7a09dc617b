// Package hiperupcxx is the HiPER UPC++ module. UPC++'s asynchronous
// one-sided operations and RPCs map naturally onto HiPER futures; the
// module additionally discharges UPC++'s progress obligation (inbound RPCs
// only execute inside upcxx::progress) with a poller task on the unified
// runtime, so applications never hand-roll progress loops. On the target
// side, WhenGE turns an inbound rput into a future the writer's arrival
// satisfies, so counter-based protocols wait without polling.
package hiperupcxx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/spin"
	"repro/internal/stats"
	"repro/internal/upcxx"
)

// ModuleName is the name this module registers under.
const ModuleName = "upcxx"

// Options tunes module behaviour.
type Options struct {
	// PollInterval bounds CPU burned on empty progress rounds. Default 20µs.
	PollInterval time.Duration
}

// Module is the HiPER UPC++ module bound to one rank.
type Module struct {
	rank *upcxx.Rank
	opts Options

	rt  *core.Runtime
	nic *platform.Place

	outstanding  atomic.Int64 // local ops awaiting completion
	mu           sync.Mutex
	pollerActive bool
	finalized    atomic.Bool

	whenMu sync.Mutex
	whens  []when // unsatisfied WhenGE futures
}

// when is one pending WhenGE: prom is satisfied once this rank's element
// off of a reaches want.
type when struct {
	a    *upcxx.SharedArray
	off  int
	want float64
	prom *core.Promise
}

// New creates the module for one rank.
func New(rank *upcxx.Rank, opts *Options) *Module {
	m := &Module{rank: rank}
	if opts != nil {
		m.opts = *opts
	}
	if m.opts.PollInterval <= 0 {
		m.opts.PollInterval = 20 * time.Microsecond
	}
	return m
}

// Name implements modules.Module.
func (m *Module) Name() string { return ModuleName }

// Init asserts that an Interconnect place exists and is covered.
func (m *Module) Init(rt *core.Runtime) error {
	nic := rt.Model().FirstByKind(platform.KindInterconnect)
	if nic == nil {
		return fmt.Errorf("hiperupcxx: platform model has no %q place", platform.KindInterconnect)
	}
	if !rt.Model().CoveredPlaces()[nic.ID] {
		return fmt.Errorf("hiperupcxx: interconnect place %v is on no worker's pop or steal path", nic)
	}
	m.rt = rt
	m.nic = nic
	// Inbound RPCs only execute inside Progress; arm this rank's poller the
	// moment one arrives so targets never need explicit progress loops.
	m.rank.OnRPCEnqueued(func() {
		if m.finalized.Load() {
			return
		}
		m.armPollerExternal()
	})
	m.rank.OnRemoteWrite(m.arrived)
	return nil
}

// armPollerExternal arms the poller from a non-worker goroutine (an RPC
// delivery callback).
func (m *Module) armPollerExternal() {
	m.mu.Lock()
	spawn := !m.pollerActive
	if spawn {
		m.pollerActive = true
	}
	m.mu.Unlock()
	if spawn {
		m.rt.SpawnDetachedAt(m.nic, m.poll)
	}
}

// Finalize stops the progress poller and releases the rank's hooks, so a
// world that outlives this runtime does not pin the module.
func (m *Module) Finalize() {
	m.finalized.Store(true)
	m.rank.OnRPCEnqueued(nil)
	m.rank.OnRemoteWrite(nil)
}

// Rank returns the wrapped UPC++ rank.
func (m *Module) Rank() *upcxx.Rank { return m.rank }

// ID returns the caller's rank number.
func (m *Module) ID() int { return m.rank.ID() }

// Size returns the job size.
func (m *Module) Size() int { return m.rank.Size() }

// armPoller ensures the progress poller is running while work is pending.
func (m *Module) armPoller(c *core.Ctx) {
	m.mu.Lock()
	spawn := !m.pollerActive
	if spawn {
		m.pollerActive = true
	}
	m.mu.Unlock()
	if spawn {
		c.AsyncDetachedAt(m.nic, m.poll)
	}
}

// poll drives upcxx progress (executing inbound RPCs) and yields while
// local operations are outstanding or inbound RPCs remain.
func (m *Module) poll(c *core.Ctx) {
	ran := m.rank.Progress()
	again := !m.finalized.Load() &&
		(m.outstanding.Load() > 0 || m.rank.PendingRPCs())
	if !again {
		m.mu.Lock()
		// Re-check under the lock so an op registered concurrently cannot
		// strand itself without a poller.
		if m.outstanding.Load() > 0 || m.rank.PendingRPCs() {
			again = true
		} else {
			m.pollerActive = false
		}
		m.mu.Unlock()
	}
	if again {
		if ran == 0 {
			spin.Sleep(m.opts.PollInterval) //hiperlint:ignore raw-delay-outside-fabric poller back-off pacing, not a modelled transfer
		}
		c.Yield(m.poll)
	}
}

// RPut asynchronously writes vals into dst's block at off and returns a
// future satisfied on remote completion.
func (m *Module) RPut(c *core.Ctx, a *upcxx.SharedArray, dst, off int, vals []float64) *core.Future {
	defer stats.Track(ModuleName, "rput")()
	prom := core.NewPromise(m.rt)
	m.outstanding.Add(1)
	m.rank.RPut(a, dst, off, vals, func() {
		m.outstanding.Add(-1)
		prom.Put(nil)
	})
	return prom.Future()
}

// RPutAwait issues the rput only after all deps are satisfied.
func (m *Module) RPutAwait(c *core.Ctx, a *upcxx.SharedArray, dst, off int, vals []float64, deps ...*core.Future) *core.Future {
	out := core.NewPromise(m.rt)
	c.AsyncAwaitAt(m.nic, func(cc *core.Ctx) {
		m.RPut(cc, a, dst, off, vals).OnDone(func(any) { out.Put(nil) })
	}, deps...)
	return out.Future()
}

// WhenGE returns a future satisfied once this rank's element off of a is
// at least want: the target side of a counter protocol, where a sender
// rputs data and then a sequence number chained on it. The rput that
// lands the value satisfies the future on its delivering goroutine, so a
// task waiting on it (Ctx.Wait) suspends through the runtime's
// help-then-substitute path and wakes on the arrival itself.
func (m *Module) WhenGE(a *upcxx.SharedArray, off int, want float64) *core.Future {
	m.whenMu.Lock()
	if a.Peek(m.rank.ID(), off) >= want {
		m.whenMu.Unlock()
		return core.Satisfied(m.rt, nil)
	}
	prom := core.NewPromise(m.rt)
	m.whens = append(m.whens, when{a: a, off: off, want: want, prom: prom})
	m.whenMu.Unlock()
	return prom.Future()
}

// arrived re-scans the pending WhenGE futures after an rput into this
// rank's segment became visible. WhenGE checks and registers under
// whenMu, and this scan takes whenMu only after the write is visible, so
// either the registration saw the new value or the scan sees the
// registration: no arrival is lost. Promises are put outside the lock.
func (m *Module) arrived() {
	var buf [2]*core.Promise // an arrival rarely releases more than two waiters
	ready := buf[:0]
	me := m.rank.ID()
	m.whenMu.Lock()
	kept := m.whens[:0]
	for _, w := range m.whens {
		if w.a.Peek(me, w.off) >= w.want {
			ready = append(ready, w.prom)
		} else {
			kept = append(kept, w)
		}
	}
	clear(m.whens[len(kept):])
	m.whens = kept
	m.whenMu.Unlock()
	for _, p := range ready {
		p.Put(nil)
	}
}

// RGet asynchronously reads n elements from src's block at off; the future
// is satisfied with the []float64 payload.
func (m *Module) RGet(c *core.Ctx, a *upcxx.SharedArray, src, off, n int) *core.Future {
	defer stats.Track(ModuleName, "rget")()
	prom := core.NewPromise(m.rt)
	m.outstanding.Add(1)
	m.rank.RGet(a, src, off, n, func(vals []float64) {
		m.outstanding.Add(-1)
		prom.Put(vals)
	})
	return prom.Future()
}

// RPC runs fn on the destination rank (inside its progress poller) and
// returns a future satisfied when the remote execution is acknowledged.
func (m *Module) RPC(c *core.Ctx, dst int, fn func(target *upcxx.Rank)) *core.Future {
	defer stats.Track(ModuleName, "rpc")()
	prom := core.NewPromise(m.rt)
	m.outstanding.Add(1)
	m.rank.RPC(dst, fn, func() {
		m.outstanding.Add(-1)
		prom.Put(nil)
	})
	m.armPoller(c)
	return prom.Future()
}

// Barrier is upcxx::barrier: the calling task is descheduled until every
// rank arrives. The arrival is asynchronous, so this rank's workers stay
// free to execute inbound RPCs that other ranks' arrivals may depend on —
// a blocking barrier on the NIC-servicing worker would deadlock exactly
// that composition.
func (m *Module) Barrier(c *core.Ctx) {
	defer stats.Track(ModuleName, "barrier")()
	prom := core.NewPromise(m.rt)
	m.rank.BarrierAsync(func() { prom.Put(nil) })
	c.Wait(prom.Future())
}

// BarrierFuture is the nonblocking barrier: the returned future is
// satisfied when all ranks arrive.
func (m *Module) BarrierFuture(c *core.Ctx) *core.Future {
	prom := core.NewPromise(m.rt)
	m.rank.BarrierAsync(func() { prom.Put(nil) })
	return prom.Future()
}
