// Package upcxx implements the subset of UPC++ v1.0 that the HiPER UPC++
// module wraps: a PGAS shared heap with asynchronous one-sided rput/rget,
// remote procedure calls drained by an explicit progress function, and
// completion callbacks (UPC++ futures map onto HiPER futures in the
// module layer).
//
// HPGMG-FV's ghost-zone exchange is the paper's consumer: boxes rput face
// data into neighbours' shared arrays and chain dependent work on the
// completions.
//
// All remote operations — rput, rget, RPC control messages and their
// acknowledgements — are one-sided transfers on the World's transport
// (package fabric), so a UPC++ world composed over a shared fabric
// contends with MPI and SHMEM traffic for the same congestion windows.
package upcxx

import (
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// World is an in-process UPC++ job of n ranks.
type World struct {
	n     int
	tr    fabric.Transport
	coll  *fabric.Coll
	ranks []*Rank
}

// NewWorld creates an n-rank job over a simulated interconnect with the
// given remote-access cost model.
func NewWorld(n int, cost simnet.CostModel) *World {
	if n <= 0 {
		panic("upcxx: world needs at least one rank")
	}
	return NewWorldOver(fabric.NewSim(n, cost))
}

// NewWorldOver creates a job over an existing transport, one rank per
// endpoint. Several library worlds may share one transport; their traffic
// then shares links, congestion windows, and locality domains.
func NewWorldOver(tr fabric.Transport) *World {
	w := &World{n: tr.Size(), tr: tr, coll: fabric.NewColl(tr)}
	w.ranks = make([]*Rank, w.n)
	for i := range w.ranks {
		w.ranks[i] = &Rank{w: w, id: i}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Transport exposes the underlying transport (for diagnostics and for
// composing further library worlds over the same endpoints).
func (w *World) Transport() fabric.Transport { return w.tr }

// Rank returns rank r's handle.
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// Rank is one process's handle on the job.
type Rank struct {
	w  *World
	id int

	rpcMu       sync.Mutex
	rpcQ        []func()
	rpcNotify   func()
	writeNotify atomic.Pointer[func()] // read on every rput delivery
	pending     sync.WaitGroup         // outstanding one-sided ops issued by this rank
}

// OnRPCEnqueued registers fn to be invoked (on the delivering goroutine)
// whenever an inbound RPC is enqueued at this rank. Progress-driving
// layers — like the HiPER UPC++ module's poller — use it to wake up
// without busy-watching the queue.
func (r *Rank) OnRPCEnqueued(fn func()) {
	r.rpcMu.Lock()
	r.rpcNotify = fn
	r.rpcMu.Unlock()
}

// OnRemoteWrite registers fn to be invoked (on the delivering goroutine)
// after every rput into this rank's segment becomes visible: the data is
// already copied, and no segment lock is held. Layers that wait on
// values other ranks write — like the HiPER UPC++ module's when-futures —
// use it to wake on the arrival instead of polling for it. A nil fn
// clears the hook.
func (r *Rank) OnRemoteWrite(fn func()) {
	if fn == nil {
		r.writeNotify.Store(nil)
		return
	}
	r.writeNotify.Store(&fn)
}

// Hooked reports whether an OnRPCEnqueued or OnRemoteWrite hook is
// registered, so a layer that installs them can check it released them.
func (r *Rank) Hooked() bool {
	r.rpcMu.Lock()
	rpc := r.rpcNotify != nil
	r.rpcMu.Unlock()
	return rpc || r.writeNotify.Load() != nil
}

// ID returns the calling rank (upcxx::rank_me).
func (r *Rank) ID() int { return r.id }

// Size returns the job size (upcxx::rank_n).
func (r *Rank) Size() int { return r.w.n }

// Barrier synchronizes all ranks and flushes this rank's outstanding
// one-sided operations (upcxx::barrier).
func (r *Rank) Barrier() {
	r.pending.Wait()
	r.w.coll.Barrier()
}

// BarrierAsync arrives at the barrier once this rank's outstanding
// one-sided operations complete, and invokes onDone when all ranks have
// arrived. It never blocks the caller, so a scheduler can keep its workers
// busy (e.g. executing inbound RPCs other ranks' arrivals depend on).
func (r *Rank) BarrierAsync(onDone func()) {
	go func() {
		r.pending.Wait()
		r.w.coll.BarrierAsync(onDone)
	}()
}

// Quiet waits for this rank's outstanding one-sided operations.
func (r *Rank) Quiet() { r.pending.Wait() }

// SharedArray is a float64 array allocated in every rank's shared segment
// (one block per rank, like upcxx::new_array on each rank).
type SharedArray struct {
	w    *World
	data [][]float64
	mus  []sync.Mutex
}

// AllocShared allocates a shared array of length n per rank.
func (w *World) AllocShared(n int) *SharedArray {
	a := &SharedArray{w: w}
	a.data = make([][]float64, w.n)
	a.mus = make([]sync.Mutex, w.n)
	for i := range a.data {
		a.data[i] = make([]float64, n)
	}
	return a
}

// Len returns the per-rank length.
func (a *SharedArray) Len() int { return len(a.data[0]) }

// Local returns rank r's block for direct access; the caller is
// responsible for synchronization (after barrier / completion), as with
// upcxx::local_team access.
func (a *SharedArray) Local(r int) []float64 { return a.data[r] }

// Peek reads one element of rank r's block under the write lock, with no
// modelled delay. Counter-based synchronization protocols (sequence
// numbers rput alongside payloads) use it for cheap local polling.
func (a *SharedArray) Peek(r, i int) float64 {
	a.mus[r].Lock()
	v := a.data[r][i]
	a.mus[r].Unlock()
	return v
}

// RPut asynchronously copies vals into dst's block at off. onRemote (may
// be nil) runs when the data is remotely visible — UPC++'s remote
// completion. The source is captured eagerly (source completion is
// immediate).
func (r *Rank) RPut(a *SharedArray, dst, off int, vals []float64, onRemote func()) {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	target := r.w.ranks[dst]
	r.pending.Add(1)
	r.w.tr.Put(r.id, dst, 8*len(cp), func() {
		a.mus[dst].Lock()
		copy(a.data[dst][off:], cp)
		a.mus[dst].Unlock()
		if notify := target.writeNotify.Load(); notify != nil {
			(*notify)()
		}
	}, func() {
		if onRemote != nil {
			onRemote()
		}
		r.pending.Done()
	})
}

// RGet asynchronously copies n elements from src's block at off and
// delivers them to cb — UPC++'s operation completion.
func (r *Rank) RGet(a *SharedArray, src, off, n int, cb func([]float64)) {
	out := make([]float64, n)
	r.pending.Add(1)
	r.w.tr.Get(r.id, src, 8*n, func() {
		a.mus[src].Lock()
		copy(out, a.data[src][off:off+n])
		a.mus[src].Unlock()
	}, func() {
		cb(out)
		r.pending.Done()
	})
}

// RPC enqueues fn to execute on rank dst the next time dst calls Progress
// (upcxx::rpc with the master persona). onDone (may be nil) runs — on an
// arbitrary goroutine — after fn returns, modelling the round-trip
// acknowledgement future.
func (r *Rank) RPC(dst int, fn func(target *Rank), onDone func()) {
	target := r.w.ranks[dst]
	r.pending.Add(1)
	// The request travels as a 64-byte control message; the acknowledgement
	// (when requested) as an 8-byte return transfer issued after fn runs.
	r.w.tr.Put(r.id, dst, 64, func() {
		target.rpcMu.Lock()
		target.rpcQ = append(target.rpcQ, func() {
			fn(target)
			if onDone != nil {
				r.w.tr.Put(dst, r.id, 8, nil, onDone)
			}
		})
		notify := target.rpcNotify
		target.rpcMu.Unlock()
		if notify != nil {
			notify()
		}
	}, r.pending.Done)
}

// Progress drains and executes this rank's pending RPCs, returning how
// many ran (upcxx::progress). Somebody on the rank must call Progress for
// inbound RPCs to execute — exactly the obligation the HiPER module
// discharges with a poller task.
func (r *Rank) Progress() int {
	r.rpcMu.Lock()
	q := r.rpcQ
	r.rpcQ = nil
	r.rpcMu.Unlock()
	for _, fn := range q {
		fn()
	}
	return len(q)
}

// PendingRPCs reports whether RPCs await Progress.
func (r *Rank) PendingRPCs() bool {
	r.rpcMu.Lock()
	defer r.rpcMu.Unlock()
	return len(r.rpcQ) > 0
}
