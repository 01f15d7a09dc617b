// Package core implements HiPER's generalized work-stealing runtime.
//
// "Generalized" refers to the ability to perform work-stealing load
// balancing for more than homogeneous computational tasks: the runtime
// schedules ordinary compute tasks, communication proxy tasks, accelerator
// proxy tasks, and any third-party module's work on one persistent pool of
// worker threads, using the platform model's places to segregate work by the
// hardware component it needs.
//
// The four components from the paper:
//
//  1. a persistent pool of worker goroutines (one per management core);
//  2. N task deques at each place in the platform model, where the i-th
//     deque at a place holds only eligible tasks spawned by worker i;
//  3. per-worker pop paths (own work, LIFO — locality) and steal paths
//     (others' work, FIFO — load balance) over the places;
//  4. task creation APIs: Async, AsyncAt, AsyncFuture, AsyncAwait, Finish,
//     Forasync, AsyncCopy, plus promises and futures for point-to-point
//     synchronization.
//
// Blocking never idles a worker: waiting first "helps" by executing other
// eligible tasks, and if it must truly park it hands its concurrency slot to
// a freshly spawned replacement worker (worker substitution). This stands in
// for the paper's Boost.Context call-stack swapping, which Go cannot express,
// while preserving the scheduling property that matters: a blocked task does
// not block a CPU core.
package core

import (
	"fmt"

	"repro/internal/platform"
)

// Task is a suspendable single-threaded stream of execution. Tasks may
// synchronize on other tasks (via futures and finish scopes) and create new
// tasks. A task becomes eligible when its dependency count reaches zero and
// is then pushed onto a deque at its place.
type Task struct {
	fn     func(*Ctx)
	place  *platform.Place
	finish *finishScope
	deps   depCounter
	// tid is the task's trace identity, allocated at enqueue when tracing
	// is enabled (0 otherwise) and cleared on recycle. 32 bits: it packs
	// beside deps so Task stays exactly 32 bytes; IDs only disambiguate
	// overlapping spans, so wrap-around on >4G-task runs is harmless.
	tid uint32
}

// Ctx is the execution context threaded through every task body. It
// identifies the runtime, the worker currently executing the task, and the
// enclosing finish scope. Go has no thread-local storage, so HiPER's C++
// free-function API surface becomes methods on Ctx.
type Ctx struct {
	rt    *Runtime
	w     *worker
	place *platform.Place // place the current task was scheduled at
	fin   *finishScope    // innermost finish scope
	tid   uint64          // trace identity of the current task (0 untraced)
}

// Runtime returns the runtime this context belongs to.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Place returns the place at which the current task is executing.
func (c *Ctx) Place() *platform.Place { return c.place }

// WorkerID returns the identity of the worker executing the current task.
// Identities above the configured worker count belong to substitution
// workers spawned while a peer is blocked.
func (c *Ctx) WorkerID() int { return c.w.id }

// Async creates a task executing fn at the place closest to the current
// worker — the place of the currently executing task. The task is registered
// with the innermost finish scope.
func (c *Ctx) Async(fn func(*Ctx)) {
	c.rt.spawn(c.w, c.place, c.fin, fn)
}

// AsyncAt creates a task executing fn at the given place.
func (c *Ctx) AsyncAt(p *platform.Place, fn func(*Ctx)) {
	c.rt.spawn(c.w, p, c.fin, fn)
}

// AsyncDetachedAt creates a task at place p that is registered with NO
// finish scope: enclosing Finish calls do not wait for it. Module pollers
// use detached tasks so that a user's finish scope never blocks on polling
// machinery servicing unrelated operations.
func (c *Ctx) AsyncDetachedAt(p *platform.Place, fn func(*Ctx)) {
	c.rt.spawn(c.w, p, nil, fn)
}

// AsyncWith is Async with spawn options: a Cost hint feeding the active
// scheduling policy's per-place cost model, and/or an AtGroup place group
// whose concrete place the policy resolves. AsyncAt(p, fn) is equivalent
// to AsyncWith(fn, AtGroup(p)). Options cost one variadic-slice
// allocation; spawns on allocation-critical paths should use Async.
func (c *Ctx) AsyncWith(fn func(*Ctx), opts ...SpawnOpt) {
	s := foldOpts(opts)
	p := c.rt.resolveSpawnPlace(c.place, s.group, s.cost)
	c.rt.spawnHinted(c.w, p, c.fin, fn, s.cost)
}

// AsyncFutureWith is AsyncFuture with spawn options (see AsyncWith).
func (c *Ctx) AsyncFutureWith(fn func(*Ctx) any, opts ...SpawnOpt) *Future {
	s := foldOpts(opts)
	p := c.rt.resolveSpawnPlace(c.place, s.group, s.cost)
	prom := NewPromise(c.rt)
	c.rt.spawnHinted(c.w, p, c.fin, func(cc *Ctx) {
		defer settlePanic(prom, cc)
		prom.put(cc, fn(cc))
	}, s.cost)
	return prom.Future()
}

// AsyncDetachedWith is AsyncDetachedAt with spawn options (see AsyncWith):
// modules use it to tag their proxy tasks — kernel launches, transfer
// pollers — with cost hints in their natural units.
func (c *Ctx) AsyncDetachedWith(fn func(*Ctx), opts ...SpawnOpt) {
	s := foldOpts(opts)
	p := c.rt.resolveSpawnPlace(c.place, s.group, s.cost)
	c.rt.spawnHinted(c.w, p, nil, fn, s.cost)
}

// AsyncFuture creates a task and returns a future that is satisfied with
// fn's return value when the task completes. If fn panics, the future
// fails with the *PanicError instead of never settling, and the panic
// continues to the execute barrier so the enclosing finish scope fails
// too.
func (c *Ctx) AsyncFuture(fn func(*Ctx) any) *Future {
	return c.AsyncFutureAt(c.place, fn)
}

// AsyncFutureAt is AsyncFuture at a specific place.
func (c *Ctx) AsyncFutureAt(p *platform.Place, fn func(*Ctx) any) *Future {
	prom := NewPromise(c.rt)
	c.rt.spawn(c.w, p, c.fin, func(cc *Ctx) {
		defer settlePanic(prom, cc)
		prom.put(cc, fn(cc))
	})
	return prom.Future()
}

// AsyncErr creates a task whose body reports failure by returning an
// error: a non-nil return is recorded against the enclosing finish scope
// (first error wins), surfacing from FinishErr or Launch — the
// recoverable-error counterpart of the panic barrier.
func (c *Ctx) AsyncErr(fn func(*Ctx) error) {
	c.AsyncErrAt(c.place, fn)
}

// AsyncErrAt is AsyncErr at a specific place.
func (c *Ctx) AsyncErrAt(p *platform.Place, fn func(*Ctx) error) {
	c.rt.spawn(c.w, p, c.fin, func(cc *Ctx) {
		if err := fn(cc); err != nil && cc.fin != nil {
			cc.fin.fail(err)
		}
	})
}

// settlePanic is the deferred barrier shared by the future-returning
// spawn variants: it fails the result future with the in-flight panic so
// waiters are released, then re-raises the wrapped error for the execute
// barrier to record against the finish scope.
func settlePanic(prom *Promise, cc *Ctx) {
	pv := recover()
	if pv == nil {
		return
	}
	pe := wrapPanic(pv)
	if !prom.done.Load() {
		prom.putResult(cc, nil, pe)
	}
	panic(pe)
}

// AsyncAwait creates a task whose execution is predicated on the
// satisfaction of all given futures.
func (c *Ctx) AsyncAwait(fn func(*Ctx), futures ...*Future) {
	c.AsyncAwaitAt(c.place, fn, futures...)
}

// AsyncAwaitAt is AsyncAwait at a specific place.
func (c *Ctx) AsyncAwaitAt(p *platform.Place, fn func(*Ctx), futures ...*Future) {
	c.rt.spawnAwait(c.w, p, c.fin, fn, futures)
}

// AsyncFutureAwait creates a task whose execution is predicated on the given
// futures and returns a future satisfied with fn's return value when the
// task completes.
func (c *Ctx) AsyncFutureAwait(fn func(*Ctx) any, futures ...*Future) *Future {
	return c.AsyncFutureAwaitAt(c.place, fn, futures...)
}

// AsyncFutureAwaitAt is AsyncFutureAwait at a specific place.
func (c *Ctx) AsyncFutureAwaitAt(p *platform.Place, fn func(*Ctx) any, futures ...*Future) *Future {
	prom := NewPromise(c.rt)
	c.rt.spawnAwait(c.w, p, c.fin, func(cc *Ctx) {
		defer settlePanic(prom, cc)
		prom.put(cc, fn(cc))
	}, futures)
	return prom.Future()
}

// finishRun is the shared body of Finish/FinishErr: open a scope, run fn
// inside it, drain. The drain runs in a defer so a panicking fn still
// waits for its spawned tasks; err is computed after the drain, when the
// scope's first failure (if any) has settled.
func (c *Ctx) finishRun(fn func(*Ctx)) (err error) {
	fs := newFinishScope(c.rt)
	prev := c.fin
	c.fin = fs
	defer func() {
		c.fin = prev
		fs.dec(c) // drop the scope's own reference
		stop := c.rt.armStallTimer("Finish")
		c.Wait(fs.future())
		stop()
		err = fs.future().errSettled()
	}()
	fn(c)
	return nil
}

// Finish executes fn and then waits for every task created within it —
// including transitively spawned tasks — to complete before returning.
// The wait helps execute eligible work and never idles the worker.
// A failure inside the scope (task panic, AsyncErr body error) is
// propagated to the enclosing scope after the drain; use FinishErr to
// handle it locally instead.
func (c *Ctx) Finish(fn func(*Ctx)) {
	if err := c.finishRun(fn); err != nil && c.fin != nil {
		c.fin.fail(err)
	}
}

// FinishErr is Finish returning the scope's first failure — a task-body
// panic (as *PanicError), an AsyncErr body error, or a Ctx.Fail — after
// every task in the scope has completed. The error is consumed: it does
// not propagate to the enclosing scope.
func (c *Ctx) FinishErr(fn func(*Ctx)) error {
	return c.finishRun(fn)
}

// FinishFuture executes fn like Finish but does not block: it returns a
// future satisfied when all tasks created within fn (transitively) complete.
func (c *Ctx) FinishFuture(fn func(*Ctx)) *Future {
	fs := newFinishScope(c.rt)
	prev := c.fin
	c.fin = fs
	defer func() {
		c.fin = prev
		fs.dec(c)
	}()
	fn(c)
	return fs.future()
}

// Wait blocks the current task until f is satisfied. While waiting, the
// worker executes other eligible tasks; if none are available the worker's
// concurrency slot is handed to a substitute so no CPU sits idle.
func (c *Ctx) Wait(f *Future) {
	c.rt.waitOn(c.w, c.tid, f)
}

// Get waits for f and returns its value.
func (c *Ctx) Get(f *Future) any {
	c.Wait(f)
	return f.valueLocked()
}

// GetErr waits for f and returns its error: nil for a future satisfied
// by Put, the failure for one settled by PutErr or the panic barrier.
// Like Get, the wait helps execute eligible work.
func (c *Ctx) GetErr(f *Future) error {
	c.Wait(f)
	return f.errSettled()
}

// Put satisfies promise p with v from inside a task. Tasks released by the
// satisfaction are enqueued through the current worker's deques, which is
// cheaper than the injector path taken by Promise.Put.
func (c *Ctx) Put(p *Promise, v any) {
	p.put(c, v)
}

// PutErr settles promise p as failed from inside a task; released
// waiters are enqueued through the current worker's deques.
func (c *Ctx) PutErr(p *Promise, err error) {
	p.putResult(c, nil, err)
}

// Fail records err against the innermost finish scope (first error
// wins) without aborting the current task. The error surfaces from the
// scope's FinishErr / Launch once the scope drains.
func (c *Ctx) Fail(err error) {
	if c.fin != nil {
		c.fin.fail(err)
	}
}

// Yield re-enqueues the remainder of the current task's work expressed as a
// continuation fn at the current place, giving other eligible tasks at this
// place a chance to run first. The paper's module pollers use exactly this
// pattern: poll the pending list, and if operations remain, yield and poll
// again later.
// The continuation goes through the place's FIFO injector rather than the
// worker's own LIFO deque: a yielded poller re-pushed LIFO would shadow
// every older task in its column and the worker would re-pop it forever,
// starving exactly the work the yield was meant to let through.
func (c *Ctx) Yield(fn func(*Ctx)) {
	// A yielded continuation belongs to the same finish scope.
	c.rt.spawn(nil, c.place, c.fin, fn)
}

// String implements fmt.Stringer for debugging.
func (c *Ctx) String() string {
	return fmt.Sprintf("ctx(worker=%d place=%v)", c.w.id, c.place)
}
