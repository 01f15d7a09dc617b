package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/deque"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Options tunes runtime construction. The zero value gives sensible
// defaults.
type Options struct {
	// MaxBlockedWorkers bounds how many workers may simultaneously be
	// parked on unsatisfied futures with substitutes running in their
	// stead. Beyond the bound, blocking degrades to plain parking (no
	// substitute), which is safe but temporarily loses parallelism.
	// Default 256.
	MaxBlockedWorkers int
	// SpinRounds is how many full pop+steal scans a worker performs
	// (yielding between rounds) before parking. Default 2.
	SpinRounds int
	// Trace, when non-nil, arms runtime-wide tracing with the given
	// configuration: per-worker event rings recording the full task
	// lifecycle, exportable as Chrome trace JSON via Runtime.TraceDump.
	// A nil Trace costs the hot path one pointer check.
	Trace *trace.Config
	// Watchdog, when non-nil with a positive Deadline, arms the quiesce
	// watchdog: a monitored wait (Launch's root scope, a Finish drain,
	// Close) that outlives the deadline produces a structured StallReport
	// instead of hanging silently. A nil Watchdog costs the hot path one
	// pointer check.
	Watchdog *WatchdogConfig
	// Policy selects the scheduling policy (pop order, steal-victim
	// selection and batch sizing, place-group resolution). Nil — or a
	// policy whose NewRuntime returns nil, like the default random-steal —
	// keeps the built-in inline fast path; see internal/core/policy.go.
	Policy SchedPolicy
}

func (o *Options) withDefaults() Options {
	out := Options{MaxBlockedWorkers: 256, SpinRounds: 2}
	if o != nil {
		if o.MaxBlockedWorkers > 0 {
			out.MaxBlockedWorkers = o.MaxBlockedWorkers
		}
		if o.SpinRounds > 0 {
			out.SpinRounds = o.SpinRounds
		}
		out.Trace = o.Trace
		if o.Watchdog != nil && o.Watchdog.Deadline > 0 {
			cfg := *o.Watchdog
			out.Watchdog = &cfg
		}
		out.Policy = o.Policy
	}
	return out
}

const (
	// taskPoolCap bounds each worker's Task free-list; beyond it, retired
	// tasks are left for the garbage collector.
	taskPoolCap = 256
	// stealBatchMax caps how many tasks one StealBatch visit migrates.
	stealBatchMax = 16
)

// worker is a worker identity: the owner of one deque column across all
// places. Identities 0..N-1 are the configured workers; higher identities
// are used by substitution workers spawned while a peer is blocked.
type worker struct {
	id    int
	rt    *Runtime
	group int // path-group: which configured worker's paths this identity runs
	pop   []*platform.Place
	steal []*platform.Place
	rng   uint64

	// covers[placeID] reports whether the place is on this worker's pop or
	// steal path; popCover restricts to the pop path. Targeted wake-ups
	// consult covers, steal batching consults popCover. Shared per path
	// group (substitutes inherit the blocked worker's slices).
	covers   []bool
	popCover []bool

	// park is the worker's private parking slot: a one-token channel a
	// waker signals to unpark exactly this worker.
	park chan struct{}

	// taskPool is a free-list of retired Task structs, pushed by execute
	// and popped by spawn. Single-goroutine access only (the worker that
	// owns this identity), so steady-state spawn→run→retire cycles
	// allocate zero tasks with zero synchronization.
	taskPool []*Task

	// tr/ring are the tracing hooks: nil tr means tracing was never armed
	// and every instrumentation site costs one pointer check. ring is this
	// identity's single-writer event buffer. spawnTick drives periodic
	// queue-depth sampling; labelSets caches per-place pprof label sets.
	tr        *trace.Tracer
	ring      *trace.Ring
	spawnTick uint32
	labelSets []labelSet

	// stealBuf is scratch space for StealBatch visits.
	stealBuf [stealBatchMax]*Task

	// pw is the policy seam: nil selects the built-in random-steal fast
	// path in findWork; non-nil delegates pop order, victim selection, and
	// batch sizing to the plugin (findWorkPolicy). popOrder/victimBuf are
	// its allocation-free scratch, sized at attachPolicyWorker.
	pw        PolicyWorker
	popOrder  []int32
	victimBuf []int32

	// wdState/wdPlace publish the worker's activity class for the quiesce
	// watchdog's stall report. Written only when the watchdog is armed
	// (rt.watch non-nil); otherwise each site costs one pointer check.
	wdState atomic.Int32
	wdPlace atomic.Int32

	// statistics (atomics so Stats can read them live)
	tasks   atomic.Uint64
	pops    atomic.Uint64
	steals  atomic.Uint64
	parks   atomic.Uint64
	batched atomic.Uint64
}

// Runtime is the generalized work-stealing runtime: a persistent pool of
// workers executing tasks from per-place, per-worker deques according to
// the platform model's pop and steal paths.
type Runtime struct {
	model *platform.Model
	opts  Options

	nWorkers int // configured (target active) worker count
	maxIDs   int // worker identity columns (nWorkers + substitution slots)

	deques          [][]deque.Deque[Task] // [placeID][workerID]
	inject          []injector            // [placeID]
	pendingPerPlace []atomic.Int64
	covered         []bool // placeID -> reachable by some path

	workers []*worker // all identities
	freeIDs chan int  // identities available for substitution workers
	maxUsed atomic.Int64

	// idle is a stack of parked workers. Enqueues wake at most one idle
	// worker covering the task's place (targeted wake-up); the broadcast
	// path (wakeAll) is reserved for shutdown and retire requests.
	idleMu    sync.Mutex
	idle      []*worker
	idleCount atomic.Int64

	// retireGroup[g] counts surplus runners that should retire from path
	// group g. Retirement is group-aware: when a blocked worker resumes,
	// only a runner covering the same places may exit, otherwise a
	// special-purpose place (e.g. the Interconnect) could lose its only
	// active servicer while its owner is still blocked.
	retireGroup   []atomic.Int64
	substitutions atomic.Uint64
	stopped       atomic.Bool
	started       atomic.Bool
	runners       sync.WaitGroup

	copyHandlers map[[2]platform.Kind]CopyHandler

	// tracer is non-nil iff Options.Trace armed tracing; closed latches
	// the one-shot flush work Close performs after Shutdown.
	tracer *trace.Tracer
	closed atomic.Bool

	// watch is non-nil iff Options.Watchdog armed the quiesce watchdog.
	watch *watchdogState

	// pol is the active policy's per-runtime state; nil means the built-in
	// random-steal fast path (either no Options.Policy, or a policy whose
	// NewRuntime returned nil). polName always names the active policy.
	pol     PolicyRuntime
	polName string

	// finalizers registered by modules, run during Shutdown.
	finalizeMu sync.Mutex
	finalizers []func()
}

// New builds a runtime over the given platform model. The model must
// validate; its worker specifications define the pool size and each
// worker's pop and steal paths.
func New(model *platform.Model, opts *Options) (*Runtime, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil platform model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	n := model.NumWorkers()
	r := &Runtime{
		model:        model,
		opts:         o,
		nWorkers:     n,
		maxIDs:       n + o.MaxBlockedWorkers,
		copyHandlers: make(map[[2]platform.Kind]CopyHandler),
	}
	np := model.NumPlaces()
	r.deques = make([][]deque.Deque[Task], np)
	for p := 0; p < np; p++ {
		r.deques[p] = make([]deque.Deque[Task], r.maxIDs)
	}
	r.inject = make([]injector, np)
	r.pendingPerPlace = make([]atomic.Int64, np)
	r.covered = make([]bool, np)
	for id := range model.CoveredPlaces() {
		r.covered[id] = true
	}
	r.polName = "random-steal"
	if o.Policy != nil {
		r.polName = o.Policy.Name()
		r.pol = o.Policy.NewRuntime(PolicyEnv{
			Model:    model,
			NWorkers: n,
			MaxIDs:   r.maxIDs,
			Pending:  func(pid int) int64 { return r.pendingPerPlace[pid].Load() },
		})
	}

	resolve := func(ids []int) []*platform.Place {
		out := make([]*platform.Place, len(ids))
		for i, id := range ids {
			out[i] = model.Place(id)
		}
		return out
	}
	// One coverage pair per path group, shared by every identity (and
	// substitute) running that group's paths.
	groupPop := make([][]*platform.Place, n)
	groupSteal := make([][]*platform.Place, n)
	groupCovers := make([][]bool, n)
	groupPopCover := make([][]bool, n)
	for g := 0; g < n; g++ {
		spec := model.Workers()[g]
		groupPop[g] = resolve(spec.Pop)
		groupSteal[g] = resolve(spec.Steal)
		cov := make([]bool, np)
		pc := make([]bool, np)
		for _, p := range groupPop[g] {
			cov[p.ID] = true
			pc[p.ID] = true
		}
		for _, p := range groupSteal[g] {
			cov[p.ID] = true
		}
		groupCovers[g] = cov
		groupPopCover[g] = pc
	}
	if o.Trace != nil {
		r.tracer = trace.New(r.maxIDs, *o.Trace)
		names := make([]string, np)
		for p := 0; p < np; p++ {
			names[p] = model.Place(p).Name
		}
		r.tracer.SetPlaceNames(names)
		r.tracer.SetPolicy(r.polName)
	}
	r.workers = make([]*worker, r.maxIDs)
	for id := 0; id < r.maxIDs; id++ {
		g := id % n
		r.workers[id] = &worker{
			id:       id,
			rt:       r,
			group:    g,
			pop:      groupPop[g],
			steal:    groupSteal[g],
			covers:   groupCovers[g],
			popCover: groupPopCover[g],
			park:     make(chan struct{}, 1),
			rng:      uint64(id)*0x9E3779B97F4A7C15 + 0x1234567,
		}
		if r.tracer != nil {
			r.workers[id].tr = r.tracer
			// Configured workers get their ring now; substitution
			// identities allocate theirs on first activation (waitOn) —
			// most of the substitution slots never run.
			if id < n {
				r.workers[id].ring = r.tracer.Ring(id)
			}
		}
		// Configured workers get their policy state now; substitution
		// identities build theirs at activation, when their inherited
		// paths are known.
		if r.pol != nil && id < n {
			r.attachPolicyWorker(r.workers[id])
		}
	}
	if o.Watchdog != nil {
		r.watch = newWatchdogState(r, *o.Watchdog)
	}
	r.retireGroup = make([]atomic.Int64, n)
	r.freeIDs = make(chan int, r.maxIDs)
	for id := n; id < r.maxIDs; id++ {
		r.freeIDs <- id
	}
	r.maxUsed.Store(int64(n))
	return r, nil
}

// NewDefault builds a runtime over platform.Default(workers); workers <= 0
// selects GOMAXPROCS.
func NewDefault(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r, err := New(platform.Default(workers), nil)
	if err != nil {
		panic(err) // unreachable: Default models validate
	}
	return r
}

// Model returns the platform model the runtime was built over.
func (r *Runtime) Model() *platform.Model { return r.model }

// NumWorkers returns the configured worker count.
func (r *Runtime) NumWorkers() int { return r.nWorkers }

// Start launches the persistent worker pool. It is idempotent.
func (r *Runtime) Start() {
	if r.started.Swap(true) {
		return
	}
	for id := 0; id < r.nWorkers; id++ {
		r.runners.Add(1)
		go r.runner(r.workers[id])
	}
}

// Shutdown runs registered module finalizers, signals all workers to exit,
// and waits for them. Outstanding tasks are abandoned; callers should only
// shut down after quiescence (Launch returns only when its whole task tree
// has completed).
func (r *Runtime) Shutdown() {
	if !r.started.Load() || r.stopped.Swap(true) {
		return
	}
	r.finalizeMu.Lock()
	fins := r.finalizers
	r.finalizers = nil
	r.finalizeMu.Unlock()
	for i := len(fins) - 1; i >= 0; i-- {
		fins[i]()
	}
	r.wakeAll()
	r.runners.Wait()
}

// RegisterFinalizer queues fn to run (LIFO) at Shutdown. Modules register
// their finalization functions here.
func (r *Runtime) RegisterFinalizer(fn func()) {
	r.finalizeMu.Lock()
	r.finalizers = append(r.finalizers, fn)
	r.finalizeMu.Unlock()
}

// Launch runs fn as a root task inside an implicit finish scope and blocks
// the calling goroutine until fn and every task it transitively spawned
// have completed. The runtime is started if necessary.
//
// Launch returns the root scope's error: the first task-body panic
// (converted to a *PanicError by the execute barrier) or AsyncErr
// failure recorded against any scope that propagated to the root. A
// failing task fails only its own futures and finish-scope chain — the
// runtime stays schedulable and later Launch calls run normally. With
// the quiesce watchdog armed in Abort mode, a root scope that outlives
// the deadline returns ErrStalled wrapped with the stall diagnostic.
func (r *Runtime) Launch(fn func(*Ctx)) error {
	r.Start()
	fs := newFinishScope(r)
	root := &Task{fn: fn, place: r.defaultPlace(), finish: fs}
	fs.inc()
	r.enqueue(nil, root)
	fs.dec(nil)
	f := fs.future()
	if err := r.rootWait(f); err != nil {
		return err
	}
	return f.errSettled()
}

// SpawnDetachedAt enqueues a task at place p from outside any task context
// (no finish scope, injector path). Modules use it to arm pollers from
// completion callbacks that run on non-worker goroutines.
func (r *Runtime) SpawnDetachedAt(p *platform.Place, fn func(*Ctx)) {
	r.spawn(nil, p, nil, fn)
}

// defaultPlace is where root tasks land: the first place of worker 0's pop
// path.
func (r *Runtime) defaultPlace() *platform.Place {
	return r.workers[0].pop[0]
}

// newTask obtains a Task struct, recycling from w's free-list when possible.
// Only the goroutine owning identity w may call this (the pool is
// unsynchronized by design).
func (r *Runtime) newTask(w *worker, fn func(*Ctx), p *platform.Place, fs *finishScope) *Task {
	var t *Task
	if w != nil {
		if n := len(w.taskPool); n > 0 {
			t = w.taskPool[n-1]
			w.taskPool[n-1] = nil
			w.taskPool = w.taskPool[:n-1]
		}
	}
	if t == nil {
		t = &Task{}
	}
	t.fn, t.place, t.finish = fn, p, fs
	return t
}

// freeTask returns a retired Task to w's free-list. The caller must
// guarantee no live references remain (see execute for why that holds).
func (w *worker) freeTask(t *Task) {
	if len(w.taskPool) >= taskPoolCap {
		return
	}
	t.fn, t.place, t.finish = nil, nil, nil
	t.tid = 0
	t.deps.set(0)
	w.taskPool = append(w.taskPool, t)
}

// spawn creates an eligible task at place p registered with finish scope
// fs, pushed through worker w's own deque column (or the place's injector
// when w is nil).
func (r *Runtime) spawn(w *worker, p *platform.Place, fs *finishScope, fn func(*Ctx)) {
	r.checkCovered(p)
	if fs != nil {
		fs.inc()
	}
	r.enqueue(w, r.newTask(w, fn, p, fs))
}

// spawnAwait creates a task predicated on the given futures.
func (r *Runtime) spawnAwait(w *worker, p *platform.Place, fs *finishScope, fn func(*Ctx), futures []*Future) {
	r.checkCovered(p)
	if fs != nil {
		fs.inc()
	}
	t := r.newTask(w, fn, p, fs)
	if len(futures) == 0 {
		r.enqueue(w, t)
		return
	}
	// +1 guard reference so the task cannot launch until registration of
	// every future has been attempted (avoids double-enqueue races). The
	// guard keeps the counter >= 1 for the whole loop, so only the final
	// dec below can ever enqueue — decs inside the loop never reach zero.
	t.deps.set(len(futures) + 1)
	for _, f := range futures {
		if !f.addTaskWaiter(t) {
			// Already satisfied: account for it immediately.
			t.deps.dec()
		}
	}
	if t.deps.dec() {
		r.enqueue(w, t)
	}
}

// checkCovered rejects spawns at places no worker path covers: such tasks
// would never run. The check happens before the task is registered with any
// finish scope, so a recovered panic leaves the runtime consistent.
func (r *Runtime) checkCovered(p *platform.Place) {
	if !r.covered[p.ID] {
		panic(fmt.Sprintf("core: task enqueued at place %v which is on no worker's pop or steal path", p))
	}
}

// enqueue makes t visible to the scheduler and wakes at most one parked
// worker able to service it.
func (r *Runtime) enqueue(w *worker, t *Task) {
	pid := t.place.ID
	depth := r.pendingPerPlace[pid].Add(1)
	if tr := r.tracer; tr != nil && tr.Enabled() {
		r.traceSpawn(tr, w, t, pid, depth)
	}
	if w != nil {
		r.deques[pid][w.id].PushBottom(t)
	} else {
		r.inject[pid].push(t)
	}
	r.wake(pid)
}

// queueSampleEvery is how many traced spawns a worker records between
// queue-depth samples: dense enough to chart load, sparse enough to keep
// fan-outs from flooding the ring with counter events.
const queueSampleEvery = 64

// traceSpawn records a task's eligibility (and, periodically, a
// place-tagged queue-depth sample). The task ID is allocated here — at
// the task's single enqueue — so pooled Task structs never carry a stale
// identity into a new lifecycle.
func (r *Runtime) traceSpawn(tr *trace.Tracer, w *worker, t *Task, pid int, depth int64) {
	if t.tid == 0 {
		t.tid = uint32(tr.NextTaskID())
	}
	if w == nil {
		tr.RecordExternal(trace.EvSpawn, int32(pid), uint64(t.tid), 0)
		return
	}
	w.ring.Record(trace.EvSpawn, int32(pid), uint64(t.tid), 0)
	if w.spawnTick++; w.spawnTick%queueSampleEvery == 0 {
		w.ring.Record(trace.EvQueueDepth, int32(pid), 0, uint64(depth))
	}
}

// wake unparks at most one idle worker whose paths cover place pid. Unlike
// a broadcast, an enqueue never causes a thundering herd of wake-ups: the
// woken worker that finds the task keeps running, and every other worker
// stays parked. Lost-wakeup safety comes from park's publish-then-recheck
// protocol: a parking worker registers itself in the idle list before
// re-checking its places' pending counters, so an enqueue either sees the
// worker in the list (and wakes it) or the worker's recheck sees the
// pending count (and it does not sleep).
func (r *Runtime) wake(pid int) {
	if r.idleCount.Load() == 0 {
		return
	}
	r.idleMu.Lock()
	for i := len(r.idle) - 1; i >= 0; i-- {
		w := r.idle[i]
		if w.covers[pid] {
			r.removeIdleAt(i)
			// The token must be sent while idleMu is still held: unpark's
			// drain runs only after it observes w delisted under the same
			// mutex, so the send is then guaranteed to have landed and the
			// drain cannot miss it. Sending after unlock would let a stale
			// token leak into w's next park cycle, leaving a dangling idle
			// entry that could absorb a later wake meant for a truly parked
			// worker (lost wake-up).
			select {
			case w.park <- struct{}{}:
			default:
			}
			break
		}
	}
	r.idleMu.Unlock()
}

// removeIdleAt deletes the idle entry at index i by swap-remove (O(1), and
// the vacated tail slot is nil-ed so no stale *worker lingers in the backing
// array). Caller must hold idleMu.
func (r *Runtime) removeIdleAt(i int) {
	last := len(r.idle) - 1
	r.idle[i] = r.idle[last]
	r.idle[last] = nil
	r.idle = r.idle[:last]
	r.idleCount.Add(-1)
}

// wakeAll unparks every idle worker. Reserved for events a targeted wake
// cannot express: shutdown and retire requests, which park does not observe
// via pending counters.
func (r *Runtime) wakeAll() {
	r.idleMu.Lock()
	ws := r.idle
	r.idle = nil
	r.idleCount.Store(0)
	// Tokens are sent under idleMu for the same reason as in wake: a
	// delisted worker's unpark drain must be able to rely on the token
	// already being present.
	for _, w := range ws {
		select {
		case w.park <- struct{}{}:
		default:
		}
	}
	r.idleMu.Unlock()
}

// park blocks w on its private parking slot until a waker signals it. The
// publish-then-recheck ordering makes the wait safe against concurrent
// enqueues (see wake).
func (r *Runtime) park(w *worker) {
	w.parks.Add(1)
	r.idleMu.Lock()
	r.idle = append(r.idle, w)
	r.idleCount.Add(1)
	r.idleMu.Unlock()
	if r.stopped.Load() || r.retireGroup[w.group].Load() > 0 || w.anyPending() {
		r.unpark(w)
		return
	}
	traced := w.tr != nil && w.tr.Enabled()
	if traced {
		w.ring.Record(trace.EvPark, trace.NoPlace, 0, 0)
	}
	if r.watch != nil {
		w.wdState.Store(wsParked)
	}
	<-w.park
	if r.watch != nil {
		w.wdState.Store(wsScanning)
	}
	if traced {
		w.ring.Record(trace.EvUnpark, trace.NoPlace, 0, 0)
	}
	// The waker that sent the token normally delisted us first, so this
	// scan finds nothing. It exists as self-cleanup: should a token ever
	// reach us while our entry is still listed, leaving the entry behind
	// would let it absorb a future targeted wake while we are running or
	// blocked elsewhere — a lost wake-up.
	r.idleMu.Lock()
	for i, x := range r.idle {
		if x == w {
			r.removeIdleAt(i)
			break
		}
	}
	r.idleMu.Unlock()
}

// unpark removes w from the idle list if still present. If absent, a waker
// claimed w and — because tokens are sent while idleMu is held — its token
// was already in w.park before we acquired the mutex, so the drain below is
// guaranteed to consume it and no stale token can cut short the next park.
func (r *Runtime) unpark(w *worker) {
	r.idleMu.Lock()
	for i, x := range r.idle {
		if x == w {
			r.removeIdleAt(i)
			r.idleMu.Unlock()
			return
		}
	}
	r.idleMu.Unlock()
	select {
	case <-w.park:
	default:
	}
}

// execute runs t on worker w, then settles its finish scope. The Task
// struct is recycled into w's free-list *before* the body runs: every field
// is captured first, and by eligibility time no other component holds a
// reference (deque slots below top are never re-read once top has passed
// them, and promise waiter lists drop the task when its dependency count
// drains — which necessarily happened before enqueue).
//
// The body runs under the panic containment barrier (runBody): a panic
// is converted to a *PanicError and recorded against the enclosing
// finish scope — the task's failure domain — and the worker continues
// scheduling. This is the ONE recover in the runtime; task bodies and
// modules must not install their own (hiper-lint: recover-outside-worker).
func (r *Runtime) execute(w *worker, t *Task) {
	w.tasks.Add(1)
	fn, place, fin, tid := t.fn, t.place, t.finish, t.tid
	w.freeTask(t)
	c := Ctx{rt: r, w: w, place: place, fin: fin, tid: uint64(tid)}
	if r.watch != nil {
		w.wdPlace.Store(int32(place.ID))
		w.wdState.Store(wsRunning)
	}
	err := r.runBody(w, fn, &c)
	if r.watch != nil {
		w.wdState.Store(wsScanning)
	}
	if err != nil && fin != nil {
		fin.fail(err)
	}
	if fin != nil {
		fin.dec(&c)
	}
}

// runBody executes one task body under the recover barrier, returning
// the body's panic (if any) converted to a *PanicError. The zero-error
// fast path costs one deferred call and no allocation.
func (r *Runtime) runBody(w *worker, fn func(*Ctx), c *Ctx) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = wrapPanic(pv)
		}
	}()
	if tr := w.tr; tr != nil && tr.Enabled() {
		pid := int32(c.place.ID)
		w.ring.Record(trace.EvStart, pid, c.tid, 0)
		if tr.Config().PprofLabels {
			w.runLabeled(c.place, fn, c)
		} else {
			fn(c)
		}
		w.ring.Record(trace.EvFinish, pid, c.tid, 0)
	} else {
		fn(c)
	}
	return nil
}

// findWork performs one full scan: pop path first (own work, LIFO), then
// steal path (others' work and injected work, FIFO). Steals from victims at
// places on w's own pop path are batched: up to half the victim's run
// migrates into w's deque column in one visit, so fine-grained fan-outs
// re-balance in O(log n) visits instead of one visit per task.
func (w *worker) findWork() *Task {
	if w.pw != nil {
		return w.findWorkPolicy()
	}
	r := w.rt
	for _, p := range w.pop {
		if t := r.deques[p.ID][w.id].PopBottom(); t != nil {
			r.pendingPerPlace[p.ID].Add(-1)
			w.pops.Add(1)
			return t
		}
	}
	maxUsed := int(r.maxUsed.Load())
	traced := w.tr != nil && w.tr.Enabled()
	for _, p := range w.steal {
		if r.pendingPerPlace[p.ID].Load() == 0 {
			continue
		}
		if traced {
			w.ring.Record(trace.EvStealAttempt, int32(p.ID), 0, 0)
		}
		if t := r.inject[p.ID].take(); t != nil {
			r.pendingPerPlace[p.ID].Add(-1)
			w.steals.Add(1)
			if traced {
				w.ring.Record(trace.EvStealSuccess, int32(p.ID), uint64(t.tid), 0)
			}
			return t
		}
		// Start at a pseudo-random victim to spread contention.
		start := int(w.nextRand() % uint64(maxUsed))
		batch := w.popCover[p.ID] // surplus must land where our pop path finds it
		for k := 0; k < maxUsed; k++ {
			vid := start + k
			if vid >= maxUsed {
				vid -= maxUsed
			}
			if vid == w.id {
				continue
			}
			for {
				if batch {
					n, retry := r.deques[p.ID][vid].StealBatch(w.stealBuf[:])
					if n > 0 {
						t := w.takeBatch(p.ID, n)
						r.pendingPerPlace[p.ID].Add(-1)
						w.steals.Add(1)
						if traced {
							w.ring.Record(trace.EvStealSuccess, int32(p.ID), uint64(t.tid), uint64(n-1))
						}
						return t
					}
					if !retry {
						break
					}
					continue
				}
				t, retry := r.deques[p.ID][vid].Steal()
				if t != nil {
					r.pendingPerPlace[p.ID].Add(-1)
					w.steals.Add(1)
					if traced {
						w.ring.Record(trace.EvStealSuccess, int32(p.ID), uint64(t.tid), 0)
					}
					return t
				}
				if !retry {
					break
				}
			}
		}
	}
	return nil
}

// takeBatch consumes a StealBatch result: the oldest task is returned for
// immediate execution and the surplus is re-queued into w's own deque
// column at the same place. The surplus stays pending at pid, so the
// place's pending counter is unchanged for all but the returned task.
func (w *worker) takeBatch(pid, n int) *Task {
	t := w.stealBuf[0]
	w.stealBuf[0] = nil
	if n > 1 {
		own := &w.rt.deques[pid][w.id]
		for i := 1; i < n; i++ {
			own.PushBottom(w.stealBuf[i])
			w.stealBuf[i] = nil
		}
		w.batched.Add(uint64(n - 1))
	}
	return t
}

// anyPending reports whether any place on w's paths has pending tasks.
func (w *worker) anyPending() bool {
	r := w.rt
	for _, p := range w.pop {
		if r.pendingPerPlace[p.ID].Load() > 0 {
			return true
		}
	}
	for _, p := range w.steal {
		if r.pendingPerPlace[p.ID].Load() > 0 {
			return true
		}
	}
	return false
}

func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// runner is the persistent worker loop.
func (r *Runtime) runner(w *worker) {
	defer r.runners.Done()
	for {
		if r.stopped.Load() {
			return
		}
		// A surplus runner (created by worker substitution) retires when a
		// blocked peer of the same path group resumes, keeping the active
		// count per group at its configured level.
		rg := &r.retireGroup[w.group]
		if n := rg.Load(); n > 0 && rg.CompareAndSwap(n, n-1) {
			r.releaseID(w)
			return
		}
		if t := w.findWork(); t != nil {
			r.execute(w, t)
			continue
		}
		// Nothing found: spin briefly, then park.
		found := false
		for s := 0; s < r.opts.SpinRounds; s++ {
			runtime.Gosched()
			if t := w.findWork(); t != nil {
				r.execute(w, t)
				found = true
				break
			}
		}
		if found {
			continue
		}
		r.park(w)
	}
}

// releaseID returns a substitution identity to the free pool. Identities
// below nWorkers are permanent and never released.
func (r *Runtime) releaseID(w *worker) {
	if w.id >= r.nWorkers {
		r.freeIDs <- w.id
	}
}

// waitOn blocks the task tid until f is satisfied, helping with other
// eligible work and substituting the worker if it must truly park. The
// suspension is traced as an async span on tid: the worker's own track
// keeps showing the tasks it helps with meanwhile.
func (r *Runtime) waitOn(w *worker, tid uint64, f *Future) {
	for !f.Done() {
		if t := w.findWork(); t != nil {
			r.execute(w, t)
			continue
		}
		if f.Done() {
			return
		}
		ch := make(chan struct{})
		if !f.addChanWaiter(ch) {
			return
		}
		suspendTraced := w.tr != nil && w.tr.Enabled()
		if suspendTraced {
			w.ring.Record(trace.EvSuspend, trace.NoPlace, tid, 0)
		}
		// Hand our concurrency slot to a substitute, if one is available.
		// The substitute inherits OUR paths and group: it must service
		// exactly the places we would have, or special-purpose places
		// (like the MPI module's Interconnect) could starve while we wait.
		substituted := false
		select {
		case id := <-r.freeIDs:
			sub := r.workers[id]
			if sub.tr != nil && sub.ring == nil {
				sub.ring = sub.tr.Ring(id)
			}
			sub.group = w.group
			sub.pop = w.pop
			sub.steal = w.steal
			sub.covers = w.covers
			sub.popCover = w.popCover
			if r.pol != nil {
				// The substitute runs OUR paths now; rebuild its policy
				// state to match (published to its goroutine by the `go`
				// statement below, like the path slices above).
				r.attachPolicyWorker(sub)
			}
			for {
				cur := r.maxUsed.Load()
				if int64(id) < cur || r.maxUsed.CompareAndSwap(cur, int64(id)+1) {
					break
				}
			}
			r.substitutions.Add(1)
			r.runners.Add(1)
			go r.runner(sub)
			substituted = true
		default:
			// Substitution budget exhausted; park without a substitute.
		}
		if r.watch != nil {
			w.wdState.Store(wsBlocked)
		}
		<-ch
		if r.watch != nil {
			w.wdState.Store(wsScanning)
		}
		if suspendTraced {
			w.ring.Record(trace.EvResume, trace.NoPlace, tid, 0)
		}
		if substituted {
			// We are back: ask one surplus runner of our group to retire.
			// Retirement needs a broadcast: parked workers cannot observe
			// retire requests through pending counters.
			r.retireGroup[w.group].Add(1)
			r.wakeAll()
		}
	}
}

// Stats is a snapshot of scheduler activity, usable for the tooling hooks
// the paper describes (a unified scheduler is aware of all work on the
// system).
type Stats struct {
	Policy        string // active scheduling policy name
	TasksExecuted uint64
	Pops          uint64 // tasks taken from own deques (pop path)
	Steals        uint64 // tasks taken from other workers or injectors
	BatchStolen   uint64 // surplus tasks migrated by batched steals
	Parks         uint64
	Substitutions uint64 // replacement workers spawned for blocked peers
	MaxWorkerIDs  int    // identity columns ever activated
}

// Policy returns the active scheduling policy's name ("random-steal" by
// default).
func (r *Runtime) Policy() string { return r.polName }

// Stats returns a snapshot of scheduler counters.
func (r *Runtime) Stats() Stats {
	s := Stats{Policy: r.polName}
	for _, w := range r.workers {
		s.TasksExecuted += w.tasks.Load()
		s.Pops += w.pops.Load()
		s.Steals += w.steals.Load()
		s.BatchStolen += w.batched.Load()
		s.Parks += w.parks.Load()
	}
	s.Substitutions = r.substitutions.Load()
	s.MaxWorkerIDs = int(r.maxUsed.Load())
	return s
}
