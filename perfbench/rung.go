package main

import (
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// Span kinds. A down span times a call into a layer, an up span times a
// callback the layer above handed down (its work, run on a delivery
// path), and a wait span times a blocking receive.
const (
	kindDown = iota
	kindUp
	kindWait
)

var kindCat = [...]string{kindDown: "down", kindUp: "up", kindWait: "wait"}

// openSpan is a span in progress on one goroutine's stack.
type openSpan struct {
	layer  string
	kind   int
	start  int64 // ns since the recorder's epoch
	child  int64 // ns covered by directly nested spans
	logged bool  // its begin event went to the chrome log
}

// recorder collects the spans the rung wrappers emit during one traced
// solve. Spans nest per goroutine, so a span's self time is its
// duration minus the durations of the spans directly inside it, and the
// self times of all spans add up exactly to the time covered by root
// spans.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	stacks map[uint64][]*openSpan
	log    *chromeLog // nil: keep aggregates only

	busy   map[string]int64 // layer -> self ns of down and up spans
	wait   map[string]int64 // layer -> self ns of blocking receives
	ops    map[string]int64 // "layer.op" -> calls into the layer
	rootNs int64            // ns covered by root spans
	opLat  []int64          // top boundary: Put/Get issue -> onDone, ns
}

func newRecorder(epoch time.Time, log *chromeLog) *recorder {
	return &recorder{
		epoch:  epoch,
		stacks: map[uint64][]*openSpan{},
		log:    log,
		busy:   map[string]int64{},
		wait:   map[string]int64{},
		ops:    map[string]int64{},
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(layer, op string, kind int) *openSpan {
	g := goroutineKey()
	s := &openSpan{layer: layer, kind: kind}
	r.mu.Lock()
	s.start = r.now()
	r.stacks[g] = append(r.stacks[g], s)
	if kind != kindUp {
		r.ops[layer+"."+op]++
	}
	if r.log != nil {
		s.logged = r.log.begin(layer+"."+op, kindCat[kind], s.start, g)
	}
	r.mu.Unlock()
	return s
}

func (r *recorder) end(s *openSpan) {
	g := goroutineKey()
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	st := r.stacks[g]
	st = st[:len(st)-1]
	if len(st) == 0 {
		delete(r.stacks, g)
	} else {
		r.stacks[g] = st
	}
	dur := now - s.start
	self := dur - s.child
	if s.kind == kindWait {
		r.wait[s.layer] += self
	} else {
		r.busy[s.layer] += self
	}
	if len(st) > 0 {
		st[len(st)-1].child += dur
	} else {
		r.rootNs += dur
	}
	if s.logged {
		r.log.end(now, g)
	}
}

func (r *recorder) latency(ns int64) {
	r.mu.Lock()
	r.opLat = append(r.opLat, ns)
	r.mu.Unlock()
}

// rung is a timing Transport decorator at one boundary of the stack:
// every call into layer is a down span, every callback the caller hands
// down runs inside an up span named after caller. At the top boundary,
// whose caller is the application, it also times each one-sided op from
// issue to its completion callback.
type rung struct {
	layer, caller string
	inner         fabric.Transport
	rec           *recorder
}

// up wraps a callback handed down through this boundary.
func (w *rung) up(fn func(), what string) func() {
	if fn == nil {
		return nil
	}
	return func() {
		s := w.rec.begin(w.caller, what, kindUp)
		fn()
		w.rec.end(s)
	}
}

func (w *rung) upMsg(fn func(fabric.Message)) func(fabric.Message) {
	return func(m fabric.Message) {
		s := w.rec.begin(w.caller, "on_recv", kindUp)
		fn(m)
		w.rec.end(s)
	}
}

// oneSided wraps a Put or Get's callbacks; at the top boundary onDone
// also records the op's issue-to-completion latency.
func (w *rung) oneSided(op string, apply, onDone func(),
	call func(apply, onDone func())) {
	s := w.rec.begin(w.layer, op, kindDown)
	done := w.up(onDone, "on_done")
	if w.caller == "app" {
		issued := w.rec.now()
		inner := done
		done = func() {
			if inner != nil {
				inner()
			}
			w.rec.latency(w.rec.now() - issued)
		}
	}
	call(w.up(apply, "apply"), done)
	w.rec.end(s)
}

func (w *rung) Size() int              { return w.inner.Size() }
func (w *rung) Cost() fabric.CostModel { return w.inner.Cost() }

func (w *rung) Send(src, dst, tag int, data []byte) {
	s := w.rec.begin(w.layer, "Send", kindDown)
	w.inner.Send(src, dst, tag, data)
	w.rec.end(s)
}

func (w *rung) Recv(dst, src, tag int) fabric.Message {
	s := w.rec.begin(w.layer, "Recv", kindWait)
	m := w.inner.Recv(dst, src, tag)
	w.rec.end(s)
	return m
}

func (w *rung) RecvAsync(dst, src, tag int, fn func(fabric.Message)) {
	s := w.rec.begin(w.layer, "RecvAsync", kindDown)
	w.inner.RecvAsync(dst, src, tag, w.upMsg(fn))
	w.rec.end(s)
}

func (w *rung) TryRecv(dst, src, tag int) (fabric.Message, bool) {
	s := w.rec.begin(w.layer, "TryRecv", kindDown)
	m, ok := w.inner.TryRecv(dst, src, tag)
	w.rec.end(s)
	return m, ok
}

func (w *rung) Probe(dst, src, tag int) (fabric.Message, bool) {
	s := w.rec.begin(w.layer, "Probe", kindDown)
	m, ok := w.inner.Probe(dst, src, tag)
	w.rec.end(s)
	return m, ok
}

func (w *rung) Put(src, dst, bytes int, apply, onDone func()) {
	w.oneSided("Put", apply, onDone, func(a, d func()) { w.inner.Put(src, dst, bytes, a, d) })
}

func (w *rung) Get(src, dst, bytes int, apply, onDone func()) {
	w.oneSided("Get", apply, onDone, func(a, d func()) { w.inner.Get(src, dst, bytes, a, d) })
}

func (w *rung) AllocTags(n int) int        { return w.inner.AllocTags(n) }
func (w *rung) SetTracer(tr *trace.Tracer) { w.inner.SetTracer(tr) }
func (w *rung) Stats() (msgs, bytes int64) { return w.inner.Stats() }
func (w *rung) Capacity() int              { return fabric.CapacityOf(w.inner) }

// Epoch and Alive forward the optional interfaces the layers above probe
// for (fabric.Coll's epoch check, Reliable's crashed-rank fast path), so
// a decorated stack behaves like the bare one.
func (w *rung) Epoch() uint64 {
	if e, ok := w.inner.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

func (w *rung) Alive(rank int) bool {
	if a, ok := w.inner.(interface{ Alive(rank int) bool }); ok {
		return a.Alive(rank)
	}
	return true
}

// stack is the bfs transport Virtual(Reliable(Chaos(Sim))) at zero cost
// and zero faults. With a recorder every rung boundary is decorated;
// without one the stack is built bare.
type stack struct {
	top   fabric.Transport
	sim   *fabric.Sim
	rel   *fabric.Reliable
	rungs []*rung
}

// stackLayers names the rungs top to bottom; "app" is the caller of the
// top boundary.
var stackLayers = []string{"virtual", "reliable", "chaos", "sim"}

func buildStack(n int, rec *recorder) *stack {
	st := &stack{}
	deco := func(t fabric.Transport, layer, caller string) fabric.Transport {
		if rec == nil {
			return t
		}
		w := &rung{layer: layer, caller: caller, inner: t, rec: rec}
		st.rungs = append(st.rungs, w)
		return w
	}
	st.sim = fabric.NewSim(n, fabric.CostModel{})
	ch := fabric.NewChaos(deco(st.sim, "sim", "chaos"), fabric.FaultPlan{})
	st.rel = fabric.NewReliable(deco(ch, "chaos", "reliable"), fabric.RelConfig{})
	vt := fabric.NewVirtual(deco(st.rel, "reliable", "virtual"), fabric.NewEpochTable(n, n))
	st.top = deco(vt, "virtual", "app")
	return st
}
