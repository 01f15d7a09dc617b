package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/fabric"
)

// The layer ladder: per-op cost of each rung of the stack, measured by
// calling the packages' public functions outside any workload. A bfs or
// uts solve_s change can be pinned to a rung whose row moved with it.

// ladderRepeats is how many timed repeats each row takes; a row reports
// the median repeat.
const ladderRepeats = 5

// mallocs returns heap allocations performed while fn runs.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// measureRow times ops operations ladderRepeats times (plus one warm-up)
// and returns the median ns/op and allocs/op.
func measureRow(ops int, run func(ops int) time.Duration) (nsOp, allocsOp float64) {
	run(ops / 4)
	ns := make([]float64, 0, ladderRepeats)
	al := make([]float64, 0, ladderRepeats)
	for i := 0; i < ladderRepeats; i++ {
		var d time.Duration
		m := mallocs(func() { d = run(ops) })
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		al = append(al, float64(m)/float64(ops))
	}
	return median(ns), median(al)
}

// ladderStack builds the ping-pong transport up to rung top (one of
// stackLayers) at zero cost and zero faults.
func ladderStack(top string) fabric.Transport {
	var t fabric.Transport = fabric.NewSim(2, fabric.CostModel{})
	for i := len(stackLayers) - 1; stackLayers[i] != top; {
		i--
		switch stackLayers[i] {
		case "chaos":
			t = fabric.NewChaos(t, fabric.FaultPlan{})
		case "reliable":
			t = fabric.NewReliable(t, fabric.RelConfig{})
		case "virtual":
			t = fabric.NewVirtual(t, fabric.NewEpochTable(2, 2))
		}
	}
	return t
}

// pingPong runs ops 64-byte round trips between ranks 0 and 1.
func pingPong(tr fabric.Transport, ops int) time.Duration {
	payload := make([]byte, 64)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for i := 0; i < ops; i++ {
			m := tr.Recv(1, 0, 1)
			tr.Send(1, 0, 2, m.Data)
		}
	}()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		tr.Send(0, 1, 1, payload)
		tr.Recv(0, 1, 2)
	}
	<-echoed
	return time.Since(t0)
}

// spawn times ops Async(noop) spawns, 64 per Finish scope.
func spawn(rt *core.Runtime, ops int) time.Duration {
	const batch = 64
	var d time.Duration
	_ = rt.Launch(func(c *core.Ctx) {
		t0 := time.Now()
		for done := 0; done < ops; done += batch {
			c.Finish(func(c *core.Ctx) {
				for i := 0; i < batch; i++ {
					c.Async(func(*core.Ctx) {})
				}
			})
		}
		d = time.Since(t0)
	})
	return d
}

// futureWait times ops AsyncFuture + Wait pairs: the waiting task
// suspends until the spawned one resolves its future.
func futureWait(rt *core.Runtime, ops int) time.Duration {
	var d time.Duration
	_ = rt.Launch(func(c *core.Ctx) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			c.Wait(c.AsyncFuture(func(*core.Ctx) any { return nil }))
		}
		d = time.Since(t0)
	})
	return d
}

var dequeSink *int

// pushPop times ops owner-side PushBottom + PopBottom pairs.
func pushPop(ops int) time.Duration {
	d := deque.New[int]()
	v := new(int)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		d.PushBottom(v)
		dequeSink = d.PopBottom()
	}
	return time.Since(t0)
}

// ladder measures every rung and returns its per-layer rows.
func ladder() map[string]float64 {
	out := map[string]float64{}
	for _, layer := range stackLayers {
		ops := 20000
		if layer == "reliable" || layer == "virtual" {
			ops = 5000
		}
		tr := ladderStack(layer)
		ns, al := measureRow(ops, func(n int) time.Duration { return pingPong(tr, n) })
		out["fabric."+layer+".pingpong_ns"] = ns
		out["fabric."+layer+".pingpong_allocs"] = al
	}
	rt := core.NewDefault(1)
	defer rt.Shutdown()
	out["core.spawn_ns"], out["core.spawn_allocs"] = measureRow(64*400, func(n int) time.Duration { return spawn(rt, n) })
	out["core.future_wait_ns"], _ = measureRow(20000, func(n int) time.Duration { return futureWait(rt, n) })
	out["deque.push_pop_ns"], _ = measureRow(1000000, pushPop)
	return out
}
