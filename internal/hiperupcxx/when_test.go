package hiperupcxx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/upcxx"
)

// bounded runs fn and fails the test if it has not returned within d, so
// a lost wakeup shows up as a failure instead of a hung test binary.
func bounded(t testing.TB, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still waiting after %v: a when-future was never satisfied", d)
	}
}

// sharedOnce allocates one shared array for the whole job: the first rank
// to arrive allocates, every rank gets the same array.
type sharedOnce struct {
	once sync.Once
	arr  *upcxx.SharedArray
}

func (s *sharedOnce) get(w *upcxx.World, n int) *upcxx.SharedArray {
	s.once.Do(func() { s.arr = w.AllocShared(n) })
	return s.arr
}

// TestWhenGERacesArrivals ping-pongs sequence numbers between two ranks
// on a zero-cost fabric, so every WhenGE registration races the rput that
// satisfies it, and checks each future settles exactly once (a second Put
// panics) and none is lost. Run it under -race.
func TestWhenGERacesArrivals(t *testing.T) {
	const rounds = 10000
	var ctrs sharedOnce
	var settled [2]atomic.Int64
	bounded(t, 60*time.Second, func() {
		job(t, 2, 2, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *upcxx.World) {
			// Each rank's slot 0 holds the last sequence number its peer
			// sent: rank 0 sends k, rank 1 echoes it once it arrived.
			ctr := ctrs.get(w, 1)
			m.Barrier(c)
			me, peer := m.ID(), 1-m.ID()
			count := func(any) { settled[me].Add(1) }
			for k := 1; k <= rounds; k++ {
				want := []float64{float64(k)}
				if me == 0 {
					m.RPut(c, ctr, peer, 0, want)
				}
				// A second waiter on the same value, registered from
				// outside the runtime, races the task's registration.
				extra := core.NewPromise(c.Runtime())
				go func() {
					m.WhenGE(ctr, 0, want[0]).OnDone(func(v any) {
						count(v)
						extra.Put(nil)
					})
				}()
				f := m.WhenGE(ctr, 0, want[0])
				f.OnDone(count)
				c.Wait(f)
				if got := ctr.Peek(me, 0); got < want[0] {
					t.Errorf("rank %d round %d: future satisfied at %v", me, k, got)
				}
				c.Wait(extra.Future())
				if me == 1 {
					m.RPut(c, ctr, peer, 0, want)
				}
			}
			m.Barrier(c)
		})
	})
	for r := range settled {
		if got := settled[r].Load(); got != 2*rounds {
			t.Fatalf("rank %d: %d futures settled, want %d", r, got, 2*rounds)
		}
	}
}

// TestWhenGEWaitServicesTasks pins the wait's two properties on one
// worker per rank: the waiting task's worker keeps running other tasks
// (the sibling below can only run while rank 1's main task waits), and an
// event outside that runtime (rank 0's rput) releases the wait.
func TestWhenGEWaitServicesTasks(t *testing.T) {
	var sigs, ctrs sharedOnce
	var sibling atomic.Bool
	bounded(t, 30*time.Second, func() {
		job(t, 2, 1, simnet.CostModel{Alpha: time.Millisecond}, func(c *core.Ctx, m *Module, w *upcxx.World) {
			sig, ctr := sigs.get(w, 1), ctrs.get(w, 1)
			m.Barrier(c)
			if m.ID() == 0 {
				c.Wait(m.WhenGE(sig, 0, 1))
				c.Wait(m.RPut(c, ctr, 1, 0, []float64{1}))
			} else {
				c.Async(func(cc *core.Ctx) {
					sibling.Store(true)
					m.RPut(cc, sig, 0, 0, []float64{1})
				})
				f := m.WhenGE(ctr, 0, 1)
				if f.Done() {
					t.Error("when-future satisfied before the counter was written")
				}
				c.Wait(f)
				if !sibling.Load() {
					t.Error("wait released without the sibling task running")
				}
			}
			m.Barrier(c)
		})
	})
}

// TestShutdownReleasesRankHooks checks Finalize clears the rank's progress
// and arrival hooks, so a world that outlives its runtimes does not pin
// their modules.
func TestShutdownReleasesRankHooks(t *testing.T) {
	var world atomic.Pointer[upcxx.World]
	bounded(t, 30*time.Second, func() {
		job(t, 2, 1, simnet.CostModel{}, func(c *core.Ctx, m *Module, w *upcxx.World) {
			world.Store(w)
			if !m.Rank().Hooked() {
				t.Errorf("rank %d holds no hooks while its module is installed", m.ID())
			}
			m.Barrier(c)
		})
	})
	w := world.Load()
	for r := 0; r < w.Size(); r++ {
		if w.Rank(r).Hooked() {
			t.Fatalf("rank %d still holds hooks after Shutdown", r)
		}
	}
}

// BenchmarkRPutWhen is the counter ping-pong HPGMG's halo exchange is
// built from: each side rputs a data block, chains a counter rput on its
// completion, and waits on WhenGE for the peer's counter. One op is one
// round trip. The cost model is Alpha 15 µs (the Network model's latency,
// defined here because the bench package imports this one).
func BenchmarkRPutWhen(b *testing.B) {
	const block = 256
	var data, ctrs sharedOnce
	cost := simnet.CostModel{Alpha: 15 * time.Microsecond}
	b.ReportAllocs()
	job(b, 2, 1, cost, func(c *core.Ctx, m *Module, w *upcxx.World) {
		buf, ctr := data.get(w, block), ctrs.get(w, 1)
		vals := make([]float64, block)
		me, peer := m.ID(), 1-m.ID()
		m.Barrier(c)
		if me == 0 {
			b.ResetTimer()
		}
		var sent *core.Future // this rank's latest counter rput
		for k := 1; k <= b.N; k++ {
			want := []float64{float64(k)}
			if me == 0 {
				d := m.RPut(c, buf, peer, 0, vals)
				sent = m.RPutAwait(c, ctr, peer, 0, want, d)
			}
			c.Wait(m.WhenGE(ctr, 0, want[0]))
			if me == 1 {
				d := m.RPut(c, buf, peer, 0, vals)
				sent = m.RPutAwait(c, ctr, peer, 0, want, d)
			}
		}
		if me == 0 {
			b.StopTimer()
		}
		// Barrier flushes only issued rputs; the last chained one may
		// still be waiting on its data rput.
		c.Wait(sent)
		m.Barrier(c)
	})
}
