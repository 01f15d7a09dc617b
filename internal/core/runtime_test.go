package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
)

func newTestRuntime(t testing.TB, workers int) *Runtime {
	t.Helper()
	r := NewDefault(workers)
	t.Cleanup(r.Shutdown)
	return r
}

func TestLaunchRunsRoot(t *testing.T) {
	r := newTestRuntime(t, 2)
	var ran atomic.Bool
	r.Launch(func(c *Ctx) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("root task did not run")
	}
}

func TestAsyncWithinFinish(t *testing.T) {
	r := newTestRuntime(t, 4)
	var count atomic.Int64
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.Async(func(*Ctx) { count.Add(1) })
			}
		})
		if got := count.Load(); got != 100 {
			t.Errorf("finish returned with count=%d, want 100", got)
		}
	})
}

func TestFinishTransitive(t *testing.T) {
	r := newTestRuntime(t, 4)
	var count atomic.Int64
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			// Each spawned task spawns more tasks; finish must wait for all.
			for i := 0; i < 10; i++ {
				c.Async(func(c *Ctx) {
					for j := 0; j < 10; j++ {
						c.Async(func(c *Ctx) {
							c.Async(func(*Ctx) { count.Add(1) })
						})
					}
				})
			}
		})
		if got := count.Load(); got != 100 {
			t.Errorf("transitive finish: count=%d, want 100", got)
		}
	})
}

func TestNestedFinish(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		var inner, outer atomic.Int64
		c.Finish(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				for i := 0; i < 50; i++ {
					c.Async(func(*Ctx) { inner.Add(1) })
				}
			})
			if inner.Load() != 50 {
				t.Error("inner finish returned early")
			}
			for i := 0; i < 50; i++ {
				c.Async(func(*Ctx) { outer.Add(1) })
			}
		})
		if outer.Load() != 50 {
			t.Error("outer finish returned early")
		}
	})
}

func TestPromiseFuture(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		p := NewPromise(r)
		f := p.Future()
		if f.Done() {
			t.Error("future done before put")
		}
		c.Async(func(c *Ctx) {
			c.Put(p, 42)
		})
		if got := c.Get(f); got != 42 {
			t.Errorf("Get = %v, want 42", got)
		}
		if !f.Done() {
			t.Error("future not done after put")
		}
	})
}

func TestDoublePutPanics(t *testing.T) {
	r := newTestRuntime(t, 1)
	p := NewPromise(r)
	p.Put(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put must panic")
		}
	}()
	p.Put(2)
}

func TestAsyncFuture(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		f := c.AsyncFuture(func(*Ctx) any { return "hello" })
		if got := c.Get(f); got != "hello" {
			t.Errorf("got %v", got)
		}
	})
}

func TestAsyncAwaitOrdering(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			p := NewPromise(r)
			var stage atomic.Int32
			c.AsyncAwait(func(*Ctx) {
				if stage.Load() != 1 {
					t.Error("await task ran before dependency satisfied")
				}
				stage.Store(2)
			}, p.Future())
			time.Sleep(5 * time.Millisecond) // give the task a chance to misfire
			stage.Store(1)
			c.Put(p, nil)
		})
	})
}

func TestAsyncAwaitMultipleDeps(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			ps := make([]*Promise, 5)
			fs := make([]*Future, 5)
			for i := range ps {
				ps[i] = NewPromise(r)
				fs[i] = ps[i].Future()
			}
			var ran atomic.Bool
			c.AsyncAwait(func(*Ctx) {
				for _, f := range fs {
					if !f.Done() {
						t.Error("await ran with unsatisfied dependency")
					}
				}
				ran.Store(true)
			}, fs...)
			for _, p := range ps {
				c.Put(p, nil)
			}
		})
	})
}

func TestAsyncAwaitAlreadySatisfied(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		f := Satisfied(r, 7)
		var got atomic.Int64
		c.Finish(func(c *Ctx) {
			c.AsyncAwait(func(c *Ctx) { got.Store(int64(f.Get().(int))) }, f)
		})
		if got.Load() != 7 {
			t.Errorf("got %d", got.Load())
		}
	})
}

func TestAsyncFutureAwaitChain(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		f1 := c.AsyncFuture(func(*Ctx) any { return 1 })
		f2 := c.AsyncFutureAwait(func(c *Ctx) any { return f1.Get().(int) + 1 }, f1)
		f3 := c.AsyncFutureAwait(func(c *Ctx) any { return f2.Get().(int) + 1 }, f2)
		if got := c.Get(f3); got != 3 {
			t.Errorf("chain result = %v, want 3", got)
		}
	})
}

func TestWhenAll(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		var fs []*Future
		var sum atomic.Int64
		for i := 1; i <= 10; i++ {
			i := i
			fs = append(fs, c.AsyncFuture(func(*Ctx) any { sum.Add(int64(i)); return nil }))
		}
		all := WhenAll(r, fs...)
		c.Wait(all)
		if sum.Load() != 55 {
			t.Errorf("sum = %d", sum.Load())
		}
		// Empty WhenAll is immediately done.
		if !WhenAll(r).Done() {
			t.Error("empty WhenAll not done")
		}
	})
}

func TestAsyncAt(t *testing.T) {
	model := platform.Default(2)
	r, err := New(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	nic := model.FirstByKind(platform.KindInterconnect)
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			c.AsyncAt(nic, func(cc *Ctx) {
				if cc.Place() != nic {
					t.Errorf("task ran at %v, want %v", cc.Place(), nic)
				}
			})
		})
	})
}

func TestUncoveredPlacePanics(t *testing.T) {
	m := platform.NewModel()
	a := m.AddPlace("sysmem0", platform.KindSysMem)
	orphan := m.AddPlace("orphan", platform.KindDisk)
	m.AddEdge(a, orphan)
	m.AddWorker([]int{a.ID}, []int{a.ID})
	r, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	r.Launch(func(c *Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("AsyncAt an uncovered place must panic")
			}
		}()
		c.AsyncAt(orphan, func(*Ctx) {})
	})
}

func TestForasyncCoversRange(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		const n = 1000
		hits := make([]atomic.Int32, n)
		c.ForasyncSync(Range{Lo: 0, Hi: n, Grain: 16}, func(_ *Ctx, i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("index %d executed %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForasyncEmptyAndTiny(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		var n atomic.Int64
		c.ForasyncSync(Range{Lo: 5, Hi: 5}, func(_ *Ctx, i int) { n.Add(1) })
		if n.Load() != 0 {
			t.Error("empty range executed iterations")
		}
		c.ForasyncSync(Range{Lo: 3, Hi: 4}, func(_ *Ctx, i int) {
			if i != 3 {
				t.Errorf("i=%d", i)
			}
			n.Add(1)
		})
		if n.Load() != 1 {
			t.Error("single-iteration range wrong")
		}
	})
}

func TestForasyncFuture(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		var sum atomic.Int64
		f := c.ForasyncFuture(Range{Lo: 1, Hi: 101, Grain: 8}, func(_ *Ctx, i int) {
			sum.Add(int64(i))
		})
		c.Wait(f)
		if sum.Load() != 5050 {
			t.Errorf("sum = %d, want 5050", sum.Load())
		}
	})
}

func TestForasync2D3D(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		var n2 atomic.Int64
		c.Wait(c.ForasyncFuture2D(Range{Lo: 0, Hi: 10, Grain: 2}, Range{Lo: 0, Hi: 7, Grain: 3},
			func(_ *Ctx, i, j int) { n2.Add(1) }))
		if n2.Load() != 70 {
			t.Errorf("2D iterations = %d, want 70", n2.Load())
		}
		var n3 atomic.Int64
		c.Wait(c.ForasyncFuture3D(Range{Lo: 0, Hi: 4, Grain: 1}, Range{Lo: 0, Hi: 5}, Range{Lo: 0, Hi: 6},
			func(_ *Ctx, i, j, k int) { n3.Add(1) }))
		if n3.Load() != 120 {
			t.Errorf("3D iterations = %d, want 120", n3.Load())
		}
	})
}

func TestAsyncCopyHostToHost(t *testing.T) {
	r := newTestRuntime(t, 2)
	mem := r.Model().FirstByKind(platform.KindSysMem)
	r.Launch(func(c *Ctx) {
		src := []float64{1, 2, 3, 4, 5}
		dst := make([]float64, 5)
		c.Wait(c.AsyncCopy(At(mem, dst), At(mem, src), 5))
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("dst[%d]=%v", i, dst[i])
			}
		}
		// Offset copy.
		dst2 := make([]float64, 5)
		c.Wait(c.AsyncCopy(AtOff(mem, dst2, 2), AtOff(mem, src, 1), 3))
		if dst2[2] != 2 || dst2[4] != 4 {
			t.Fatalf("offset copy wrong: %v", dst2)
		}
	})
}

func TestAsyncCopyTypeMismatchFailsFuture(t *testing.T) {
	r := newTestRuntime(t, 2)
	mem := r.Model().FirstByKind(platform.KindSysMem)
	if err := r.Launch(func(c *Ctx) {
		f := c.AsyncCopy(At(mem, make([]float64, 3)), At(mem, make([]int, 3)), 3)
		if err := c.GetErr(f); err == nil {
			t.Error("mismatched copy should fail its future")
		}
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

func TestAsyncCopyOutOfRangeFailsFuture(t *testing.T) {
	r := newTestRuntime(t, 2)
	mem := r.Model().FirstByKind(platform.KindSysMem)
	if err := r.Launch(func(c *Ctx) {
		f := c.AsyncCopy(At(mem, make([]float64, 3)), At(mem, make([]float64, 3)), 5)
		if err := c.GetErr(f); err == nil {
			t.Error("out-of-range copy should fail its future")
		}
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

func TestRegisteredCopyHandler(t *testing.T) {
	model := platform.DefaultWithGPU(2, 1)
	r, err := New(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	var handled atomic.Bool
	r.RegisterCopyHandler(platform.KindSysMem, platform.KindGPUMem,
		func(c *Ctx, dst, src Buf, n int) *Future {
			handled.Store(true)
			return Satisfied(r, nil)
		})
	mem := model.FirstByKind(platform.KindSysMem)
	gmem := model.FirstByKind(platform.KindGPUMem)
	r.Launch(func(c *Ctx) {
		c.Wait(c.AsyncCopy(At(gmem, nil), At(mem, nil), 0))
	})
	if !handled.Load() {
		t.Fatal("registered handler not invoked")
	}
}

// TestWorkerSubstitution drives all workers into blocking waits and checks
// that the runtime still makes progress via substituted workers.
func TestWorkerSubstitution(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			// More blocking tasks than workers. Each waits on a promise that
			// is satisfied only by a later task; without substitution the
			// pool would deadlock.
			const n = 8
			proms := make([]*Promise, n+1)
			for i := range proms {
				proms[i] = NewPromise(r)
			}
			for i := 0; i < n; i++ {
				i := i
				c.Async(func(c *Ctx) {
					c.Wait(proms[i].Future()) // blocks until predecessor fires
					c.Put(proms[i+1], nil)
				})
			}
			c.Put(proms[0], nil)
			c.Wait(proms[n].Future())
		})
	})
	if got := r.Stats().Substitutions; got == 0 {
		t.Log("note: chain completed without substitutions (helping sufficed)")
	}
}

// TestBlockingChainDeeperThanPool guarantees substitution is exercised:
// every task blocks on a future only satisfiable by a task spawned later,
// with zero helping possible because dependencies run strictly backward.
func TestBlockingChainDeeperThanPool(t *testing.T) {
	r := newTestRuntime(t, 1) // single worker: must substitute to progress
	done := make(chan struct{})
	go func() {
		r.Launch(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				p := NewPromise(r)
				c.Async(func(c *Ctx) {
					// This task blocks; the only way the satisfier below runs
					// on a 1-worker pool is a substituted worker.
					c.Wait(p.Future())
				})
				c.Async(func(c *Ctx) {
					time.Sleep(time.Millisecond)
					c.Put(p, nil)
				})
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: worker substitution failed")
	}
}

func TestExternalPromisePut(t *testing.T) {
	r := newTestRuntime(t, 2)
	p := NewPromise(r)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		p.Put("external") // non-worker goroutine, exercises injector path
	}()
	r.Launch(func(c *Ctx) {
		var got atomic.Value
		c.Finish(func(c *Ctx) {
			c.AsyncAwait(func(c *Ctx) { got.Store(p.Future().Get()) }, p.Future())
		})
		if got.Load() != "external" {
			t.Errorf("got %v", got.Load())
		}
	})
	wg.Wait()
}

func TestFutureWaitFromExternalGoroutine(t *testing.T) {
	r := newTestRuntime(t, 2)
	p := NewPromise(r)
	go r.Launch(func(c *Ctx) {
		c.Put(p, 99)
	})
	if got := p.Future().Get(); got != 99 {
		t.Fatalf("got %v", got)
	}
}

func TestStatsProgress(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		c.ForasyncSync(Range{Lo: 0, Hi: 10000, Grain: 1}, func(*Ctx, int) {})
	})
	s := r.Stats()
	if s.TasksExecuted == 0 {
		t.Fatal("no tasks recorded")
	}
	if s.Pops+s.Steals == 0 {
		t.Fatal("no pops or steals recorded")
	}
}

func TestYield(t *testing.T) {
	r := newTestRuntime(t, 2)
	r.Launch(func(c *Ctx) {
		var rounds atomic.Int64
		c.Finish(func(c *Ctx) {
			var poll func(*Ctx)
			poll = func(c *Ctx) {
				if rounds.Add(1) < 5 {
					c.Yield(poll)
				}
			}
			c.Async(poll)
		})
		if rounds.Load() != 5 {
			t.Errorf("poll rounds = %d, want 5", rounds.Load())
		}
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil model must error")
	}
	if _, err := New(platform.NewModel(), nil); err == nil {
		t.Fatal("invalid model must error")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	r := NewDefault(2)
	r.Launch(func(c *Ctx) {})
	r.Shutdown()
	r.Shutdown() // second call is a no-op
}

func TestFinalizersRunLIFO(t *testing.T) {
	r := NewDefault(1)
	var order []int
	r.RegisterFinalizer(func() { order = append(order, 1) })
	r.RegisterFinalizer(func() { order = append(order, 2) })
	r.Launch(func(c *Ctx) {})
	r.Shutdown()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("finalizer order = %v, want [2 1]", order)
	}
}

// fib is the classic recursive microbenchmark exercising deep task trees
// and finish nesting.
func fib(c *Ctx, n int) int {
	if n < 2 {
		return n
	}
	if n < 12 { // sequential cutoff
		a, b := 0, 1
		for i := 2; i <= n; i++ {
			a, b = b, a+b
		}
		return b
	}
	var x int
	c.Finish(func(c *Ctx) {
		c.Async(func(c *Ctx) { x = fib(c, n-1) })
	})
	y := fib(c, n-2)
	return x + y
}

func TestFibStress(t *testing.T) {
	r := newTestRuntime(t, 4)
	r.Launch(func(c *Ctx) {
		if got := fib(c, 25); got != 75025 {
			t.Errorf("fib(25) = %d, want 75025", got)
		}
	})
}

func BenchmarkSpawnSync(b *testing.B) {
	r := newTestRuntime(b, 4)
	r.Launch(func(c *Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Finish(func(c *Ctx) {
				c.Async(func(*Ctx) {})
			})
		}
	})
}

func BenchmarkForasync(b *testing.B) {
	r := newTestRuntime(b, 0)
	r.Launch(func(c *Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ForasyncSync(Range{Lo: 0, Hi: 10000, Grain: 64}, func(*Ctx, int) {})
		}
	})
}

func BenchmarkFutureChain(b *testing.B) {
	r := newTestRuntime(b, 2)
	r.Launch(func(c *Ctx) {
		b.ResetTimer()
		f := Satisfied(r, 0)
		for i := 0; i < b.N; i++ {
			f = c.AsyncFutureAwait(func(*Ctx) any { return nil }, f)
		}
		c.Wait(f)
	})
}

func BenchmarkFib(b *testing.B) {
	r := newTestRuntime(b, 0)
	r.Launch(func(c *Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fib(c, 22)
		}
	})
}
