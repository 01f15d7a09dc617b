package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trace"
)

func tracedRuntime(t *testing.T, workers int, cfg trace.Config) *Runtime {
	t.Helper()
	r, err := New(platform.Default(workers), &Options{Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTraceLifecycleEvents checks that a traced workload records a
// consistent task lifecycle: every spawn starts and finishes exactly
// once, suspensions pair with resumes, and the dump validates against
// the Chrome schema and round-trips through the text summarizer.
func TestTraceLifecycleEvents(t *testing.T) {
	r := tracedRuntime(t, 2, trace.Config{})
	defer r.Shutdown()
	const n = 500
	var ran atomic.Int64
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				c.Async(func(*Ctx) { ran.Add(1) })
			}
		})
		// Force at least one traced suspension: wait on a future satisfied
		// by an external goroutine after a delay.
		p := NewPromise(r)
		go func() {
			time.Sleep(2 * time.Millisecond)
			p.Put(nil)
		}()
		c.Wait(p.Future())
	})
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}

	d := r.Tracer().Derived()
	// n asyncs + the root task + the finish-scope machinery: every spawn
	// must start and finish exactly once (no drops at this size).
	if d.Spawns < n+1 || d.TasksStarted != d.Spawns || d.TasksFinished != d.Spawns {
		t.Fatalf("lifecycle imbalance: %d spawns, %d started, %d finished",
			d.Spawns, d.TasksStarted, d.TasksFinished)
	}
	var buf bytes.Buffer
	if err := r.TraceDump(&buf); err != nil {
		t.Fatalf("TraceDump: %v", err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	sum, err := trace.Summarize(buf.Bytes(), 8)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if !strings.Contains(sum, "tasks") {
		t.Fatalf("summary looks empty:\n%s", sum)
	}
}

// TestTraceFanoutWake traces the fanout-wake shape end to end — a
// quiescent pool repeatedly woken by task bursts, with concurrent
// external injections — and is the race-detector workout for the
// tracer's single-writer rings, the shared external ring, and concurrent
// dumps (run under -race via `make race`).
func TestTraceFanoutWake(t *testing.T) {
	r := tracedRuntime(t, 4, trace.Config{RingSize: 1 << 12})
	defer r.Shutdown()
	r.Start()
	place := r.Model().Place(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // external injections hit the injector + external ring
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := NewPromise(r)
			r.SpawnDetachedAt(place, func(c *Ctx) { c.Put(p, nil) })
			p.Future().Wait()
		}
	}()
	wg.Add(1)
	go func() { // concurrent dumps while workers record
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			var buf bytes.Buffer
			if err := r.TraceDump(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var ran atomic.Int64
	for round := 0; round < 10; round++ {
		time.Sleep(200 * time.Microsecond) // let the pool park
		r.Launch(func(c *Ctx) {
			c.ForasyncSync(Range{Lo: 0, Hi: r.NumWorkers() * 8, Grain: 1},
				func(*Ctx, int) { ran.Add(1) })
		})
	}
	close(stop)
	wg.Wait()
	if want := int64(10 * r.NumWorkers() * 8); ran.Load() != want {
		t.Fatalf("ran %d fanout tasks, want %d", ran.Load(), want)
	}
	// Quiescent traced window: with the injection and dump goroutines gone
	// and no work left, every worker runs out its spin rounds and parks.
	// Wait for a park event rather than for a fixed time. Each dump pauses
	// recording, and under CPU load the dumps can cover every park of the
	// rounds above; a worker that parked unrecorded stays parked. So each
	// poll that finds no park wakes the pool with one more burst, now
	// with recording on. The deadline bounds a runtime that never parks.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if r.Tracer().Derived().Parks > 0 {
			break
		}
		r.Launch(func(c *Ctx) {
			c.ForasyncSync(Range{Lo: 0, Hi: r.NumWorkers() * 8, Grain: 1}, func(*Ctx, int) {})
		})
		time.Sleep(time.Millisecond)
	}
	var buf bytes.Buffer
	if err := r.TraceDump(&buf); err != nil {
		t.Fatalf("final TraceDump: %v", err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("final trace fails schema validation: %v", err)
	}
	d := r.Tracer().Derived()
	if d.Parks == 0 {
		t.Fatalf("fanout-wake rounds recorded no park events")
	}
}

// TestCloseFlushesTrace checks Close's one-shot flush: the Chrome JSON
// lands at Config.OutPath, derived gauges land in stats, and a second
// Close is a no-op.
func TestCloseFlushesTrace(t *testing.T) {
	stats.Reset()
	defer stats.Reset()
	out := filepath.Join(t.TempDir(), "trace.json")
	r := tracedRuntime(t, 2, trace.Config{OutPath: out})
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 64; i++ {
				c.Async(func(*Ctx) {})
			}
		})
	})
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("Close did not write the trace: %v", err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("flushed trace fails schema validation: %v", err)
	}
	if rep := stats.Report(); !strings.Contains(rep, "steal_success_rate") {
		t.Fatalf("Close did not publish derived gauges:\n%s", rep)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("second Close re-flushed the trace")
	}
}

// TestCloseWithoutTracing: Close on an untraced runtime is Shutdown.
func TestCloseWithoutTracing(t *testing.T) {
	r := NewDefault(2)
	r.Launch(func(c *Ctx) { c.Async(func(*Ctx) {}) })
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var buf bytes.Buffer
	if err := r.TraceDump(&buf); err == nil {
		t.Fatal("TraceDump on an untraced runtime should error")
	}
	if s := r.TraceSummary(4); !strings.Contains(s, "not enabled") {
		t.Fatalf("TraceSummary on untraced runtime: %q", s)
	}
}

// TestPprofLabelsRun smoke-tests the labeled execution path.
func TestPprofLabelsRun(t *testing.T) {
	r := tracedRuntime(t, 2, trace.Config{PprofLabels: true})
	defer r.Shutdown()
	var ran atomic.Int64
	r.Launch(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 32; i++ {
				c.Async(func(*Ctx) { ran.Add(1) })
			}
		})
	})
	if ran.Load() != 32 {
		t.Fatalf("labeled run executed %d tasks, want 32", ran.Load())
	}
}
