// Command perfbench is the repository's benchmark of the composed HiPER
// stack. It runs one workload closed-loop — one solve at a time, back
// to back — for a fixed time, checks every solve against an oracle, and
// prints the end-to-end metrics (--trace 0) or, from a separate traced
// pass, the per-layer metrics (--trace 1). The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload bfs --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn, each in its own process.
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// solveTimeout bounds one solve by default. A solve that exceeds it
// ends the run: it is counted as failed and the result is printed with
// correct=false.
const solveTimeout = 60 * time.Second

// minSolves is the fewest solves a run makes, however short --seconds is.
const minSolves = 3

// memSolves is how many solves the memory metrics cover. A fixed count
// keeps them from growing with the number of solves that fit in a run,
// since memory a solve fails to release accumulates.
const memSolves = 10

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	out      string
	timeout  time.Duration // per solve
}

func main() {
	o := options{timeout: solveTimeout}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: uts, hpgmg, bfs, isx-supervised, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.StringVar(&o.root, "root", ".", "repository root, for the source revision stamp")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for result and trace files")
	flag.Parse()
	o.trace = traceFlag != 0
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll())
	}
	sp, ok := lookup(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(sp, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll re-runs this program once per workload with the same flags.
func runAll() int {
	status := 0
	for _, sp := range specs {
		args := []string{"--workload", sp.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			status = 1
		}
	}
	return status
}

// verdict is one solve's record in the result file.
type verdict struct {
	Solve  int     `json:"solve"`
	Traced bool    `json:"traced"`
	OK     bool    `json:"ok"`
	SolveS float64 `json:"solve_s"`
	SetupS float64 `json:"setup_s"`
	// PeakRSSMiB is the resident high-water mark after this solve, for
	// the first memSolves solves.
	PeakRSSMiB float64 `json:"peak_rss_mb,omitempty"`
	Err        string  `json:"error,omitempty"`
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run produced.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Env       env               `json:"env"`
	Inputs    string            `json:"inputs"`
	WorkUnit  string            `json:"work_unit"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Solves    []verdict         `json:"solves"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// summary is the contract's last output line.
func (r *result) summary() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for k, m := range r.Metrics {
		ms[k] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms}
}

// run prepares the workload's inputs from the seed, measures it and
// returns the result, printing a human-readable report on the way.
func run(sp spec, o options) (*result, error) {
	res := &result{Workload: sp.name, Traced: o.trace, Env: stampEnv(o.seed, o.root), Seconds: o.seconds, WorkUnit: sp.unit}
	e := res.Env
	fmt.Printf("perfbench %s seed=%d trace=%v gomaxprocs=%d nproc=%d %s rev=%s cpu=%q\n",
		sp.name, e.Seed, o.trace, e.GoMaxProcs, e.NProc, e.GoVersion, e.Rev, e.CPU)

	t0 := time.Now()
	w, err := sp.prepare(o.seed)
	if err != nil {
		return nil, err
	}
	res.Inputs = w.describe()
	fmt.Printf("inputs: %s (prepared in %.2fs); work unit: %s\n", res.Inputs, time.Since(t0).Seconds(), sp.unit)

	var m *meter
	if o.trace {
		m = newMeter(time.Now())
		m.ladder = ladder()
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var samples []sample
	var mem memory
	for i := 0; i < minSolves || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		// Collect the previous solve's garbage first, as testing.B does
		// before each run, so no solve pays for another's allocations.
		runtime.GC()
		if i == memSolves {
			mem.retained = liveHeapMiB()
		}
		s, timedOut := boundedSolve(w, i, traced, m, o.timeout)
		samples = append(samples, s)
		res.Attempted++
		v := verdict{Solve: i, Traced: traced, OK: s.err == nil,
			SolveS: s.solve.Seconds(), SetupS: (s.wall - s.solve).Seconds()}
		if s.err != nil {
			res.Failed++
			v.Err = s.err.Error()
			fmt.Printf("solve %d FAILED: %v\n", i, s.err)
		}
		if i < memSolves {
			if mem.peakRSS, err = peakRSSMiB(); err != nil {
				return nil, err
			}
			v.PeakRSSMiB = mem.peakRSS
		}
		res.Solves = append(res.Solves, v)
		if timedOut {
			res.Problems = append(res.Problems, "a solve timed out; the run stopped early")
			break
		}
	}
	if len(samples) <= memSolves {
		runtime.GC()
		mem.retained = liveHeapMiB()
	}

	if o.trace {
		res.Metrics = m.perLayer(samples, w.baseline(), mem)
		res.TraceFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", sp.name, o.seed))
		if err := m.log.write(res.TraceFile); err != nil {
			res.Problems = append(res.Problems, "chrome trace: "+err.Error())
			res.TraceFile = ""
		}
	} else {
		res.Metrics = endToEnd(samples, mem)
	}
	res.print()
	if err := res.write(o.out, o.seed); err != nil {
		res.Problems = append(res.Problems, "result file: "+err.Error())
	}
	return res, nil
}

// boundedSolve runs one solve under timeout. A solve that never returns
// is left behind: the run stops after it and the process exits.
func boundedSolve(w workload, i int, traced bool, m *meter, timeout time.Duration) (sample, bool) {
	done := make(chan sample, 1)
	go func() {
		if traced {
			done <- m.solve(w, i)
		} else {
			done <- w.solve(i, nil)
		}
	}()
	select {
	case s := <-done:
		return s, false
	case <-time.After(timeout):
		return sample{err: fmt.Errorf("solve %d did not finish within %v", i, timeout)}, true
	}
}

func (r *result) print() {
	names := sortedKeys(r.Metrics)
	fmt.Printf("%d solves attempted, %d failed\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("problem: %s\n", p)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-40s %14.6g %-10s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	if r.TraceFile != "" {
		fmt.Printf("chrome trace: %s\n", r.TraceFile)
	}
}

// write stores the result, environment stamp and per-solve verdicts.
func (r *result) write(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.Traced {
		mode = "layers"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", strings.ReplaceAll(r.Workload, "/", "_"), seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
