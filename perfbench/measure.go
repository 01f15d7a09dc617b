package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// above it, and the percentile it stands at. With fewer than eleven
// samples it is the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// liveHeapMiB is the heap the last GC found live; right after a
// runtime.GC it is what the process retains.
func liveHeapMiB() float64 {
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}

// goSample is a runtime/metrics reading; deltas of two readings
// attribute GC CPU, allocation and scheduling latency to what ran
// between them.
type goSample struct {
	gcCPU, totalCPU, allocBytes float64
	sched                       *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	ms := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return goSample{
		gcCPU:      ms[0].Value.Float64(),
		totalCPU:   ms[1].Value.Float64(),
		allocBytes: float64(ms[2].Value.Uint64()),
		sched:      ms[3].Value.Float64Histogram(),
	}
}

// schedCounts returns the per-bucket scheduling-latency counts added
// between a and b.
func schedCounts(a, b goSample) []uint64 {
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return d
}

// histQuantile interpolates the q-quantile of a runtime/metrics
// histogram linearly inside its bucket, so the estimate is not pinned to
// bucket edges.
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return buckets[len(buckets)-1]
}

// env is the environment stamped on every result.
type env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Rev        string `json:"rev"`
	CPU        string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func stampEnv(seed int64, root string) env {
	return env{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Rev:        sourceRev(root),
		CPU:        cpuModel(),
		Seed:       seed,
	}
}

// sourceRev names the code under test: the commit recorded in root/.git
// when the tree is a git checkout, else a digest of its Go sources and
// module files.
func sourceRev(root string) string {
	if rev, ok := gitHead(filepath.Join(root, ".git")); ok {
		return rev
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// gitHead resolves HEAD in gitDir by reading the ref files directly.
func gitHead(gitDir string) (string, bool) {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "", false
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref, true
	}
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data)), true
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha, true
		}
	}
	return "", false
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
