package graph500

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// tinyGraph keeps unit tests fast: 512 vertices, ~8k edges.
var tinyGraph = GraphConfig{Scale: 9, EdgeFactor: 16, Seed: 5}

var testCost = simnet.CostModel{Alpha: 20 * time.Microsecond}

func TestEdgeGeneratorDeterministic(t *testing.T) {
	for e := int64(0); e < 100; e++ {
		u1, v1 := tinyGraph.edge(e)
		u2, v2 := tinyGraph.edge(e)
		if u1 != u2 || v1 != v2 {
			t.Fatal("edge generation not deterministic")
		}
		n := tinyGraph.numVertices()
		if u1 < 0 || u1 >= n || v1 < 0 || v1 >= n {
			t.Fatalf("edge (%d,%d) out of range", u1, v1)
		}
	}
}

func TestEdgeSkew(t *testing.T) {
	// R-MAT with A=0.57 concentrates edges at low vertex ids.
	var lowHalf, total int64
	half := tinyGraph.numVertices() / 2
	for e := int64(0); e < tinyGraph.numEdges(); e++ {
		u, _ := tinyGraph.edge(e)
		if u < half {
			lowHalf++
		}
		total++
	}
	if float64(lowHalf)/float64(total) < 0.6 {
		t.Fatalf("R-MAT skew missing: %d/%d in low half", lowHalf, total)
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	n := int64(1000)
	for _, ranks := range []int{1, 3, 7, 16} {
		var covered int64
		for r := 0; r < ranks; r++ {
			lo, hi := partition(n, ranks, r)
			covered += hi - lo
			for v := lo; v < hi; v++ {
				if owner(n, ranks, v) != r {
					t.Fatalf("owner(%d) != %d with %d ranks", v, r, ranks)
				}
			}
		}
		if covered != n {
			t.Fatalf("partition covered %d of %d with %d ranks", covered, n, ranks)
		}
	}
}

func TestLocalCSRMatchesFullGraph(t *testing.T) {
	full := buildLocalCSR(tinyGraph, 1, 0)
	const ranks = 4
	var distTotal int64
	for r := 0; r < ranks; r++ {
		c := buildLocalCSR(tinyGraph, ranks, r)
		for v := c.vLo; v < c.vHi; v++ {
			local := c.neighbors(v)
			ref := full.neighbors(v)
			if len(local) != len(ref) {
				t.Fatalf("vertex %d degree %d vs %d", v, len(local), len(ref))
			}
			distTotal += int64(len(local))
		}
	}
	var fullTotal int64
	for v := full.vLo; v < full.vHi; v++ {
		fullTotal += int64(len(full.neighbors(v)))
	}
	if distTotal != fullTotal {
		t.Fatalf("adjacency totals differ: %d vs %d", distTotal, fullTotal)
	}
}

func TestSequentialBFSSelfConsistent(t *testing.T) {
	parent, depth := SequentialBFS(tinyGraph, 1)
	if err := ValidateTree(tinyGraph, 1, parent, depth); err != nil {
		t.Fatal(err)
	}
	if depth[1] != 0 || parent[1] != 1 {
		t.Fatal("root entry wrong")
	}
}

func TestRunReference(t *testing.T) {
	res, err := RunReference(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == 0 || res.Levels == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunHiPER(t *testing.T) {
	res, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Cost: testCost})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestVariantsVisitSameSet(t *testing.T) {
	cfg := RunConfig{Graph: tinyGraph, Root: 1, Ranks: 3, Workers: 2, Cost: testCost}
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHiPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Visited != b.Visited || a.Levels != b.Levels {
		t.Fatalf("variants disagree: %+v vs %+v", a, b)
	}
}

// TestRunsUnderCongestedCost drives both variants with the benchmark
// network's congestion model active. Congestion spreads deliveries out
// enough that one rank's quiesce sentinels routinely land while its peers
// are still looping — the schedule that once left a re-armed when-handler
// waiting on a sealed channel and hung the job (the handlers must disarm
// on the sender's sentinel, not on local completion).
func TestRunsUnderCongestedCost(t *testing.T) {
	cost := simnet.CostModel{
		Alpha: 15 * time.Microsecond, BytesPerSec: 2e9,
		CongestWindow: 2, CongestPenalty: 150 * time.Microsecond,
	}
	cfg := RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Cost: cost}
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHiPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Visited != b.Visited || a.Levels != b.Levels {
		t.Fatalf("variants disagree: %+v vs %+v", a, b)
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	if _, err := RunReference(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedRootVisitsOnlyItself(t *testing.T) {
	// Vertex ids near the top of the range are often isolated in R-MAT;
	// find one and BFS from it.
	full := buildLocalCSR(tinyGraph, 1, 0)
	var iso int64 = -1
	for v := tinyGraph.numVertices() - 1; v >= 0; v-- {
		if len(full.neighbors(v)) == 0 {
			iso = v
			break
		}
	}
	if iso < 0 {
		t.Skip("no isolated vertex at this scale/seed")
	}
	res, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: iso, Ranks: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 {
		t.Fatalf("isolated root visited %d vertices", res.Visited)
	}
}

// TestChaosGraph500 runs BOTH variants over a Reliable layer on a
// fabric injecting 10% drop + 10% dup. Correctness is ValidateTree
// (inside Run*); the drop/retry counters prove the fabric actually
// misbehaved and the protocol actually recovered — a clean pass with
// zero drops would prove nothing.
func TestChaosGraph500(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-fabric BFS is a second-long soak")
	}
	run := func(t *testing.T, name string, f func(RunConfig) (Result, error)) {
		chaos := fabric.NewChaos(fabric.NewSim(4, simnet.CostModel{Alpha: time.Microsecond}),
			fabric.FaultPlan{Seed: 42, Drop: 0.10, Dup: 0.10})
		rel := fabric.NewReliable(chaos, fabric.RelConfig{})
		res, err := f(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 4, Workers: 2, Transport: rel})
		if err != nil {
			t.Fatalf("%s over lossy fabric: %v", name, err)
		}
		if res.Visited < 2 {
			t.Fatalf("%s visited only %d vertices", name, res.Visited)
		}
		if chaos.Drops() == 0 || chaos.Dups() == 0 {
			t.Fatalf("%s: chaos injected nothing (drops=%d dups=%d)", name, chaos.Drops(), chaos.Dups())
		}
		if rel.Retries() == 0 {
			t.Fatalf("%s: survived loss with zero retransmits?", name)
		}
	}
	t.Run("reference", func(t *testing.T) { run(t, "reference", RunReference) })
	t.Run("hiper", func(t *testing.T) { run(t, "hiper", RunHiPER) })
}

// TestHiPEREarlyClaimsStayOutOfRootFrontier repeats the 16-rank HiPER
// BFS, where peers of the root's owner routinely send depth-1 claims
// before a rank has set up its root frontier. A when-handler armed before
// that setup drained them into the depth-0 frontier and produced depth-1
// vertices whose oracle depth is 2.
func TestHiPEREarlyClaimsStayOutOfRootFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("100 back-to-back 16-rank runs")
	}
	for i := 0; i < 100; i++ {
		if _, err := RunHiPER(RunConfig{Graph: tinyGraph, Root: 1, Ranks: 16, Workers: 2}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// refEdge is the original float formulation of the R-MAT draw, kept as
// the reference the integer-threshold edge must reproduce bit for bit.
func refEdge(g GraphConfig, e int64) (int64, int64) {
	var u, v int64
	base := splitmix(uint64(g.Seed))*0x100000001B3 + uint64(e)
	for bit := 0; bit < g.Scale; bit++ {
		r := splitmix(base + uint64(bit)*0x9E3779B97F4A7C15)
		p := float64(r>>11) / float64(1<<53)
		u <<= 1
		v <<= 1
		switch {
		case p < 0.57:
		case p < 0.76:
			v |= 1
		case p < 0.95:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

// refBuildLocalCSR is the original two-pass kernel 1 (count degrees, then
// fill), the reference for the single-pass build's adjacency order.
func refBuildLocalCSR(g GraphConfig, ranks, r int) *csr {
	n := g.numVertices()
	lo, hi := partition(n, ranks, r)
	local := hi - lo
	deg := make([]int64, local)
	m := g.numEdges()
	for e := int64(0); e < m; e++ {
		u, v := refEdge(g, e)
		if u == v {
			continue
		}
		if u >= lo && u < hi {
			deg[u-lo]++
		}
		if v >= lo && v < hi {
			deg[v-lo]++
		}
	}
	offs := make([]int64, local+1)
	for i := int64(0); i < local; i++ {
		offs[i+1] = offs[i] + deg[i]
	}
	adj := make([]int64, offs[local])
	fill := make([]int64, local)
	for e := int64(0); e < m; e++ {
		u, v := refEdge(g, e)
		if u == v {
			continue
		}
		if u >= lo && u < hi {
			i := u - lo
			adj[offs[i]+fill[i]] = v
			fill[i]++
		}
		if v >= lo && v < hi {
			i := v - lo
			adj[offs[i]+fill[i]] = u
			fill[i]++
		}
	}
	return &csr{vLo: lo, vHi: hi, offs: offs, adj: adj}
}

// scale14 is the benchmark's graph size: 16,384 vertices, 262,144 edges.
var scale14 = GraphConfig{Scale: 14, EdgeFactor: 16, Seed: 11}

// csrSink keeps the benchmarked build from being optimized away.
var csrSink *csr

// BenchmarkBuildLocalCSR times Graph500 kernel 1 — one rank's CSR built
// from the generator — for the single-rank (full graph) and two-rank
// partitions.
func BenchmarkBuildLocalCSR(b *testing.B) {
	for _, ranks := range []int{1, 2} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				csrSink = buildLocalCSR(scale14, ranks, 0)
			}
		})
	}
}

// BenchmarkValidateTree times the oracle check every BFS run ends with.
func BenchmarkValidateTree(b *testing.B) {
	parent, depth := SequentialBFS(scale14, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateTree(scale14, 1, parent, depth); err != nil {
			b.Fatal(err)
		}
	}
}

var identityGraphs = []struct {
	name string
	g    GraphConfig
}{
	{"tiny", tinyGraph},
	{"default", DefaultGraph},
	{"scale14", scale14},
}

// TestEdgeMatchesFloatReference checks every edge of three graphs against
// the float formulation: the integer thresholds must not move one edge.
func TestEdgeMatchesFloatReference(t *testing.T) {
	for _, tc := range identityGraphs {
		for e := int64(0); e < tc.g.numEdges(); e++ {
			u, v := tc.g.edge(e)
			ru, rv := refEdge(tc.g, e)
			if u != ru || v != rv {
				t.Fatalf("%s edge %d = (%d,%d), reference (%d,%d)", tc.name, e, u, v, ru, rv)
			}
		}
	}
}

// TestLocalCSRMatchesTwoPassReference requires the single-pass build to
// produce the two-pass offsets and adjacency exactly — same neighbour
// order, hence the same BFS parent choices.
func TestLocalCSRMatchesTwoPassReference(t *testing.T) {
	for _, tc := range identityGraphs {
		for ranks := 1; ranks <= 3; ranks++ {
			for r := 0; r < ranks; r++ {
				got, want := buildLocalCSR(tc.g, ranks, r), refBuildLocalCSR(tc.g, ranks, r)
				if got.vLo != want.vLo || got.vHi != want.vHi ||
					!slices.Equal(got.offs, want.offs) || !slices.Equal(got.adj, want.adj) {
					t.Fatalf("%s ranks=%d rank %d: CSR differs from the two-pass reference", tc.name, ranks, r)
				}
			}
		}
	}
}
