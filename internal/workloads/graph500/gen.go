// Package graph500 implements the Graph500 benchmark kernel — parallel,
// distributed breadth-first search over a Kronecker graph — the paper's
// Section III-C2 study.
//
// Two variants reproduce the paper's comparison:
//
//   - Reference: the rank's main loop must constantly poll its inbound
//     channels for vertex-claim messages from remote processes, which adds
//     overhead and significantly complicates the implementation.
//   - HiPER: the polling is offloaded to the runtime with the novel
//     shmem_async_when API — a task is predicated on the channel counter
//     advancing, drains the new claims, and re-arms itself.
//
// Both variants must visit exactly the vertex set a sequential BFS visits,
// with a valid parent tree (every parent is a genuine neighbour one level
// closer to the root).
package graph500

import (
	"fmt"
	"slices"
)

// GraphConfig parameterizes the Kronecker generator (Graph500 R-MAT
// parameters A=0.57, B=0.19, C=0.19).
type GraphConfig struct {
	Scale      int // N = 2^Scale vertices
	EdgeFactor int // M = EdgeFactor * N edges
	Seed       int64
}

// DefaultGraph is a laptop-scale stand-in for the paper's scale-31 runs.
var DefaultGraph = GraphConfig{Scale: 12, EdgeFactor: 16, Seed: 5}

func (g GraphConfig) numVertices() int64 { return int64(1) << g.Scale }
func (g GraphConfig) numEdges() int64    { return int64(g.EdgeFactor) * g.numVertices() }

const golden = 0x9E3779B97F4A7C15

func splitmix(x uint64) uint64 { return mix64(x + golden) }

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// R-MAT quadrant thresholds on the 53-bit draw k = r>>11, cumulative:
// A=0.57 (0,0), B=0.19 (0,1), C=0.19 (1,0), D=0.05 (1,1). The uniform
// p = k/2^53 is exact, and each float64 c in [0.5, 1) is an integer
// multiple of 2^-53, so p < c exactly when k < c·2^53. The products are
// taken on float64 values (not untyped constants) so each threshold is
// the float64 the comparison p < c used.
var rmatA, rmatAB, rmatABC = 0.57, 0.76, 0.95

var (
	thrA   = uint64(rmatA * (1 << 53))
	thrAB  = uint64(rmatAB * (1 << 53))
	thrABC = uint64(rmatABC * (1 << 53))
)

// edgeBase is the per-graph offset edge indices are added to.
func (g GraphConfig) edgeBase() uint64 { return splitmix(uint64(g.Seed)) * 0x100000001B3 }

// edge deterministically generates edge index e by R-MAT recursive
// quadrant selection: each of Scale bits picks a quadrant from a hash of
// (seed, e, level).
func (g GraphConfig) edge(e int64) (int64, int64) {
	return rmatEdge(g.edgeBase()+uint64(e), g.Scale)
}

// rmatEdge draws one edge's Scale quadrant bits from the splitmix
// stream starting at x. The quadrant is picked without branches, since
// random draws make a switch mispredict on most bits: u's bit is
// k >= AB, and v's bit is the parity of k >= A, k >= AB and k >= ABC.
func rmatEdge(x uint64, scale int) (int64, int64) {
	var u, v uint64
	for bit := 0; bit < scale; bit++ {
		x += golden
		k := mix64(x) >> 11
		// k and the thresholds are below 2^53, so (k - thr) >> 63 is 1
		// exactly when k < thr.
		a := (k - thrA) >> 63
		ab := (k - thrAB) >> 63
		abc := (k - thrABC) >> 63
		u = u<<1 | (ab ^ 1)
		v = v<<1 | (1 ^ a ^ ab ^ abc)
	}
	return int64(u), int64(v)
}

// csr is one rank's compressed adjacency over its owned vertices.
type csr struct {
	vLo, vHi int64 // owned vertex range [vLo, vHi)
	offs     []int64
	adj      []int64
}

// partition computes rank r's owned range under block partitioning.
func partition(n int64, ranks, r int) (lo, hi int64) {
	per := n / int64(ranks)
	rem := n % int64(ranks)
	lo = int64(r)*per + min64(int64(r), rem)
	hi = lo + per
	if int64(r) < rem {
		hi++
	}
	return lo, hi
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// owner returns the rank owning vertex v.
func owner(n int64, ranks int, v int64) int {
	per := n / int64(ranks)
	rem := n % int64(ranks)
	cut := rem * (per + 1)
	if v < cut {
		return int(v / (per + 1))
	}
	return int(rem + (v-cut)/per)
}

// rmatBelow is the probability that an R-MAT endpoint is below x. Each
// endpoint bit is 0 independently with probability A+B = A+C = rmatAB,
// so the walk from the top bit adds the mass of every prefix that drops
// below x. It sizes the arc buffer, so low ranks (which own the R-MAT
// hubs) do not regrow it.
func rmatBelow(x int64, scale int) float64 {
	if x >= int64(1)<<scale {
		return 1
	}
	p, prefix := 0.0, 1.0
	for bit := scale - 1; bit >= 0; bit-- {
		if x>>bit&1 == 1 {
			p += prefix * rmatAB
			prefix *= 1 - rmatAB
		} else {
			prefix *= rmatAB
		}
	}
	return p
}

// arc is one kept direction of an edge: an owned vertex's local index and
// its neighbour. Both fit in 32 bits because Scale is at most 32.
type arc struct{ i, nb uint32 }

// buildLocalCSR generates the full edge list once and keeps both
// directions of every edge whose endpoint this rank owns (self-loops
// dropped). Kept arcs are buffered in generation order while degrees are
// counted, then counting-sorted by owned vertex, so every adjacency lists
// its neighbours in edge order.
func buildLocalCSR(g GraphConfig, ranks, r int) *csr {
	if g.Scale > 32 {
		panic(fmt.Sprintf("graph500: scale %d exceeds 32", g.Scale))
	}
	n := g.numVertices()
	lo, hi := partition(n, ranks, r)
	local := hi - lo
	m := g.numEdges()
	offs := make([]int64, local+1) // degrees at offs[i+1] until the prefix sum
	want := float64(2*m) * (rmatBelow(hi, g.Scale) - rmatBelow(lo, g.Scale))
	arcs := make([]arc, 0, min(2*m, int64(want*1.01)+1024))
	base := g.edgeBase()
	for e := int64(0); e < m; e++ {
		u, v := rmatEdge(base+uint64(e), g.Scale)
		if u == v {
			continue
		}
		if u >= lo && u < hi {
			arcs = append(arcs, arc{uint32(u - lo), uint32(v)})
			offs[u-lo+1]++
		}
		if v >= lo && v < hi {
			arcs = append(arcs, arc{uint32(v - lo), uint32(u)})
			offs[v-lo+1]++
		}
	}
	for i := int64(0); i < local; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]int64, offs[local])
	fill := slices.Clone(offs[:local])
	for _, a := range arcs {
		adj[fill[a.i]] = int64(a.nb)
		fill[a.i]++
	}
	return &csr{vLo: lo, vHi: hi, offs: offs, adj: adj}
}

// neighbors returns vertex v's adjacency (v must be owned).
func (c *csr) neighbors(v int64) []int64 {
	i := v - c.vLo
	return c.adj[c.offs[i]:c.offs[i+1]]
}

// SequentialBFS runs the oracle BFS, returning parent (-1 unvisited) and
// depth (-1 unvisited) for every vertex.
func SequentialBFS(g GraphConfig, root int64) (parent, depth []int64) {
	return bfsOver(buildLocalCSR(g, 1, 0), root)
}

// bfsOver is the oracle BFS over an already-built full-graph CSR.
func bfsOver(full *csr, root int64) (parent, depth []int64) {
	n := full.vHi
	parent = make([]int64, n)
	depth = make([]int64, n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	frontier := []int64{root}
	for d := int64(1); len(frontier) > 0; d++ {
		var next []int64
		for _, u := range frontier {
			for _, v := range full.neighbors(u) {
				if parent[v] == -1 {
					parent[v] = u
					depth[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return parent, depth
}

// ValidateTree checks a BFS parent/depth assignment against the graph:
// root self-parented at depth 0; every visited vertex's parent is visited
// one level shallower; the visited set matches the sequential oracle.
func ValidateTree(g GraphConfig, root int64, parent, depth []int64) error {
	return validateOver(buildLocalCSR(g, 1, 0), root, parent, depth)
}

// validateOver is ValidateTree over an already-built full-graph CSR,
// which also serves the oracle BFS.
func validateOver(full *csr, root int64, parent, depth []int64) error {
	oraPar, oraDep := bfsOver(full, root)
	n := full.vHi
	var visited int64
	for v := int64(0); v < n; v++ {
		if (parent[v] == -1) != (oraPar[v] == -1) {
			return fmt.Errorf("graph500: vertex %d visited=%v, oracle says %v", v, parent[v] != -1, oraPar[v] != -1)
		}
		if parent[v] == -1 {
			continue
		}
		visited++
		if depth[v] != oraDep[v] {
			return fmt.Errorf("graph500: vertex %d depth %d, oracle %d", v, depth[v], oraDep[v])
		}
		if v == root {
			if parent[v] != root || depth[v] != 0 {
				return fmt.Errorf("graph500: bad root entry")
			}
			continue
		}
		if depth[parent[v]] != depth[v]-1 {
			return fmt.Errorf("graph500: vertex %d parent %d not one level shallower", v, parent[v])
		}
		if !slices.Contains(full.neighbors(v), parent[v]) {
			return fmt.Errorf("graph500: vertex %d parent %d is not a neighbour", v, parent[v])
		}
	}
	if visited == 0 {
		return fmt.Errorf("graph500: nothing visited")
	}
	return nil
}
