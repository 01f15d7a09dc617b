package hpgmg

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

func testCfg(ranks int) Config {
	return Config{N: 16, NZ: 8, Ranks: ranks, Workers: 2, Cycles: 3,
		Cost: simnet.CostModel{Alpha: 30 * time.Microsecond}}
}

func TestHierarchyShapes(t *testing.T) {
	levels := buildHierarchy(16, 16, 8, 1.0/17, 0, 1)
	if len(levels) < 2 {
		t.Fatalf("hierarchy too shallow: %d levels", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].nx*2 != levels[i-1].nx || levels[i].nz*2 != levels[i-1].nz {
			t.Fatalf("level %d not a 2x coarsening", i)
		}
		if levels[i].h != 2*levels[i-1].h {
			t.Fatalf("level %d mesh width not doubled", i)
		}
	}
}

func TestPlaneCopyRoundTrip(t *testing.T) {
	l := newLevel(6, 5, 4, 1)
	for i := range l.u {
		l.u[i] = float64(i)
	}
	buf := make([]float64, l.planeSize())
	l.copyPlaneOut(l.u, 2, buf)
	l2 := newLevel(6, 5, 4, 1)
	l2.copyPlaneIn(l2.u, 2, buf)
	for y := 1; y <= 5; y++ {
		for x := 1; x <= 6; x++ {
			if l2.u[l2.at(2, y, x)] != l.u[l.at(2, y, x)] {
				t.Fatal("plane codec mismatch")
			}
		}
	}
	// Ghost columns untouched.
	if l2.u[l2.at(2, 0, 3)] != 0 {
		t.Fatal("plane copy wrote ghost column")
	}
}

func TestOperatorOnLinearFunction(t *testing.T) {
	// A u = -∆u; for u = constant, A u must be 0 away from boundaries.
	l := newLevel(8, 8, 8, 0.5)
	for i := range l.u {
		l.u[i] = 3.5
	}
	if got := l.applyOperatorCell(l.u, 4, 4, 4); got != 0 {
		t.Fatalf("A(const) = %v, want 0", got)
	}
}

func TestSmootherReducesResidualSingleLevel(t *testing.T) {
	l := newLevel(8, 8, 8, 1.0/9)
	initRHS(l, 0, 1)
	norm := func() float64 {
		var s float64
		for z := 1; z <= l.nz; z++ {
			l.residualPlane(z)
			s += l.residualNormSqPlane(z)
		}
		return s
	}
	before := norm()
	for sweep := 0; sweep < 20; sweep++ {
		for z := 1; z <= l.nz; z++ {
			l.smoothPlane(z)
		}
		for z := 1; z <= l.nz; z++ {
			l.commitSmoothPlane(z)
		}
	}
	after := norm()
	if !(after < before/2) {
		t.Fatalf("Jacobi sweeps did not reduce residual: %v -> %v", before, after)
	}
}

func TestRestrictProlongShapes(t *testing.T) {
	fine := newLevel(8, 8, 8, 1)
	coarse := newLevel(4, 4, 4, 2)
	for i := range fine.res {
		fine.res[i] = 1
	}
	fine.restrictTo(coarse)
	if got := coarse.f[coarse.at(2, 2, 2)]; got != 1 {
		t.Fatalf("restriction of constant = %v, want 1", got)
	}
	// A constant coarse correction must prolong to (nearly) the same
	// constant in cells whose trilinear stencil stays interior.
	for Z := 1; Z <= coarse.nz; Z++ {
		for Y := 1; Y <= coarse.ny; Y++ {
			for X := 1; X <= coarse.nx; X++ {
				coarse.u[coarse.at(Z, Y, X)] = 2
			}
		}
	}
	fine.prolongFrom(coarse)
	if got := fine.u[fine.at(4, 4, 4)]; got != 2 {
		t.Fatalf("interior prolongation of constant = %v, want 2", got)
	}
	// Boundary-adjacent fine cells blend with the zero ghost: weight
	// 0.75 on the boundary axis.
	if got := fine.u[fine.at(1, 4, 4)]; got != 2*0.75+0 {
		t.Fatalf("edge prolongation = %v, want 1.5", got)
	}
}

func TestReferenceSolveContracts(t *testing.T) {
	res, err := RunReference(testCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	// Cell-centered MG with 8-point-average restriction, trilinear
	// prolongation and Jacobi(2,2) contracts ~0.5x per cycle.
	if !(last < first/5) {
		t.Fatalf("3 V-cycles reduced residual only %vx (%v -> %v)", first/last, first, last)
	}
}

func TestHiPERSolveContracts(t *testing.T) {
	res, err := RunHiPER(testCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	if !(last < first/5) {
		t.Fatalf("3 V-cycles reduced residual only %vx", first/last)
	}
}

func TestVariantsBitIdentical(t *testing.T) {
	cfg := testCfg(3)
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHiPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Residuals) != len(b.Residuals) {
		t.Fatal("history length mismatch")
	}
	for i := range a.Residuals {
		if a.Residuals[i] != b.Residuals[i] {
			t.Fatalf("residual %d differs: %v vs %v", i, a.Residuals[i], b.Residuals[i])
		}
	}
}

// TestFullScaleShapeContracts pins the Fig4 -full shape (N=32, NZ=16): the
// 4-deep hierarchy diverged when ghost cells held a plain zero (the
// Dirichlet boundary then sat h/2 outside the face, a domain that grew with
// every coarsening — see reflectGhosts). Guard the fix at the exact shape.
func TestFullScaleShapeContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape is slow")
	}
	res, err := RunReference(Config{N: 32, NZ: 16, Ranks: 2, Workers: 2, Cycles: 3,
		Cost: simnet.CostModel{Alpha: 30 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	if !(last < first/5) {
		t.Fatalf("full-scale shape contracts too slowly: %v", res.Residuals)
	}
}

func TestSingleRank(t *testing.T) {
	res, err := RunHiPER(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residuals) != 4 {
		t.Fatalf("history = %v", res.Residuals)
	}
}

// TestBenchmarkShapeBitIdentical runs the repository benchmark's hpgmg
// shape (N=32, NZ=16, 2 ranks x 1 worker) under the congested Network cost
// model, where every halo wait suspends on a when-future with a single
// worker per rank, and requires the HiPER residual history to equal the
// reference's bit for bit. The solve is bounded, so a lost wakeup fails
// the test instead of hanging it.
func TestBenchmarkShapeBitIdentical(t *testing.T) {
	cfg := Config{N: 32, NZ: 16, Ranks: 2, Workers: 1, Cycles: 3,
		Cost: simnet.CostModel{Alpha: 15 * time.Microsecond, BytesPerSec: 2e9,
			CongestWindow: 8, CongestPenalty: 150 * time.Microsecond}}
	want, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunHiPER(cfg)
		done <- outcome{res, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("HiPER solve still running after 60s: a halo wait was never released")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.res.Residuals) != len(want.Residuals) {
		t.Fatalf("history length %d, reference %d", len(got.res.Residuals), len(want.Residuals))
	}
	for i := range want.Residuals {
		if got.res.Residuals[i] != want.Residuals[i] {
			t.Fatalf("residual %d differs: %v vs reference %v", i, got.res.Residuals[i], want.Residuals[i])
		}
	}
}
