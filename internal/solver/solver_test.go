package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mats"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// laplace1D builds the [−1 2 −1] matrix; Jacobi and GS both converge on it.
func laplace1D(n int) *sparse.CSR {
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i+1 < n {
			c.AddSym(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// onesRHS returns b = A·1 so the exact solution is the ones vector.
func onesRHS(a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows)
	a.MulVec(b, vecmath.Ones(a.Cols))
	return b
}

func checkSolvesOnes(t *testing.T, name string, x []float64, tol float64) {
	t.Helper()
	for i, v := range x {
		if math.Abs(v-1) > tol {
			t.Fatalf("%s: x[%d] = %g, want 1 (±%g)", name, i, v, tol)
		}
	}
}

func TestJacobiSolvesLaplace(t *testing.T) {
	a := laplace1D(30)
	b := onesRHS(a)
	res, err := Jacobi(a, b, Options{MaxIterations: 5000, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged, residual %g", res.Residual)
	}
	checkSolvesOnes(t, "Jacobi", res.X, 1e-8)
}

func TestGaussSeidelSolvesLaplace(t *testing.T) {
	a := laplace1D(30)
	b := onesRHS(a)
	res, err := GaussSeidel(a, b, Options{MaxIterations: 5000, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged, residual %g", res.Residual)
	}
	checkSolvesOnes(t, "GS", res.X, 1e-8)
}

func TestGaussSeidelFasterThanJacobi(t *testing.T) {
	// The paper's baseline fact (§4.2): GS converges in considerably fewer
	// iterations than Jacobi; classically about half on this model problem.
	a := laplace1D(40)
	b := onesRHS(a)
	j, err := Jacobi(a, b, Options{MaxIterations: 20000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GaussSeidel(a, b, Options{MaxIterations: 20000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Converged || !g.Converged {
		t.Fatal("baselines failed to converge")
	}
	if g.Iterations >= j.Iterations {
		t.Errorf("GS took %d iterations, Jacobi %d; GS must be faster", g.Iterations, j.Iterations)
	}
	ratio := float64(j.Iterations) / float64(g.Iterations)
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("iteration ratio Jacobi/GS = %.2f, want ≈2 (classical result)", ratio)
	}
}

func TestSORFasterThanGS(t *testing.T) {
	a := laplace1D(40)
	b := onesRHS(a)
	// Optimal SOR omega for 1D Laplace: 2/(1+sin(π/(n+1))).
	omega := 2 / (1 + math.Sin(math.Pi/41))
	g, _ := GaussSeidel(a, b, Options{MaxIterations: 20000, Tolerance: 1e-8})
	s, err := SOR(a, b, omega, Options{MaxIterations: 20000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Converged || s.Iterations >= g.Iterations {
		t.Errorf("SOR(ω=%.3f) took %d iterations vs GS %d; SOR must win", omega, s.Iterations, g.Iterations)
	}
}

func TestSORRejectsBadOmega(t *testing.T) {
	a := laplace1D(5)
	for _, w := range []float64{0, -1, 2, 2.5} {
		if _, err := SOR(a, onesRHS(a), w, Options{MaxIterations: 1}); err == nil {
			t.Errorf("SOR accepted ω=%g", w)
		}
	}
}

func TestCGSolvesLaplace(t *testing.T) {
	a := laplace1D(50)
	b := onesRHS(a)
	res, err := CG(a, b, Options{MaxIterations: 100, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG not converged, residual %g", res.Residual)
	}
	checkSolvesOnes(t, "CG", res.X, 1e-8)
	// CG on an n×n SPD system converges in at most n iterations (exact
	// arithmetic); here far fewer.
	if res.Iterations > 50 {
		t.Errorf("CG took %d iterations on a 50-dim system", res.Iterations)
	}
}

func TestCGMuchFasterThanStationary(t *testing.T) {
	// Paper Figure 9: CG is the fastest method per iteration count on the
	// fv systems.
	a := mats.FV(30, 30, 0.5)
	b := onesRHS(a)
	cg, err := CG(a, b, Options{MaxIterations: 2000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Jacobi(a, b, Options{MaxIterations: 2000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !cg.Converged {
		t.Fatal("CG failed")
	}
	if j.Converged && cg.Iterations >= j.Iterations {
		t.Errorf("CG %d iterations vs Jacobi %d; CG must need fewer", cg.Iterations, j.Iterations)
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	a := c.ToCSR()
	if _, err := CG(a, []float64{1, 1}, Options{MaxIterations: 10}); err == nil {
		t.Error("expected CG breakdown on indefinite matrix")
	}
}

func TestJacobiDivergesOnS1RMT3M1(t *testing.T) {
	// Paper Figure 6e: ρ(B) ≈ 2.65 > 1, Jacobi diverges.
	a := mats.S1RMT3M1(200)
	b := onesRHS(a)
	res, _ := Jacobi(a, b, Options{MaxIterations: 100, RecordHistory: true})
	if len(res.History) < 2 {
		t.Fatal("no history recorded")
	}
	last := res.History[len(res.History)-1]
	if !(last > res.History[0]) && !math.IsInf(last, 0) && !math.IsNaN(last) {
		t.Errorf("expected divergence: residual went %g -> %g", res.History[0], last)
	}
}

func TestScaledJacobiRescuesS1RMT3M1(t *testing.T) {
	// Paper §4.2: with τ = 2/(λ1+λn) Jacobi-based methods work on SPD
	// systems with ρ(B) > 1.
	a := mats.S1RMT3M1(200)
	b := onesRHS(a)
	// For the 8th-order stencil, D⁻¹A eigenvalues ∈ (≈0, 256/70); τ ≈ 2/(256/70) ≈ 0.547.
	tau := 0.546
	res, err := ScaledJacobi(a, b, tau, Options{MaxIterations: 500, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Errorf("scaled Jacobi did not reduce the residual: %g -> %g",
			res.History[0], res.History[len(res.History)-1])
	}
}

func TestScaledJacobiRejectsBadTau(t *testing.T) {
	a := laplace1D(4)
	if _, err := ScaledJacobi(a, onesRHS(a), 0, Options{MaxIterations: 1}); err == nil {
		t.Error("expected error for τ=0")
	}
}

func TestOptionsValidation(t *testing.T) {
	a := laplace1D(4)
	b := onesRHS(a)
	if _, err := Jacobi(a, b[:2], Options{MaxIterations: 1}); err == nil {
		t.Error("expected rhs length error")
	}
	if _, err := Jacobi(a, b, Options{}); err == nil {
		t.Error("expected MaxIterations error")
	}
	if _, err := Jacobi(a, b, Options{MaxIterations: 1, InitialGuess: make([]float64, 2)}); err == nil {
		t.Error("expected initial guess length error")
	}
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := Jacobi(rect.ToCSR(), []float64{1, 1}, Options{MaxIterations: 1}); err == nil {
		t.Error("expected square matrix error")
	}
}

func TestInitialGuessRespected(t *testing.T) {
	a := laplace1D(10)
	b := onesRHS(a)
	exact := vecmath.Ones(10)
	res, err := Jacobi(a, b, Options{MaxIterations: 1, InitialGuess: exact, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("starting from the exact solution should converge immediately, got %+v", res)
	}
	// The provided guess must not be modified.
	for _, v := range exact {
		if v != 1 {
			t.Fatal("solver mutated the caller's initial guess")
		}
	}
}

func TestHistoryMonotoneForSPDDominant(t *testing.T) {
	a := mats.DiagDominant(60, 2, 2.0)
	b := onesRHS(a)
	res, err := Jacobi(a, b, Options{MaxIterations: 50, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-12) {
			t.Fatalf("residual increased at iteration %d: %g -> %g", i, res.History[i-1], res.History[i])
		}
	}
}

func TestDivergenceReportsError(t *testing.T) {
	// An aggressively non-dominant matrix with huge ρ(B) overflows quickly.
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1e-8)
	c.Add(1, 1, 1e-8)
	c.AddSym(0, 1, 1e8)
	a := c.ToCSR()
	_, err := Jacobi(a, []float64{1, 1}, Options{MaxIterations: 100000, Tolerance: 1e-10})
	if err == nil || !errors.Is(err, ErrDiverged) {
		t.Errorf("expected ErrDiverged, got %v", err)
	}
}

func TestResidualHelper(t *testing.T) {
	a := laplace1D(3)
	x := []float64{0, 0, 0}
	b := []float64{3, 4, 0}
	if got := Residual(a, b, x); got != 5 {
		t.Errorf("Residual = %g, want 5", got)
	}
}

func TestResidualIntoMatchesResidualWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mats.FV(30, 30, 1.368)
	b, x := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range b {
		b[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	r := make([]float64, a.Rows)
	if got, want := ResidualInto(r, a, b, x), Residual(a, b, x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("ResidualInto = %v, Residual = %v, want bitwise equal", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { ResidualInto(r, a, b, x) }); allocs != 0 {
		t.Errorf("ResidualInto allocates %v times per call, want 0", allocs)
	}
}

// Property: for random strictly diagonally dominant SPD systems, both
// Jacobi and Gauss-Seidel converge to the true solution.
func TestPropertyStationaryConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		a := mats.DiagDominant(n, 1+rng.Intn(3), 1.3+rng.Float64())
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		for _, solve := range []func(*sparse.CSR, []float64, Options) (Result, error){Jacobi, GaussSeidel} {
			res, err := solve(a, b, Options{MaxIterations: 10000, Tolerance: 1e-10})
			if err != nil || !res.Converged {
				return false
			}
			for i := range xTrue {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: CG error is monotonically non-increasing in A-norm; we check
// the weaker, still-true-in-floating-point property that it solves random
// SPD systems to tight tolerance within n iterations.
func TestPropertyCGExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		a := mats.DiagDominant(n, 2, 1.5)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		res, err := CG(a, b, Options{MaxIterations: 3 * n, Tolerance: 1e-10})
		if err != nil || !res.Converged {
			return false
		}
		for i := range xTrue {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPCGJacobiSolves(t *testing.T) {
	a := laplace1D(50)
	b := onesRHS(a)
	res, err := PCGJacobi(a, b, Options{MaxIterations: 100, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("PCG not converged, residual %g", res.Residual)
	}
	checkSolvesOnes(t, "PCG", res.X, 1e-8)
}

func TestPCGJacobiBeatsCGOnBadlyScaledSystem(t *testing.T) {
	// A diagonally scaled SPD system: cond(A) huge, cond(D⁻¹A) small.
	// Jacobi preconditioning restores the well-scaled convergence.
	a := mats.ScaleSym(mats.DiagDominant(200, 2, 1.5), 1000)
	b := onesRHS(a)
	cg, err := CG(a, b, Options{MaxIterations: 2000, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := PCGJacobi(a, b, Options{MaxIterations: 2000, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !pcg.Converged {
		t.Fatal("PCG failed on scaled system")
	}
	if cg.Converged && pcg.Iterations >= cg.Iterations {
		t.Errorf("PCG took %d iterations, CG %d; preconditioning must help on scaled systems",
			pcg.Iterations, cg.Iterations)
	}
}

func TestPCGJacobiRejectsIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	if _, err := PCGJacobi(c.ToCSR(), []float64{1, 1}, Options{MaxIterations: 10}); err == nil {
		t.Error("expected PCG breakdown on indefinite matrix")
	}
}
