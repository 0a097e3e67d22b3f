package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// Options configures an iterative solve.
type Options struct {
	// MaxIterations bounds the iteration count. Required (> 0).
	MaxIterations int
	// Tolerance is the absolute l2 residual target ‖b−Ax‖₂; 0 disables the
	// residual stopping test so exactly MaxIterations are run (the mode the
	// paper's per-iteration figures use).
	Tolerance float64
	// RecordHistory stores ‖b−Ax‖₂ after every iteration in Result.History.
	RecordHistory bool
	// InitialGuess, if non-nil, seeds x; otherwise the zero vector is used.
	// The slice is not modified.
	InitialGuess []float64
}

// Result reports the outcome of an iterative solve.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64   // final ‖b−Ax‖₂
	Converged  bool      // met Tolerance before MaxIterations
	History    []float64 // per-iteration residuals if requested
}

// ErrDiverged is reported (wrapped) when the residual becomes non-finite.
var ErrDiverged = errors.New("solver: iteration diverged (non-finite residual)")

func (o Options) validate(a *sparse.CSR, b []float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("solver: matrix must be square, have %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("solver: rhs length %d does not match matrix dimension %d", len(b), a.Rows)
	}
	if o.MaxIterations <= 0 {
		return fmt.Errorf("solver: MaxIterations must be positive, have %d", o.MaxIterations)
	}
	if o.InitialGuess != nil && len(o.InitialGuess) != a.Rows {
		return fmt.Errorf("solver: initial guess length %d does not match dimension %d", len(o.InitialGuess), a.Rows)
	}
	return nil
}

func (o Options) start(n int) []float64 {
	x := make([]float64, n)
	if o.InitialGuess != nil {
		copy(x, o.InitialGuess)
	}
	return x
}

// Residual computes ‖b − Ax‖₂.
func Residual(a *sparse.CSR, b, x []float64) float64 {
	return ResidualInto(make([]float64, len(b)), a, b, x)
}

// ResidualInto is Residual computed in the caller's scratch vector r
// (length len(b)), so a per-iteration caller allocates nothing.
func ResidualInto(r []float64, a *sparse.CSR, b, x []float64) float64 {
	a.MulVec(r, x)
	vecmath.Sub(r, b, r)
	return vecmath.Nrm2(r)
}

// finishStep updates the result bookkeeping shared by the stationary
// solvers; it returns true when the caller should stop iterating.
func finishStep(a *sparse.CSR, b, x []float64, opt Options, res *Result, iter int) (bool, error) {
	res.Iterations = iter
	needRes := opt.RecordHistory || opt.Tolerance > 0
	if !needRes {
		return false, nil
	}
	r := Residual(a, b, x)
	res.Residual = r
	if opt.RecordHistory {
		res.History = append(res.History, r)
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return true, fmt.Errorf("%w after %d iterations", ErrDiverged, iter)
	}
	if opt.Tolerance > 0 && r <= opt.Tolerance {
		res.Converged = true
		return true, nil
	}
	return false, nil
}

// Jacobi runs the synchronous Jacobi iteration
//
//	x_{k+1} = D⁻¹ (b − (L+U) x_k),
//
// the method of paper Eq. (2). Each sweep reads only the previous iterate.
func Jacobi(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	return scaledJacobi(a, b, 1.0, opt)
}

// ScaledJacobi runs the damped iteration x_{k+1} = x_k + τ D⁻¹ (b − A x_k),
// the fix the paper suggests (§4.2) for SPD systems with ρ(B) > 1 such as
// s1rmt3m1: with τ = 2/(λ₁+λ_n) of D⁻¹A the iteration converges whenever A
// is SPD. See spectral.TauScaling for obtaining τ.
func ScaledJacobi(a *sparse.CSR, b []float64, tau float64, opt Options) (Result, error) {
	if tau <= 0 {
		return Result{}, fmt.Errorf("solver: ScaledJacobi requires τ > 0, have %g", tau)
	}
	return scaledJacobi(a, b, tau, opt)
}

func scaledJacobi(a *sparse.CSR, b []float64, tau float64, opt Options) (Result, error) {
	if err := opt.validate(a, b); err != nil {
		return Result{}, err
	}
	sp, err := sparse.NewSplitting(a)
	if err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := opt.start(n)
	xn := make([]float64, n)
	res := Result{}
	for k := 1; k <= opt.MaxIterations; k++ {
		for i := 0; i < n; i++ {
			// x_i' = x_i + τ (b_i − Σ a_ij x_j) / a_ii
			s := b[i] - a.RowDot(i, x)
			xn[i] = x[i] + tau*s*sp.InvDiag[i]
		}
		x, xn = xn, x
		stop, err := finishStep(a, b, x, opt, &res, k)
		if err != nil {
			res.X = x
			return res, err
		}
		if stop {
			break
		}
	}
	res.X = x
	if opt.Tolerance == 0 || res.Converged {
		if !opt.RecordHistory && opt.Tolerance == 0 {
			res.Residual = Residual(a, b, x)
		}
		return res, nil
	}
	return res, nil
}

// GaussSeidel runs the synchronous forward Gauss-Seidel sweep: each
// component update immediately uses the freshest values of all previously
// updated components within the same sweep. This is the sequential CPU
// baseline of the paper.
func GaussSeidel(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	return sor(a, b, 1.0, opt)
}

// SOR runs successive over-relaxation with factor omega ∈ (0, 2):
// omega = 1 reduces to Gauss-Seidel.
func SOR(a *sparse.CSR, b []float64, omega float64, opt Options) (Result, error) {
	if omega <= 0 || omega >= 2 {
		return Result{}, fmt.Errorf("solver: SOR requires ω ∈ (0,2), have %g", omega)
	}
	return sor(a, b, omega, opt)
}

func sor(a *sparse.CSR, b []float64, omega float64, opt Options) (Result, error) {
	if err := opt.validate(a, b); err != nil {
		return Result{}, err
	}
	sp, err := sparse.NewSplitting(a)
	if err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := opt.start(n)
	res := Result{}
	for k := 1; k <= opt.MaxIterations; k++ {
		for i := 0; i < n; i++ {
			// In-place sweep: entries j<i are already the new values.
			s := b[i]
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.ColIdx[p]
				if j != i {
					s -= a.Val[p] * x[j]
				}
			}
			gs := s * sp.InvDiag[i]
			x[i] = (1-omega)*x[i] + omega*gs
		}
		stop, err := finishStep(a, b, x, opt, &res, k)
		if err != nil {
			res.X = x
			return res, err
		}
		if stop {
			break
		}
	}
	res.X = x
	if !opt.RecordHistory && opt.Tolerance == 0 {
		res.Residual = Residual(a, b, x)
	}
	return res, nil
}

// PCGJacobi runs the Jacobi- (diagonally-) preconditioned conjugate
// gradient method. Its convergence is governed by cond(D⁻¹A) instead of
// cond(A), which for badly scaled SPD systems (the fv family: cond(A)≈1e5,
// cond(D⁻¹A)≈13) is the difference between thousands of iterations and a
// few dozen. The paper's "highly tuned CG" baseline (§4.4, Figure 9) is
// modeled by this solver.
func PCGJacobi(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	if err := opt.validate(a, b); err != nil {
		return Result{}, err
	}
	sp, err := sparse.NewSplitting(a)
	if err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := opt.start(n)
	r := make([]float64, n)
	a.MulVec(r, x)
	vecmath.Sub(r, b, r) // r = b − Ax
	z := make([]float64, n)
	applyInvDiag(sp, z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	res := Result{}
	rz := vecmath.Dot(r, z)
	for k := 1; k <= opt.MaxIterations; k++ {
		a.MulVec(ap, p)
		pap := vecmath.Dot(p, ap)
		if pap <= 0 {
			res.X = x
			res.Residual = vecmath.Nrm2(r)
			return res, fmt.Errorf("solver: PCG breakdown pᵀAp = %g ≤ 0 at iteration %d (matrix not SPD?)", pap, k)
		}
		alpha := rz / pap
		vecmath.Axpy(alpha, p, x)
		vecmath.Axpy(-alpha, ap, r)
		resNorm := vecmath.Nrm2(r)
		res.Iterations = k
		res.Residual = resNorm
		if opt.RecordHistory {
			res.History = append(res.History, resNorm)
		}
		if math.IsNaN(resNorm) || math.IsInf(resNorm, 0) {
			res.X = x
			return res, fmt.Errorf("%w after %d iterations", ErrDiverged, k)
		}
		if opt.Tolerance > 0 && resNorm <= opt.Tolerance {
			res.Converged = true
			break
		}
		applyInvDiag(sp, z, r)
		rzNew := vecmath.Dot(r, z)
		beta := rzNew / rz
		vecmath.Axpby(1, z, beta, p)
		rz = rzNew
	}
	res.X = x
	return res, nil
}

// applyInvDiag computes z = D⁻¹ r.
func applyInvDiag(sp *sparse.Splitting, z, r []float64) {
	for i := range z {
		z[i] = sp.InvDiag[i] * r[i]
	}
}

// CG runs the (unpreconditioned) conjugate gradient method for SPD
// systems. One iteration costs one SpMV plus a few BLAS-1 operations. For
// the paper's Figure 9 baseline see PCGJacobi.
func CG(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	if err := opt.validate(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := opt.start(n)
	r := make([]float64, n)
	a.MulVec(r, x)
	vecmath.Sub(r, b, r) // r = b − Ax
	p := append([]float64(nil), r...)
	ap := make([]float64, n)
	res := Result{}
	rr := vecmath.Dot(r, r)
	for k := 1; k <= opt.MaxIterations; k++ {
		a.MulVec(ap, p)
		pap := vecmath.Dot(p, ap)
		if pap <= 0 {
			res.X = x
			res.Residual = math.Sqrt(rr)
			return res, fmt.Errorf("solver: CG breakdown pᵀAp = %g ≤ 0 at iteration %d (matrix not SPD?)", pap, k)
		}
		alpha := rr / pap
		vecmath.Axpy(alpha, p, x)
		vecmath.Axpy(-alpha, ap, r)
		rrNew := vecmath.Dot(r, r)
		res.Iterations = k
		resNorm := math.Sqrt(rrNew)
		res.Residual = resNorm
		if opt.RecordHistory {
			res.History = append(res.History, resNorm)
		}
		if math.IsNaN(resNorm) || math.IsInf(resNorm, 0) {
			res.X = x
			return res, fmt.Errorf("%w after %d iterations", ErrDiverged, k)
		}
		if opt.Tolerance > 0 && resNorm <= opt.Tolerance {
			res.Converged = true
			break
		}
		beta := rrNew / rr
		vecmath.Axpby(1, r, beta, p)
		rr = rrNew
	}
	res.X = x
	return res, nil
}
