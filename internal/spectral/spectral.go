package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// ErrNoConvergence is returned when an iterative estimator exhausts its
// iteration budget without meeting its tolerance. The best estimate so far
// accompanies the error in the method-specific result.
var ErrNoConvergence = errors.New("spectral: estimator did not converge")

// PowerMethodResult reports a spectral-radius estimate.
type PowerMethodResult struct {
	Radius     float64 // |λ| of the dominant eigenvalue
	Iterations int
	Converged  bool
}

// PowerMethod estimates the spectral radius of A by power iteration with a
// deterministic seeded random start. tol is the relative change tolerance
// between successive Rayleigh-quotient-style estimates.
func PowerMethod(a *sparse.CSR, maxIter int, tol float64, seed int64) (PowerMethodResult, error) {
	if a.Rows != a.Cols {
		return PowerMethodResult{}, fmt.Errorf("spectral: PowerMethod requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	normalize(x)
	y := make([]float64, n)
	var est, prev float64
	for k := 1; k <= maxIter; k++ {
		a.MulVec(y, x)
		est = vecmath.Nrm2(y)
		if est == 0 {
			// x in the nullspace: restart from a fresh random vector.
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			normalize(x)
			continue
		}
		vecmath.Copy(x, y)
		vecmath.Scale(1/est, x)
		if k > 1 && math.Abs(est-prev) <= tol*math.Abs(est) {
			return PowerMethodResult{Radius: est, Iterations: k, Converged: true}, nil
		}
		prev = est
	}
	return PowerMethodResult{Radius: est, Iterations: maxIter}, ErrNoConvergence
}

// JacobiSpectralRadius estimates ρ(B) for B = I − D⁻¹A, the quantity the
// paper denotes ρ(M) in Table 1. When B is signature-similar to ±|B|
// (SignatureSimilar), ρ(B) = ρ(|B|) exactly and the result is the
// AbsJacobiSpectralRadius estimate, bit for bit; otherwise it is a seeded
// power method on B.
func JacobiSpectralRadius(a *sparse.CSR, seed int64) (float64, error) {
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		return 0, err
	}
	if SignatureSimilar(b) {
		return absRadius(b)
	}
	return powerRadius(b, seed)
}

// AbsJacobiSpectralRadius estimates ρ(|B|): the Strikwerda asynchronous
// convergence bound.
func AbsJacobiSpectralRadius(a *sparse.CSR, seed int64) (float64, error) {
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		return 0, err
	}
	return absRadius(b)
}

// JacobiRadii estimates ρ(B) and ρ(|B|) together from one build of B: the
// same values JacobiSpectralRadius and AbsJacobiSpectralRadius return, but
// when B is signature-similar to ±|B| the single Perron estimate of |B|
// serves both, and only otherwise does a power method run on B. errB and
// errAbsB accompany each estimate as the single-value estimators would
// return them.
func JacobiRadii(a *sparse.CSR, seed int64) (rhoB, rhoAbsB float64, errB, errAbsB error) {
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		return 0, 0, err, err
	}
	rhoAbsB, errAbsB = absRadius(b)
	if SignatureSimilar(b) {
		return rhoAbsB, rhoAbsB, errAbsB, errAbsB
	}
	rhoB, errB = powerRadius(b, seed)
	return rhoB, rhoAbsB, errB, errAbsB
}

// absRadius is the Perron estimate of ρ(|B|) behind AbsJacobiSpectralRadius.
func absRadius(b *sparse.CSR) (float64, error) {
	r, err := NonNegativeRadius(b.Abs(), 20000, 1e-9)
	return r.Radius, err
}

// powerRadius is the seeded power method on B itself, for the B that are
// not signature-similar to ±|B| and may have ρ(B) < ρ(|B|).
func powerRadius(b *sparse.CSR, seed int64) (float64, error) {
	r, err := PowerMethod(b, 5000, 1e-10, seed)
	if err != nil && !r.Converged {
		// A near-tie between ±λ eigenvalues makes the plain power method
		// oscillate; fall back to the two-step even-power trick.
		r2, err2 := powerMethodSquared(b, 5000, 1e-10, seed+1)
		if err2 == nil {
			return r2, nil
		}
	}
	return r.Radius, err
}

// SignatureSimilar reports whether B is signature-similar to ±|B| on each
// connected component of its pattern: whether there are a diagonal ±1
// matrix S and one σ = ±1 per component with S·B·S = σ|B| there. Then B is
// the direct sum of blocks similar to σ|B_c|, and similarity and negation
// keep the spectral radius, so ρ(B) = ρ(|B|) exactly (the equality case of
// Wielandt's theorem). M-matrices (B ≥ 0) and matrices with positive
// off-diagonals (B ≤ 0) qualify. The check is a signed 2-colouring of the
// pattern by union–find, near-linear in nnz(B); explicit zeros impose
// nothing, and a non-finite entry fails it.
func SignatureSimilar(b *sparse.CSR) bool {
	// Write s_i = (−1)^p_i, σ = (−1)^q and sign(b_ij) = (−1)^t_ij. An entry
	// b_ij ≠ 0 asks p_i ⊕ p_j = t_ij ⊕ q. A relation p_i = p_r ⊕ x ⊕ (y∧q)
	// is held as the label x | y<<1, so composing relations is XOR.
	const qBit = 2
	n := b.Rows
	parent := make([]int, n)
	label := make([]uint8, n) // relation of p_i to p_parent[i]
	size := make([]int, n)
	sigma := make([]int8, n) // per root: q once fixed by an odd cycle, else −1
	for i := range parent {
		parent[i], size[i], sigma[i] = i, 1, -1
	}
	find := func(i int) (int, uint8) {
		root, rel := i, uint8(0)
		for parent[root] != root {
			rel ^= label[root]
			root = parent[root]
		}
		// Path compression: point every node on the path at the root.
		for acc := rel; i != root; {
			next, l := parent[i], label[i]
			parent[i], label[i] = root, acc
			acc ^= l
			i = next
		}
		return root, rel
	}
	for i := 0; i < n; i++ {
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			v := b.Val[p]
			if v == 0 {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			edge := uint8(qBit)
			if v < 0 {
				edge |= 1
			}
			ri, li := find(i)
			rj, lj := find(b.ColIdx[p])
			d := li ^ lj ^ edge // p_ri ⊕ p_rj must equal d
			if ri == rj {
				// A cycle: even ones need d = 0, odd ones fix q = d's bit 0.
				if d&qBit == 0 {
					if d != 0 {
						return false
					}
				} else if q := int8(d & 1); sigma[ri] < 0 {
					sigma[ri] = q
				} else if sigma[ri] != q {
					return false
				}
				continue
			}
			if sigma[ri] >= 0 && sigma[rj] >= 0 && sigma[ri] != sigma[rj] {
				return false
			}
			if size[ri] < size[rj] {
				ri, rj = rj, ri
			}
			if sigma[ri] < 0 {
				sigma[ri] = sigma[rj]
			}
			parent[rj], label[rj] = ri, d
			size[ri] += size[rj]
		}
	}
	return true
}

// AbsJacobiRadius is the bounded-work form of AbsJacobiSpectralRadius:
// power iteration on |B| with a caller-controlled iteration cap and a
// stagnation exit. Admission-time callers (internal/certify) use it so a
// defective or slowly-mixing spectrum costs at most maxIter multiplies —
// the result's Converged flag tells them to downgrade to an "Unknown"
// verdict instead of hanging. The returned Radius is always the best
// estimate so far, ErrNoConvergence accompanies an unconverged result.
func AbsJacobiRadius(a *sparse.CSR, maxIter int, tol float64, seed int64) (PowerMethodResult, error) {
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		return PowerMethodResult{}, err
	}
	return NonNegativeRadius(b.Abs(), maxIter, tol)
}

// NonNegativeRadius estimates ρ(M) of an elementwise-nonnegative matrix by
// power iteration from the all-ones vector (Perron–Frobenius: the dominant
// eigenvector is nonnegative, so a positive start never loses it). The
// iteration stops at maxIter, at the relative-change tolerance tol, or at
// stagnation: when the estimate's drift over a trailing window is orders of
// magnitude below the drift tol asks for, more multiplies cannot help
// (slowly-mixing near-ties drift by O(λ₂/λ₁)^k forever). Stagnated and
// capped exits report Converged=false with ErrNoConvergence.
func NonNegativeRadius(m *sparse.CSR, maxIter int, tol float64) (PowerMethodResult, error) {
	if m.Rows != m.Cols {
		return PowerMethodResult{}, fmt.Errorf("spectral: NonNegativeRadius requires square matrix, have %dx%d", m.Rows, m.Cols)
	}
	if m.Rows == 0 {
		return PowerMethodResult{Radius: 0, Converged: true}, nil
	}
	// Stagnation window: if over stagWindow successive iterations the
	// estimate moved by less than stagFactor·tol relative in total, treat
	// the estimate as resolved-as-far-as-it-will-be and stop early.
	const (
		stagWindow = 32
		stagFactor = 1e-3
	)
	n := m.Rows
	x := vecmath.Ones(n)
	normalize(x)
	y := make([]float64, n)
	var est, prev float64
	windowStart, windowBase := 0, math.Inf(1)
	for k := 1; k <= maxIter; k++ {
		m.MulVec(y, x)
		est = vecmath.Nrm2(y)
		if est == 0 {
			return PowerMethodResult{Radius: 0, Iterations: k, Converged: true}, nil
		}
		vecmath.Copy(x, y)
		vecmath.Scale(1/est, x)
		if k > 1 && math.Abs(est-prev) <= tol*est {
			return PowerMethodResult{Radius: est, Iterations: k, Converged: true}, nil
		}
		if k-windowStart >= stagWindow {
			if math.Abs(est-windowBase) <= stagFactor*tol*est {
				return PowerMethodResult{Radius: est, Iterations: k}, ErrNoConvergence
			}
			windowStart, windowBase = k, est
		}
		prev = est
	}
	return PowerMethodResult{Radius: est, Iterations: maxIter}, ErrNoConvergence
}

// NonNegativeRadiusBounds returns rigorous Collatz–Wielandt bounds on the
// spectral radius of an elementwise-nonnegative matrix M: for any strictly
// positive x, min_i (Mx)_i/x_i ≤ ρ(M) ≤ max_i (Mx)_i/x_i. The bounds are
// tightened over sweeps multiplications (x ← Mx, kept strictly positive),
// and unlike a power-method estimate they are proofs — an upper bound < 1
// certifies asynchronous convergence, a lower bound > 1 certifies that the
// iteration matrix is expanding, after as little as one multiply.
func NonNegativeRadiusBounds(m *sparse.CSR, sweeps int) (lo, hi float64, err error) {
	if m.Rows != m.Cols {
		return 0, 0, fmt.Errorf("spectral: NonNegativeRadiusBounds requires square matrix, have %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	if n == 0 {
		return 0, 0, nil
	}
	if sweeps < 1 {
		sweeps = 1
	}
	x := vecmath.Ones(n)
	y := make([]float64, n)
	lo, hi = 0, math.Inf(1)
	for s := 0; s < sweeps; s++ {
		m.MulVec(y, x)
		slo, shi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			r := y[i] / x[i]
			if r < slo {
				slo = r
			}
			if r > shi {
				shi = r
			}
		}
		// Each sweep's bounds are individually valid; keep the tightest.
		if slo > lo {
			lo = slo
		}
		if shi < hi {
			hi = shi
		}
		if hi-lo <= 1e-12*(1+hi) {
			break
		}
		// Renormalize and clamp to keep x strictly positive (the bounds
		// require x > 0; a zero row would otherwise zero components out).
		vecmath.Copy(x, y)
		normalize(x)
		for i := range x {
			if x[i] < 1e-12 {
				x[i] = 1e-12
			}
		}
	}
	return lo, hi, nil
}

// powerMethodSquared estimates ρ(A) as sqrt(ρ(A²)) by applying A twice per
// step, which converges when the spectrum contains a ±λ dominant pair.
func powerMethodSquared(a *sparse.CSR, maxIter int, tol float64, seed int64) (float64, error) {
	n := a.Rows
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	normalize(x)
	y := make([]float64, n)
	z := make([]float64, n)
	var est, prev float64
	for k := 1; k <= maxIter; k++ {
		a.MulVec(y, x)
		a.MulVec(z, y)
		est = vecmath.Nrm2(z)
		if est == 0 {
			return 0, nil
		}
		vecmath.Copy(x, z)
		vecmath.Scale(1/est, x)
		if k > 1 && math.Abs(est-prev) <= tol*est {
			return math.Sqrt(est), nil
		}
		prev = est
	}
	return math.Sqrt(est), ErrNoConvergence
}

// ExtremeEigs reports Lanczos estimates of the smallest and largest
// eigenvalues of a symmetric matrix.
type ExtremeEigs struct {
	Min, Max   float64
	Iterations int
}

// LanczosExtremes estimates the extreme eigenvalues of symmetric A with a
// full-reorthogonalized Lanczos process of at most m steps. For the modest
// dimensions of the paper's matrices full reorthogonalization is cheap and
// avoids ghost eigenvalues.
func LanczosExtremes(a *sparse.CSR, m int, seed int64) (ExtremeEigs, error) {
	if a.Rows != a.Cols {
		return ExtremeEigs{}, fmt.Errorf("spectral: Lanczos requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if m > n {
		m = n
	}
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)

	basis := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m) // beta[j] links step j and j+1
	w := make([]float64, n)

	for j := 0; j < m; j++ {
		basis = append(basis, append([]float64(nil), v...))
		a.MulVec(w, v)
		if j > 0 {
			vecmath.Axpy(-beta[j-1], basis[j-1], w)
		}
		aj := vecmath.Dot(w, v)
		alpha = append(alpha, aj)
		vecmath.Axpy(-aj, v, w)
		// Full reorthogonalization against all previous basis vectors.
		for _, q := range basis {
			vecmath.Axpy(-vecmath.Dot(w, q), q, w)
		}
		bj := vecmath.Nrm2(w)
		if bj < 1e-14 {
			// Invariant subspace found: the tridiagonal spectrum is exact.
			lo, hi := tridiagExtremes(alpha, beta)
			return ExtremeEigs{Min: lo, Max: hi, Iterations: j + 1}, nil
		}
		beta = append(beta, bj)
		vecmath.Copy(v, w)
		vecmath.Scale(1/bj, v)
	}
	lo, hi := tridiagExtremes(alpha, beta[:len(alpha)-1])
	return ExtremeEigs{Min: lo, Max: hi, Iterations: m}, nil
}

// tridiagExtremes returns the extreme eigenvalues of the symmetric
// tridiagonal matrix with diagonal alpha and off-diagonal beta, found by
// bisection on the Sturm sequence (eigenvalue counts).
func tridiagExtremes(alpha, beta []float64) (float64, float64) {
	k := len(alpha)
	if k == 0 {
		return 0, 0
	}
	if k == 1 {
		return alpha[0], alpha[0]
	}
	// Gershgorin interval for the tridiagonal matrix.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < k; i++ {
		var r float64
		if i > 0 {
			r += math.Abs(beta[i-1])
		}
		if i < k-1 {
			r += math.Abs(beta[i])
		}
		if alpha[i]-r < lo {
			lo = alpha[i] - r
		}
		if alpha[i]+r > hi {
			hi = alpha[i] + r
		}
	}
	countBelow := func(x float64) int {
		// Sturm sequence: number of eigenvalues < x.
		count := 0
		d := alpha[0] - x
		if d < 0 {
			count++
		}
		for i := 1; i < k; i++ {
			if d == 0 {
				d = 1e-300
			}
			d = alpha[i] - x - beta[i-1]*beta[i-1]/d
			if d < 0 {
				count++
			}
		}
		return count
	}
	bisect := func(target int) float64 {
		a, b := lo, hi
		for i := 0; i < 200 && b-a > 1e-13*(1+math.Abs(a)+math.Abs(b)); i++ {
			mid := 0.5 * (a + b)
			if countBelow(mid) >= target {
				b = mid
			} else {
				a = mid
			}
		}
		return 0.5 * (a + b)
	}
	return bisect(1), bisect(k)
}

// ConditionNumber estimates λmax/λmin of a symmetric positive definite
// matrix via Lanczos. It returns an error for non-positive λmin estimates
// (matrix not SPD, or Lanczos not yet resolved the lower end).
func ConditionNumber(a *sparse.CSR, lanczosSteps int, seed int64) (float64, error) {
	e, err := LanczosExtremes(a, lanczosSteps, seed)
	if err != nil {
		return 0, err
	}
	if e.Min <= 0 {
		return 0, fmt.Errorf("spectral: nonpositive smallest eigenvalue estimate %g (matrix not SPD or Lanczos unresolved)", e.Min)
	}
	return e.Max / e.Min, nil
}

// NormalizedMatrix returns N = D^{−1/2} A D^{−1/2}, the symmetric
// similarity transform of D⁻¹A. cond(N) is the library's definition of
// cond(D⁻¹A) in Table 1 (exact for the eigenvalue ratio; the UFMC listing
// may use singular values, which differ for non-normal D⁻¹A).
func NormalizedMatrix(a *sparse.CSR) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spectral: NormalizedMatrix requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v <= 0 {
			return nil, fmt.Errorf("spectral: nonpositive diagonal %g at row %d", v, i)
		}
		inv[i] = 1 / math.Sqrt(v)
	}
	n := a.Clone()
	for i := 0; i < n.Rows; i++ {
		for p := n.RowPtr[i]; p < n.RowPtr[i+1]; p++ {
			n.Val[p] *= inv[i] * inv[n.ColIdx[p]]
		}
	}
	return n, nil
}

// GershgorinBounds returns the union interval of all Gershgorin discs of A
// restricted to the real axis: [min_i (a_ii − r_i), max_i (a_ii + r_i)]
// with r_i the off-diagonal absolute row sum.
func GershgorinBounds(a *sparse.CSR) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < a.Rows; i++ {
		var diag, r float64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] == i {
				diag = a.Val[p]
			} else {
				r += math.Abs(a.Val[p])
			}
		}
		if diag-r < lo {
			lo = diag - r
		}
		if diag+r > hi {
			hi = diag + r
		}
	}
	return lo, hi
}

// TauScaling returns τ = 2/(λ₁+λ_n) for D⁻¹A, the damping factor the paper
// recommends (§4.2) to make Jacobi-type methods converge on SPD systems
// whose unscaled iteration matrix has ρ(B) > 1. The extremes are estimated
// on the normalized matrix N (similar to D⁻¹A).
func TauScaling(a *sparse.CSR, lanczosSteps int, seed int64) (float64, error) {
	n, err := NormalizedMatrix(a)
	if err != nil {
		return 0, err
	}
	e, err := LanczosExtremes(n, lanczosSteps, seed)
	if err != nil {
		return 0, err
	}
	sum := e.Min + e.Max
	if sum <= 0 {
		return 0, fmt.Errorf("spectral: eigenvalue sum %g not positive; matrix not SPD?", sum)
	}
	return 2 / sum, nil
}

func normalize(x []float64) {
	n := vecmath.Nrm2(x)
	if n > 0 {
		vecmath.Scale(1/n, x)
	}
}

// OperatorRadius estimates the spectral radius of a black-box *linear*
// operator given only its action dst = E·src, by power iteration with a
// seeded random start. It is the tool for analyzing iteration operators
// that exist only as code — e.g. the error-propagation map of one
// deterministic block-asynchronous global iteration, whose ρ governs the
// method's asymptotic convergence rate (two-stage iteration theory).
func OperatorRadius(apply func(dst, src []float64), n, maxIter int, tol float64, seed int64) (PowerMethodResult, error) {
	if n <= 0 {
		return PowerMethodResult{}, fmt.Errorf("spectral: OperatorRadius dimension %d must be positive", n)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	normalize(x)
	y := make([]float64, n)
	var est, prev float64
	for k := 1; k <= maxIter; k++ {
		apply(y, x)
		est = vecmath.Nrm2(y)
		if est == 0 {
			return PowerMethodResult{Radius: 0, Iterations: k, Converged: true}, nil
		}
		vecmath.Copy(x, y)
		vecmath.Scale(1/est, x)
		if k > 1 && math.Abs(est-prev) <= tol*est {
			return PowerMethodResult{Radius: est, Iterations: k, Converged: true}, nil
		}
		prev = est
	}
	return PowerMethodResult{Radius: est, Iterations: maxIter}, ErrNoConvergence
}
