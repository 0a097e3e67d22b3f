package core

import (
	"fmt"

	"repro/internal/certify"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// Certify runs the admission-time convergence certifier on A: it
// classifies the matrix, derives a Converges/Diverges/Unknown verdict
// with its spectral evidence, and prices a Converges verdict with the
// predicted iterations-to-tolerance. Options zero value uses the
// certifier defaults. See package repro/internal/certify for the theory
// and Options.Certify for the in-solve enforcement hook.
func Certify(a *sparse.CSR, opt certify.Options) (certify.Certificate, error) {
	return certify.Certify(a, opt)
}

// ConvergenceReport is the paper's pre-flight analysis (§2.2, §3.1) as a
// typed result: which convergence guarantees hold for a given system.
type ConvergenceReport struct {
	// RhoB is ρ(B), B = I − D⁻¹A: Jacobi converges iff RhoB < 1.
	//
	// When B is signature-similar to ±|B| — a diagonal ±1 matrix S gives
	// S·B·S = ±|B| on each connected component of B's pattern, as for
	// every M-matrix (B ≥ 0), every matrix with positive off-diagonals
	// (B ≤ 0) and every paper matrix — RhoB is the RhoAbsB estimate
	// itself: similarity and negation keep the spectral radius, so
	// ρ(B) = ρ(|B|) exactly and one Perron iteration on |B| gives both.
	// Only otherwise, where ρ(B) < ρ(|B|) can happen, does a seeded power
	// method run on B (spectral.JacobiRadii).
	RhoB float64
	// RhoAbsB is ρ(|B|): Strikwerda's sufficient condition — the
	// asynchronous iteration converges for *every* admissible update and
	// shift function iff RhoAbsB < 1.
	RhoAbsB float64
	// StrictlyDiagonallyDominant implies both conditions analytically.
	StrictlyDiagonallyDominant bool
	// JacobiConverges and AsyncGuaranteed summarize the two thresholds.
	JacobiConverges bool
	AsyncGuaranteed bool
	// SuggestedTau is the §4.2 damping τ = 2/(λ₁+λ_n) of D⁻¹A, populated
	// when the plain iteration is not guaranteed (RhoB ≥ 1) and the matrix
	// is SPD-normalizable; 0 otherwise.
	SuggestedTau float64
}

// String renders the report as the advice the paper gives per system.
func (r ConvergenceReport) String() string {
	switch {
	case r.AsyncGuaranteed:
		return fmt.Sprintf("rho(B)=%.4f, rho(|B|)=%.4f: asynchronous convergence guaranteed (Strikwerda)", r.RhoB, r.RhoAbsB)
	case r.JacobiConverges:
		return fmt.Sprintf("rho(B)=%.4f < 1 <= rho(|B|)=%.4f: Jacobi converges; asynchronous convergence not guaranteed for all schedules", r.RhoB, r.RhoAbsB)
	case r.SuggestedTau > 0:
		return fmt.Sprintf("rho(B)=%.4f >= 1: plain relaxation diverges; use the scaled iteration with tau=%.4f (paper §4.2)", r.RhoB, r.SuggestedTau)
	default:
		return fmt.Sprintf("rho(B)=%.4f >= 1: plain relaxation diverges", r.RhoB)
	}
}

// CheckConvergence runs the paper's convergence-theory checks on A.
// lanczosSteps bounds the τ estimation effort (used only when ρ(B) ≥ 1).
func CheckConvergence(a *sparse.CSR, lanczosSteps int, seed int64) (ConvergenceReport, error) {
	if a.Rows != a.Cols {
		return ConvergenceReport{}, fmt.Errorf("core: CheckConvergence requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	var r ConvergenceReport
	r.StrictlyDiagonallyDominant = a.IsStrictlyDiagonallyDominant()

	rho, rhoAbs, errB, errAbs := spectral.JacobiRadii(a, seed)
	if errB != nil && rho == 0 {
		return r, fmt.Errorf("core: ρ(B): %w", errB)
	}
	r.RhoB = rho
	if errAbs != nil && rhoAbs == 0 {
		return r, fmt.Errorf("core: ρ(|B|): %w", errAbs)
	}
	r.RhoAbsB = rhoAbs
	r.JacobiConverges = r.RhoB < 1
	r.AsyncGuaranteed = r.RhoAbsB < 1

	if !r.JacobiConverges {
		if tau, terr := spectral.TauScaling(a, lanczosSteps, seed); terr == nil {
			r.SuggestedTau = tau
		}
	}
	return r, nil
}
