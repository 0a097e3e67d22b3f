package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mats"
)

func TestCheckConvergenceDominant(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *matCSR
		// exact is the analytic ρ(B), when known.
		exact float64
	}{
		{"fv analog", mats.FV(20, 20, 1.368), 0},
		// The fleet corpus matrix: B = |B| ≥ 0 and every row of |B| sums to
		// 1/1.5, so ρ(B) = ρ(|B|) = 2/3 exactly.
		{"DiagDominant(700,4,1.5)", mats.DiagDominant(700, 4, 1.5), 2.0 / 3},
	} {
		r, err := CheckConvergence(tc.a, 50, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !r.StrictlyDiagonallyDominant || !r.JacobiConverges || !r.AsyncGuaranteed {
			t.Errorf("%s should satisfy everything: %+v", tc.name, r)
		}
		if r.SuggestedTau != 0 {
			t.Errorf("%s: no τ needed when ρ(B) < 1, got %g", tc.name, r.SuggestedTau)
		}
		if !strings.Contains(r.String(), "guaranteed") {
			t.Errorf("%s: String() = %q", tc.name, r.String())
		}
		// Both are Z-matrices (B ≥ 0), so ρ(B) and ρ(|B|) are one estimate.
		if r.RhoB != r.RhoAbsB {
			t.Errorf("%s: ρ(B) = %v, ρ(|B|) = %v, want equal", tc.name, r.RhoB, r.RhoAbsB)
		}
		if tc.exact != 0 && math.Abs(r.RhoB-tc.exact) > 1e-6 {
			t.Errorf("%s: ρ(B) = %.10f, want %.10f", tc.name, r.RhoB, tc.exact)
		}
	}
}

func TestCheckConvergenceDivergent(t *testing.T) {
	r, err := CheckConvergence(mats.S1RMT3M1(300), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.JacobiConverges || r.AsyncGuaranteed {
		t.Errorf("s1rmt3m1 must fail both conditions: %+v", r)
	}
	if math.Abs(r.RhoB-2.657) > 0.05 {
		t.Errorf("ρ(B) = %g, want ≈2.657", r.RhoB)
	}
	if !(r.SuggestedTau > 0 && r.SuggestedTau < 1) {
		t.Errorf("expected a τ suggestion, got %g", r.SuggestedTau)
	}
	if !strings.Contains(r.String(), "tau=") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestCheckConvergenceTrefethen(t *testing.T) {
	// Trefethen is NOT strictly diagonally dominant (early rows) yet both
	// spectral conditions hold — the case where the spectral test is
	// strictly more informative than the dominance test.
	r, err := CheckConvergence(mats.Trefethen(500), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.StrictlyDiagonallyDominant {
		t.Error("Trefethen's first rows are not dominant")
	}
	if !r.JacobiConverges || !r.AsyncGuaranteed {
		t.Errorf("Trefethen should satisfy both spectral conditions: %+v", r)
	}
}

func TestCheckConvergenceValidation(t *testing.T) {
	c := mats.Poisson2D(3, 3)
	_ = c
	rect := &matCSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := CheckConvergence(rect, 10, 1); err == nil {
		t.Error("expected error for rectangular input")
	}
}
