package experiments

import (
	"fmt"

	"repro/internal/spectral"
)

// MatrixProperties holds one row of Table 1.
type MatrixProperties struct {
	Name        string
	Description string
	N, NNZ      int
	CondA       float64 // cond(A) = λmax/λmin (SPD definition)
	CondDA      float64 // cond(D⁻¹A) via the normalized matrix N = D^{-1/2}AD^{-1/2}
	RhoM        float64 // ρ(B), B = I − D⁻¹A — the paper's ρ(M)
	RhoAbsM     float64 // ρ(|B|), the Strikwerda asynchronous bound (extension column)
}

// Table1Properties computes the measured properties of the named generated
// matrix. lanczosSteps bounds the eigenvalue estimation effort.
func Table1Properties(name string, lanczosSteps int, seed int64) (MatrixProperties, error) {
	tm, err := Matrix(name)
	if err != nil {
		return MatrixProperties{}, err
	}
	a := tm.A
	p := MatrixProperties{Name: tm.Name, Description: tm.Description, N: a.Rows, NNZ: a.NNZ()}

	if p.CondA, err = spectral.ConditionNumber(a, lanczosSteps, seed); err != nil {
		// Extremely ill-conditioned analogs (s1rmt3m1) may not resolve
		// λmin in the step budget; report the Gershgorin-based upper scale
		// instead of failing the whole table.
		lo, hi := spectral.GershgorinBounds(a)
		if lo <= 0 {
			lo = 1e-300
		}
		p.CondA = hi / lo
	}
	nm, err := spectral.NormalizedMatrix(a)
	if err != nil {
		return MatrixProperties{}, fmt.Errorf("table1 %s: %w", name, err)
	}
	if e, lerr := spectral.LanczosExtremes(nm, lanczosSteps, seed); lerr == nil && e.Min > 0 {
		p.CondDA = e.Max / e.Min
	}
	var errB, errAbs error
	p.RhoM, p.RhoAbsM, errB, errAbs = spectral.JacobiRadii(a, seed)
	if errB != nil && p.RhoM == 0 {
		return MatrixProperties{}, fmt.Errorf("table1 %s: ρ(B): %w", name, errB)
	}
	if errAbs != nil && p.RhoAbsM == 0 {
		return MatrixProperties{}, fmt.Errorf("table1 %s: ρ(|B|): %w", name, errAbs)
	}
	return p, nil
}

// Table1 regenerates the paper's Table 1 for the generated matrices,
// adding a measured ρ(|B|) column. Set short to skip Trefethen_20000 (its
// eigenvalue estimation dominates the runtime).
func Table1(short bool, lanczosSteps int, seed int64) (Table, error) {
	t := Table{
		Title:   "Table 1: dimension and characteristics of the SPD test matrices (measured on generated analogs)",
		Columns: []string{"Matrix", "Description", "#n", "#nnz", "cond(A)", "cond(D^-1 A)", "rho(M)", "rho(|M|)"},
	}
	names := []string{"Chem97ZtZ", "fv1", "fv2", "fv3", "s1rmt3m1", "Trefethen_2000"}
	if !short {
		names = append(names, "Trefethen_20000")
	}
	for _, name := range names {
		p, err := Table1Properties(name, lanczosSteps, seed)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			p.Name, p.Description,
			fmt.Sprintf("%d", p.N), fmt.Sprintf("%d", p.NNZ),
			fmt.Sprintf("%.2e", p.CondA), fmt.Sprintf("%.4g", p.CondDA),
			fmt.Sprintf("%.4f", p.RhoM), fmt.Sprintf("%.4f", p.RhoAbsM),
		})
	}
	return t, nil
}
