// Package spectral estimates the spectral quantities the paper reports in
// Table 1 and relies on in its convergence theory:
//
//   - ρ(B), ρ(|B|): spectral radius of the Jacobi iteration matrix and of
//     its elementwise absolute value — the Strikwerda sufficient condition
//     for asynchronous convergence is ρ(|B|) < 1. When B is
//     signature-similar to ±|B| (SignatureSimilar) the two are equal and
//     one Perron estimate of |B| gives both;
//   - extreme eigenvalues of SPD matrices via symmetric Lanczos, used for
//     cond(A), cond(D⁻¹A), and the τ-scaling τ = 2/(λ₁+λ_n) of §4.2;
//   - Gershgorin disc bounds as cheap a-priori checks.
//
// All estimators are deterministic: randomized start vectors take an
// explicit seed.
package spectral
