package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// referenceJacobiRadius is the power-method estimate of ρ(B) that
// JacobiSpectralRadius returned for every input before the signature
// check existed; inputs that fail the check must still get it bit for bit.
func referenceJacobiRadius(a *sparse.CSR, seed int64) (float64, error) {
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		return 0, err
	}
	r, err := PowerMethod(b, 5000, 1e-10, seed)
	if err != nil && !r.Converged {
		if r2, err2 := powerMethodSquared(b, 5000, 1e-10, seed+1); err2 == nil {
			return r2, nil
		}
	}
	return r.Radius, err
}

// signedSystem builds A = D(I − σ·S·M·S) for a random nonnegative M whose
// pattern is an even ring over all n nodes plus random chords, each stored
// in one or both directions, with a random signature S, a random σ and a
// random positive diagonal D. Then B = I − D⁻¹A = σ·S·M·S. flip negates
// the entries of one ring edge, which reverses the sign product around the
// even ring, so no signature can match B to ±|B| any more.
func signedSystem(rng *rand.Rand, n int, flip bool) *sparse.CSR {
	s := make([]float64, n)
	d := make([]float64, n)
	for i := range s {
		s[i] = float64(1 - 2*rng.Intn(2))
		d[i] = 0.5 + 4*rng.Float64()
	}
	sigma := float64(1 - 2*rng.Intn(2))
	m := map[[2]int]float64{}
	weight := func() float64 { return 0.05 + rng.Float64()/4 }
	addEdge := func(i, j int) {
		switch rng.Intn(3) {
		case 0:
			m[[2]int{i, j}] = weight()
		case 1:
			m[[2]int{j, i}] = weight()
		default:
			m[[2]int{i, j}] = weight()
			m[[2]int{j, i}] = weight()
		}
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n)
	}
	for c := rng.Intn(n); c > 0; c-- {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			addEdge(i, j)
		}
	}
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, d[i])
	}
	for k, v := range m {
		i, j := k[0], k[1]
		bij := sigma * s[i] * s[j] * v
		if flip && ((i == 0 && j == 1) || (i == 1 && j == 0)) {
			bij = -bij
		}
		coo.Add(i, j, -d[i]*bij)
	}
	return coo.ToCSR()
}

func TestSignatureSimilarProperty(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		n := 2 * (2 + rng.Intn(30)) // even ring length
		seed := int64(trial + 1)

		// Case 1: B = σ·S·M·S is signature-similar to ±|B|, so ρ(B) is the
		// |B| estimate itself.
		a := signedSystem(rng, n, false)
		b, err := a.JacobiIterationMatrix()
		if err != nil {
			t.Fatal(err)
		}
		if !SignatureSimilar(b) {
			t.Fatalf("trial %d: σ·S·M·S failed the signature check", trial)
		}
		rho, err1 := JacobiSpectralRadius(a, seed)
		abs, err2 := AbsJacobiSpectralRadius(a, seed)
		if math.Float64bits(rho) != math.Float64bits(abs) || err1 != err2 {
			t.Fatalf("trial %d: ρ(B) = %v (%v), ρ(|B|) = %v (%v), want bitwise equal", trial, rho, err1, abs, err2)
		}
		rb, ra, eb, ea := JacobiRadii(a, seed)
		if math.Float64bits(rb) != math.Float64bits(rho) || math.Float64bits(ra) != math.Float64bits(abs) || eb != err1 || ea != err2 {
			t.Fatalf("trial %d: JacobiRadii = (%v, %v, %v, %v), single estimators (%v, %v, %v, %v)", trial, rb, ra, eb, ea, rho, abs, err1, err2)
		}

		// Case 2: one ring edge flipped. The check must fail and ρ(B) must
		// be the power-method value on B, bit for bit.
		a = signedSystem(rng, n, true)
		if b, err = a.JacobiIterationMatrix(); err != nil {
			t.Fatal(err)
		}
		if SignatureSimilar(b) {
			t.Fatalf("trial %d: a flipped edge on an even cycle passed the signature check", trial)
		}
		want, werr := referenceJacobiRadius(a, seed)
		rho, err1 = JacobiSpectralRadius(a, seed)
		if math.Float64bits(rho) != math.Float64bits(want) || err1 != werr {
			t.Fatalf("trial %d: ρ(B) = %v (%v), power method gives %v (%v)", trial, rho, err1, want, werr)
		}
		abs, err2 = AbsJacobiSpectralRadius(a, seed)
		rb, ra, eb, ea = JacobiRadii(a, seed)
		if math.Float64bits(rb) != math.Float64bits(rho) || math.Float64bits(ra) != math.Float64bits(abs) || eb != err1 || ea != err2 {
			t.Fatalf("trial %d: JacobiRadii = (%v, %v, %v, %v), single estimators (%v, %v, %v, %v)", trial, rb, ra, eb, ea, rho, abs, err1, err2)
		}
	}
}

// bruteSignatureSimilar decides SignatureSimilar by trying every signature
// s ∈ {±1}ⁿ: it holds when, for some s, the signs of s_i·s_j·b_ij agree
// within each connected component of the (undirected) pattern.
func bruteSignatureSimilar(b *sparse.CSR) bool {
	n := b.Rows
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	// Label propagation to a fixed point: comp[i] becomes the smallest
	// node index in i's component.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
				j := b.ColIdx[p]
				if b.Val[p] == 0 {
					continue
				}
				if c := min(comp[i], comp[j]); comp[i] != c || comp[j] != c {
					comp[i], comp[j], changed = c, c, true
				}
			}
		}
	}
	for mask := 0; mask < 1<<n; mask++ {
		sign := func(i int) float64 { return float64(1 - 2*(mask>>i&1)) }
		want := make([]float64, n) // per component root: the common sign, 0 until seen
		ok := true
		for i := 0; i < n && ok; i++ {
			for p := b.RowPtr[i]; p < b.RowPtr[i+1] && ok; p++ {
				if b.Val[p] == 0 {
					continue
				}
				g := math.Copysign(1, sign(i)*sign(b.ColIdx[p])*b.Val[p])
				switch c := comp[i]; want[c] {
				case 0:
					want[c] = g
				default:
					ok = want[c] == g
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestSignatureSimilarBruteForce(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	rng := rand.New(rand.NewSource(11))
	var pass, fail int
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		// Half the inputs are built signature-similar (then perturbed by
		// at most one sign), half have independent random signs.
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(1 - 2*rng.Intn(2))
		}
		sigma := float64(1 - 2*rng.Intn(2))
		structured := rng.Intn(2) == 0
		density := rng.Float64() * 0.6
		coo := sparse.NewCOO(n, n)
		var flipped bool
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Diagonal entries are rare: B = I − D⁻¹A has none, but the
				// check must still treat one as a self-loop.
				if (i == j && rng.Intn(8) != 0) || rng.Float64() >= density {
					continue
				}
				v := rng.Float64() + 0.1
				if structured {
					v *= sigma * s[i] * s[j]
					if !flipped && rng.Intn(4) == 0 {
						v, flipped = -v, true
					}
				} else if rng.Intn(2) == 0 {
					v = -v
				}
				coo.Add(i, j, v)
			}
		}
		b := coo.ToCSR()
		got, want := SignatureSimilar(b), bruteSignatureSimilar(b)
		if got != want {
			t.Fatalf("trial %d: SignatureSimilar = %v, brute force = %v on %+v", trial, got, want, b)
		}
		if got {
			pass++
		} else {
			fail++
		}
	}
	if pass < trials/10 || fail < trials/10 {
		t.Errorf("unbalanced sample: %d pass, %d fail", pass, fail)
	}
}

func TestSignatureSimilarRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		coo := sparse.NewCOO(2, 2)
		coo.Add(0, 1, v)
		coo.Add(1, 0, 0.5)
		if SignatureSimilar(coo.ToCSR()) {
			t.Errorf("entry %v passed the signature check", v)
		}
	}
}
