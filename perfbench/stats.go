package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear interpolation
// between order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartiles as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(j int) float64 {
		// statistics.quantiles, method "exclusive": m = n+1.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// bound is one end-to-end metric's regression rule as BENCHMARK.json
// states it.
type bound struct {
	name        string
	lowerBetter bool
	share       float64
}

// worse compares runs of one metric, base[i] and cand[i] run back to back.
// The candidate is worse when its median is worse than the base median by
// more than the bound's share (a regression), or when it lost at least
// nine in ten pairs and the medians differ by more than the base runs' own
// quartile spread (a resolved slowdown smaller than the bound).
func (b bound) worse(base, cand []float64) bool {
	mb := median(base)
	loss := func(x, ref float64) float64 {
		if b.lowerBetter {
			return x - ref
		}
		return ref - x
	}
	diff := loss(median(cand), mb)
	if diff > b.share*math.Abs(mb) {
		return true
	}
	n := min(len(base), len(cand))
	lost := 0
	for i := 0; i < n; i++ {
		if loss(cand[i], base[i]) > 0 {
			lost++
		}
	}
	return n > 0 && 10*lost >= 9*n && diff > quartileSpread(base)*math.Abs(mb)
}

// flagged lists the metrics on which cand is worse than base, given runs of
// both sides as metric name → one value per run.
func flagged(bounds []bound, base, cand map[string][]float64) []string {
	var out []string
	for _, b := range bounds {
		if len(base[b.name]) == 0 || len(cand[b.name]) == 0 {
			continue
		}
		if b.worse(base[b.name], cand[b.name]) {
			out = append(out, b.name)
		}
	}
	return out
}
