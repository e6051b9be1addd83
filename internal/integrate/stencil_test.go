package integrate

import (
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/num"
)

// refDerivNorm is DerivNorm as it ran before the fixed-size Stencil
// path: per unknown, gather through the points and take the slice divided
// differences. The production kernel must match it bit for bit.
func refDerivNorm(pts []*Point, order int, tol num.Tolerances) float64 {
	k := order + 1
	if len(pts) < k+1 {
		return 0
	}
	pts = pts[len(pts)-(k+1):]
	ts := make([]float64, k+1)
	for i, p := range pts {
		ts[i] = p.T
	}
	ref := pts[len(pts)-1].X
	ys := make([]float64, k+1)
	dd := make([]float64, k+1)
	fact := 1.0
	for i := 2; i <= k; i++ {
		fact *= float64(i)
	}
	maxNorm := 0.0
	for i := range ref {
		for j, p := range pts {
			ys[j] = p.X[i]
		}
		copy(dd, ys)
		for l := 1; l <= k; l++ {
			for m := k; m >= l; m-- {
				dd[m] = (dd[m] - dd[m-1]) / (ts[m] - ts[m-l])
			}
		}
		d := dd[k] * fact
		if v := math.Abs(d) / tol.Weight(ref[i]); v > maxNorm {
			maxNorm = v
		}
	}
	return maxNorm
}

// TestDerivNormMatchesReference compares DerivNorm with the reference
// on 2 to num.MaxStencil points, over unevenly and nearly coincidently
// spaced times. Each unknown is checked on its own, so no maximum can mask a mismatch.
func TestDerivNormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gaps := []float64{3.1e-9, 2e-17, 7.3e-10, 1.1e-15, 4.4e-12, 9e-9, 3e-16, 1.7e-11}
	tol := num.DefaultTolerances()
	for npts := 2; npts <= num.MaxStencil; npts++ {
		order := npts - 2
		tt := 1e-6
		pts := make([]*Point, npts)
		for j := range pts {
			if j > 0 {
				tt += gaps[j%len(gaps)]
			}
			pts[j] = &Point{T: tt, X: make([]float64, 1)}
		}
		for trial := 0; trial < 300; trial++ {
			for _, p := range pts {
				p.X[0] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
				if trial%7 == 0 {
					p.X[0] = 1.8
				}
			}
			got := DerivNorm(pts, order, tol)
			want := refDerivNorm(pts, order, tol)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d points, trial %d: %x (%g), reference %x (%g)",
					npts, trial, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}
