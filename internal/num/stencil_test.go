package num

import (
	"math"
	"math/rand"
	"testing"
)

// refPredictVector is the per-unknown predictor loop before the Stencil
// path.
func refPredictVector(ts []float64, hist [][]float64, t float64, dst []float64) {
	n := len(ts)
	ys := make([]float64, n)
	c := make([]float64, n)
	for i := range dst {
		for j := 0; j < n; j++ {
			ys[j] = hist[j][i]
		}
		DividedDifferencesInto(ts, ys, c)
		v := c[n-1]
		for j := n - 2; j >= 0; j-- {
			v = v*(t-ts[j]) + c[j]
		}
		dst[i] = v
	}
}

// unevenTimes returns n ascending times with wildly uneven spacing,
// including gaps many orders of magnitude below the time scale.
func unevenTimes(n int) []float64 {
	gaps := []float64{3.1e-9, 2e-17, 7.3e-10, 1.1e-15, 4.4e-12, 9e-9, 3e-16, 1.7e-11}
	ts := make([]float64, n)
	ts[0] = 1e-6
	for i := 1; i < n; i++ {
		ts[i] = ts[i-1] + gaps[i%len(gaps)]
	}
	return ts
}

// randomHistory returns n solution vectors of nUnk unknowns spanning many
// magnitudes, with exact zeros and repeated values mixed in.
func randomHistory(rng *rand.Rand, n, nUnk int) [][]float64 {
	hist := make([][]float64, n)
	for j := range hist {
		hist[j] = make([]float64, nUnk)
		for i := range hist[j] {
			switch i % 5 {
			case 0:
				hist[j][i] = 0
			case 1:
				hist[j][i] = 1.8 // constant across the history
			default:
				hist[j][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			}
		}
	}
	return hist
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestStencilMatchesReference checks the fixed-size kernel against the
// slice divided differences and the old predictor loop for 2 to MaxStencil
// points.
func TestStencilMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nUnk = 257
	for n := 2; n <= MaxStencil; n++ {
		ts := unevenTimes(n)
		hist := randomHistory(rng, n, nUnk)
		var st Stencil
		st.Set(ts)
		ys := make([]float64, n)
		want := make([]float64, n)
		for i := 0; i < nUnk; i++ {
			var c [MaxStencil]float64
			for j := 0; j < n; j++ {
				c[j] = hist[j][i]
				ys[j] = hist[j][i]
			}
			st.Divide(&c)
			DividedDifferencesInto(ts, ys, want)
			sameBits(t, "divided differences", c[:n], want)
		}
		tNew := ts[n-1] + 2.3e-9
		got := make([]float64, nUnk)
		wantP := make([]float64, nUnk)
		PredictVectorAt(ts, hist, tNew, got)
		refPredictVector(ts, hist, tNew, wantP)
		sameBits(t, "prediction", got, wantP)
	}
}

// TestStencilRejectsLongStencil checks that more than MaxStencil sample
// times panic instead of being differenced partially.
func TestStencilRejectsLongStencil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set accepted more than MaxStencil times")
		}
	}()
	var st Stencil
	st.Set(unevenTimes(MaxStencil + 1))
}
