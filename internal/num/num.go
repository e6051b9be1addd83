// Package num provides small numeric utilities shared by the simulation
// engines: weighted error norms, divided differences for local-truncation-
// error estimation, and polynomial prediction used by forward pipelining.
package num

import (
	"fmt"
	"math"
)

// Tolerances bundles the relative/absolute tolerances used to weight error
// norms, mirroring SPICE's RELTOL/VNTOL(ABSTOL) options.
type Tolerances struct {
	// RelTol is the relative tolerance applied to the magnitude of each
	// unknown (default 1e-3).
	RelTol float64
	// AbsTol is the absolute floor of the per-unknown error weight
	// (default 1e-6, i.e. 1 µV / 1 µA).
	AbsTol float64
}

// DefaultTolerances returns the SPICE-like defaults used throughout the
// repository.
func DefaultTolerances() Tolerances {
	return Tolerances{RelTol: 1e-3, AbsTol: 1e-6}
}

// Weight returns the error weight for an unknown of magnitude |x|:
// RelTol*|x| + AbsTol. Errors divided by this weight are dimensionless and
// acceptable when at most 1.
func (t Tolerances) Weight(x float64) float64 {
	return t.RelTol*math.Abs(x) + t.AbsTol
}

// WeightedMaxNorm returns max_i |err[i]| / weight(ref[i]). The slices must
// have equal length. An empty input yields 0.
func (t Tolerances) WeightedMaxNorm(err, ref []float64) float64 {
	m := 0.0
	for i, e := range err {
		w := t.Weight(ref[i])
		if v := math.Abs(e) / w; v > m {
			m = v
		}
	}
	return m
}

// WeightedRMSNorm returns sqrt(mean_i (err[i]/weight(ref[i]))²).
func (t Tolerances) WeightedRMSNorm(err, ref []float64) float64 {
	if len(err) == 0 {
		return 0
	}
	s := 0.0
	for i, e := range err {
		w := t.Weight(ref[i])
		v := e / w
		s += v * v
	}
	return math.Sqrt(s / float64(len(err)))
}

// MaxAbs returns max_i |v[i]|, or 0 for an empty slice.
func MaxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// NonFiniteIndex returns the index of the first NaN or ±Inf entry of v, or
// -1 when every entry is finite.
func NonFiniteIndex(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Dot returns the dot product of a and b (equal lengths required).
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// AxpyInPlace computes y += alpha*x in place.
func AxpyInPlace(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Copy returns a fresh copy of v.
func Copy(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// DividedDifferences computes the Newton divided-difference table for the
// sample points (ts[i], ys[i]) and returns the coefficients c[k] =
// y[t0, t1, ..., tk]. The times must be strictly distinct. The order-k
// divided difference approximates f^(k)(ξ)/k! on the sample interval, which
// is how the engines estimate the high-order derivatives entering the LTE
// formulas.
func DividedDifferences(ts, ys []float64) []float64 {
	c := make([]float64, len(ts))
	DividedDifferencesInto(ts, ys, c)
	return c
}

// DividedDifferencesInto is DividedDifferences writing into a caller-owned
// buffer (len(c) == len(ts)), for allocation-free inner loops.
func DividedDifferencesInto(ts, ys, c []float64) {
	n := len(ts)
	copy(c, ys)
	for k := 1; k < n; k++ {
		for i := n - 1; i >= k; i-- {
			c[i] = (c[i] - c[i-1]) / (ts[i] - ts[i-k])
		}
	}
}

// MaxStencil is the largest number of sample times the fixed-size
// divided-difference kernel (Stencil) handles. The engines never difference
// more: their history window (integrate.HistoryDepth) holds at most this
// many points.
const MaxStencil = 8

// Stencil holds the divided-difference denominators ts[i]-ts[i-k] of up to
// MaxStencil sample times. Engines that difference every unknown of a
// solution vector over one set of times compute them once per call rather
// than once per unknown.
type Stencil struct {
	n   int
	den [MaxStencil][MaxStencil]float64 // den[k][i] = ts[i]-ts[i-k]
}

// Set computes the denominators for ts, which must hold at most MaxStencil
// strictly distinct times; more panics.
func (s *Stencil) Set(ts []float64) {
	n := len(ts)
	if n > MaxStencil {
		panic(fmt.Sprintf("num: stencil of %d sample times, at most %d supported", n, MaxStencil))
	}
	s.n = n
	for k := 1; k < n; k++ {
		for i := k; i < n; i++ {
			s.den[k][i] = ts[i] - ts[i-k]
		}
	}
}

// Divide turns the sample values c[:n] into the divided-difference
// coefficients c[k] = y[t0, ..., tk] in place. Each coefficient sees the
// same subtractions and divisions, in the same order, as
// DividedDifferencesInto, so the results are bit-identical.
func (s *Stencil) Divide(c *[MaxStencil]float64) {
	n := s.n
	for k := 1; k < n; k++ {
		d := &s.den[k]
		for i := n - 1; i >= k; i-- {
			c[i] = (c[i] - c[i-1]) / d[i]
		}
	}
}

// DerivativeEstimate returns an estimate of the k-th derivative of the
// sampled function at the trailing sample, using the order-k divided
// difference over the last k+1 samples scaled by k!.
func DerivativeEstimate(ts, ys []float64, k int) float64 {
	n := len(ts)
	if k+1 > n {
		k = n - 1
	}
	dd := DividedDifferences(ts[n-k-1:], ys[n-k-1:])
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return dd[k] * f
}

// PredictAt evaluates the Newton-form interpolating polynomial through the
// points (ts, ys) at time t. Used by forward pipelining to predict a not-
// yet-converged solution from history, and by step control to extrapolate
// initial Newton guesses.
func PredictAt(ts, ys []float64, t float64) float64 {
	c := DividedDifferences(ts, ys)
	n := len(ts)
	// Horner evaluation of the Newton form.
	v := c[n-1]
	for i := n - 2; i >= 0; i-- {
		v = v*(t-ts[i]) + c[i]
	}
	return v
}

// PredictVectorAt extrapolates each component of the history vectors hist
// (hist[j] is the full solution vector at time ts[j]) to time t, writing the
// result into dst. The number of history vectors sets the polynomial order;
// it is at most MaxStencil. The denominators and t-ts[j] are computed once
// per call and each unknown is differenced on a stack array, so the point-
// solve hot path allocates nothing.
func PredictVectorAt(ts []float64, hist [][]float64, t float64, dst []float64) {
	n := len(ts)
	if n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if n == 1 {
		copy(dst, hist[0])
		return
	}
	var st Stencil
	st.Set(ts)
	var dt [MaxStencil]float64
	var xs [MaxStencil][]float64
	for j := 0; j < n; j++ {
		dt[j] = t - ts[j]
		xs[j] = hist[j][:len(dst)]
	}
	var dd [MaxStencil]float64 // dd[:n] is rewritten for every unknown
	for i := range dst {
		for j := 0; j < n; j++ {
			dd[j] = xs[j][i]
		}
		st.Divide(&dd)
		v := dd[n-1]
		for j := n - 2; j >= 0; j-- {
			v = v*dt[j] + dd[j]
		}
		dst[i] = v
	}
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// EqualWithin reports |a-b| <= tol*(1+max(|a|,|b|)), a scale-aware
// approximate comparison used by tests.
func EqualWithin(a, b, tol float64) bool {
	scale := 1 + math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
