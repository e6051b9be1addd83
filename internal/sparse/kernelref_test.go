package sparse

import "math"

// Reference copies of the triangular kernels as they stood before their
// slice headers were hoisted into locals. The production kernels must stay
// bit-identical to them: same operations, same order, same rounding.

// refRefactor is Refactor on the reference column kernel.
func refRefactor(f *LU, m *Matrix) bool {
	w := make([]float64, f.n)
	for k := 0; k < f.n; k++ {
		if !refRefactorColumn(f, m, k, w) {
			return false
		}
	}
	return true
}

func refRefactorColumn(f *LU, m *Matrix, k int, w []float64) bool {
	j := f.colPerm[k]
	for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
		w[f.rowInv[m.RowIdx[p]]] = m.Values[p]
	}
	for p := f.up[k]; p < f.up[k+1]; p++ {
		i := f.ui[p]
		xi := w[i]
		f.ux[p] = xi
		if xi == 0 {
			continue
		}
		for q := f.lp[i]; q < f.lp[i+1]; q++ {
			w[f.li[q]] -= f.lx[q] * xi
		}
	}
	pv := w[k]
	colMax := math.Abs(pv)
	for q := f.lp[k]; q < f.lp[k+1]; q++ {
		if a := math.Abs(w[f.li[q]]); a > colMax {
			colMax = a
		}
	}
	if math.Abs(pv) < tinyPivot || (colMax > 0 && math.Abs(pv) < 1e-14*colMax) {
		return false
	}
	f.ud[k] = pv
	for q := f.lp[k]; q < f.lp[k+1]; q++ {
		f.lx[q] = w[f.li[q]] / pv
	}
	for p := f.up[k]; p < f.up[k+1]; p++ {
		w[f.ui[p]] = 0
	}
	w[k] = 0
	for q := f.lp[k]; q < f.lp[k+1]; q++ {
		w[f.li[q]] = 0
	}
	return true
}

func refSolveWith(f *LU, b, x, scratch []float64) {
	w := scratch
	for k := 0; k < f.n; k++ {
		w[k] = b[f.rowPerm[k]]
	}
	for k := 0; k < f.n; k++ {
		yk := w[k]
		if yk == 0 {
			continue
		}
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			w[f.li[q]] -= f.lx[q] * yk
		}
	}
	for k := f.n - 1; k >= 0; k-- {
		zk := w[k] / f.ud[k]
		w[k] = zk
		if zk == 0 {
			continue
		}
		for p := f.up[k]; p < f.up[k+1]; p++ {
			w[f.ui[p]] -= f.ux[p] * zk
		}
	}
	for k := 0; k < f.n; k++ {
		x[f.colPerm[k]] = w[k]
	}
}

// Exported for the suite-wide test in package sparse_test, which needs the
// circuit generators (and so cannot live in package sparse).
var (
	RefRefactor  = refRefactor
	RefSolveWith = refSolveWith
)
