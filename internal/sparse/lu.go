package sparse

import (
	"errors"
	"fmt"
	"math"

	"wavepipe/internal/faults"
	"wavepipe/internal/sched"
)

// ErrRefactorPivot is returned by Refactor when a pivot chosen during the
// original factorization has become numerically unacceptable for the new
// values. The caller should fall back to a full Factorize.
var ErrRefactorPivot = errors.New("sparse: pivot too small during refactorization")

// DefaultPivotTolerance is the threshold partial-pivoting parameter: the
// diagonal entry is kept as pivot when its magnitude is at least this
// fraction of the largest eligible candidate. Diagonal preference keeps the
// factorization close to the MNA structure and maximizes refactorization
// reuse.
const DefaultPivotTolerance = 0.001

// minimum acceptable pivot magnitude relative to the column scale.
const tinyPivot = 1e-300

// LU holds a sparse LU factorization P·A·Q = L·U where P is the row
// (pivot) permutation, Q the fill-reducing column permutation, L unit lower
// triangular and U upper triangular. The pattern and pivot sequence can be
// reused by Refactor when only the numerical values of A change.
type LU struct {
	n       int
	colPerm []int // position k -> original column
	rowPerm []int // position k -> original row
	rowInv  []int // original row -> position

	// L: strict lower part, by column in pivot coordinates, rows ascending.
	lp []int
	li []int
	lx []float64
	// U: strict upper part, by column in pivot coordinates, rows ascending.
	up []int
	ui []int
	ux []float64
	ud []float64 // diagonal of U

	pivTol    float64
	work      []float64 // Refactor workspace (an LU serves one goroutine)
	solveWork []float64 // Solve workspace; separate from work, which Refactor
	// requires to stay zeroed between columns

	// Level-scheduled execution state (see parallel.go): the schedule is
	// symbolic-pattern metadata cached next to the pattern, parWork holds one
	// zeroed refactor workspace per gang member, parBar synchronizes levels.
	lsched  *luSchedule
	parWork [][]float64
	parBar  sched.Barrier
}

// Factorize computes a fresh LU factorization of m using the given column
// ordering and threshold partial pivoting.
func Factorize(m *Matrix, ordering Ordering, pivTol float64) (*LU, error) {
	return FactorizeWithPerm(m, ComputeOrdering(m, ordering), pivTol)
}

// FactorizeWithPerm is Factorize with a caller-supplied column permutation
// (perm[k] = original column eliminated at step k). Callers that factorize
// many matrices sharing one sparsity pattern compute the fill-reducing
// ordering once and pass it here; the permutation is copied, so one slice
// may back any number of concurrent factorizations.
func FactorizeWithPerm(m *Matrix, perm []int, pivTol float64) (*LU, error) {
	if pivTol <= 0 || pivTol > 1 {
		pivTol = DefaultPivotTolerance
	}
	n := m.N()
	f := &LU{
		n:       n,
		colPerm: append([]int(nil), perm...),
		rowPerm: make([]int, n),
		rowInv:  make([]int, n),
		lp:      make([]int, n+1),
		up:      make([]int, n+1),
		ud:      make([]float64, n),
		pivTol:  pivTol,
	}
	for i := range f.rowInv {
		f.rowInv[i] = -1
	}

	// Workspaces, all indexed by original row.
	x := make([]float64, n)      // numeric values of the current column
	mark := make([]int, n)       // DFS visitation stamp (column index+1)
	topo := make([]int, 0, n)    // reverse postorder pattern of the column
	stack := make([]int, 0, n)   // DFS stack of original rows
	stackP := make([]int, 0, n)  // per-stack-node child cursor
	tmpCols := make([]int, 0, n) // scratch for sorting U entries

	for k := 0; k < n; k++ {
		j := f.colPerm[k]
		topo = topo[:0]

		// Symbolic: depth-first search from each structural nonzero of
		// A(:, j) through the columns of L built so far. Reverse postorder
		// is a topological order for the sparse forward solve.
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			if mark[r] == k+1 {
				continue
			}
			stack = append(stack[:0], r)
			stackP = append(stackP[:0], 0)
			mark[r] = k + 1
			for len(stack) > 0 {
				top := len(stack) - 1
				row := stack[top]
				pos := f.rowInv[row]
				advanced := false
				if pos >= 0 {
					for c := f.lp[pos] + stackP[top]; c < f.lp[pos+1]; c++ {
						child := f.li[c] // stored as original row until finalize
						stackP[top] = c - f.lp[pos] + 1
						if mark[child] != k+1 {
							mark[child] = k + 1
							stack = append(stack, child)
							stackP = append(stackP, 0)
							advanced = true
							break
						}
					}
				}
				if !advanced && len(stack)-1 == top {
					topo = append(topo, row)
					stack = stack[:top]
					stackP = stackP[:top]
				}
			}
		}

		// Numeric scatter of A(:, j).
		for _, r := range topo {
			x[r] = 0
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			x[m.RowIdx[p]] = m.Values[p]
		}
		// Sparse forward solve in reverse postorder.
		for t := len(topo) - 1; t >= 0; t-- {
			r := topo[t]
			pos := f.rowInv[r]
			if pos < 0 {
				continue
			}
			xr := x[r]
			if xr == 0 {
				continue
			}
			for c := f.lp[pos]; c < f.lp[pos+1]; c++ {
				x[f.li[c]] -= f.lx[c] * xr
			}
		}

		// Partition pattern into U entries (already pivotal rows) and pivot
		// candidates, and choose the pivot.
		tmpCols = tmpCols[:0]
		pivotRow := -1
		maxAbs := 0.0
		for _, r := range topo {
			if f.rowInv[r] >= 0 {
				tmpCols = append(tmpCols, r)
				continue
			}
			a := math.Abs(x[r])
			if a > maxAbs {
				maxAbs = a
				pivotRow = r
			}
		}
		if pivotRow == -1 || maxAbs < tinyPivot {
			return nil, fmt.Errorf("%w at column %d (original column %d)", faults.ErrSingular, k, j)
		}
		if f.rowInv[j] < 0 && mark[j] == k+1 {
			if a := math.Abs(x[j]); a >= f.pivTol*maxAbs && a >= tinyPivot {
				pivotRow = j
			}
		}
		f.rowPerm[k] = pivotRow
		f.rowInv[pivotRow] = k
		pv := x[pivotRow]
		f.ud[k] = pv

		// Store U(:, k): pivotal rows sorted by ascending pivot position.
		insertionSortByPos(tmpCols, f.rowInv)
		for _, r := range tmpCols {
			f.ui = append(f.ui, f.rowInv[r])
			f.ux = append(f.ux, x[r])
		}
		f.up[k+1] = len(f.ui)

		// Store L(:, k): remaining candidates divided by the pivot. Row
		// indices stay in original-row space until finalize.
		for _, r := range topo {
			if f.rowInv[r] >= 0 || r == pivotRow {
				continue
			}
			f.li = append(f.li, r)
			f.lx = append(f.lx, x[r]/pv)
		}
		f.lp[k+1] = len(f.li)
	}

	// Finalize: translate L row indices from original rows to pivot
	// positions and sort each column ascending (required by Refactor).
	for p := range f.li {
		f.li[p] = f.rowInv[f.li[p]]
	}
	for k := 0; k < n; k++ {
		sortColumn(f.li[f.lp[k]:f.lp[k+1]], f.lx[f.lp[k]:f.lp[k+1]])
	}
	return f, nil
}

// insertionSortByPos sorts rows ascending by pos[row]; the slices involved
// are short (one matrix column).
func insertionSortByPos(rows []int, pos []int) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && pos[rows[j]] < pos[rows[j-1]]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// sortColumn sorts (idx, val) pairs ascending by idx.
func sortColumn(idx []int, val []float64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			val[j], val[j-1] = val[j-1], val[j]
		}
	}
}

// Refactor recomputes the numeric factorization for new values in m,
// reusing the symbolic pattern and pivot sequence of the receiver. It is
// much faster than Factorize (no graph traversal, no pivot search). If a
// stored pivot has become too small for the new values, ErrRefactorPivot is
// returned and the factorization content is undefined; the caller should
// run a full Factorize.
func (f *LU) Refactor(m *Matrix) error {
	if m.N() != f.n {
		return fmt.Errorf("sparse: Refactor dimension mismatch: %d vs %d", m.N(), f.n)
	}
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	w := f.work // pivot-position space, kept zero between columns
	for k := 0; k < f.n; k++ {
		if !f.refactorColumn(m, k, w) {
			return ErrRefactorPivot
		}
	}
	return nil
}

// refactorColumn recomputes column k of the factorization from the values in
// m, using w (pivot-position space, zero on entry, restored to zero on a
// true return) as scatter workspace. It reads only L columns from strictly
// earlier elimination levels and writes only column k's own storage, which
// is what makes the level-scheduled parallel Refactor both safe and
// bit-identical to the serial sweep. A false return means the stored pivot
// went degenerate (ErrRefactorPivot), leaving w and column k dirty.
func (f *LU) refactorColumn(m *Matrix, k int, w []float64) bool {
	j := f.colPerm[k]
	for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
		w[f.rowInv[m.RowIdx[p]]] = m.Values[p]
	}
	// Forward elimination along the stored U pattern (ascending pivot
	// positions form a valid topological order for a lower-triangular
	// dependency structure).
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
	// Scale test: the pivot must not be degenerate relative to the
	// column it eliminates.
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
	// Clear exactly the touched positions.
	for p := f.up[k]; p < f.up[k+1]; p++ {
		w[f.ui[p]] = 0
	}
	w[k] = 0
	for q := f.lp[k]; q < f.lp[k+1]; q++ {
		w[f.li[q]] = 0
	}
	return true
}

// Solve computes x with A·x = b using the factorization. b and x may alias.
// The scratch vector is pooled on the receiver, so like Refactor this is
// single-goroutine per LU; concurrent solves must use SolveWith.
func (f *LU) Solve(b, x []float64) {
	if f.solveWork == nil {
		f.solveWork = make([]float64, f.n)
	}
	f.SolveWith(b, x, f.solveWork)
}

// SolveWith is Solve with a caller-provided scratch vector of length N,
// allowing allocation-free repeated solves.
func (f *LU) SolveWith(b, x, scratch []float64) {
	w := scratch
	for k := 0; k < f.n; k++ {
		w[k] = b[f.rowPerm[k]]
	}
	// Forward: L·y = P·b (unit diagonal).
	for k := 0; k < f.n; k++ {
		yk := w[k]
		if yk == 0 {
			continue
		}
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			w[f.li[q]] -= f.lx[q] * yk
		}
	}
	// Backward: U·z = y, U stored by strict-upper columns + diagonal.
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

// LNNZ returns the number of stored entries of L (excluding the unit
// diagonal).
func (f *LU) LNNZ() int { return len(f.li) }

// UNNZ returns the number of stored entries of U (including the diagonal).
func (f *LU) UNNZ() int { return len(f.ui) + f.n }

// Solver bundles a matrix with its factorization and transparently chooses
// between the fast Refactor path and a full Factorize. It is the interface
// the Newton loops use: rewrite the matrix values, call Factorize, call
// Solve. A Solver is not safe for concurrent use; each worker thread owns
// its own.
type Solver struct {
	M        *Matrix
	Ordering Ordering
	PivTol   float64
	// ColPerm, when non-nil, is a precomputed column ordering used instead
	// of computing Ordering on every full factorization. Systems that hand
	// out many solvers over one sparsity pattern share a single ordering
	// this way (the ordering depends only on the pattern). Read-only here.
	ColPerm []int
	// Refine enables one step of iterative refinement per solve
	// (x += A⁻¹·(b − A·x)): roughly halves the effective backward error on
	// ill-conditioned MNA matrices for one extra matvec + triangular solve.
	Refine bool
	// BypassTol enables SPICE-style factorization bypass: when every matrix
	// value has changed by at most this relative amount since the values that
	// produced the current factorization, Factorize keeps the previous LU and
	// the solve becomes a quasi-Newton step. 0 disables bypass.
	BypassTol float64
	// Sched, when non-nil, runs Refactor and the triangular solves
	// level-scheduled across the pool's gang (see parallel.go). Each pattern
	// is profitability-gated: chain-like structures with no level width stay
	// on the serial sweeps. Results are bit-identical either way.
	Sched *sched.Pool

	lu      *LU
	scratch []float64
	resid   []float64
	// prevValues snapshots M.Values as of the last real (re)factorization;
	// bypass drift is measured against it, not the previous iteration, so
	// slow cumulative change still forces a refactorization eventually.
	prevValues []float64

	// Stats.
	FullFactorizations int
	Refactorizations   int
	// BypassedFactorizations counts Factorize calls answered by reusing the
	// previous LU. LastBypassed reports whether the most recent Factorize was
	// one of them — the Newton guard uses it to ensure an accepted iterate
	// always rests on a fresh factorization.
	BypassedFactorizations int
	LastBypassed           bool
}

// NewSolver returns a Solver for m using the given ordering.
func NewSolver(m *Matrix, o Ordering) *Solver {
	return &Solver{M: m, Ordering: o, PivTol: DefaultPivotTolerance}
}

// Factorize (re)factorizes the current values of the matrix, preferring the
// numeric-only refactorization path. With BypassTol > 0 and values within
// tolerance of the ones that produced the current factorization, the call is
// a no-op that keeps the previous LU (LastBypassed reports this).
func (s *Solver) Factorize() error {
	if s.lu != nil && s.BypassTol > 0 && s.prevValues != nil &&
		maxRelChange(s.prevValues, s.M.Values) <= s.BypassTol {
		s.BypassedFactorizations++
		s.LastBypassed = true
		return nil
	}
	return s.FactorizeFresh()
}

// FactorizeFresh is Factorize without the bypass shortcut: the matrix values
// are always run through Refactor or a full Factorize. Callers that must
// leave an exact factorization behind (the final Newton guard, warm-start
// handoff) use this directly.
func (s *Solver) FactorizeFresh() error {
	s.LastBypassed = false
	if s.lu != nil {
		if err := s.refactor(); err == nil {
			s.Refactorizations++
			s.snapshotValues()
			return nil
		}
		// Fall through to a full factorization with fresh pivoting.
	}
	var lu *LU
	var err error
	if s.ColPerm != nil {
		lu, err = FactorizeWithPerm(s.M, s.ColPerm, s.PivTol)
	} else {
		lu, err = Factorize(s.M, s.Ordering, s.PivTol)
	}
	if err != nil {
		return err
	}
	s.lu = lu
	s.FullFactorizations++
	s.snapshotValues()
	return nil
}

// snapshotValues records the matrix values backing the current factorization
// so later Factorize calls can measure bypass drift against them.
func (s *Solver) snapshotValues() {
	if s.BypassTol <= 0 {
		return
	}
	if s.prevValues == nil {
		s.prevValues = make([]float64, len(s.M.Values))
	}
	copy(s.prevValues, s.M.Values)
}

// maxRelChange returns the maximum elementwise relative change between old
// and new, with the relative base max(|old|, |new|). A value appearing where
// there was an exact zero counts as an infinite change.
func maxRelChange(old, new []float64) float64 {
	maxRel := 0.0
	for i, nv := range new {
		ov := old[i]
		d := math.Abs(nv - ov)
		if d == 0 {
			continue
		}
		base := math.Abs(ov)
		if a := math.Abs(nv); a > base {
			base = a
		}
		// base > 0 here since d > 0 implies at least one operand is nonzero.
		if rel := d / base; rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// refactor runs the numeric-only refactorization, level-scheduled across the
// attached pool's gang when the pattern has enough parallel width. On a
// degraded pool (no spare CPUs) the serial sweep runs instead — bit-identical,
// since per-column arithmetic is order-independent.
func (s *Solver) refactor() error {
	if s.Sched.Gang() && s.lu.schedule(s.Sched.Workers()).refPar {
		return s.lu.RefactorParallel(s.M, s.Sched)
	}
	return s.lu.Refactor(s.M)
}

// solveVec applies the factorization to one right-hand side, routing through
// the level-scheduled parallel solve when the gang is live and profitable.
func (s *Solver) solveVec(b, x []float64) {
	if s.Sched.Gang() && s.lu.schedule(s.Sched.Workers()).solvePar {
		s.lu.SolveParallelWith(b, x, s.scratch, s.Sched)
		return
	}
	s.lu.SolveWith(b, x, s.scratch)
}

// Solve computes x with A·x = b for the most recent factorization.
func (s *Solver) Solve(b, x []float64) error {
	if s.lu == nil {
		return errors.New("sparse: Solve called before Factorize")
	}
	if s.scratch == nil {
		s.scratch = make([]float64, s.M.N())
	}
	s.solveVec(b, x)
	if s.Refine {
		if s.resid == nil {
			s.resid = make([]float64, s.M.N())
		}
		// r = b − A·x, then x += A⁻¹·r.
		s.M.MulVec(x, s.resid)
		for i := range s.resid {
			s.resid[i] = b[i] - s.resid[i]
		}
		s.solveVec(s.resid, s.resid)
		for i := range x {
			x[i] += s.resid[i]
		}
	}
	return nil
}

// LU returns the current factorization (nil before the first Factorize).
func (s *Solver) LU() *LU { return s.lu }
