// Package tensor provides the small float32 linear-algebra substrate used
// by the training stack: dense matrices in row-major layout, matrix-vector
// and matrix-matrix products, and a handful of element-wise helpers.
//
// It is deliberately minimal — training runs on the host, so the only
// requirements are correctness, determinism, and enough speed (parallel
// blocked GEMM) to run the paper's model sweeps in CI time. Nothing in
// this package is used on the simulated device.
//
// Neuro-C layers train on sparse ternary products instead of GEMMs:
// Ternarize quantizes a latent matrix into per-row lists of the columns
// it adds to and subtracts from, MatMulTernary computes x·A over them,
// and MatMulTernaryBT computes the input gradient dz·Aᵀ. Both equal
// MatMul and MatMulBT on A's dense {-1, 0, +1} form bit for bit, for
// finite inputs:
//
//   - A dense term a·(±1) is exactly ±a, which is what the sparse
//     kernels add or subtract.
//   - Per output element, the nonzero terms come in the same order:
//     ascending k in the forward product (rows of the input in turn),
//     ascending j in the input gradient (the merge of the +1 and -1
//     lists).
//   - The terms the sparse kernels skip are ±0, and adding ±0 never
//     changes an IEEE sum that starts at +0: such a sum can never be
//     -0, and x + (±0) == x for every other x.
//
// MatMulAT, the latent gradient xᵀ·dz, is exact by the same argument.
// For each output row i it collects the batch rows k with x[k][i] != 0
// and adds them four at a time, holding dst[i][j] in a register across
// the four additions. Each element still sums its terms one by one in
// ascending k, as the textbook product does, and the skipped terms are
// ±0 added to a sum that started at +0.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Mat is a dense row-major float32 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (len rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice len %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ParallelRows runs fn over disjoint ranges [lo, hi) that cover [0, n),
// using up to GOMAXPROCS goroutines when there are at least
// minPerWorker items per worker to amortize their startup, and the
// calling goroutine alone otherwise.
func ParallelRows(n int, minPerWorker int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n/minPerWorker {
		workers = n / minPerWorker
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes dst = a · b. dst must be a.Rows×b.Cols and must not
// alias a or b. The inner loop is written j-k-i style over rows of b to
// stream memory sequentially.
func MatMul(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	ParallelRows(a.Rows, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// MatMulBT computes dst = a · bᵀ, i.e. dst[i][j] = Σ_k a[i][k]·b[j][k].
// This is the layout the backward pass wants (both operands row-major).
func MatMulBT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBT dims (%dx%d)·(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	ParallelRows(a.Rows, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var sum float32
				for k, av := range arow {
					sum += av * brow[k]
				}
				drow[j] = sum
			}
		}
	})
}

// Ternary is a sparse matrix with entries in {-1, 0, +1}, stored by row
// as the ascending columns that hold +1 and the ascending columns that
// hold -1. A product with it is pure add/subtract over its nonzeros.
type Ternary struct {
	Rows, Cols int
	// Row i adds to cols[start[i]:split[i]] and subtracts from
	// cols[split[i]:start[i+1]].
	start, split []int32
	cols         []int32
}

// Ternarize quantizes m in one pass: entries above t become +1, entries
// below -t become -1, and the rest (NaN included) 0. With t = 0 it
// converts a matrix that already holds {-1, 0, +1}.
func Ternarize(m *Mat, t float32) *Ternary {
	q := &Ternary{Rows: m.Rows, Cols: m.Cols,
		start: make([]int32, m.Rows+1), split: make([]int32, m.Rows)}
	// Each column is written to both lists and kept by advancing their
	// ends, so the loop has no branch on the latent's sign.
	pos, neg := make([]int32, m.Cols), make([]int32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		np, nn := 0, 0
		for j, v := range m.Row(i) {
			pos[np], neg[nn] = int32(j), int32(j)
			if v > t {
				np++
			}
			if v < -t {
				nn++
			}
		}
		q.cols = append(q.cols, pos[:np]...)
		q.split[i] = int32(len(q.cols))
		q.cols = append(q.cols, neg[:nn]...)
		q.start[i+1] = int32(len(q.cols))
	}
	return q
}

// Row returns the ascending columns of row i that hold +1 and -1,
// aliasing the matrix storage.
func (q *Ternary) Row(i int) (pos, neg []int32) {
	return q.cols[q.start[i]:q.split[i]], q.cols[q.split[i]:q.start[i+1]]
}

// NNZ returns the number of nonzero entries.
func (q *Ternary) NNZ() int { return len(q.cols) }

// MatMulTernary computes dst = a · b for a ternary b: for each nonzero
// a[i][k], dst[i][j] += a[i][k] over row k's +1 columns and -= over its
// -1 columns. For finite a the result equals MatMul on b's dense form
// bit for bit (see the package comment). dst must be a.Rows×b.Cols and
// must not alias a.
func MatMulTernary(dst, a *Mat, b *Ternary) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTernary dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	ParallelRows(a.Rows, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for k, av := range a.Row(i) {
				if av == 0 {
					continue
				}
				pos, neg := b.Row(k)
				for _, j := range pos {
					drow[j] += av
				}
				for _, j := range neg {
					drow[j] -= av
				}
			}
		}
	})
}

// MatMulTernaryBT computes dst = a · bᵀ for a ternary b, i.e.
// dst[i][k] = Σ_j a[i][j]·b[k][j]. It merges row k's +1 and -1 columns so
// the sum runs over j in ascending order, as MatMulBT's does; for finite
// a the result equals MatMulBT on b's dense form bit for bit. dst must
// be a.Rows×b.Rows and must not alias a.
func MatMulTernaryBT(dst, a *Mat, b *Ternary) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTernaryBT dims (%dx%d)·(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	ParallelRows(a.Rows, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k := range drow {
				pos, neg := b.Row(k)
				var sum float32
				for len(pos) > 0 && len(neg) > 0 {
					if pos[0] < neg[0] {
						sum += arow[pos[0]]
						pos = pos[1:]
					} else {
						sum -= arow[neg[0]]
						neg = neg[1:]
					}
				}
				for _, j := range pos {
					sum += arow[j]
				}
				for _, j := range neg {
					sum -= arow[j]
				}
				drow[k] = sum
			}
		}
	})
}

// MatMulAT computes dst = aᵀ · b, i.e. dst[i][j] = Σ_k a[k][i]·b[k][j].
// Used for weight gradients (inputsᵀ · deltas). dst must be
// a.Cols×b.Cols and must not alias a or b.
func MatMulAT(dst, a, b *Mat) {
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAT dims (%dx%d)T·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	MatMulATRows(a, b, func(i int, row []float32) { copy(dst.Row(i), row) })
}

// MatMulATRows computes aᵀ · b one output row at a time and hands row i
// to emit, so a caller can fold the product into its own storage
// without a temporary matrix. Rows are computed in parallel: emit runs
// concurrently for distinct i and must not retain row. Each element is
// summed over ascending k exactly as MatMulAT's definition reads (see
// the package comment).
func MatMulATRows(a, b *Mat, emit func(i int, row []float32)) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT dims (%dx%d)T·(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ParallelRows(a.Cols, 4, func(lo, hi int) {
		row := make([]float32, b.Cols)
		ks := make([]int, a.Rows)
		for i := lo; i < hi; i++ {
			// Collect the rows with a[k][i] != 0 without a branch per
			// row: write k, then keep it by advancing n.
			n := 0
			for k := range ks {
				ks[n] = k
				if a.Data[k*a.Cols+i] != 0 {
					n++
				}
			}
			atRow(row, a, b, i, ks[:n])
			emit(i, row)
		}
	})
}

// atRow sets d[j] = Σ_k a[k][i]·b[k][j] over the rows k in ks
// (ascending). It takes the rows four at a time so each d[j] stays in a
// register across four sequential additions.
func atRow(d []float32, a, b *Mat, i int, ks []int) {
	for j := range d {
		d[j] = 0
	}
	n := len(d)
	for ; len(ks) >= 4; ks = ks[4:] {
		k0, k1, k2, k3 := ks[0], ks[1], ks[2], ks[3]
		a0, a1, a2, a3 := a.At(k0, i), a.At(k1, i), a.At(k2, i), a.At(k3, i)
		b0, b1, b2, b3 := b.Row(k0)[:n], b.Row(k1)[:n], b.Row(k2)[:n], b.Row(k3)[:n]
		for j, s := range d {
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			d[j] = s
		}
	}
	for _, k := range ks {
		av, brow := a.At(k, i), b.Row(k)[:n]
		for j := range d {
			d[j] += av * brow[j]
		}
	}
}

// AddRowVec adds vector v to every row of m in place.
func AddRowVec(m *Mat, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// MaxAbs returns the largest absolute value in x (0 for empty input).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of x.
func L2Norm(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// ArgMax returns the index of the largest element (first on ties); -1 for
// an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
