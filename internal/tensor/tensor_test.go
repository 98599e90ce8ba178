package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/neuro-c/neuroc/internal/rng"
)

func randMat(r *rng.RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	return m
}

// naiveMul is the O(n^3) reference used to validate the optimized paths.
func naiveMul(a, b *Mat) *Mat {
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func matsClose(a, b *Mat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 21}, {100, 50, 25}} {
		a := randMat(r, dims[0], dims[1])
		b := randMat(r, dims[1], dims[2])
		got := NewMat(dims[0], dims[2])
		MatMul(got, a, b)
		want := naiveMul(a, b)
		if !matsClose(got, want, 1e-3) {
			t.Errorf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulBT(t *testing.T) {
	r := rng.New(2)
	a := randMat(r, 13, 7)
	b := randMat(r, 11, 7) // b^T is 7x11
	got := NewMat(13, 11)
	MatMulBT(got, a, b)
	// Reference: transpose b then naive multiply.
	bt := NewMat(7, 11)
	for i := 0; i < 11; i++ {
		for j := 0; j < 7; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMul(a, bt)
	if !matsClose(got, want, 1e-3) {
		t.Error("MatMulBT mismatch")
	}
}

// naiveAT is the textbook aᵀ·b: each element summed in float32 over
// ascending k, zero terms included.
func naiveAT(a, b *Mat) *Mat {
	c := NewMat(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// TestMatMulAT pins MatMulAT bit for bit to the textbook product. The
// batch sizes 1-9 and 31-33 hit every remainder of the kernel's blocks
// of eight and four rows; a's column counts fall on both sides of the
// parallel split (run it with -cpu 1,4). The inputs carry zero rows, an
// all-zero column of a, ±0 entries and magnitudes spanning 2^±20, so
// any reordered or dropped term would round differently. A second set
// of inputs gives a's column c exactly c nonzero rows, c = 0-17, at
// random places among +0 and -0, so each output row runs a different
// mix of eight-row, four-row and one-row passes.
func TestMatMulAT(t *testing.T) {
	r := rng.New(3)
	for _, rows := range []int{17, 24, 40} {
		a := randInputs(r, rows, 18)
		for c := 0; c < a.Cols; c++ {
			nz := r.Perm(rows)[:c]
			for k := 0; k < rows; k++ {
				a.Set(k, c, signedZero(r))
			}
			for _, k := range nz {
				a.Set(k, c, r.NormFloat32()*float32(math.Ldexp(1, r.Intn(41)-20)))
			}
		}
		for _, bcols := range []int{1, 5, 16} {
			b := randInputs(r, rows, bcols)
			got := NewMat(a.Cols, bcols)
			MatMulAT(got, a, b)
			sameBits(t, fmt.Sprintf("MatMulAT %dx%d·%d, c nonzero rows in column c", rows, a.Cols, bcols), got, naiveAT(a, b))
		}
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33} {
		for _, cols := range []int{1, 3, 7, 8, 9, 33} {
			for _, bcols := range []int{1, 5, 16} {
				a := randInputs(r, rows, cols)
				for k := 0; k < rows; k++ {
					a.Set(k, cols/2, 0) // an all-zero column: an output row of +0
				}
				b := randInputs(r, rows, bcols)
				want := naiveAT(a, b)
				got := NewMat(cols, bcols)
				for i := range got.Data {
					got.Data[i] = 42 // dst is overwritten, not accumulated into
				}
				MatMulAT(got, a, b)
				sameBits(t, fmt.Sprintf("MatMulAT %dx%d·%d", rows, cols, bcols), got, want)
			}
		}
	}
}

func TestMatMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul with bad dims did not panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

func TestAtSetRow(t *testing.T) {
	m := NewMat(3, 4)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Error("At/Set mismatch")
	}
	row := m.Row(1)
	if row[2] != 42 {
		t.Error("Row does not alias storage")
	}
	row[3] = 7
	if m.At(1, 3) != 7 {
		t.Error("Row mutation not visible")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestAddRowVec(t *testing.T) {
	m := NewMat(2, 3)
	AddRowVec(m, []float32{1, 2, 3})
	AddRowVec(m, []float32{1, 2, 3})
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != float32(2*(j+1)) {
				t.Errorf("m[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestDotAxpyScale(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 || y[2] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestMaxAbsAndL2(t *testing.T) {
	x := []float32{3, -4, 1}
	if got := MaxAbs(x); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := L2Norm([]float32{3, 4}); math.Abs(float64(got)-5) > 1e-6 {
		t.Errorf("L2Norm = %v", got)
	}
	if MaxAbs(nil) != 0 {
		t.Error("MaxAbs(nil) != 0")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float32{1, 5, 3}) != 1 {
		t.Error("ArgMax basic")
	}
	if ArgMax([]float32{7, 7, 7}) != 0 {
		t.Error("ArgMax tie should pick first")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (alpha*A)·B == alpha*(A·B) within float tolerance.
	r := rng.New(4)
	f := func(seed uint8) bool {
		rr := rng.New(uint64(seed) + 10)
		a := randMat(rr, 5, 6)
		b := randMat(rr, 6, 4)
		alpha := r.Float32() + 0.5
		ab := NewMat(5, 4)
		MatMul(ab, a, b)
		Scale(alpha, ab.Data)
		Scale(alpha, a.Data)
		ab2 := NewMat(5, 4)
		MatMul(ab2, a, b)
		return matsClose(ab, ab2, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMatMulAT times the first layer's latent gradient of the
// 784-128-48-10 pipeline model: a 32-row batch of 784 inputs, about 63%
// of them nonzero, against 128 output deltas.
func BenchmarkMatMulAT(b *testing.B) {
	r := rng.New(5)
	x := NewMat(32, 784)
	for i := range x.Data {
		if r.Bool(0.63) {
			x.Data[i] = r.Float32()
		}
	}
	dz := randMat(r, 32, 128)
	dst := NewMat(784, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAT(dst, x, dz)
	}
}
