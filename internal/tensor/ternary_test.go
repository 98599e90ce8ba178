package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/neuro-c/neuroc/internal/rng"
)

// randTernaryDense returns a rows×cols {-1,0,+1} matrix with about the
// given density. Row 0 and column 0 alternate +1/-1, so a constant
// input cancels to exactly 0 in the forward product's column 0 and the
// input gradient's column 0.
func randTernaryDense(r *rng.RNG, rows, cols int, density float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		if r.Bool(density) {
			m.Data[i] = 1
			if r.Bool(0.5) {
				m.Data[i] = -1
			}
		}
	}
	for i := 0; i < rows; i++ {
		m.Set(i, 0, 0)
	}
	for j := 0; j < cols; j++ {
		m.Set(0, j, 0)
	}
	for i := 0; i+1 < rows; i += 2 {
		m.Set(i, 0, 1)
		m.Set(i+1, 0, -1)
	}
	for j := 0; j+1 < cols; j += 2 {
		m.Set(0, j, 1)
		m.Set(0, j+1, -1)
	}
	return m
}

// randInputs fills a rows×cols matrix whose magnitudes span 2^±20, so
// float sums round differently when their terms are reordered. Row 0 is
// all zero, row 1 is constant (it cancels against the alternating row
// and column of randTernaryDense), and about a tenth of the other
// entries are +0 or -0.
func randInputs(r *rng.RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := 1; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			switch {
			case i == 1:
				row[j] = 0.75
			case r.Bool(0.05):
				row[j] = 0
			case r.Bool(0.05):
				row[j] = float32(math.Copysign(0, -1))
			default:
				row[j] = r.NormFloat32() * float32(math.Ldexp(1, r.Intn(41)-20))
			}
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#08x), want %v (%#08x)",
				what, i/want.Cols, i%want.Cols, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// signedZero returns +0 or -0 at random.
func signedZero(r *rng.RNG) float32 {
	return float32(math.Copysign(0, float64(r.Intn(2)*2-1)))
}

// zeroBlocks zeroes parts of x in blocks of eight rows, the forward
// kernel's register block, with +0 and -0 mixed: each block is left
// alone, zeroed whole, or has a random subset of its rows zeroed, and in
// every block each input column is zeroed in all eight rows, in some of
// them, or in none, at random.
func zeroBlocks(r *rng.RNG, x *Mat) {
	for b := 0; b+8 <= x.Rows; b += 8 {
		mode := r.Intn(3)
		var rowZero [8]bool
		for i := range rowZero {
			rowZero[i] = mode == 1 || mode == 2 && r.Bool(0.5)
		}
		for k := 0; k < x.Cols; k++ {
			all, some := r.Bool(0.3), r.Bool(0.3)
			for i, z := range rowZero {
				if z || all || some && r.Bool(0.5) {
					x.Set(b+i, k, signedZero(r))
				}
			}
		}
	}
}

// TestTernaryKernelsMatchDense pins the exactness argument of the
// package comment: on ternary matrices, MatMulTernary equals MatMul and
// MatMulTernaryBT equals MatMulBT bit for bit, for row counts below and
// above the parallel split. Half the forward inputs carry blocks of
// eight rows, whole or in part, of +0 and -0, so the forward kernel both
// skips an input row for all eight batch rows and adds ±0 terms for
// some.
func TestTernaryKernelsMatchDense(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rng.New(21)
	for _, rows := range []int{1, 2, 7, 8, 15, 16, 17, 33, 64, 130} {
		for _, dims := range [][2]int{{1, 1}, {5, 3}, {40, 24}, {97, 61}} {
			in, out := dims[0], dims[1]
			for _, density := range []float64{0, 0.1, 0.5, 1} {
				dense := randTernaryDense(r, in, out, density)
				q := Ternarize(dense, 0)
				if q.Rows != in || q.Cols != out {
					t.Fatalf("Ternarize dims %dx%d, want %dx%d", q.Rows, q.Cols, in, out)
				}

				for _, blocks := range []bool{false, true} {
					x := randInputs(r, rows, in)
					if blocks {
						zeroBlocks(r, x)
					}
					got, want := NewMat(rows, out), NewMat(rows, out)
					got.Data[0] = 42 // dst is overwritten, not accumulated into
					MatMulTernary(got, x, q)
					MatMul(want, x, dense)
					sameBits(t, fmt.Sprintf("MatMulTernary %dx%d·%dx%d zero blocks %v", rows, in, in, out, blocks), got, want)
				}

				dz := randInputs(r, rows, out)
				gotT, wantT := NewMat(rows, in), NewMat(rows, in)
				MatMulTernaryBT(gotT, dz, q)
				MatMulBT(wantT, dz, dense)
				sameBits(t, "MatMulTernaryBT", gotT, wantT)
			}
		}
	}
}

// TestTernarizeThreshold checks the quantization rule and the row lists:
// entries above t are +1, below -t are -1, everything else (the
// boundary itself and NaN included) is 0, and each list ascends.
func TestTernarizeThreshold(t *testing.T) {
	nan := float32(math.NaN())
	m := FromSlice(3, 5, []float32{
		0.5, -0.5, 0.51, -0.51, 0,
		nan, 2, -2, 0.2, -3,
		0, 0, 0, 0, 0,
	})
	q := Ternarize(m, 0.5)
	want := [][2][]int32{
		{{2}, {3}},
		{{1}, {2, 4}},
		{nil, nil},
	}
	for i, w := range want {
		pos, neg := q.Row(i)
		if !equalInt32(pos, w[0]) || !equalInt32(neg, w[1]) {
			t.Errorf("row %d: pos %v neg %v, want %v %v", i, pos, neg, w[0], w[1])
		}
	}
	if q.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", q.NNZ())
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTernaryKernelDimPanics(t *testing.T) {
	q := Ternarize(NewMat(3, 2), 0)
	for name, f := range map[string]func(){
		"MatMulTernary":   func() { MatMulTernary(NewMat(2, 2), NewMat(2, 4), q) },
		"MatMulTernaryBT": func() { MatMulTernaryBT(NewMat(2, 3), NewMat(2, 3), q) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad dims did not panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkTernarize quantizes the first layer's latents of the
// 784-128-48-10 pipeline model: normal latents at its threshold of
// 1.8 × mean(|v|), about 15% nonzero.
func BenchmarkTernarize(b *testing.B) {
	m := randMat(rng.New(6), 784, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Ternarize(m, 1.44)
	}
}

// pipelineLayer0 returns the first layer's training operands of the
// 784-128-48-10 pipeline model: a 32-row batch of 784 inputs, about 63%
// of them nonzero, and normal latents quantized at 1.55, about 12,000
// of the 100,352 connections nonzero.
func pipelineLayer0() (x *Mat, q *Ternary) {
	r := rng.New(7)
	x = NewMat(32, 784)
	for i := range x.Data {
		if r.Bool(0.63) {
			x.Data[i] = r.Float32()
		}
	}
	return x, Ternarize(randMat(r, 784, 128), 1.55)
}

// BenchmarkMatMulTernary times the first layer's sparse forward product
// of the pipeline model.
func BenchmarkMatMulTernary(b *testing.B) {
	x, q := pipelineLayer0()
	dst := NewMat(x.Rows, q.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTernary(dst, x, q)
	}
}

// BenchmarkMatMulATRows times the first layer's latent gradient of the
// pipeline model, folded into a gradient matrix as the ternary layer
// folds it.
func BenchmarkMatMulATRows(b *testing.B) {
	x, _ := pipelineLayer0()
	dz := randMat(rng.New(8), x.Rows, 128)
	g := NewMat(x.Cols, dz.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATRows(x, dz, func(i int, row []float32) {
			gr := g.Row(i)
			for j, d := range row {
				gr[j] += d
			}
		})
	}
}
