package encoding

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/neuro-c/neuroc/internal/rng"
)

// must returns v, panicking on err: the matrices here fit every table.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// randMatrix builds a random ternary matrix with the given density.
func randMatrix(r *rng.RNG, in, out int, density float64) *Matrix {
	m := NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				if r.Bool(0.5) {
					m.Set(o, i, 1)
				} else {
					m.Set(o, i, -1)
				}
			}
		}
	}
	return m
}

func randInput(r *rng.RNG, n int) []int32 {
	x := make([]int32, n)
	for i := range x {
		x[i] = int32(r.Intn(255)) - 127
	}
	return x
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4, 3)
	m.Set(0, 1, 1)
	m.Set(2, 3, -1)
	if m.At(0, 1) != 1 || m.At(2, 3) != -1 || m.At(1, 1) != 0 {
		t.Error("At/Set mismatch")
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
	if d := m.Density(); d != 2.0/12 {
		t.Errorf("Density = %v", d)
	}
}

func TestSetRejectsNonTernary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set(2) did not panic")
		}
	}()
	NewMatrix(2, 2).Set(0, 0, 2)
}

func TestDenseApply(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(0, 0, 1)
	m.Set(0, 2, -1)
	m.Set(1, 1, 1)
	x := []int32{10, 20, 30}
	y := make([]int32, 2)
	m.Apply(x, y)
	if y[0] != -20 || y[1] != 20 {
		t.Errorf("Apply = %v, want [-20 20]", y)
	}
}

// TestApplyMatchesSwitchReference pins the branch-free Apply to the
// select-by-sign traversal it replaced, on random matrices and inputs
// that include the int8 extremes -128 and 127 and the int32 extremes,
// where the sums wrap.
func TestApplyMatchesSwitchReference(t *testing.T) {
	reference := func(m *Matrix, x, y []int32) {
		for o := 0; o < m.Out; o++ {
			var sum int32
			for i, w := range m.W[o*m.In : (o+1)*m.In] {
				switch w {
				case 1:
					sum += x[i]
				case -1:
					sum -= x[i]
				}
			}
			y[o] = sum
		}
	}
	r := rng.New(17)
	extremes := []int32{-128, 127, -2147483648, 2147483647}
	for trial := 0; trial < 200; trial++ {
		in, out := r.Intn(300)+1, r.Intn(40)+1
		m := randMatrix(r, in, out, []float64{0, 0.05, 0.3, 1}[trial%4])
		x := make([]int32, in)
		for i := range x {
			switch {
			case r.Bool(0.2):
				x[i] = -128
			case trial%2 == 1 && r.Bool(0.1):
				x[i] = extremes[r.Intn(len(extremes))]
			default:
				x[i] = int32(r.Intn(256)) - 128
			}
		}
		got, want := make([]int32, out), make([]int32, out)
		m.Apply(x, got)
		reference(m, x, want)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("trial %d (%dx%d): y[%d] = %d, reference %d", trial, out, in, o, got[o], want[o])
			}
		}
	}
}

// TestAllEncodingsMatchDense is the core differential test: every
// encoding's traversal must agree with the dense ground truth on random
// matrices across shapes and densities.
func TestAllEncodingsMatchDense(t *testing.T) {
	r := rng.New(7)
	shapes := []struct {
		in, out int
		density float64
	}{
		{8, 4, 0.5}, {64, 32, 0.1}, {100, 10, 0.05}, {300, 40, 0.08},
		{784, 64, 0.03}, {512, 257, 0.02}, {1, 1, 1.0}, {16, 16, 0},
	}
	for _, s := range shapes {
		m := randMatrix(r, s.in, s.out, s.density)
		x := randInput(r, s.in)
		want := make([]int32, s.out)
		m.Apply(x, want)
		for _, enc := range must(All(m)) {
			got := make([]int32, s.out)
			enc.Apply(x, got)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("%s %dx%d d=%.2f: y[%d] = %d, want %d",
						enc.Name(), s.out, s.in, s.density, o, got[o], want[o])
				}
			}
		}
	}
}

// TestRoundTrip checks Decode(Encode(m)) == m for all encodings.
func TestRoundTrip(t *testing.T) {
	r := rng.New(9)
	for _, s := range [][2]int{{10, 10}, {300, 50}, {784, 32}, {64, 300}} {
		m := randMatrix(r, s[0], s[1], 0.07)
		for _, enc := range must(All(m)) {
			d := enc.Decode()
			if d.In != m.In || d.Out != m.Out {
				t.Fatalf("%s: decoded dims %dx%d", enc.Name(), d.Out, d.In)
			}
			for i := range m.W {
				if d.W[i] != m.W[i] {
					t.Fatalf("%s: round trip mismatch at %d", enc.Name(), i)
				}
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rng.New(21)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		in := rr.Intn(300) + 1
		out := rr.Intn(60) + 1
		m := randMatrix(rr, in, out, rr.Float64()*0.3)
		for _, enc := range must(All(m)) {
			d := enc.Decode()
			for i := range m.W {
				if d.W[i] != m.W[i] {
					return false
				}
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIndexWidthSelection(t *testing.T) {
	r := rng.New(3)
	// Small input space: CSC gets 8-bit indices.
	small := randMatrix(r, 200, 16, 0.1)
	if e := must(EncodeCSC(small)); e.IdxWidth != 1 {
		t.Errorf("CSC idx width for 200 inputs = %d, want 1", e.IdxWidth)
	}
	// Large input space: CSC needs 16-bit indices.
	large := randMatrix(r, 784, 16, 0.1)
	if e := must(EncodeCSC(large)); e.IdxWidth != 2 {
		t.Errorf("CSC idx width for 784 inputs = %d, want 2", e.IdxWidth)
	}
	// Block always keeps 8-bit indices.
	if e := EncodeBlock(large, 0); e.IdxWidth != 1 {
		t.Errorf("Block idx width = %d, want 1", e.IdxWidth)
	}
	// Delta on dense-ish rows keeps deltas small -> 8-bit offsets even
	// on wide inputs.
	dense := NewMatrix(784, 4)
	for o := 0; o < 4; o++ {
		for i := 0; i < 784; i += 4 {
			dense.Set(o, i, 1)
		}
	}
	if e := must(EncodeDelta(dense)); e.DeltaWidth != 1 {
		t.Errorf("Delta offset width for stride-4 rows = %d, want 1", e.DeltaWidth)
	}
	// A large gap between consecutive connections forces 16-bit offsets.
	sparse := NewMatrix(784, 4)
	sparse.Set(0, 10, 1)
	sparse.Set(0, 700, 1)
	if e := must(EncodeDelta(sparse)); e.DeltaWidth != 2 {
		t.Errorf("Delta offset width with gap 690 = %d, want 2", e.DeltaWidth)
	}
}

// TestBlockIsMostCompactOnWideInputs reproduces the Fig. 5b ordering:
// for wide, sparse layers the block encoding is the smallest.
func TestBlockIsMostCompactOnWideInputs(t *testing.T) {
	r := rng.New(5)
	m := randMatrix(r, 784, 256, 0.05)
	csc := must(EncodeCSC(m)).SizeBytes()
	blk := EncodeBlock(m, 0).SizeBytes()
	if blk >= csc {
		t.Errorf("block (%d B) not smaller than CSC (%d B) on 784x256 sparse", blk, csc)
	}
}

func TestSizeAccountingExact(t *testing.T) {
	// Hand-checked toy matrix: 4 inputs, 2 outputs.
	//   out0: +x0, -x2    out1: +x1, +x3
	m := NewMatrix(4, 2)
	m.Set(0, 0, 1)
	m.Set(0, 2, -1)
	m.Set(1, 1, 1)
	m.Set(1, 3, 1)

	csc := must(EncodeCSC(m))
	// Pos: indices [0,1,3] + pointers [0,1,3]; Neg: indices [2] + pointers [0,1,1].
	// All values fit 8 bits: (3+1)*1 + (3+3)*1 = 10 bytes.
	if got := csc.SizeBytes(); got != 10 {
		t.Errorf("CSC size = %d, want 10", got)
	}

	mixed := must(EncodeMixed(m))
	// Pos: counts [1,2] + indices [0,1,3]; Neg: counts [1,0] + indices [2].
	// (2+2)*1 + (3+1)*1 = 8 bytes.
	if got := mixed.SizeBytes(); got != 8 {
		t.Errorf("Mixed size = %d, want 8", got)
	}

	delta := must(EncodeDelta(m))
	// Same element counts as mixed: 8 bytes.
	if got := delta.SizeBytes(); got != 8 {
		t.Errorf("Delta size = %d, want 8", got)
	}

	blk := EncodeBlock(m, 4)
	// One block: counts (2+2)*1 + indices (3+1)*1 = 8 bytes.
	if got := blk.SizeBytes(); got != 8 {
		t.Errorf("Block size = %d, want 8", got)
	}
}

func TestEmptyMatrixEncodings(t *testing.T) {
	m := NewMatrix(16, 8) // fully disconnected
	x := randInput(rng.New(1), 16)
	for _, enc := range must(All(m)) {
		y := make([]int32, 8)
		enc.Apply(x, y)
		for _, v := range y {
			if v != 0 {
				t.Errorf("%s: nonzero output from empty matrix", enc.Name())
			}
		}
	}
}

func TestBlockSizeValidation(t *testing.T) {
	m := NewMatrix(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("block size 512 did not panic")
		}
	}()
	EncodeBlock(m, 512)
}

func TestApplyLengthMismatchPanics(t *testing.T) {
	m := randMatrix(rng.New(2), 8, 4, 0.3)
	for _, enc := range must(All(m)) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad input length", enc.Name())
				}
			}()
			enc.Apply(make([]int32, 7), make([]int32, 4))
		}()
	}
}

func TestDeltaStreamStructure(t *testing.T) {
	// Row 0 has connections at 3, 10, 12: first = 3, deltas = [7, 2].
	m := NewMatrix(16, 1)
	m.Set(0, 3, 1)
	m.Set(0, 10, 1)
	m.Set(0, 12, 1)
	e := must(EncodeDelta(m))
	if len(e.Pos.Firsts) != 1 || e.Pos.Firsts[0] != 3 {
		t.Fatalf("firsts = %v, want [3]", e.Pos.Firsts)
	}
	if len(e.Pos.Deltas) != 2 || e.Pos.Deltas[0] != 7 || e.Pos.Deltas[1] != 2 {
		t.Fatalf("deltas = %v, want [7 2]", e.Pos.Deltas)
	}
}

func TestDeltaSplitWidths(t *testing.T) {
	// Connections at 300 and 305: the first index needs 16 bits but the
	// delta stays 8-bit — the whole point of splitting the arrays.
	m := NewMatrix(784, 1)
	m.Set(0, 300, 1)
	m.Set(0, 305, 1)
	e := must(EncodeDelta(m))
	if e.FirstWidth != 2 {
		t.Errorf("FirstWidth = %d, want 2", e.FirstWidth)
	}
	if e.DeltaWidth != 1 {
		t.Errorf("DeltaWidth = %d, want 1", e.DeltaWidth)
	}
}

// TestEncodersReportRangeErrors pins that a table value past 16 bits is
// an error, not a panic: a 784→128 layer with about 70,000 positive
// connections needs a CSC pointer of that size.
func TestEncodersReportRangeErrors(t *testing.T) {
	m := NewMatrix(784, 128)
	r := rng.New(11)
	for i := range m.W {
		if r.Float64() < 0.7 {
			m.W[i] = 1
		}
	}
	_, err := EncodeCSC(m)
	var re *RangeError
	if !errors.As(err, &re) || re.Table != "pointer" || re.Value <= 0xffff {
		t.Fatalf("EncodeCSC error %v, want a pointer RangeError", err)
	}
	if _, err := All(m); !errors.As(err, &re) {
		t.Fatalf("All error %v, want a RangeError", err)
	}
	for _, enc := range []func() error{
		func() error { _, err := EncodeDelta(m); return err },
		func() error { _, err := EncodeMixed(m); return err },
	} {
		if err := enc(); err != nil {
			t.Errorf("784-input layer: %v", err)
		}
	}
	wide := NewMatrix(70000, 1)
	wide.Set(0, 69999, -1)
	if _, err := EncodeMixed(wide); !errors.As(err, &re) || re.Table != "index" {
		t.Errorf("EncodeMixed on 70,000 inputs: error %v, want an index RangeError", err)
	}
	if _, err := EncodeDelta(wide); !errors.As(err, &re) || re.Table != "first index" {
		t.Errorf("EncodeDelta on 70,000 inputs: error %v, want a first index RangeError", err)
	}
}
