package quant

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/nn"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
	"github.com/neuro-c/neuroc/internal/ternary"
)

// toyData builds a linearly separable two-class problem.
func toyData(n, dim int, seed uint64) (*tensor.Mat, []int) {
	r := rng.New(seed)
	x := tensor.NewMat(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		y[i] = cls
		for j := 0; j < dim; j++ {
			base := float32(0.15)
			if (j < dim/2) == (cls == 0) {
				base = 0.85
			}
			x.Set(i, j, base+0.1*r.Float32())
		}
	}
	return x, y
}

func trainedMLP(t *testing.T, dim int) (*nn.Network, *tensor.Mat, []int) {
	t.Helper()
	x, y := toyData(200, dim, 1)
	r := rng.New(2)
	net := nn.NewNetwork(
		nn.NewDense(dim, 8, r),
		nn.NewReLU(),
		nn.NewDense(8, 2, r),
	)
	nn.Fit(net, x, y, nn.TrainConfig{Epochs: 30, BatchSize: 20, Optimizer: nn.NewAdam(5e-3), Seed: 3})
	if acc := net.Accuracy(x, y); acc < 0.99 {
		t.Fatalf("float MLP failed to train: %v", acc)
	}
	return net, x, y
}

func trainedNeuroC(t *testing.T, dim int, useScale bool) (*nn.Network, *tensor.Mat, []int) {
	t.Helper()
	x, y := toyData(200, dim, 4)
	r := rng.New(5)
	net := nn.NewNetwork(
		ternary.New(ternary.Config{In: dim, Out: 12, Strategy: ternary.Learned, UseScale: useScale}, r),
		nn.NewReLU(),
		ternary.New(ternary.Config{In: 12, Out: 2, Strategy: ternary.Learned, UseScale: useScale}, r),
	)
	nn.Fit(net, x, y, nn.TrainConfig{Epochs: 40, BatchSize: 20, Optimizer: nn.NewAdam(5e-3), Seed: 6})
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("float Neuro-C failed to train: %v", acc)
	}
	return net, x, y
}

func TestQuantizedMLPPreservesAccuracy(t *testing.T) {
	net, x, y := trainedMLP(t, 16)
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	floatAcc := net.Accuracy(x, y)
	intAcc := m.Accuracy(x, y)
	if intAcc < floatAcc-0.05 {
		t.Errorf("quantized accuracy %v vs float %v", intAcc, floatAcc)
	}
}

func TestQuantizedNeuroCPreservesAccuracy(t *testing.T) {
	net, x, y := trainedNeuroC(t, 16, true)
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	floatAcc := net.Accuracy(x, y)
	intAcc := m.Accuracy(x, y)
	if intAcc < floatAcc-0.05 {
		t.Errorf("quantized accuracy %v vs float %v", intAcc, floatAcc)
	}
	// Neuro-C layers must carry per-neuron multipliers.
	if !m.Layers[0].PerNeuron || len(m.Layers[0].Mults) != 12 {
		t.Errorf("expected per-neuron multipliers, got %d", len(m.Layers[0].Mults))
	}
}

func TestTNNQuantizationUsesSingleMultiplier(t *testing.T) {
	net, x, _ := trainedNeuroC(t, 16, false)
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Layers {
		if l.PerNeuron || len(l.Mults) != 1 {
			t.Errorf("layer %d: TNN should have one multiplier, got %d (perNeuron=%v)",
				i, len(l.Mults), l.PerNeuron)
		}
	}
}

func TestReLUFolding(t *testing.T) {
	net, x, _ := trainedMLP(t, 8)
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 2 {
		t.Fatalf("expected 2 integer layers, got %d", len(m.Layers))
	}
	if !m.Layers[0].ReLU || m.Layers[1].ReLU {
		t.Errorf("ReLU folding wrong: %v %v", m.Layers[0].ReLU, m.Layers[1].ReLU)
	}
}

func TestDropoutIgnored(t *testing.T) {
	r := rng.New(7)
	x, y := toyData(100, 8, 8)
	net := nn.NewNetwork(
		nn.NewDense(8, 4, r),
		nn.NewReLU(),
		nn.NewDropout(0.3, r),
		nn.NewDense(4, 2, r),
	)
	nn.Fit(net, x, y, nn.TrainConfig{Epochs: 10, BatchSize: 20, Seed: 9})
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 2 {
		t.Errorf("dropout should be dropped, got %d layers", len(m.Layers))
	}
}

func TestRejectsUnsupportedShapes(t *testing.T) {
	r := rng.New(10)
	// ReLU first.
	net := nn.NewNetwork(nn.NewReLU(), nn.NewDense(4, 2, r))
	if _, err := FromNetwork(net, tensor.NewMat(1, 4), 0); err == nil {
		t.Error("expected error for leading ReLU")
	}
	// No calibration data.
	net = nn.NewNetwork(nn.NewDense(4, 2, r))
	if _, err := FromNetwork(net, nil, 0); err == nil {
		t.Error("expected error for missing calibration data")
	}
}

func TestQuantizeInputSaturates(t *testing.T) {
	m := &Model{InputScale: 127}
	in := m.QuantizeInput([]float32{0, 0.5, 1, 2, -2})
	if in[0] != 0 || in[2] != 127 || in[3] != 127 || in[4] != -128 {
		t.Errorf("QuantizeInput = %v", in)
	}
	if in[1] != 64 && in[1] != 63 {
		t.Errorf("mid pixel = %d", in[1])
	}
}

func TestRequantNoOverflow(t *testing.T) {
	// Worst-case structural bound: a dense layer with all-max weights
	// and all-max inputs must not overflow the 32-bit multiply.
	in := 3072
	l := &Layer{Kind: DenseK, In: in, Out: 1, W: make([]int8, in)}
	for i := range l.W {
		l.W[i] = 127
	}
	var rowAbs int64 = 127 * int64(in)
	accBound := rowAbs * 128
	l.PreShift, l.PostShift = chooseShifts(1.0, accBound)
	l.Mults = []int32{32767}
	l.Bias = []int32{0}
	x := make([]int8, in)
	for i := range x {
		x[i] = -128
	}
	out := l.Forward(x)
	// acc = 127·(-128)·3072 = -49_938_432; after pre-shift the int32
	// multiply by 32767 must not wrap: check monotonicity (most negative
	// input gives the most negative output).
	if out[0] != -128 {
		t.Errorf("saturated output = %d, want -128", out[0])
	}
	// And the pre-shifted magnitude must fit 16 bits.
	if accBound>>l.PreShift > 0xffff {
		t.Errorf("pre-shift too small: %d >> %d = %d", accBound, l.PreShift, accBound>>l.PreShift)
	}
}

func TestChooseShifts(t *testing.T) {
	for _, tc := range []struct {
		eff   float64
		bound int64
	}{
		{0.001, 1000}, {0.5, 100000}, {3.7, 128 * 3072}, {100, 256},
	} {
		pre, post := chooseShifts(tc.eff, tc.bound)
		if tc.bound>>pre > 0xffff {
			t.Errorf("eff=%v bound=%d: pre-shift %d leaves %d", tc.eff, tc.bound, pre, tc.bound>>pre)
		}
		mult := tc.eff * float64(int64(1)<<(pre+post))
		if mult > 32767.5 {
			t.Errorf("eff=%v: multiplier %v exceeds int16", tc.eff, mult)
		}
	}
}

func TestLogitsMatchFloatOrdering(t *testing.T) {
	// The quantized logits should (almost always) preserve the float
	// model's argmax. Check agreement rate on the training set.
	net, x, _ := trainedMLP(t, 16)
	m, err := FromNetwork(net, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < x.Rows; i++ {
		logits := net.Forward(tensor.FromSlice(1, x.Cols, x.Row(i)), false)
		want := tensor.ArgMax(logits.Row(0))
		if m.Predict(m.QuantizeInput(x.Row(i))) == want {
			agree++
		}
	}
	if rate := float64(agree) / float64(x.Rows); rate < 0.95 {
		t.Errorf("argmax agreement = %v", rate)
	}
}

func TestNumWeightBytes(t *testing.T) {
	l := &Layer{Kind: DenseK, In: 10, Out: 4, W: make([]int8, 40)}
	if l.NumWeightBytes() != 40 {
		t.Errorf("dense weight bytes = %d", l.NumWeightBytes())
	}
}

func TestInferShapeMismatchPanics(t *testing.T) {
	m := &Model{Layers: []*Layer{{Kind: DenseK, In: 4, Out: 2, W: make([]int8, 8),
		Mults: []int32{1}, Bias: make([]int32, 2)}}, InputScale: 127}
	defer func() {
		if recover() == nil {
			t.Error("no panic on shape mismatch")
		}
	}()
	m.Infer(make([]int8, 3))
}

func TestOutScaleRecorded(t *testing.T) {
	net, x, _ := trainedMLP(t, 8)
	m, _ := FromNetwork(net, x, 0)
	for i, l := range m.Layers {
		if l.OutScale <= 0 || math.IsInf(l.OutScale, 0) {
			t.Errorf("layer %d OutScale = %v", i, l.OutScale)
		}
	}
}

func TestRequantMonotoneInAccumulator(t *testing.T) {
	// With a positive multiplier, the requantization pipeline must be
	// monotone in the accumulator — argmax ordering cannot invert.
	l := &Layer{
		Kind: Ternary, In: 4, Out: 1,
		PerNeuron: true, Mults: []int32{300}, Bias: []int32{-7},
		PreShift: 2, PostShift: 9, ReLU: false,
	}
	f := func(aRaw, bRaw int16) bool {
		a, b := int32(aRaw)*16, int32(bRaw)*16
		if a > b {
			a, b = b, a
		}
		ya := l.Forward4(a)
		yb := l.Forward4(b)
		return ya <= yb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTernaryForwardMatchesApply pins the sparse ternary Forward to the
// dense encoding.Matrix.Apply oracle on random matrices: the
// accumulators must be equal and Forward must equal Apply followed by
// requantization. The matrices include an output row with no
// connections and rows whose every entry is +1 or -1, In = 1, and
// inputs at both int8 extremes. The first calls race on a fresh layer,
// so under -race they also check that extracting the cached lists is
// safe for concurrent Predict.
func TestTernaryForwardMatchesApply(t *testing.T) {
	r := rng.New(31)
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {2, 3}, {17, 5}, {200, 40}, {784, 128}} {
		in, out := dims[0], dims[1]
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			a := encoding.NewMatrix(in, out)
			for o := 0; o < out; o++ {
				for i := 0; i < in; i++ {
					switch {
					case o == 1 && out > 3: // no connections
					case o == 2 && out > 3:
						a.Set(o, i, 1)
					case o == 3 && out > 3:
						a.Set(o, i, -1)
					case r.Bool(density):
						a.Set(o, i, int8(1-2*r.Intn(2)))
					}
				}
			}
			l := &Layer{Kind: Ternary, In: in, Out: out, A: a, PerNeuron: true,
				Mults: make([]int32, out), Bias: make([]int32, out), PostShift: 4, ReLU: density == 0.5}
			for o := range l.Mults {
				l.Mults[o] = int32(r.Intn(65) - 32)
				l.Bias[o] = int32(r.Intn(41) - 20)
			}

			inputs := [][]int8{make([]int8, in), make([]int8, in), make([]int8, in), make([]int8, in)}
			for i := 0; i < in; i++ {
				inputs[0][i] = -128
				inputs[1][i] = 127
				inputs[2][i] = int8(r.Intn(256) - 128)
				inputs[3][i] = []int8{-128, 127}[r.Intn(2)]
			}
			var wg sync.WaitGroup
			for _, x := range inputs {
				wg.Add(1)
				go func(x []int8) {
					defer wg.Done()
					l.Forward(x)
				}(x)
			}
			wg.Wait()

			for n, x := range inputs {
				x32 := make([]int32, in)
				for i, v := range x {
					x32[i] = int32(v)
				}
				want := make([]int32, out)
				a.Apply(x32, want)
				got := l.accumulate(x)
				for o := range want {
					if got[o] != want[o] {
						t.Fatalf("%dx%d density %v input %d: acc[%d] = %d, Apply gives %d",
							in, out, density, n, o, got[o], want[o])
					}
				}
				y := l.Forward(x)
				for o, v := range want {
					if y[o] != l.requant(v, o) {
						t.Fatalf("%dx%d density %v input %d: out[%d] = %d, requant(Apply) gives %d",
							in, out, density, n, o, y[o], l.requant(v, o))
					}
				}
			}
		}
	}
}
