package nn

import (
	"math"
	"runtime"
	"testing"

	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

func TestDenseForwardShape(t *testing.T) {
	r := rng.New(1)
	d := NewDense(4, 3, r)
	x := tensor.NewMat(5, 4)
	out := d.Forward(x, false)
	if out.Rows != 5 || out.Cols != 3 {
		t.Errorf("out shape = %dx%d, want 5x3", out.Rows, out.Cols)
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 2, W: newParam("w", 2, 2), B: newParam("b", 1, 2)}
	// W = [[1,2],[3,4]], b = [10, 20]
	copy(d.W.Val.Data, []float32{1, 2, 3, 4})
	copy(d.B.Val.Data, []float32{10, 20})
	x := tensor.FromSlice(1, 2, []float32{5, 6})
	out := d.Forward(x, false)
	// [5*1+6*3+10, 5*2+6*4+20] = [33, 54]
	if out.At(0, 0) != 33 || out.At(0, 1) != 54 {
		t.Errorf("out = %v", out.Data)
	}
}

// numericalGradCheck verifies analytic gradients against central
// differences for a tiny network.
func TestDenseGradCheck(t *testing.T) {
	r := rng.New(2)
	d := NewDense(3, 2, r)
	x := tensor.NewMat(4, 3)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	labels := []int{0, 1, 0, 1}

	lossAt := func() float64 {
		logits := d.Forward(x, false)
		loss, _ := SoftmaxCrossEntropy(logits, labels)
		return loss
	}

	// Analytic gradients.
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	logits := d.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, labels)
	d.Backward(grad, true)

	const eps = 1e-3
	check := func(p *Param) {
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			lp := lossAt()
			p.Val.Data[i] = orig - eps
			lm := lossAt()
			p.Val.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %v vs analytic %v", p.Name, i, numeric, analytic)
			}
		}
	}
	check(d.W)
	check(d.B)
}

func TestReLUForwardBackward(t *testing.T) {
	relu := NewReLU()
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	out := relu.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("relu out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	grad := tensor.FromSlice(1, 4, []float32{1, 1, 1, 1})
	back := relu.Backward(grad, true)
	wantG := []float32{0, 0, 1, 0}
	for i, w := range wantG {
		if back.Data[i] != w {
			t.Errorf("relu grad[%d] = %v, want %v", i, back.Data[i], w)
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	r := rng.New(3)
	d := NewDropout(0.5, r)
	x := tensor.NewMat(10, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Eval: identity.
	out := d.Forward(x, false)
	for i := range out.Data {
		if out.Data[i] != 1 {
			t.Fatal("dropout not identity at eval time")
		}
	}
	// Train: roughly half dropped, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropped %d/1000, want about 500", zeros)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.NewMat(1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Errorf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient: softmax - onehot = [0.25,0.25,-0.75,0.25].
	want := []float32{0.25, 0.25, -0.75, 0.25}
	for i, w := range want {
		if math.Abs(float64(grad.Data[i]-w)) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, grad.Data[i], w)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float32{1000, 1000, -1000})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v on extreme logits", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient on extreme logits")
		}
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	// XOR is the classic non-linear sanity check for backprop.
	r := rng.New(7)
	net := NewNetwork(
		NewDense(2, 8, r),
		NewReLU(),
		NewDense(8, 2, r),
	)
	x := tensor.FromSlice(4, 2, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	y := []int{0, 1, 1, 0}
	// Replicate the 4 points into a batch for stable training.
	bigX := tensor.NewMat(64, 2)
	bigY := make([]int, 64)
	for i := 0; i < 64; i++ {
		copy(bigX.Row(i), x.Row(i%4))
		bigY[i] = y[i%4]
	}
	res := Fit(net, bigX, bigY, TrainConfig{
		Epochs: 150, BatchSize: 16, Optimizer: NewAdam(0.01), Seed: 1,
	})
	if acc := net.Accuracy(x, y); acc != 1.0 {
		t.Errorf("XOR accuracy = %v after loss %v, want 1.0", acc, res.FinalLoss)
	}
}

// TestFitFewerRowsThanBatch trains on 20 rows at the default batch of
// 32. Fit must clamp the batch to the row count instead of running no
// batch at all, which left every parameter as initialized and reported
// a FinalLoss of 0.
func TestFitFewerRowsThanBatch(t *testing.T) {
	ds := dataset.Generate(dataset.Digits()).Subsample(20, 10)
	r := rng.New(11)
	net := NewNetwork(NewDense(ds.TrainX.Cols, 16, r), NewReLU(), NewDense(16, ds.NumClasses, r))
	var before [][]float32
	for _, p := range net.Params() {
		before = append(before, append([]float32(nil), p.Val.Data...))
	}
	res := Fit(net, ds.TrainX, ds.TrainY, TrainConfig{Epochs: 3, Seed: 1})
	if res.FinalLoss <= 0 {
		t.Errorf("FinalLoss = %v, want > 0", res.FinalLoss)
	}
	for i, p := range net.Params() {
		changed := false
		for j, v := range p.Val.Data {
			if v != before[i][j] {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("parameter %s unchanged after 3 epochs on %d rows", p.Name, ds.TrainX.Rows)
		}
	}
}

// TestAdamSplitMatchesSerial runs Adam on a parameter large enough to
// be split across workers (with an odd tail) and on a small one, with
// weight decay, and requires every value to equal a single-worker run
// bit for bit: the update is elementwise, so the split changes nothing.
func TestAdamSplitMatchesSerial(t *testing.T) {
	run := func(procs int) [][]float32 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := rng.New(12)
		params := []*Param{newParam("big", 3, adamMinPerWorker+5), newParam("small", 1, 7)}
		opt := NewAdam(1e-2)
		opt.WeightDecay = 1e-3
		for step := 0; step < 4; step++ {
			for _, p := range params {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = r.NormFloat32()
				}
			}
			opt.Step(params)
		}
		return [][]float32{params[0].Val.Data, params[1].Val.Data}
	}
	want, got := run(1), run(4)
	for pi := range want {
		for i := range want[pi] {
			if math.Float32bits(got[pi][i]) != math.Float32bits(want[pi][i]) {
				t.Fatalf("param %d element %d: 4 workers give %v, 1 gives %v", pi, i, got[pi][i], want[pi][i])
			}
		}
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	r := rng.New(8)
	net := NewNetwork(NewDense(2, 2, r))
	// Linearly separable points.
	x := tensor.FromSlice(4, 2, []float32{1, 0, 2, 0, -1, 0, -2, 0})
	y := []int{0, 0, 1, 1}
	Fit(net, x, y, TrainConfig{Epochs: 100, BatchSize: 4, Optimizer: NewSGD(0.1, 0.9), Seed: 2})
	if acc := net.Accuracy(x, y); acc != 1.0 {
		t.Errorf("linear SGD accuracy = %v, want 1.0", acc)
	}
}

func TestZeroGradClearsAll(t *testing.T) {
	r := rng.New(9)
	net := NewNetwork(NewDense(3, 2, r), NewReLU(), NewDense(2, 2, r))
	x := tensor.NewMat(2, 3)
	logits := net.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	net.Backward(grad)
	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("%s gradient not cleared", p.Name)
			}
		}
	}
}

func TestNumParams(t *testing.T) {
	r := rng.New(10)
	net := NewNetwork(NewDense(10, 5, r), NewReLU(), NewDense(5, 3, r))
	want := 10*5 + 5 + 5*3 + 3
	if got := net.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestAccuracyBatched(t *testing.T) {
	r := rng.New(11)
	net := NewNetwork(NewDense(2, 2, r))
	copy(net.Layers[0].(*Dense).W.Val.Data, []float32{1, -1, 0, 0})
	net.Layers[0].(*Dense).B.Val.Zero()
	// Class 0 iff x[0] > 0.
	x := tensor.FromSlice(5, 2, []float32{1, 0, 2, 0, -1, 0, -5, 0, 3, 0})
	y := []int{0, 0, 1, 1, 0}
	if acc := AccuracyBatched(net, x, y, 2); acc != 1.0 {
		t.Errorf("accuracy = %v, want 1.0", acc)
	}
}

func TestLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad label did not panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.NewMat(1, 3), []int{5})
}

func TestCosineLRDecays(t *testing.T) {
	r := rng.New(20)
	net := NewNetwork(NewDense(2, 2, r))
	opt := NewAdam(1e-2)
	x := tensor.NewMat(8, 2)
	y := make([]int, 8)
	Fit(net, x, y, TrainConfig{Epochs: 10, BatchSize: 4, Optimizer: opt, CosineLR: true})
	// After the last epoch the LR sits near 5% of base.
	if opt.LR > 2e-3 || opt.LR < 4e-4 {
		t.Errorf("final LR = %v, want near 5%% of 1e-2", opt.LR)
	}
}

func TestLRSetterImplementations(t *testing.T) {
	var _ LRSetter = NewAdam(1)
	var _ LRSetter = NewSGD(1, 0)
	a := NewAdam(0.5)
	a.SetLR(0.25)
	if a.BaseLR() != 0.25 {
		t.Error("SetLR/BaseLR mismatch")
	}
}

// TestBackwardWithoutInputGradient checks the needInput contract: with
// it unset, Backward returns nil and accumulates exactly the parameter
// gradients it accumulates with it set.
func TestBackwardWithoutInputGradient(t *testing.T) {
	makers := map[string]func() Layer{
		"dense":   func() Layer { return NewDense(6, 4, rng.New(1)) },
		"relu":    func() Layer { return NewReLU() },
		"dropout": func() Layer { return NewDropout(0.3, rng.New(2)) },
	}
	r := rng.New(3)
	x := tensor.NewMat(5, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for name, mk := range makers {
		with, without := mk(), mk()
		out := with.Forward(x, true)
		without.Forward(x, true)
		grad := tensor.NewMat(out.Rows, out.Cols)
		for i := range grad.Data {
			grad.Data[i] = r.NormFloat32()
		}
		if dx := with.Backward(grad, true); dx == nil || dx.Rows != x.Rows || dx.Cols != x.Cols {
			t.Fatalf("%s: Backward(needInput) returned no %dx%d input gradient", name, x.Rows, x.Cols)
		}
		if dx := without.Backward(grad, false); dx != nil {
			t.Errorf("%s: Backward(!needInput) returned an input gradient", name)
		}
		for pi, p := range with.Params() {
			q := without.Params()[pi]
			for i := range p.Grad.Data {
				if math.Float32bits(p.Grad.Data[i]) != math.Float32bits(q.Grad.Data[i]) {
					t.Fatalf("%s: %s grad[%d] %v without input gradient, %v with", name, p.Name, i, q.Grad.Data[i], p.Grad.Data[i])
				}
			}
		}
	}
}
