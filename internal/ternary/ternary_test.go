package ternary

import (
	"math"
	"testing"

	"github.com/neuro-c/neuroc/internal/nn"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

func TestAdjacencyIsTernary(t *testing.T) {
	r := rng.New(1)
	for _, strat := range []Strategy{Learned, Random, ConstrainedRandom, Locality} {
		l := New(Config{In: 32, Out: 8, Strategy: strat, FanIn: 6, UseScale: true}, r)
		a := l.Adjacency()
		for _, v := range a.W {
			if v < -1 || v > 1 {
				t.Fatalf("%v: non-ternary entry %d", strat, v)
			}
		}
	}
}

func TestConstrainedRandomFanIn(t *testing.T) {
	r := rng.New(2)
	l := New(Config{In: 50, Out: 10, Strategy: ConstrainedRandom, FanIn: 7, UseScale: true}, r)
	a := l.Adjacency()
	for o := 0; o < 10; o++ {
		fan := 0
		for i := 0; i < 50; i++ {
			if a.At(o, i) != 0 {
				fan++
			}
		}
		if fan != 7 {
			t.Errorf("output %d fan-in = %d, want 7", o, fan)
		}
	}
}

func TestLocalityIsLocal(t *testing.T) {
	r := rng.New(3)
	l := New(Config{In: 100, Out: 10, Strategy: Locality, FanIn: 8, UseScale: true}, r)
	a := l.Adjacency()
	for o := 0; o < 10; o++ {
		lo, hi := -1, -1
		for i := 0; i < 100; i++ {
			if a.At(o, i) != 0 {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo < 0 {
			t.Fatalf("output %d has no connections", o)
		}
		if hi-lo >= 8 {
			t.Errorf("output %d connections span [%d,%d], not a local window", o, lo, hi)
		}
	}
}

func TestRandomDensityApproximatelyRespected(t *testing.T) {
	r := rng.New(4)
	l := New(Config{In: 200, Out: 50, Strategy: Random, Sparsity: 0.1, UseScale: true}, r)
	d := l.Adjacency().Density()
	if d < 0.07 || d > 0.13 {
		t.Errorf("density = %v, want about 0.1", d)
	}
}

func TestScaleInitializedAsNormalizer(t *testing.T) {
	r := rng.New(5)
	l := New(Config{In: 64, Out: 4, Strategy: ConstrainedRandom, FanIn: 16, UseScale: true}, r)
	want := 1 / math.Sqrt(16)
	for _, s := range l.Scales() {
		if math.Abs(float64(s)-want) > 1e-6 {
			t.Errorf("scale = %v, want %v", s, want)
		}
	}
	// TNN variant pins scale to 1.
	l = New(Config{In: 64, Out: 4, Strategy: ConstrainedRandom, FanIn: 16, UseScale: false}, r)
	for _, s := range l.Scales() {
		if s != 1 {
			t.Errorf("TNN scale = %v, want 1", s)
		}
	}
}

func TestForwardMatchesManualComputation(t *testing.T) {
	r := rng.New(6)
	l := New(Config{In: 3, Out: 2, Strategy: ConstrainedRandom, FanIn: 2, UseScale: true}, r)
	// Overwrite structure deterministically: out0 = +x0 -x1, out1 = +x2.
	a := tensor.NewMat(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 0, -1)
	a.Set(2, 1, 1)
	l.fixedA = tensor.Ternarize(a, 0)
	copy(l.Scale.Val.Data, []float32{2, 3})
	copy(l.Bias.Val.Data, []float32{0.5, -1})
	x := tensor.FromSlice(1, 3, []float32{10, 4, 7})
	out := l.Forward(x, false)
	// out0 = (10-4)*2 + 0.5 = 12.5; out1 = 7*3 - 1 = 20.
	if out.At(0, 0) != 12.5 || out.At(0, 1) != 20 {
		t.Errorf("forward = %v, want [12.5 20]", out.Data)
	}
}

func TestScaleAndBiasGradCheck(t *testing.T) {
	r := rng.New(7)
	l := New(Config{In: 5, Out: 3, Strategy: ConstrainedRandom, FanIn: 3, UseScale: true}, r)
	x := tensor.NewMat(4, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	labels := []int{0, 1, 2, 0}
	lossAt := func() float64 {
		logits := l.Forward(x, false)
		loss, _ := nn.SoftmaxCrossEntropy(logits, labels)
		return loss
	}
	l.Scale.ZeroGrad()
	l.Bias.ZeroGrad()
	logits := l.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(logits, labels)
	l.Backward(grad, true)

	const eps = 1e-3
	for _, p := range []*nn.Param{l.Scale, l.Bias} {
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
}

func TestTNNScaleReceivesNoGradient(t *testing.T) {
	r := rng.New(8)
	l := New(Config{In: 5, Out: 3, Strategy: ConstrainedRandom, FanIn: 3, UseScale: false}, r)
	x := tensor.NewMat(2, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	logits := l.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(logits, []int{0, 1})
	l.Backward(grad, true)
	for _, g := range l.Scale.Grad.Data {
		if g != 0 {
			t.Fatal("TNN scale received gradient")
		}
	}
	// And it is not exposed to optimizers.
	for _, p := range l.Params() {
		if p == l.Scale {
			t.Fatal("TNN exposes scale parameter")
		}
	}
}

func TestLearnedSparsityEmerges(t *testing.T) {
	r := rng.New(9)
	l := New(Config{In: 100, Out: 20, Strategy: Learned, UseScale: true}, r)
	d := l.Adjacency().Density()
	// The 0.7·mean(|w|) threshold should zero a meaningful fraction of
	// connections at init (for uniform init about half).
	if d < 0.2 || d > 0.8 {
		t.Errorf("initial learned density = %v, expected mid-range", d)
	}
}

func TestLearnedLayerTrainsOnToyTask(t *testing.T) {
	// A single Neuro-C layer should learn a linearly separable task via
	// the straight-through estimator.
	r := rng.New(10)
	l := New(Config{In: 8, Out: 2, Strategy: Learned, UseScale: true}, r)
	net := nn.NewNetwork(l)
	// Class 0: first half active; class 1: second half active.
	n := 128
	x := tensor.NewMat(n, 8)
	y := make([]int, n)
	rr := rng.New(11)
	for i := 0; i < n; i++ {
		cls := i % 2
		y[i] = cls
		for j := 0; j < 4; j++ {
			x.Set(i, cls*4+j, 0.8+0.2*rr.Float32())
			x.Set(i, (1-cls)*4+j, 0.2*rr.Float32())
		}
	}
	nn.Fit(net, x, y, nn.TrainConfig{Epochs: 60, BatchSize: 16, Optimizer: nn.NewAdam(0.01), Seed: 3})
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Errorf("toy accuracy = %v, want >= 0.95", acc)
	}
}

func TestEffectiveParams(t *testing.T) {
	r := rng.New(12)
	l := New(Config{In: 30, Out: 5, Strategy: ConstrainedRandom, FanIn: 4, UseScale: true}, r)
	// neurons (5) + nnz (5*4).
	if got := l.EffectiveParams(); got != 25 {
		t.Errorf("EffectiveParams = %d, want 25", got)
	}
}

func TestNameReflectsVariant(t *testing.T) {
	r := rng.New(13)
	nc := New(Config{In: 4, Out: 2, Strategy: Learned, UseScale: true}, r)
	tn := New(Config{In: 4, Out: 2, Strategy: Learned, UseScale: false}, r)
	if nc.Name() == tn.Name() {
		t.Error("Neuro-C and TNN layers share a name")
	}
}

func TestSTEClippingBlocksSaturatedGradients(t *testing.T) {
	r := rng.New(14)
	l := New(Config{In: 2, Out: 1, Strategy: Learned, UseScale: true, ClipAt: 0.5}, r)
	// Saturate one latent weight beyond the clip point.
	l.Latent.Val.Set(0, 0, 2.0)
	l.Latent.Val.Set(1, 0, 0.1)
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	out := l.Forward(x, true)
	grad := tensor.NewMat(1, 1)
	grad.Set(0, 0, 1)
	_ = out
	l.Backward(grad, true)
	if l.Latent.Grad.At(0, 0) != 0 {
		t.Error("saturated latent received gradient")
	}
}

func TestFreezePinsStructure(t *testing.T) {
	r := rng.New(30)
	l := New(Config{In: 20, Out: 8, Strategy: Learned, UseScale: true}, r)
	before := l.Adjacency()
	l.Freeze()
	// Move latents drastically: the adjacency must not change.
	for i := range l.Latent.Val.Data {
		l.Latent.Val.Data[i] = -l.Latent.Val.Data[i] * 3
	}
	after := l.Adjacency()
	for i := range before.W {
		if before.W[i] != after.W[i] {
			t.Fatal("frozen adjacency moved")
		}
	}
	// And latents receive no gradient while frozen.
	x := tensor.NewMat(2, 20)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	out := l.Forward(x, true)
	grad := tensor.NewMat(2, 8)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	_ = out
	l.Backward(grad, true)
	for _, g := range l.Latent.Grad.Data {
		if g != 0 {
			t.Fatal("frozen latent received gradient")
		}
	}
	// Unfreeze resumes learning.
	l.Unfreeze()
	l.Forward(x, true)
	l.Backward(grad, true)
	moved := false
	for _, g := range l.Latent.Grad.Data {
		if g != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("unfrozen latent still blocked")
	}
}

// TestBackwardWithoutInputGradient checks the needInput contract on
// every strategy, learning and frozen: with it unset, Backward returns
// nil and accumulates exactly the parameter gradients it accumulates
// with it set.
func TestBackwardWithoutInputGradient(t *testing.T) {
	r := rng.New(40)
	x := tensor.NewMat(9, 30)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for _, strat := range []Strategy{Learned, Random, ConstrainedRandom, Locality} {
		for _, frozen := range []bool{false, true} {
			cfg := Config{In: 30, Out: 7, Strategy: strat, FanIn: 5, Sparsity: 0.3, UseScale: true}
			with, without := New(cfg, rng.New(41)), New(cfg, rng.New(41))
			if frozen {
				with.Freeze()
				without.Freeze()
			}
			out := with.Forward(x, true)
			without.Forward(x, true)
			grad := tensor.NewMat(out.Rows, out.Cols)
			for i := range grad.Data {
				grad.Data[i] = r.NormFloat32()
			}
			if dx := with.Backward(grad, true); dx == nil || dx.Rows != 9 || dx.Cols != 30 {
				t.Fatalf("%v frozen=%v: Backward(needInput) returned no 9x30 input gradient", strat, frozen)
			}
			if dx := without.Backward(grad, false); dx != nil {
				t.Errorf("%v frozen=%v: Backward(!needInput) returned an input gradient", strat, frozen)
			}
			for pi, p := range with.Params() {
				q := without.Params()[pi]
				for i := range p.Grad.Data {
					if math.Float32bits(p.Grad.Data[i]) != math.Float32bits(q.Grad.Data[i]) {
						t.Fatalf("%v frozen=%v: %s grad[%d] differs without the input gradient", strat, frozen, p.Name, i)
					}
				}
			}
		}
	}
}
