// Package ternary implements the Neuro-C layer: a fully connected layer
// whose connectivity is a ternary adjacency matrix A ∈ {-1,0,+1} and
// whose only per-neuron learnable multipliers are the output scale w_j
// and bias b_j (paper Eq. 1):
//
//	o_j = f( w_j · Σ_i a_ij · x_i + b_j )
//
// Connectivity can be produced four ways, matching the strategies the
// paper compares in Sec. 3.2 / Fig. 1:
//
//   - Learned: quantization-aware training — full-precision latent
//     weights are kept and re-quantized to {-1,0,+1} on every forward
//     pass with a straight-through estimator, so sparsity emerges from
//     training (this is what Larq's fake quantization does).
//   - Random: independent Bernoulli connections with random signs.
//   - ConstrainedRandom: exactly K random inputs per output neuron.
//   - Locality: K spatially nearby inputs per output neuron, mimicking
//     a convolutional receptive field.
//
// Setting UseScale to false removes w_j, which turns the layer into the
// conventional TNN baseline the paper ablates in Sec. 5.2 / Fig. 8.
package ternary

import (
	"fmt"
	"math"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/nn"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// Strategy selects how the adjacency matrix is produced.
type Strategy int

// Adjacency strategies (paper Sec. 3.2).
const (
	Learned Strategy = iota
	Random
	ConstrainedRandom
	Locality
)

// String names the strategy as used in reports.
func (s Strategy) String() string {
	switch s {
	case Learned:
		return "learned"
	case Random:
		return "random"
	case ConstrainedRandom:
		return "constrained"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config configures a Neuro-C layer.
type Config struct {
	In, Out  int
	Strategy Strategy
	// Sparsity is the target connection probability for Random, or the
	// threshold aggressiveness for Learned (fraction scaling the TWN
	// threshold; 0 selects the default 0.7).
	Sparsity float64
	// FanIn is the per-neuron connection count for ConstrainedRandom
	// and Locality.
	FanIn int
	// UseScale enables the per-neuron scaling factor w_j. True for
	// Neuro-C; false degrades the layer to a conventional TNN.
	UseScale bool
	// ClipAt bounds latent weights for the straight-through estimator
	// (gradients are zeroed where |latent| exceeds it; 0 selects 1.5).
	ClipAt float64
}

// Layer is a Neuro-C ternary layer implementing nn.Layer.
type Layer struct {
	cfg Config

	// Latent full-precision weights (Learned strategy only).
	Latent *nn.Param
	// Scale is w_j (1×out); Bias is b_j (1×out).
	Scale, Bias *nn.Param

	// fixedA is the adjacency for non-learned strategies.
	fixedA *tensor.Ternary
	// frozenA caches the quantized adjacency after Freeze: structure
	// stops moving while scales and biases keep calibrating, the
	// standard final phase of quantization-aware training.
	frozenA *tensor.Ternary

	// caches for backward
	lastX *tensor.Mat
	lastA *tensor.Ternary // the adjacency the forward pass used
	lastZ *tensor.Mat     // x·A before scaling
}

// New builds a Neuro-C layer from cfg, drawing any random structure
// from r.
func New(cfg Config, r *rng.RNG) *Layer {
	if cfg.In <= 0 || cfg.Out <= 0 {
		panic(fmt.Sprintf("ternary: invalid dims %d->%d", cfg.In, cfg.Out))
	}
	if cfg.ClipAt == 0 {
		cfg.ClipAt = 1.5
	}
	l := &Layer{cfg: cfg}
	l.Scale = newParam("scale", 1, cfg.Out)
	l.Bias = newParam("bias", 1, cfg.Out)

	var dense *tensor.Mat // the fixed strategies' {-1,0,+1} adjacency
	switch cfg.Strategy {
	case Learned:
		l.Latent = newParam("latent", cfg.In, cfg.Out)
		nn.HeInit(l.Atent().Val, cfg.In, r)
	case Random:
		p := cfg.Sparsity
		if p <= 0 {
			p = 0.05
		}
		dense = tensor.NewMat(cfg.In, cfg.Out)
		for i := range dense.Data {
			if r.Bool(p) {
				if r.Bool(0.5) {
					dense.Data[i] = 1
				} else {
					dense.Data[i] = -1
				}
			}
		}
	case ConstrainedRandom:
		k := cfg.FanIn
		if k <= 0 {
			k = minInt(cfg.In, 16)
		}
		dense = tensor.NewMat(cfg.In, cfg.Out)
		for o := 0; o < cfg.Out; o++ {
			perm := r.Perm(cfg.In)
			for _, i := range perm[:minInt(k, cfg.In)] {
				v := float32(1)
				if r.Bool(0.5) {
					v = -1
				}
				dense.Set(i, o, v)
			}
		}
	case Locality:
		k := cfg.FanIn
		if k <= 0 {
			k = minInt(cfg.In, 16)
		}
		dense = tensor.NewMat(cfg.In, cfg.Out)
		for o := 0; o < cfg.Out; o++ {
			center := 0
			if cfg.Out > 1 {
				center = o * (cfg.In - 1) / (cfg.Out - 1)
			}
			lo := center - k/2
			if lo < 0 {
				lo = 0
			}
			hi := lo + k
			if hi > cfg.In {
				hi = cfg.In
				lo = hi - k
				if lo < 0 {
					lo = 0
				}
			}
			for i := lo; i < hi; i++ {
				v := float32(1)
				if r.Bool(0.5) {
					v = -1
				}
				dense.Set(i, o, v)
			}
		}
	default:
		panic(fmt.Sprintf("ternary: unknown strategy %v", cfg.Strategy))
	}
	if dense != nil {
		l.fixedA = tensor.Ternarize(dense, 0)
	}

	// Initialize the per-neuron scale as the built-in normalizer: w_j ≈
	// 1/sqrt(fan-in of neuron j). For the TNN ablation the scale is
	// pinned to exactly 1.
	fans := make([]int, cfg.Out)
	a := l.adjacency()
	for i := 0; i < cfg.In; i++ {
		pos, neg := a.Row(i)
		for _, o := range pos {
			fans[o]++
		}
		for _, o := range neg {
			fans[o]++
		}
	}
	for o, fan := range fans {
		if !cfg.UseScale {
			l.Scale.Val.Data[o] = 1
			continue
		}
		if fan == 0 {
			fan = 1
		}
		l.Scale.Val.Data[o] = float32(1 / math.Sqrt(float64(fan)))
	}
	return l
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Atent exposes the latent parameter (nil for fixed strategies); the
// name keeps the exported surface small while allowing tests to poke it.
func (l *Layer) Atent() *nn.Param { return l.Latent }

func newParam(name string, rows, cols int) *nn.Param {
	return &nn.Param{Name: name, Val: tensor.NewMat(rows, cols), Grad: tensor.NewMat(rows, cols)}
}

// threshold returns the ternarization threshold for the current latent
// weights: factor × mean(|latent|), the Ternary Weight Networks rule.
func (l *Layer) threshold() float32 {
	factor := l.cfg.Sparsity
	if factor <= 0 {
		factor = 0.7
	}
	// Branch-free |v|: a sign test mispredicts on random-signed latents.
	// The sum stays sequential; partial sums would round differently.
	var sum float64
	for _, v := range l.Latent.Val.Data {
		sum += math.Abs(float64(v))
	}
	mean := sum / float64(len(l.Latent.Val.Data))
	return float32(factor * mean)
}

// Freeze pins the current quantized adjacency: subsequent forward
// passes use the frozen structure and latents stop receiving gradients,
// so the remaining epochs calibrate scales and biases against the final
// deployed connectivity.
func (l *Layer) Freeze() {
	if l.fixedA == nil && l.frozenA == nil {
		l.frozenA = l.adjacency()
	}
}

// Unfreeze resumes quantization-aware structure learning.
func (l *Layer) Unfreeze() { l.frozenA = nil }

// adjacency returns the current in×out ternary adjacency: the fixed or
// frozen one, or else the latents quantized at the current threshold.
func (l *Layer) adjacency() *tensor.Ternary {
	if l.fixedA != nil {
		return l.fixedA
	}
	if l.frozenA != nil {
		return l.frozenA
	}
	return tensor.Ternarize(l.Latent.Val, l.threshold())
}

// Forward implements nn.Layer.
func (l *Layer) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.Cols != l.cfg.In {
		panic(fmt.Sprintf("ternary: input width %d, want %d", x.Cols, l.cfg.In))
	}
	a := l.adjacency()
	z := tensor.NewMat(x.Rows, l.cfg.Out)
	tensor.MatMulTernary(z, x, a)
	if train {
		l.lastX, l.lastA, l.lastZ = x, a, z
	}
	out := tensor.NewMat(x.Rows, l.cfg.Out)
	scale := l.Scale.Val.Data
	bias := l.Bias.Val.Data
	for i := 0; i < z.Rows; i++ {
		zr := z.Row(i)
		or := out.Row(i)
		for j := range zr {
			or[j] = zr[j]*scale[j] + bias[j]
		}
	}
	return out
}

// Backward implements nn.Layer with a straight-through estimator for
// the ternary quantizer.
func (l *Layer) Backward(grad *tensor.Mat, needInput bool) *tensor.Mat {
	if l.lastX == nil {
		panic("ternary: Backward before Forward(train=true)")
	}
	scale := l.Scale.Val.Data

	// Bias and scale gradients.
	for i := 0; i < grad.Rows; i++ {
		gr := grad.Row(i)
		zr := l.lastZ.Row(i)
		for j := range gr {
			l.Bias.Grad.Data[j] += gr[j]
			if l.cfg.UseScale {
				l.Scale.Grad.Data[j] += gr[j] * zr[j]
			}
		}
	}

	learning := l.Latent != nil && l.frozenA == nil
	if !learning && !needInput {
		return nil
	}

	// dz = grad ⊙ scale (broadcast over rows).
	dz := tensor.NewMat(grad.Rows, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		gr := grad.Row(i)
		dr := dz.Row(i)
		for j := range gr {
			dr[j] = gr[j] * scale[j]
		}
	}

	// Latent gradient via STE: dLatent = x^T · dz, clipped where the
	// latent has saturated, added row by row without a temporary.
	// Frozen layers stop moving structure.
	if learning {
		clip := float32(l.cfg.ClipAt)
		val, g := l.Latent.Val, l.Latent.Grad
		tensor.MatMulATRows(l.lastX, dz, func(i int, row []float32) {
			vr, gr := val.Row(i), g.Row(i)
			for j, d := range row {
				if v := vr[j]; v > clip || v < -clip {
					continue // gradient blocked outside the clip range
				}
				gr[j] += d
			}
		})
	}

	if !needInput {
		return nil
	}
	// dx = dz · A^T.
	dx := tensor.NewMat(grad.Rows, l.cfg.In)
	tensor.MatMulTernaryBT(dx, dz, l.lastA)
	return dx
}

// Params implements nn.Layer. The TNN ablation still reports the scale
// parameter (pinned by a zero gradient) so optimizers can be reused.
func (l *Layer) Params() []*nn.Param {
	ps := []*nn.Param{l.Bias}
	if l.cfg.UseScale {
		ps = append(ps, l.Scale)
	}
	if l.Latent != nil {
		ps = append(ps, l.Latent)
	}
	return ps
}

// Name implements nn.Layer.
func (l *Layer) Name() string {
	kind := "neuroc"
	if !l.cfg.UseScale {
		kind = "tnn"
	}
	return fmt.Sprintf("%s(%d->%d,%s)", kind, l.cfg.In, l.cfg.Out, l.cfg.Strategy)
}

// OutDim implements nn.Layer.
func (l *Layer) OutDim(int) int { return l.cfg.Out }

// Adjacency exports the current ternary adjacency matrix in the
// encoding package's dense form (Out×In), for deployment.
func (l *Layer) Adjacency() *encoding.Matrix {
	a := l.adjacency()
	m := encoding.NewMatrix(l.cfg.In, l.cfg.Out)
	for i := 0; i < l.cfg.In; i++ {
		pos, neg := a.Row(i)
		for _, o := range pos {
			m.Set(int(o), i, 1)
		}
		for _, o := range neg {
			m.Set(int(o), i, -1)
		}
	}
	return m
}

// Scales returns a copy of the per-neuron scales w_j.
func (l *Layer) Scales() []float32 {
	out := make([]float32, l.cfg.Out)
	copy(out, l.Scale.Val.Data)
	return out
}

// Biases returns a copy of the per-neuron biases b_j.
func (l *Layer) Biases() []float32 {
	out := make([]float32, l.cfg.Out)
	copy(out, l.Bias.Val.Data)
	return out
}

// UseScale reports whether the layer carries the per-neuron scale.
func (l *Layer) UseScale() bool { return l.cfg.UseScale }

// InDim returns the input width.
func (l *Layer) InDim() int { return l.cfg.In }

// EffectiveParams is the paper's Fig. 1 parameter metric: the number of
// neurons plus the nonzero entries of the adjacency matrix.
func (l *Layer) EffectiveParams() int {
	return l.cfg.Out + l.adjacency().NNZ()
}
