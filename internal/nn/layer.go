// Package nn is the host-side training substrate: dense layers,
// activations, softmax cross-entropy, SGD/Adam optimizers, and a
// minibatch trainer. It plays the role Larq/Keras play in the paper —
// everything needed to train MLP baselines and (through the ternary
// package's layers, which implement the same Layer interface) Neuro-C
// and TNN models with quantization-aware training.
//
// All computation is float32 on the host; nothing in this package runs
// on the simulated device.
package nn

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	Val  *tensor.Mat
	Grad *tensor.Mat
}

// newParam allocates a parameter and its gradient of the same shape.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Val: tensor.NewMat(rows, cols), Grad: tensor.NewMat(rows, cols)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network. Forward caches
// whatever Backward needs; Backward consumes the upstream gradient,
// accumulates parameter gradients, and returns the input gradient when
// needInput is set (nil otherwise: the first layer's input gradient has
// no consumer, and skipping it skips the widest product of the step).
type Layer interface {
	Forward(x *tensor.Mat, train bool) *tensor.Mat
	Backward(grad *tensor.Mat, needInput bool) *tensor.Mat
	Params() []*Param
	Name() string
	// OutDim returns the layer's output width given its input width
	// (activations return the input width unchanged).
	OutDim(in int) int
}

// Dense is a fully connected layer: out = x·W + b, with W shaped
// in×out so a batch (rows = samples) multiplies straight through.
type Dense struct {
	In, Out int
	W, B    *Param

	lastX *tensor.Mat
}

// NewDense returns a dense layer with He-uniform initialized weights.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{In: in, Out: out,
		W: newParam(fmt.Sprintf("dense%dx%d.W", in, out), in, out),
		B: newParam(fmt.Sprintf("dense%dx%d.b", in, out), 1, out),
	}
	HeInit(d.W.Val, in, r)
	return d
}

// HeInit fills m with He-style uniform values scaled by fan-in.
func HeInit(m *tensor.Mat, fanIn int, r *rng.RNG) {
	bound := float32(2.449489743) / float32(sqrtf(float64(fanIn))) // sqrt(6/fanIn)
	for i := range m.Data {
		m.Data[i] = (2*r.Float32() - 1) * bound
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for initialization purposes.
	g := x
	for i := 0; i < 32; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x.Cols, d.In))
	}
	if train {
		d.lastX = x
	}
	out := tensor.NewMat(x.Rows, d.Out)
	tensor.MatMul(out, x, d.W.Val)
	tensor.AddRowVec(out, d.B.Val.Data)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Mat, needInput bool) *tensor.Mat {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	// dW = x^T · grad
	dW := tensor.NewMat(d.In, d.Out)
	tensor.MatMulAT(dW, d.lastX, grad)
	tensor.Axpy(1, dW.Data, d.W.Grad.Data)
	// db = column sums of grad
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j := range row {
			d.B.Grad.Data[j] += row[j]
		}
	}
	if !needInput {
		return nil
	}
	// dx = grad · W^T
	dx := tensor.NewMat(grad.Rows, d.In)
	tensor.MatMulBT(dx, grad, d.W.Val)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

// NumParams returns the trainable parameter count.
func (d *Dense) NumParams() int { return d.In*d.Out + d.Out }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := x.Clone()
	if train {
		r.mask = make([]bool, len(out.Data))
	}
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else if train {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Mat, needInput bool) *tensor.Mat {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	if !needInput {
		return nil
	}
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

// Dropout zeroes a fraction of activations during training and scales
// the survivors (inverted dropout), passing inputs through unchanged at
// inference time.
type Dropout struct {
	Rate float64
	rng  *rng.RNG
	mask []float32
}

// NewDropout returns a dropout layer with the given drop rate.
func NewDropout(rate float64, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: r}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	out := x.Clone()
	d.mask = make([]float32, len(out.Data))
	keep := float32(1 / (1 - d.Rate))
	for i := range out.Data {
		if d.rng.Float64() < d.Rate {
			out.Data[i] = 0
		} else {
			d.mask[i] = keep
			out.Data[i] *= keep
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Mat, needInput bool) *tensor.Mat {
	if !needInput {
		return nil
	}
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	for i := range out.Data {
		out.Data[i] *= d.mask[i]
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", d.Rate) }

// OutDim implements Layer.
func (d *Dropout) OutDim(in int) int { return in }
