package nn

import (
	"fmt"
	"math"

	"github.com/neuro-c/neuroc/internal/tensor"
)

// Network is an ordered stack of layers trained end to end.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the full stack; train selects training-time behaviour
// (dropout, cached activations).
func (n *Network) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the stack, accumulating
// parameter gradients. The first layer's input gradient is not computed.
func (n *Network) Backward(grad *tensor.Mat) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad, i > 0)
	}
}

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams is the total trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Val.Data)
	}
	return total
}

// String describes the stack.
func (n *Network) String() string {
	s := "net["
	for i, l := range n.Layers {
		if i > 0 {
			s += " "
		}
		s += l.Name()
	}
	return s + "]"
}

// SoftmaxCrossEntropy computes mean cross-entropy loss over a batch of
// logits with integer labels, and the gradient with respect to the
// logits ((softmax - onehot)/batch).
func SoftmaxCrossEntropy(logits *tensor.Mat, labels []int) (loss float64, grad *tensor.Mat) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), logits.Rows))
	}
	grad = tensor.NewMat(logits.Rows, logits.Cols)
	invBatch := float32(1.0 / float64(logits.Rows))
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		// Stable softmax.
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		g := grad.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			g[j] = float32(e)
			sum += e
		}
		label := labels[i]
		if label < 0 || label >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d outside %d classes", label, logits.Cols))
		}
		p := float64(g[label]) / sum
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		for j := range g {
			g[j] = g[j]/float32(sum)*invBatch - 0
		}
		g[label] -= invBatch
	}
	return loss / float64(logits.Rows), grad
}

// Predict returns the argmax class for each row of logits.
func Predict(logits *tensor.Mat) []int {
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = tensor.ArgMax(logits.Row(i))
	}
	return out
}

// Accuracy runs the network on inputs X (rows = samples) and returns
// the fraction of argmax predictions matching labels.
func (n *Network) Accuracy(x *tensor.Mat, labels []int) float64 {
	return AccuracyBatched(n, x, labels, 256)
}

// AccuracyBatched evaluates accuracy in batches to bound memory.
func AccuracyBatched(n *Network, x *tensor.Mat, labels []int, batch int) float64 {
	if x.Rows == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < x.Rows; lo += batch {
		hi := lo + batch
		if hi > x.Rows {
			hi = x.Rows
		}
		sub := tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
		logits := n.Forward(sub, false)
		for i, p := range Predict(logits) {
			if p == labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(x.Rows)
}
