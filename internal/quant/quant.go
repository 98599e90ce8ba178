// Package quant converts trained float models into the integer-only form
// that runs on the device (paper Sec. 4.3): int8 activations, int32
// accumulators, and per-layer requantization by integer multiply and
// arithmetic shifts. The Go methods in this package are the bit-exact
// reference for the Thumb assembly kernels — both are differentially
// tested against each other — so every operation here mirrors a concrete
// instruction sequence (truncating ASRS shifts, wrapping MULS multiplies,
// branchless ReLU, saturating stores).
//
// Requantization scheme. A float layer computes
//
//	out = act( w_j · Σ a_ij x_i + b_j )            (Neuro-C)
//	out = act( Σ W_ij x_i + b_j )                  (dense MLP)
//
// With input scale Si (x_int = round(Si·x)) and a calibrated output
// scale So, the integer pipeline is
//
//	acc   = Σ ±x_int                (ternary add/sub, int32)
//	t     = ((acc >> pre) * M_j) >> post + B_j
//	out   = sat8(relu?(t))
//
// where M_j/2^(pre+post) ≈ So·w_j/Si and B_j = round(So·b_j). The
// pre-shift guarantees the 32-bit multiply cannot overflow for any
// input, using the structural worst-case |acc| ≤ 127·fanIn (dense
// layers use 127·Σ|W_ij| per neuron).
package quant

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/fixed"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// Kind discriminates the two integer layer types.
type Kind int

// Layer kinds.
const (
	Ternary Kind = iota // Neuro-C / TNN: ternary adjacency + optional per-neuron scale
	DenseK              // conventional int8 dense layer
)

// Layer is one integer-only layer ready for deployment. It holds
// Forward's cache, so build copies field by field, not by value.
type Layer struct {
	Kind    Kind
	In, Out int

	// A is the ternary adjacency (Ternary kind). Forward caches its
	// connection lists on first use, so A must not change in place after
	// that; assigning a different matrix is fine.
	A *encoding.Matrix
	// W is the int8 weight matrix, row-major Out×In (DenseK kind).
	W []int8

	// PerNeuron selects the per-neuron multiplier table (Neuro-C). When
	// false a single multiplier Mults[0] is used for the whole layer
	// (dense MLP per-tensor scale, and the TNN ablation).
	PerNeuron bool
	// Mults are int16-range multipliers (len Out when PerNeuron, else 1).
	Mults []int32
	// Bias are int16-range biases at the output scale (len Out).
	Bias []int32

	PreShift  uint
	PostShift uint
	ReLU      bool

	// OutScale is the float calibration scale (out_int = OutScale·out_float),
	// kept for diagnostics.
	OutScale float64

	// signs caches A's per-output +1/-1 index lists for Forward.
	signs atomic.Pointer[signLists]
}

// signLists are the index lists of one adjacency matrix, as
// encoding.Matrix.Rows extracts them.
type signLists struct {
	a        *encoding.Matrix
	pos, neg [][]int
}

// connections returns the index lists of l.A, extracting them on first use.
// Concurrent first callers may each extract an identical copy; the last
// one stored wins. A must not be modified after the first Forward.
func (l *Layer) connections() *signLists {
	if s := l.signs.Load(); s != nil && s.a == l.A {
		return s
	}
	s := &signLists{a: l.A}
	s.pos, s.neg = l.A.Rows()
	l.signs.Store(s)
	return s
}

// Model is a deployable integer model.
type Model struct {
	Layers []*Layer
	// InputScale maps float inputs to int8 (x_int = round(InputScale·x)).
	InputScale float64
}

// QuantizeInput converts float pixels to the int8 input activations.
func (m *Model) QuantizeInput(x []float32) []int8 {
	out := make([]int8, len(x))
	for i, v := range x {
		out[i] = fixed.SatInt8(int32(math.Round(float64(v) * m.InputScale)))
	}
	return out
}

// Infer runs bit-exact integer inference, returning the final layer's
// int8 activations (logits at the last layer's scale).
func (m *Model) Infer(x []int8) []int8 {
	cur := x
	for li, l := range m.Layers {
		if len(cur) != l.In {
			panic(fmt.Sprintf("quant: layer %d input width %d, want %d", li, len(cur), l.In))
		}
		cur = l.Forward(cur)
	}
	return cur
}

// Predict returns the argmax class of Infer.
func (m *Model) Predict(x []int8) int {
	out := m.Infer(x)
	best := 0
	for i := 1; i < len(out); i++ {
		if out[i] > out[best] {
			best = i
		}
	}
	return best
}

// Accuracy evaluates argmax accuracy over a float dataset matrix.
func (m *Model) Accuracy(x *tensor.Mat, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if m.Predict(m.QuantizeInput(x.Row(i))) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}

// Forward executes one integer layer exactly as the assembly does.
func (l *Layer) Forward(x []int8) []int8 {
	out := make([]int8, l.Out)
	for o, a := range l.accumulate(x) {
		out[o] = l.requant(a, o)
	}
	return out
}

// accumulate computes the layer's int32 accumulators before
// requantization.
func (l *Layer) accumulate(x []int8) []int32 {
	acc := make([]int32, l.Out)
	switch l.Kind {
	case Ternary:
		// Sum over the connections only. A wrapping int32 sum does not
		// depend on the order of its terms, so this equals the dense
		// A.Apply exactly.
		s := l.connections()
		for o := range acc {
			var sum int32
			for _, i := range s.pos[o] {
				sum += int32(x[i])
			}
			for _, i := range s.neg[o] {
				sum -= int32(x[i])
			}
			acc[o] = sum
		}
	case DenseK:
		for o := 0; o < l.Out; o++ {
			row := l.W[o*l.In : (o+1)*l.In]
			var sum int32
			for i, w := range row {
				sum += int32(w) * int32(x[i])
			}
			acc[o] = sum
		}
	}
	return acc
}

// requant maps one accumulator to its int8 output, mirroring the
// device's requantization loop instruction by instruction.
func (l *Layer) requant(acc int32, o int) int8 {
	t := fixed.RShiftTrunc(acc, l.PreShift)
	m := l.Mults[0]
	if l.PerNeuron {
		m = l.Mults[o]
	}
	t = t * m // wrapping int32 multiply, like MULS
	t = fixed.RShiftTrunc(t, l.PostShift)
	t += l.Bias[o]
	if l.ReLU {
		t = fixed.ReLU32(t)
	}
	return fixed.SatInt8(t)
}

// NumWeightBytes is the storage for weights/adjacency only (excludes
// multipliers and biases), using the block encoding for ternary layers.
func (l *Layer) NumWeightBytes() int {
	switch l.Kind {
	case Ternary:
		return encoding.EncodeBlock(l.A, 0).SizeBytes()
	default:
		return len(l.W)
	}
}

// StripPerNeuron returns a copy of m in which every per-neuron
// multiplier table is collapsed to a single per-layer multiplier (the
// table's mean), exactly the paper's Sec. 5.2 procedure of removing the
// w_j scaling factor from a trained Neuro-C configuration to measure
// the TNN variant's latency and memory on identical structure. The
// result is for cost measurement; its accuracy is not meaningful.
func StripPerNeuron(m *Model) *Model {
	out := &Model{InputScale: m.InputScale}
	for _, l := range m.Layers {
		c := &Layer{Kind: l.Kind, In: l.In, Out: l.Out, A: l.A, W: l.W,
			PerNeuron: l.PerNeuron, Mults: l.Mults, Bias: l.Bias,
			PreShift: l.PreShift, PostShift: l.PostShift, ReLU: l.ReLU, OutScale: l.OutScale}
		if l.PerNeuron {
			var sum int64
			for _, v := range l.Mults {
				sum += int64(v)
			}
			c.PerNeuron = false
			c.Mults = []int32{int32(sum / int64(len(l.Mults)))}
		}
		out.Layers = append(out.Layers, c)
	}
	return out
}

// Forward4 exposes the requantization of a single accumulator value for
// property tests (output neuron 0).
func (l *Layer) Forward4(acc int32) int8 { return l.requant(acc, 0) }
