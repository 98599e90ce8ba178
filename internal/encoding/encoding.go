// Package encoding implements the four sparse-matrix encodings the paper
// studies for the Neuro-C ternary adjacency matrix (Sec. 4.2, Fig. 3):
//
//	CSC    — baseline compressed sparse column: absolute indices plus a
//	         pointer array delimiting each output neuron's range.
//	Delta  — per output neuron the first input index is absolute and the
//	         rest are offsets from the previous index; the pointer array
//	         stores per-output nonzero counts.
//	Mixed  — per-output counts like Delta, but absolute indices, trading
//	         a little size for stateless traversal.
//	Block  — the input space is split into fixed-size blocks (≤256
//	         inputs), each with its own count and block-local index
//	         arrays, guaranteeing 8-bit indices by construction.
//
// Every encoding stores, for each output neuron, the indices of nonzero
// input connections split into two disjoint sets by sign (+1 / -1), so
// inference is pure add/subtract streaming — no per-connection weights.
//
// Each encoding reports its exact storage footprint in bytes, with
// 8/16-bit element widths chosen the way the on-device tables are
// emitted, and provides a reference Apply traversal that the assembly
// kernels are differentially tested against.
package encoding

import "fmt"

// Matrix is a dense ternary adjacency matrix with Out output neurons and
// In input neurons. Entry (o, i) is W[o*In+i] ∈ {-1, 0, +1}: the sign of
// the connection from input i to output o.
type Matrix struct {
	In, Out int
	W       []int8
}

// NewMatrix returns a zero (fully disconnected) matrix.
func NewMatrix(in, out int) *Matrix {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("encoding: invalid matrix dims %dx%d", out, in))
	}
	return &Matrix{In: in, Out: out, W: make([]int8, in*out)}
}

// At returns the ternary weight from input i to output o.
func (m *Matrix) At(o, i int) int8 { return m.W[o*m.In+i] }

// Set stores a ternary weight; it panics on values outside {-1,0,+1}.
func (m *Matrix) Set(o, i int, v int8) {
	if v < -1 || v > 1 {
		panic(fmt.Sprintf("encoding: non-ternary weight %d", v))
	}
	m.W[o*m.In+i] = v
}

// NNZ returns the number of nonzero connections.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.W {
		if v != 0 {
			n++
		}
	}
	return n
}

// Density returns NNZ / (In*Out).
func (m *Matrix) Density() float64 {
	return float64(m.NNZ()) / float64(m.In*m.Out)
}

// Apply computes the dense reference y[o] = Σ_i W[o][i]·x[i]. It is the
// ground truth every encoding's traversal must match. The product is
// branch-free: with W ∈ {-1,0,+1} each term is +x, -x or 0, and a
// wrapping int32 sum does not depend on the order of its terms.
func (m *Matrix) Apply(x, y []int32) {
	if len(x) != m.In || len(y) != m.Out {
		panic("encoding: Apply length mismatch")
	}
	for o := 0; o < m.Out; o++ {
		row := m.W[o*m.In : (o+1)*m.In]
		var sum int32
		for i, w := range row {
			sum += int32(w) * x[i]
		}
		y[o] = sum
	}
}

// Rows extracts, for each output neuron, the ascending input indices of
// positive and negative connections: the lists every sparse encoding
// and the host reference's ternary forward pass traverse.
func (m *Matrix) Rows() (pos, neg [][]int) {
	pos = make([][]int, m.Out)
	neg = make([][]int, m.Out)
	for o := 0; o < m.Out; o++ {
		row := m.W[o*m.In : (o+1)*m.In]
		for i, w := range row {
			switch w {
			case 1:
				pos[o] = append(pos[o], i)
			case -1:
				neg[o] = append(neg[o], i)
			}
		}
	}
	return pos, neg
}

// Encoder is implemented by all four encodings.
type Encoder interface {
	// Name is the short scheme name used in reports ("csc", "delta",
	// "mixed", "block").
	Name() string
	// Apply runs the sparse traversal: y[o] = Σ x[pos] - Σ x[neg].
	Apply(x, y []int32)
	// SizeBytes is the exact on-device storage footprint of the
	// connectivity structure (indices + pointers for both polarities).
	SizeBytes() int
	// Decode reconstructs the dense ternary matrix (round-trip testing).
	Decode() *Matrix
}

// RangeError reports a table value too large for the widest on-device
// element (16 bits): the layer is too large for the encoding.
type RangeError struct {
	Table string // which table: "index", "pointer", "first index", "delta", "count"
	Value int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("encoding: %s value %d exceeds the 16-bit table range", e.Table, e.Value)
}

// widthFor returns the element width of a table whose largest value is
// maxVal: 1 if it fits a uint8, 2 if it fits a uint16, else a
// *RangeError naming the table.
func widthFor(table string, maxVal int) (int, error) {
	if maxVal <= 0xff {
		return 1, nil
	}
	if maxVal <= 0xffff {
		return 2, nil
	}
	return 0, &RangeError{Table: table, Value: maxVal}
}

func maxInt(vals []int) int {
	m := 0
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}
