package encoding

// cscHalf holds one polarity of a CSC encoding: absolute input indices
// concatenated per output neuron, delimited by a pointer array.
type cscHalf struct {
	Indices  []int // absolute input indices, ascending within an output
	Pointers []int // len Out+1; Pointers[o]..Pointers[o+1] is output o's range
}

// CSC is the baseline compressed-sparse-column encoding (paper Fig. 3,
// top left): straightforward sequential traversal, but the index arrays
// store absolute input positions and the pointer arrays store absolute
// offsets, both of which outgrow 8-bit storage quickly.
type CSC struct {
	In, Out  int
	Pos, Neg cscHalf
	// IdxWidth and PtrWidth are the element widths (1 or 2 bytes) used
	// on-device, chosen from the value ranges at encode time.
	IdxWidth, PtrWidth int
}

// EncodeCSC builds the CSC representation of m. It returns a
// *RangeError when an index or pointer exceeds 16 bits.
func EncodeCSC(m *Matrix) (*CSC, error) {
	pos, neg := m.Rows()
	e := &CSC{In: m.In, Out: m.Out}
	build := func(rows [][]int) cscHalf {
		h := cscHalf{Pointers: make([]int, m.Out+1)}
		for o, r := range rows {
			h.Pointers[o] = len(h.Indices)
			h.Indices = append(h.Indices, r...)
			_ = o
		}
		h.Pointers[m.Out] = len(h.Indices)
		return h
	}
	e.Pos = build(pos)
	e.Neg = build(neg)
	nnz := len(e.Pos.Indices)
	if n := len(e.Neg.Indices); n > nnz {
		nnz = n
	}
	var err error
	if e.IdxWidth, err = widthFor("index", m.In-1); err != nil {
		return nil, err
	}
	if e.PtrWidth, err = widthFor("pointer", nnz); err != nil {
		return nil, err
	}
	return e, nil
}

// Name implements Encoder.
func (e *CSC) Name() string { return "csc" }

// Apply implements Encoder by walking each output's index ranges.
func (e *CSC) Apply(x, y []int32) {
	if len(x) != e.In || len(y) != e.Out {
		panic("encoding: CSC.Apply length mismatch")
	}
	for o := 0; o < e.Out; o++ {
		var sum int32
		for _, i := range e.Pos.Indices[e.Pos.Pointers[o]:e.Pos.Pointers[o+1]] {
			sum += x[i]
		}
		for _, i := range e.Neg.Indices[e.Neg.Pointers[o]:e.Neg.Pointers[o+1]] {
			sum -= x[i]
		}
		y[o] = sum
	}
}

// SizeBytes implements Encoder.
func (e *CSC) SizeBytes() int {
	n := (len(e.Pos.Indices) + len(e.Neg.Indices)) * e.IdxWidth
	n += (len(e.Pos.Pointers) + len(e.Neg.Pointers)) * e.PtrWidth
	return n
}

// Decode implements Encoder.
func (e *CSC) Decode() *Matrix {
	m := NewMatrix(e.In, e.Out)
	for o := 0; o < e.Out; o++ {
		for _, i := range e.Pos.Indices[e.Pos.Pointers[o]:e.Pos.Pointers[o+1]] {
			m.Set(o, i, 1)
		}
		for _, i := range e.Neg.Indices[e.Neg.Pointers[o]:e.Neg.Pointers[o+1]] {
			m.Set(o, i, -1)
		}
	}
	return m
}
