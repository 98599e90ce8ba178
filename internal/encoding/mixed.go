package encoding

// mixedHalf holds one polarity of the mixed encoding: per-output counts
// (as in Delta) but absolute indices (as in CSC).
type mixedHalf struct {
	Counts  []int // len Out
	Indices []int // absolute indices, concatenated per output
}

// Mixed is the compromise encoding (paper Fig. 3, top right): the
// pointer array shrinks to per-output counts, while indices stay
// absolute so traversal is stateless — no sequential dependency between
// consecutive entries, unlike Delta.
type Mixed struct {
	In, Out  int
	Pos, Neg mixedHalf
	// IdxWidth and CountWidth are on-device element widths (1 or 2).
	IdxWidth, CountWidth int
}

// EncodeMixed builds the mixed representation of m. It returns a
// *RangeError when an index or count exceeds 16 bits.
func EncodeMixed(m *Matrix) (*Mixed, error) {
	pos, neg := m.Rows()
	e := &Mixed{In: m.In, Out: m.Out}
	build := func(rows [][]int) mixedHalf {
		h := mixedHalf{Counts: make([]int, m.Out)}
		for o, r := range rows {
			h.Counts[o] = len(r)
			h.Indices = append(h.Indices, r...)
		}
		return h
	}
	e.Pos = build(pos)
	e.Neg = build(neg)
	maxCount := maxInt(e.Pos.Counts)
	if c := maxInt(e.Neg.Counts); c > maxCount {
		maxCount = c
	}
	var err error
	if e.IdxWidth, err = widthFor("index", m.In-1); err != nil {
		return nil, err
	}
	if e.CountWidth, err = widthFor("count", maxCount); err != nil {
		return nil, err
	}
	return e, nil
}

// Name implements Encoder.
func (e *Mixed) Name() string { return "mixed" }

// Apply implements Encoder.
func (e *Mixed) Apply(x, y []int32) {
	if len(x) != e.In || len(y) != e.Out {
		panic("encoding: Mixed.Apply length mismatch")
	}
	applyHalf := func(h *mixedHalf, sign int32, acc []int32) {
		p := 0
		for o := 0; o < e.Out; o++ {
			var sum int32
			for k := 0; k < h.Counts[o]; k++ {
				sum += x[h.Indices[p]]
				p++
			}
			acc[o] += sign * sum
		}
	}
	for o := range y {
		y[o] = 0
	}
	applyHalf(&e.Pos, 1, y)
	applyHalf(&e.Neg, -1, y)
}

// SizeBytes implements Encoder.
func (e *Mixed) SizeBytes() int {
	n := (len(e.Pos.Indices) + len(e.Neg.Indices)) * e.IdxWidth
	n += (len(e.Pos.Counts) + len(e.Neg.Counts)) * e.CountWidth
	return n
}

// Decode implements Encoder.
func (e *Mixed) Decode() *Matrix {
	m := NewMatrix(e.In, e.Out)
	decodeHalf := func(h *mixedHalf, v int8) {
		p := 0
		for o := 0; o < e.Out; o++ {
			for k := 0; k < h.Counts[o]; k++ {
				m.Set(o, h.Indices[p], v)
				p++
			}
		}
	}
	decodeHalf(&e.Pos, 1)
	decodeHalf(&e.Neg, -1)
	return m
}
