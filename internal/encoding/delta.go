package encoding

// deltaHalf holds one polarity of the delta encoding: per-output nonzero
// counts, the absolute first index of each non-empty output, and the
// remaining connections as offsets from the previous index. Firsts and
// Deltas are stored separately so each can use its own element width —
// first indices span the whole input range while consecutive deltas are
// usually small, which is where the format's compression comes from.
type deltaHalf struct {
	Counts []int // len Out
	Firsts []int // one entry per output with Counts[o] > 0
	Deltas []int // Counts[o]-1 entries per non-empty output
}

// Delta is the delta-offset encoding (paper Fig. 3, bottom left, and the
// Fig. 4 traversal): traversal is pure pointer arithmetic — initialize a
// pointer at the absolute first index, then bump it by each stored
// offset — which makes it the lowest-latency scheme, but offsets are not
// guaranteed to fit 8 bits on sparse or irregular rows.
type Delta struct {
	In, Out  int
	Pos, Neg deltaHalf
	// Element widths (1 or 2 bytes) chosen from value ranges at encode
	// time: FirstWidth for the absolute first indices, DeltaWidth for
	// the offsets, CountWidth for the per-output counts.
	FirstWidth, DeltaWidth, CountWidth int
}

// EncodeDelta builds the delta representation of m.
func EncodeDelta(m *Matrix) *Delta {
	pos, neg := m.Rows()
	e := &Delta{In: m.In, Out: m.Out}
	maxFirst, maxDelta := 0, 0
	build := func(rows [][]int) deltaHalf {
		h := deltaHalf{Counts: make([]int, m.Out)}
		for o, r := range rows {
			h.Counts[o] = len(r)
			if len(r) == 0 {
				continue
			}
			h.Firsts = append(h.Firsts, r[0])
			if r[0] > maxFirst {
				maxFirst = r[0]
			}
			prev := r[0]
			for _, idx := range r[1:] {
				d := idx - prev
				h.Deltas = append(h.Deltas, d)
				if d > maxDelta {
					maxDelta = d
				}
				prev = idx
			}
		}
		return h
	}
	e.Pos = build(pos)
	e.Neg = build(neg)
	e.FirstWidth = widthFor(maxFirst)
	e.DeltaWidth = widthFor(maxDelta)
	maxCount := maxInt(e.Pos.Counts)
	if c := maxInt(e.Neg.Counts); c > maxCount {
		maxCount = c
	}
	e.CountWidth = widthFor(maxCount)
	return e
}

// Name implements Encoder.
func (e *Delta) Name() string { return "delta" }

// Apply implements Encoder using the Fig. 4 traversal: the running index
// is a pointer that advances by stored offsets.
func (e *Delta) Apply(x, y []int32) {
	if len(x) != e.In || len(y) != e.Out {
		panic("encoding: Delta.Apply length mismatch")
	}
	applyHalf := func(h *deltaHalf, sign int32, acc []int32) {
		f, p := 0, 0
		for o := 0; o < e.Out; o++ {
			n := h.Counts[o]
			if n == 0 {
				continue
			}
			idx := h.Firsts[f]
			f++
			sum := x[idx]
			for k := 1; k < n; k++ {
				idx += h.Deltas[p]
				p++
				sum += x[idx]
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
func (e *Delta) SizeBytes() int {
	n := (len(e.Pos.Firsts) + len(e.Neg.Firsts)) * e.FirstWidth
	n += (len(e.Pos.Deltas) + len(e.Neg.Deltas)) * e.DeltaWidth
	n += (len(e.Pos.Counts) + len(e.Neg.Counts)) * e.CountWidth
	return n
}

// Decode implements Encoder.
func (e *Delta) Decode() *Matrix {
	m := NewMatrix(e.In, e.Out)
	decodeHalf := func(h *deltaHalf, v int8) {
		f, p := 0, 0
		for o := 0; o < e.Out; o++ {
			n := h.Counts[o]
			if n == 0 {
				continue
			}
			idx := h.Firsts[f]
			f++
			m.Set(o, idx, v)
			for k := 1; k < n; k++ {
				idx += h.Deltas[p]
				p++
				m.Set(o, idx, v)
			}
		}
	}
	decodeHalf(&e.Pos, 1)
	decodeHalf(&e.Neg, -1)
	return m
}
