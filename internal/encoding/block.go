package encoding

import "fmt"

// DefaultBlockSize is the paper's block size: limiting blocks to 256
// inputs keeps every block-local index inside 8 bits by construction.
const DefaultBlockSize = 256

// blockHalf is one polarity of one input block: per-output counts and
// block-local indices.
type blockHalf struct {
	Counts  []int // len Out: nonzeros of each output inside this block
	Indices []int // block-local (0..BlockSize-1), concatenated per output
}

// block is the encoding of one input block for both polarities.
type block struct {
	Pos, Neg blockHalf
}

// Block is the block-partitioned encoding (paper Fig. 3, bottom right):
// the input space is divided into fixed-size blocks, each maintaining an
// independent encoding of positive and negative connections. Inference
// runs one pass per block, accumulating into the shared output buffer.
// It is the only scheme that guarantees 8-bit indices regardless of the
// layer shape, making it the most memory-efficient option (Fig. 5b).
type Block struct {
	In, Out   int
	BlockSize int
	Blocks    []block
	// CountWidth is the per-output count element width (1 or 2 bytes);
	// IdxWidth is always 1 by construction when BlockSize <= 256.
	CountWidth, IdxWidth int
}

// EncodeBlock builds the block representation of m with the given block
// size (0 selects DefaultBlockSize). Block sizes above 256 lose the
// 8-bit index guarantee and are rejected.
func EncodeBlock(m *Matrix, blockSize int) *Block {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 1 || blockSize > 256 {
		panic(fmt.Sprintf("encoding: block size %d outside 1..256", blockSize))
	}
	nBlocks := (m.In + blockSize - 1) / blockSize
	e := &Block{In: m.In, Out: m.Out, BlockSize: blockSize, Blocks: make([]block, nBlocks), IdxWidth: 1}
	maxCount := 0
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > m.In {
			hi = m.In
		}
		blk := &e.Blocks[b]
		blk.Pos.Counts = make([]int, m.Out)
		blk.Neg.Counts = make([]int, m.Out)
		for o := 0; o < m.Out; o++ {
			row := m.W[o*m.In : (o+1)*m.In]
			for i := lo; i < hi; i++ {
				switch row[i] {
				case 1:
					blk.Pos.Counts[o]++
					blk.Pos.Indices = append(blk.Pos.Indices, i-lo)
				case -1:
					blk.Neg.Counts[o]++
					blk.Neg.Indices = append(blk.Neg.Indices, i-lo)
				}
			}
			if blk.Pos.Counts[o] > maxCount {
				maxCount = blk.Pos.Counts[o]
			}
			if blk.Neg.Counts[o] > maxCount {
				maxCount = blk.Neg.Counts[o]
			}
		}
	}
	// A count is at most the block size (≤ 256), so it always fits.
	e.CountWidth, _ = widthFor("count", maxCount)
	return e
}

// Name implements Encoder.
func (e *Block) Name() string { return "block" }

// Apply implements Encoder: one accumulation pass per block.
func (e *Block) Apply(x, y []int32) {
	if len(x) != e.In || len(y) != e.Out {
		panic("encoding: Block.Apply length mismatch")
	}
	for o := range y {
		y[o] = 0
	}
	for b := range e.Blocks {
		base := b * e.BlockSize
		blk := &e.Blocks[b]
		applyHalf := func(h *blockHalf, sign int32) {
			p := 0
			for o := 0; o < e.Out; o++ {
				var sum int32
				for k := 0; k < h.Counts[o]; k++ {
					sum += x[base+h.Indices[p]]
					p++
				}
				y[o] += sign * sum
			}
		}
		applyHalf(&blk.Pos, 1)
		applyHalf(&blk.Neg, -1)
	}
}

// SizeBytes implements Encoder.
func (e *Block) SizeBytes() int {
	n := 0
	for i := range e.Blocks {
		blk := &e.Blocks[i]
		n += (len(blk.Pos.Counts) + len(blk.Neg.Counts)) * e.CountWidth
		n += (len(blk.Pos.Indices) + len(blk.Neg.Indices)) * e.IdxWidth
	}
	return n
}

// Decode implements Encoder.
func (e *Block) Decode() *Matrix {
	m := NewMatrix(e.In, e.Out)
	for b := range e.Blocks {
		base := b * e.BlockSize
		blk := &e.Blocks[b]
		decodeHalf := func(h *blockHalf, v int8) {
			p := 0
			for o := 0; o < e.Out; o++ {
				for k := 0; k < h.Counts[o]; k++ {
					m.Set(o, base+h.Indices[p], v)
					p++
				}
			}
		}
		decodeHalf(&blk.Pos, 1)
		decodeHalf(&blk.Neg, -1)
	}
	return m
}

// BlockView exposes one block's arrays for serialization (the struct
// fields themselves stay unexported to keep the encoding invariants).
type BlockView struct {
	PosCounts, PosIndices []int
	NegCounts, NegIndices []int
}

// Block returns a view of block i.
func (e *Block) Block(i int) BlockView {
	blk := &e.Blocks[i]
	return BlockView{
		PosCounts: blk.Pos.Counts, PosIndices: blk.Pos.Indices,
		NegCounts: blk.Neg.Counts, NegIndices: blk.Neg.Indices,
	}
}

// All returns the four encodings of m in the paper's presentation order,
// using the default block size, or the first encoder's *RangeError.
func All(m *Matrix) ([]Encoder, error) {
	csc, err := EncodeCSC(m)
	if err != nil {
		return nil, err
	}
	delta, err := EncodeDelta(m)
	if err != nil {
		return nil, err
	}
	mixed, err := EncodeMixed(m)
	if err != nil {
		return nil, err
	}
	return []Encoder{csc, delta, mixed, EncodeBlock(m, 0)}, nil
}
