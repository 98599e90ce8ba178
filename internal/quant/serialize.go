package quant

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/encoding"
)

// Serialization of quantized models: a small versioned binary format so
// trained deployments can be saved, shipped, and reloaded without
// retraining (the paper's export step). The format is independent of
// the adjacency encoding choice — the dense ternary matrix is stored
// 2 bits per entry and re-encoded at image-build time.
//
// Layout (little endian):
//
//	magic "NCQ1" | inputScale f64 | layerCount u32 | layers...
//
// per layer:
//
//	kind u8 | flags u8 (bit0 relu, bit1 perNeuron) | pre u8 | post u8
//	in u32 | out u32
//	Ternary: packed adjacency (2 bits/entry, row-major by output)
//	Dense:   weights in*out int8
//	multCount u32 | mults int16[] | bias int16[out]
//
// Load accepts only what Save writes and the device can hold: a layer's
// input and output buffers must fit SRAM together, a dense layer's
// weights must fit flash, shifts are 0-31 (the kernels' ASRS range),
// and undefined flag bits and the packed adjacency's padding bits are
// zero. It reads each table before allocating its in-memory form, so
// an allocation is bounded both by those limits and by the bytes the
// input actually holds.
const magic = "NCQ1"

// maxShift is the largest pre- or post-shift the kernels implement.
const maxShift = 31

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(m.InputScale)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.Layers))); err != nil {
		return err
	}
	for i, l := range m.Layers {
		if err := l.save(bw); err != nil {
			return fmt.Errorf("quant: saving layer %d: %w", i, err)
		}
	}
	return bw.Flush()
}

func (l *Layer) save(w io.Writer) error {
	flags := uint8(0)
	if l.ReLU {
		flags |= 1
	}
	if l.PerNeuron {
		flags |= 2
	}
	hdr := []uint8{uint8(l.Kind), flags, uint8(l.PreShift), uint8(l.PostShift)}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(l.In)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(l.Out)); err != nil {
		return err
	}
	switch l.Kind {
	case Ternary:
		packed := packTernary(l.A)
		if _, err := w.Write(packed); err != nil {
			return err
		}
	case DenseK:
		buf := make([]byte, len(l.W))
		for i, v := range l.W {
			buf[i] = byte(v)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %d", l.Kind)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(l.Mults))); err != nil {
		return err
	}
	for _, v := range l.Mults {
		if err := binary.Write(w, binary.LittleEndian, int16(v)); err != nil {
			return err
		}
	}
	for _, v := range l.Bias {
		if err := binary.Write(w, binary.LittleEndian, int16(v)); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("quant: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("quant: bad magic %q", head)
	}
	var scaleBits uint64
	if err := binary.Read(br, binary.LittleEndian, &scaleBits); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count == 0 || count > 64 {
		return nil, fmt.Errorf("quant: implausible layer count %d", count)
	}
	m := &Model{InputScale: math.Float64frombits(scaleBits)}
	if !(m.InputScale > 0) || math.IsInf(m.InputScale, 1) {
		return nil, fmt.Errorf("quant: bad input scale %v", m.InputScale)
	}
	for i := 0; i < int(count); i++ {
		l, err := loadLayer(br)
		if err != nil {
			return nil, fmt.Errorf("quant: loading layer %d: %w", i, err)
		}
		if i > 0 && l.In != m.Layers[i-1].Out {
			return nil, fmt.Errorf("quant: layer %d input width %d, but layer %d outputs %d", i, l.In, i-1, m.Layers[i-1].Out)
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

func loadLayer(r io.Reader) (*Layer, error) {
	hdr, err := readN(r, 12)
	if err != nil {
		return nil, err
	}
	if hdr[1]&^3 != 0 {
		return nil, fmt.Errorf("undefined flag bits %#02x", hdr[1])
	}
	l := &Layer{
		Kind:      Kind(hdr[0]),
		ReLU:      hdr[1]&1 != 0,
		PerNeuron: hdr[1]&2 != 0,
		PreShift:  uint(hdr[2]),
		PostShift: uint(hdr[3]),
	}
	if l.PreShift > maxShift || l.PostShift > maxShift {
		return nil, fmt.Errorf("shifts %d/%d outside 0-%d", l.PreShift, l.PostShift, maxShift)
	}
	in := binary.LittleEndian.Uint32(hdr[4:])
	out := binary.LittleEndian.Uint32(hdr[8:])
	if in == 0 || out == 0 || uint64(in)+uint64(out) > armv6m.SRAMSize {
		return nil, fmt.Errorf("dims %dx%d: the input and output buffers exceed the device's %d-byte SRAM", out, in, armv6m.SRAMSize)
	}
	l.In, l.Out = int(in), int(out)
	switch l.Kind {
	case Ternary:
		packed, err := readN(r, (l.In*l.Out+3)/4)
		if err != nil {
			return nil, err
		}
		if l.A, err = unpackTernary(packed, l.In, l.Out); err != nil {
			return nil, err
		}
	case DenseK:
		if l.In*l.Out > armv6m.FlashSize {
			return nil, fmt.Errorf("dense %dx%d weights exceed the device's %d-byte flash", l.Out, l.In, armv6m.FlashSize)
		}
		buf, err := readN(r, l.In*l.Out)
		if err != nil {
			return nil, err
		}
		l.W = make([]int8, len(buf))
		for i, b := range buf {
			l.W[i] = int8(b)
		}
	default:
		return nil, fmt.Errorf("unknown kind %d", l.Kind)
	}
	var multCount uint32
	if err := binary.Read(r, binary.LittleEndian, &multCount); err != nil {
		return nil, err
	}
	want := uint32(1)
	if l.PerNeuron {
		want = uint32(l.Out)
	}
	if multCount != want {
		return nil, fmt.Errorf("multiplier count %d, want %d for %d outputs (per-neuron %v)", multCount, want, l.Out, l.PerNeuron)
	}
	if l.Mults, err = readInt16s(r, int(multCount)); err != nil {
		return nil, err
	}
	if l.Bias, err = readInt16s(r, l.Out); err != nil {
		return nil, err
	}
	return l, nil
}

// readN reads exactly n bytes. Its buffer grows with the bytes read, so
// a header that promises more than the input holds fails at the end of
// the input without allocating what it promised.
func readN(r io.Reader, n int) ([]byte, error) {
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(buf) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf, nil
}

// readInt16s reads n little-endian int16 values, widened to int32.
func readInt16s(r io.Reader, n int) ([]int32, error) {
	buf, err := readN(r, 2*n)
	if err != nil {
		return nil, err
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(int16(binary.LittleEndian.Uint16(buf[2*i:])))
	}
	return vals, nil
}

// packTernary packs {-1,0,+1} entries 2 bits each (00=0, 01=+1, 10=-1).
func packTernary(a *encoding.Matrix) []byte {
	out := make([]byte, (len(a.W)+3)/4)
	for i, v := range a.W {
		var bits byte
		switch v {
		case 1:
			bits = 1
		case -1:
			bits = 2
		}
		out[i/4] |= bits << uint(2*(i%4))
	}
	return out
}

func unpackTernary(packed []byte, in, out int) (*encoding.Matrix, error) {
	a := encoding.NewMatrix(in, out)
	for i := range a.W {
		bits := packed[i/4] >> uint(2*(i%4)) & 3
		switch bits {
		case 0:
		case 1:
			a.W[i] = 1
		case 2:
			a.W[i] = -1
		default:
			return nil, fmt.Errorf("corrupt ternary entry at %d", i)
		}
	}
	if n := len(a.W); n%4 != 0 && packed[n/4]>>uint(2*(n%4)) != 0 {
		return nil, fmt.Errorf("nonzero padding bits after entry %d", n-1)
	}
	return a, nil
}
