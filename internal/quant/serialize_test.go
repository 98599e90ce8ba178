package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/rng"
)

func randSerModel(seed uint64) *Model {
	r := rng.New(seed)
	a := encoding.NewMatrix(37, 19)
	for o := 0; o < 19; o++ {
		for i := 0; i < 37; i++ {
			if r.Bool(0.2) {
				if r.Bool(0.5) {
					a.Set(o, i, 1)
				} else {
					a.Set(o, i, -1)
				}
			}
		}
	}
	tern := &Layer{
		Kind: Ternary, In: 37, Out: 19, A: a, PerNeuron: true, ReLU: true,
		PreShift: 1, PostShift: 9,
		Mults: make([]int32, 19), Bias: make([]int32, 19),
	}
	for i := range tern.Mults {
		tern.Mults[i] = int32(r.Intn(400)) - 200
		tern.Bias[i] = int32(r.Intn(100)) - 50
	}
	dense := &Layer{
		Kind: DenseK, In: 19, Out: 7, W: make([]int8, 19*7),
		PreShift: 3, PostShift: 8, Mults: []int32{321}, Bias: make([]int32, 7),
	}
	for i := range dense.W {
		dense.W[i] = int8(r.Intn(255) - 127)
	}
	return &Model{InputScale: 127, Layers: []*Layer{tern, dense}}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := randSerModel(1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Behavioural equality: identical outputs on random inputs.
	r := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		in := make([]int8, 37)
		for i := range in {
			in[i] = int8(r.Intn(255) - 127)
		}
		a := m.Infer(in)
		b := loaded.Infer(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: outputs differ at %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
	// Structural equality of key fields.
	for li := range m.Layers {
		a, b := m.Layers[li], loaded.Layers[li]
		if a.Kind != b.Kind || a.In != b.In || a.Out != b.Out ||
			a.ReLU != b.ReLU || a.PerNeuron != b.PerNeuron ||
			a.PreShift != b.PreShift || a.PostShift != b.PostShift {
			t.Fatalf("layer %d metadata mismatch", li)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("NCQ1"), // truncated
		append([]byte("NCQ1"), bytes.Repeat([]byte{0xff}, 16)...), // bad scale
	}
	for i, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestLoadRejectsTruncatedLayer(t *testing.T) {
	m := randSerModel(2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Error("truncated model accepted")
	}
}

// TestLoadRejectsMisChainedLayers pins that a file whose layer widths
// do not chain (Layers[i].Out != Layers[i+1].In) fails at load rather
// than loading cleanly and panicking in Infer. The root package's
// TestSaveLoadDeployment asserts the same of LoadDeployment.
func TestLoadRejectsMisChainedLayers(t *testing.T) {
	m := randSerModel(3)
	m.Layers = []*Layer{m.Layers[0], m.Layers[0]} // 37->19, then 37->19
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("mis-chained model accepted")
	}
}

func TestPackTernaryRoundTrip(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		in := r.Intn(40) + 1
		out := r.Intn(20) + 1
		a := encoding.NewMatrix(in, out)
		for i := range a.W {
			a.W[i] = int8(r.Intn(3) - 1)
		}
		b, err := unpackTernary(packTernary(a), in, out)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.W {
			if a.W[i] != b.W[i] {
				t.Fatalf("trial %d: entry %d: %d vs %d", trial, i, a.W[i], b.W[i])
			}
		}
	}
}

func TestSaveLoadStripPerNeuron(t *testing.T) {
	// A stripped model (single multiplier) must also round-trip.
	m := StripPerNeuron(randSerModel(4))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Layers[0].PerNeuron || len(loaded.Layers[0].Mults) != 1 {
		t.Error("stripped multiplier table not preserved")
	}
}

// layerHeader is one serialized layer header: kind, flags, shifts and
// dims, as loadLayer reads them.
func layerHeader(kind Kind, flags, pre, post uint8, in, out uint32) []byte {
	h := []byte{uint8(kind), flags, pre, post}
	h = binary.LittleEndian.AppendUint32(h, in)
	return binary.LittleEndian.AppendUint32(h, out)
}

// modelHeader is the file header of a one-layer model.
func modelHeader() []byte {
	h := []byte(magic)
	h = binary.LittleEndian.AppendUint64(h, math.Float64bits(127))
	return binary.LittleEndian.AppendUint32(h, 1)
}

// TestLoadBoundsAllocations pins that a header promising a huge table
// fails at the device limits or at the end of the input, without
// allocating what it promised.
func TestLoadBoundsAllocations(t *testing.T) {
	cases := map[string][]byte{
		"dense 65536x65536": layerHeader(DenseK, 0, 0, 0, 1<<16, 1<<16),
		"ternary 8000x8000": layerHeader(Ternary, 0, 0, 0, 8000, 8000),
		"dense 400x300":     layerHeader(DenseK, 0, 0, 0, 400, 300),
		"ternary 16000x300": layerHeader(Ternary, 0, 0, 0, 16000, 300),
	}
	for name, hdr := range cases {
		data := append(modelHeader(), hdr...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: header without its table accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting it allocated %d bytes", name, grew)
		}
	}
}

// TestLoadRejectsOutOfRangeFields covers the fields Save never writes:
// shifts past the kernels' ASRS range, undefined flag bits, a
// multiplier table that does not match the per-neuron flag, nonzero
// padding after the packed adjacency, and a non-finite input scale.
func TestLoadRejectsOutOfRangeFields(t *testing.T) {
	save := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := save(randSerModel(5))
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	const layer0 = 16 // magic, input scale, layer count
	mutate := map[string]func(b []byte) []byte{
		"pre shift 32":   func(b []byte) []byte { b[layer0+2] = 32; return b },
		"post shift 255": func(b []byte) []byte { b[layer0+3] = 255; return b },
		"flag bit 2":     func(b []byte) []byte { b[layer0+1] |= 4; return b },
		"input scale +Inf": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:], math.Float64bits(math.Inf(1)))
			return b
		},
		"padding bits": func(b []byte) []byte {
			// 37×19 = 703 entries: the last packed byte holds 3 of them.
			b[layer0+12+(37*19+3)/4-1] |= 0xc0
			return b
		},
		"per-neuron with one multiplier": func(b []byte) []byte {
			m := randSerModel(5)
			m.Layers[0].Mults = m.Layers[0].Mults[:1]
			return save(m)
		},
		"per-layer with a table": func(b []byte) []byte {
			m := randSerModel(5)
			m.Layers[1].Mults = make([]int32, m.Layers[1].Out)
			return save(m)
		},
	}
	for name, f := range mutate {
		data := f(append([]byte(nil), good...))
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzLoad: Load never panics, and a model it accepts is exactly what
// Save writes back (so it round-trips) and runs through Infer.
func FuzzLoad(f *testing.F) {
	for _, m := range []*Model{randSerModel(1), StripPerNeuron(randSerModel(2))} {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(append(modelHeader(), layerHeader(DenseK, 0, 0, 0, 1<<16, 1<<16)...))
	f.Add([]byte("NCQ1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		if saved := buf.Bytes(); !bytes.HasPrefix(data, saved) {
			t.Fatalf("Save wrote %d bytes that differ from the %d it loaded from", len(saved), len(data))
		}
		again, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		m.Infer(make([]int8, m.Layers[0].In))
		again.Infer(make([]int8, again.Layers[0].In))
	})
}
