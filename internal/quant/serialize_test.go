package quant

import (
	"bytes"
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
