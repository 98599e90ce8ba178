package neuroc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/neuro-c/neuroc/internal/dataset"
)

// TestTrainingGolden pins the exact float result of training: the
// SHA-256 of every parameter's Float32bits after a short run, and of the
// quantized model's SaveModel bytes. The host kernels may change how
// they compute (sparse ternary products, skipped dead gradients), but
// never a single output bit, so any drift here is a behaviour change.
//
// The runs cover the learned strategy through its freeze phase (5
// epochs freeze the last one) with two hidden layers, so both the first
// layer and the input-gradient path of the later ternary layers train;
// a Random-strategy TNN layer (UseScale false, fixed adjacency); a
// dense MLP with dropout; and a learned model with a 784-input first
// layer on MNIST-like rows, wide enough that the optimizer splits its
// latent update across workers.
//
// The values hold for amd64 at the default GOAMD64=v1. Other targets
// may fuse x*y+z into one FMA instruction (the Go spec allows it),
// which rounds differently in the optimizer and the dense layers.
func TestTrainingGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	ds := Digits().Subsample(640, 80)
	wideCfg := dataset.MNIST()
	wideCfg.Train, wideCfg.Test = 384, 64
	wide := dataset.Generate(wideCfg)
	cases := []struct {
		name        string
		ds          *Dataset
		spec        ModelSpec
		params, ncq string
	}{
		{"learned-neuroc", ds, ModelSpec{Hidden: []int{32, 16}, Arch: ArchNeuroC, Seed: 5},
			"1d1e3d5542c7ddd68acab4411e7b13abef51d3f12cc36dd7ad061ebd12491876",
			"a1eb59cb5c7610511df48e738a2544590d68744aaba5f9309e1525cf6f304543"},
		{"random-tnn", ds, ModelSpec{Hidden: []int{16}, Arch: ArchTNN,
			Strategy: StrategyRandom, Sparsity: 0.25, Seed: 6},
			"c3e1fe488f351b16724ef260726bc461642c42658df27bb79e66da3c0d6e79f2",
			"522e5a83d99b61588738648394340a40695dde0d1282a7a6b86e9eb336f9267e"},
		{"mlp-dropout", ds, ModelSpec{Hidden: []int{16}, Arch: ArchMLP, Dropout: 0.1, Seed: 7},
			"ceacdeb0d4de35a1505f30b3714d10dd8850fbf2e8d062216b04f1fdbaabfd7b",
			"75c88149afc45862df1e0dcd45de0a26626959aedb38b2999d07ffdedcde5cf0"},
		{"learned-wide", wide, ModelSpec{Hidden: []int{128, 48}, Arch: ArchNeuroC, Seed: 8},
			"6a6977f5d043852fd5876df99ebcbc3b5425a8bf83f1e705a1136be4ff8477d7",
			"e83578f1143929edb38a7a2e2dde8b9d3c4120df6475c15aa87b42d2e5d5a3c8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			spec.InputDim, spec.NumClasses = c.ds.Dim(), c.ds.NumClasses
			m := NewModel(spec)
			m.Train(c.ds, TrainOptions{Epochs: 5})

			h := sha256.New()
			for _, p := range m.Net.Params() {
				for _, v := range p.Val.Data {
					binary.Write(h, binary.LittleEndian, math.Float32bits(v))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.params {
				t.Errorf("parameter hash %s, want %s", got, c.params)
			}

			dep, err := m.Deploy(c.ds, EncodingBlock)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dep.SaveModel(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.ncq {
				t.Errorf("SaveModel hash %s, want %s", got, c.ncq)
			}
		})
	}
}
