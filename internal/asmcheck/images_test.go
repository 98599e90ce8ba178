package asmcheck_test

import (
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// ternaryLayer is a seeded In x Out ternary layer at the given density.
func ternaryLayer(r *rng.RNG, in, out int, density float64, perNeuron, relu bool) *quant.Layer {
	a := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				w := int8(1)
				if r.Bool(0.5) {
					w = -1
				}
				a.Set(o, i, w)
			}
		}
	}
	l := &quant.Layer{
		Kind: quant.Ternary, In: in, Out: out, A: a,
		PerNeuron: perNeuron, ReLU: relu, PostShift: 7,
		Mults: []int32{90}, Bias: make([]int32, out),
	}
	if perNeuron {
		l.Mults = make([]int32, out)
		for o := range l.Mults {
			l.Mults[o] = int32(r.Intn(200)) - 36
		}
	}
	for o := range l.Bias {
		l.Bias[o] = int32(r.Intn(21)) - 10
	}
	return l
}

// denseLayer is a seeded int8 dense layer.
func denseLayer(r *rng.RNG, in, out int, relu bool) *quant.Layer {
	l := &quant.Layer{
		Kind: quant.DenseK, In: in, Out: out, W: make([]int8, in*out),
		ReLU: relu, PreShift: 4, PostShift: 8,
		Mults: []int32{700}, Bias: make([]int32, out),
	}
	for i := range l.W {
		l.W[i] = int8(r.Intn(255) - 127)
	}
	return l
}

// imageConfig is the checker configuration modelimg certifies img
// under.
func imageConfig(t testing.TB, img *modelimg.Image) asmcheck.Config {
	dataStart, err := img.Prog.Symbol("data_start")
	if err != nil {
		t.Fatal(err)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = modelimg.StackReserve
	cfg.CodeLimit = dataStart
	cfg.Roots = []string{"entry"}
	if _, ok := img.Prog.Symbols["systick_handler"]; ok {
		cfg.ISRRoots = []string{"systick_handler"}
	}
	if img.Telemetry {
		cfg.PeriphBase, cfg.PeriphSize = armv6m.TimerBase, armv6m.TimerSize
	}
	return cfg
}

// TestCFGMatchesOracle checks the dense CFG builder against the
// map-based oracle it replaced on every image of three seeded models
// under all eight encodings and the telemetry, ISR and IRQ-masking
// build options, on every `asmcheck -kernels` harness, and on the
// FuzzCheck seeds.
func TestCFGMatchesOracle(t *testing.T) {
	r := rng.New(11)
	models := []*quant.Model{
		{InputScale: 127, Layers: []*quant.Layer{
			ternaryLayer(r, 120, 48, 0.15, true, true),
			ternaryLayer(r, 48, 10, 0.3, false, false),
		}},
		{InputScale: 127, Layers: []*quant.Layer{
			ternaryLayer(r, 40, 24, 0.3, false, true),
			denseLayer(r, 24, 16, true),
			ternaryLayer(r, 16, 12, 0.5, true, true),
			ternaryLayer(r, 12, 5, 0.4, true, false),
		}},
		{InputScale: 127, Layers: []*quant.Layer{
			ternaryLayer(r, 400, 32, 0.06, true, true),
			ternaryLayer(r, 32, 10, 0.25, false, false),
		}},
	}
	every := func(m *quant.Model, le modelimg.LayerEncoding) []modelimg.LayerEncoding {
		encs := make([]modelimg.LayerEncoding, len(m.Layers))
		for i := range encs {
			encs[i] = le
		}
		return encs
	}
	n := 0
	for mi, m := range models {
		var opts []modelimg.BuildOptions
		for _, e := range []modelimg.EncodingChoice{modelimg.UseBlock, modelimg.UseCSC, modelimg.UseDelta, modelimg.UseMixed, modelimg.UseAuto} {
			opts = append(opts, modelimg.BuildOptions{Encoding: e},
				modelimg.BuildOptions{Encoding: e, Telemetry: true},
				modelimg.BuildOptions{Encoding: e, ISRWorkLoops: 300, MaskIRQDuringInference: true})
		}
		for _, f := range []int{1, 2, 4} {
			encs := every(m, modelimg.LayerEncoding{Choice: modelimg.UseUnrolled, Factor: f})
			opts = append(opts, modelimg.BuildOptions{PerLayer: encs},
				modelimg.BuildOptions{PerLayer: encs, Telemetry: true, ISRWorkLoops: 20})
		}
		for _, o := range opts {
			img, err := modelimg.BuildOpts(m, o)
			if err != nil {
				t.Fatalf("model %d %+v: %v", mi, o, err)
			}
			if err := asmcheck.CFGParity(img.Prog, imageConfig(t, img)); err != nil {
				t.Errorf("model %d %v (telemetry %v, isr %d): %v", mi, img.Encodings, o.Telemetry, o.ISRWorkLoops, err)
			}
			n++
		}
	}
	for _, v := range kernels.Variants() {
		p, err := thumb.Assemble(v.Harness, armv6m.FlashBase)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		cfg := asmcheck.DefaultConfig()
		cfg.Strict = true
		cfg.StackBudget = 1024
		if desc, err := p.Symbol("desc"); err == nil {
			cfg.CodeLimit = desc
		}
		if err := asmcheck.CFGParity(p, cfg); err != nil {
			t.Errorf("kernel %s: %v", v.Name, err)
		}
		n++
	}
	for i, code := range asmcheck.CheckSeeds(t) {
		p, cfg := asmcheck.RawProgram(code)
		if err := asmcheck.CFGParity(p, cfg); err != nil {
			t.Errorf("fuzz seed %d: %v", i, err)
		}
		n++
	}
	t.Logf("%d programs match the oracle", n)
}

// BenchmarkCertify times Certify on two one-layer images of the MNIST
// first layer (784->128, 14% dense): the unrolled/4 probe the encoding
// search builds, and the block-encoded image.
func BenchmarkCertify(b *testing.B) {
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{
		ternaryLayer(rng.New(1), 784, 128, 0.14, true, false),
	}}
	for _, le := range []modelimg.LayerEncoding{
		{Choice: modelimg.UseUnrolled, Factor: 4},
		{Choice: modelimg.UseBlock},
	} {
		img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{PerLayer: []modelimg.LayerEncoding{le}})
		if err != nil {
			b.Fatal(err)
		}
		cfg := imageConfig(b, img)
		b.Run(fmt.Sprint(le), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := asmcheck.Certify(img.Prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
