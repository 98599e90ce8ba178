package modelimg_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// randTernaryLayer builds a random quantized ternary layer.
func randTernaryLayer(r *rng.RNG, in, out int, density float64, perNeuron, relu bool) *quant.Layer {
	a := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				if r.Bool(0.5) {
					a.Set(o, i, 1)
				} else {
					a.Set(o, i, -1)
				}
			}
		}
	}
	l := &quant.Layer{
		Kind: quant.Ternary, In: in, Out: out, A: a,
		PerNeuron: perNeuron, ReLU: relu,
		PreShift: 0, PostShift: 7,
		Bias: make([]int32, out),
	}
	if perNeuron {
		l.Mults = make([]int32, out)
		for o := range l.Mults {
			l.Mults[o] = int32(r.Intn(200)) - 100 + 64
		}
	} else {
		l.Mults = []int32{90}
	}
	for o := range l.Bias {
		l.Bias[o] = int32(r.Intn(21)) - 10
	}
	return l
}

// randDenseLayer builds a random quantized dense layer.
func randDenseLayer(r *rng.RNG, in, out int, relu bool) *quant.Layer {
	l := &quant.Layer{
		Kind: quant.DenseK, In: in, Out: out,
		W:    make([]int8, in*out),
		ReLU: relu, PreShift: 4, PostShift: 8,
		Mults: []int32{700},
		Bias:  make([]int32, out),
	}
	for i := range l.W {
		l.W[i] = int8(r.Intn(255) - 127)
	}
	for o := range l.Bias {
		l.Bias[o] = int32(r.Intn(31)) - 15
	}
	return l
}

func randInput(r *rng.RNG, n int) []int8 {
	x := make([]int8, n)
	for i := range x {
		x[i] = int8(r.Intn(255) - 127)
	}
	return x
}

// runBoth deploys the model and checks device output equals the Go
// reference on several random inputs.
func runBoth(t *testing.T, m *quant.Model, enc EncodingChoice, seed uint64) *device.Result {
	t.Helper()
	img, err := Build(m, enc)
	if err != nil {
		t.Fatalf("build(%v): %v", enc, err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	var last *device.Result
	for trial := 0; trial < 5; trial++ {
		in := randInput(r, m.Layers[0].In)
		want := m.Infer(in)
		res, err := dev.Run(in)
		if err != nil {
			t.Fatalf("run(%v) trial %d: %v", enc, trial, err)
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Fatalf("enc %v trial %d: out[%d] = %d, want %d\n(want %v\n got %v)",
					enc, trial, i, res.Output[i], want[i], want, res.Output)
			}
		}
		last = res
	}
	return last
}

func TestDeviceMatchesReferenceAllEncodings(t *testing.T) {
	r := rng.New(42)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 40, 24, 0.2, true, true),
			randTernaryLayer(r, 24, 10, 0.3, true, false),
		},
	}
	for _, enc := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed} {
		runBoth(t, m, enc, 7)
	}
}

func TestDeviceMatchesReferenceWideLayer(t *testing.T) {
	// Input wider than one block and wider than 8-bit indices: exercises
	// 16-bit index paths and multi-block traversal.
	r := rng.New(43)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 700, 30, 0.05, true, true),
			randTernaryLayer(r, 30, 5, 0.4, true, false),
		},
	}
	for _, enc := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed} {
		runBoth(t, m, enc, 8)
	}
}

func TestDeviceMatchesReferenceTNN(t *testing.T) {
	// Single-multiplier requant path (the TNN ablation).
	r := rng.New(44)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 64, 16, 0.15, false, true),
			randTernaryLayer(r, 16, 4, 0.5, false, false),
		},
	}
	runBoth(t, m, UseBlock, 9)
}

func TestDeviceMatchesReferenceDense(t *testing.T) {
	r := rng.New(45)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randDenseLayer(r, 32, 20, true),
			randDenseLayer(r, 20, 10, false),
		},
	}
	runBoth(t, m, UseBlock, 10)
}

func TestDeviceMatchesReferenceMixedKinds(t *testing.T) {
	// Ternary + dense layers in one model.
	r := rng.New(46)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 50, 20, 0.2, true, true),
			randDenseLayer(r, 20, 6, false),
		},
	}
	runBoth(t, m, UseBlock, 11)
}

func TestDeviceMatchesReferenceEdgeShapes(t *testing.T) {
	r := rng.New(47)
	cases := []*quant.Model{
		// Single output neuron.
		{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 16, 1, 0.5, true, false)}},
		// Single input.
		{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 1, 4, 1.0, true, false)}},
		// Very sparse (some outputs with zero connections).
		{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 30, 20, 0.02, true, false)}},
		// Exactly 256 inputs (one full block).
		{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 256, 8, 0.1, true, false)}},
		// 257 inputs (a full block plus a one-column block).
		{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 257, 8, 0.1, true, false)}},
	}
	for ci, m := range cases {
		for _, enc := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("case %d enc %v: panic %v", ci, enc, p)
					}
				}()
				runBoth(t, m, enc, uint64(100+ci))
			}()
		}
	}
}

func TestLatencyIsInputIndependent(t *testing.T) {
	// The paper's predictability claim: cycle count must not vary with
	// input data (branchless ReLU; saturation branches are the only
	// data-dependent control flow, and they cost the same either way on
	// the not-taken path... so compare across inputs that do not
	// saturate versus all-zero input).
	r := rng.New(48)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 64, 32, 0.2, true, true),
			randTernaryLayer(r, 32, 10, 0.3, true, false),
		},
	}
	img, err := Build(m, UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []uint64
	for trial := 0; trial < 4; trial++ {
		in := randInput(rng.New(uint64(trial)), 64)
		res, err := dev.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, res.Cycles)
	}
	min, max := cycles[0], cycles[0]
	for _, c := range cycles {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Allow only the saturation-branch jitter: a handful of cycles per
	// output neuron.
	if max-min > uint64(3*(32+10)) {
		t.Errorf("latency varies with input: %v", cycles)
	}
}

func TestSizeAccounting(t *testing.T) {
	r := rng.New(49)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 100, 20, 0.1, true, false)},
	}
	img, err := Build(m, UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	if img.CodeBytes+img.DataBytes != img.TotalBytes() {
		t.Errorf("code %d + data %d != total %d", img.CodeBytes, img.DataBytes, img.TotalBytes())
	}
	if img.CodeBytes < 100 || img.DataBytes < 100 {
		t.Errorf("implausible section sizes: code %d data %d", img.CodeBytes, img.DataBytes)
	}
}

func TestBlockEncodingSmallerImageThanCSCOnWideInput(t *testing.T) {
	// Fig. 5b's consequence at the image level.
	r := rng.New(50)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 700, 64, 0.1, true, false)},
	}
	blk, err := Build(m, UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	csc, err := Build(m, UseCSC)
	if err != nil {
		t.Fatal(err)
	}
	if blk.TotalBytes() >= csc.TotalBytes() {
		t.Errorf("block image %d >= csc image %d", blk.TotalBytes(), csc.TotalBytes())
	}
}

func TestNotDeployableOnOversizedModel(t *testing.T) {
	// A dense layer too big for 128 KB flash must be rejected.
	r := rng.New(51)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randDenseLayer(r, 784, 200, false)}, // ~157 KB of weights
	}
	_, err := Build(m, UseBlock)
	if err == nil {
		t.Fatal("oversized model was deployable")
	}
	if _, ok := err.(*ErrNotDeployable); !ok {
		t.Errorf("error type %T: %v", err, err)
	}
}

// A 784→128 layer with about 70,000 positive connections overflows the CSC
// encoding's 16-bit pointer table. Building it as CSC reports
// ErrNotDeployable naming the layer and the encoding instead of
// panicking, and the auto search drops the CSC probe and deploys the
// best remaining encoding.
func TestUnencodableLayerNotDeployable(t *testing.T) {
	r := rng.New(52)
	l := randTernaryLayer(r, 784, 128, 0, true, false)
	for i := range l.A.W {
		if r.Bool(0.7) {
			l.A.W[i] = 1
		}
	}
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{l}}
	_, err := Build(m, UseCSC)
	var nd *ErrNotDeployable
	var re *encoding.RangeError
	if !errors.As(err, &nd) || nd.What != "layer 0 as csc" || !errors.As(err, &re) || re.Table != "pointer" {
		t.Fatalf("csc build error %v, want ErrNotDeployable naming layer 0 and csc, wrapping a pointer RangeError", err)
	}
	img, err := Build(m, UseAuto)
	if err != nil {
		t.Fatalf("auto build: %v", err)
	}
	if enc := img.Layers[0].Encoding; enc == "csc" {
		t.Fatalf("auto deployed layer 0 as %s", enc)
	}
	if _, err := Build(m, UseBlock); err != nil {
		t.Fatalf("block build: %v", err)
	}
}

func TestEmptyModelRejected(t *testing.T) {
	if _, err := Build(&quant.Model{}, UseBlock); err == nil {
		t.Error("empty model accepted")
	}
}

func TestDeterministicCycles(t *testing.T) {
	r := rng.New(52)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 48, 16, 0.2, true, false)},
	}
	img, _ := Build(m, UseBlock)
	dev, _ := device.New(img)
	in := randInput(rng.New(1), 48)
	a, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestConvMatchesReference(t *testing.T) {
	for _, spec := range []ConvSpec{
		{N: 8, S: 3, K: 2, Seed: 1},
		{N: 16, S: 3, K: 4, Seed: 2},
		{N: 16, S: 5, K: 3, Seed: 3},
	} {
		ci, err := BuildConv(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		dev, err := device.New(&ci.Image)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(spec.Seed + 99)
		in := randInput(r, spec.N*spec.N)
		want := ci.RefConv(in)
		res, err := dev.Run(in)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Fatalf("%+v: out[%d] = %d, want %d", spec, i, res.Output[i], want[i])
			}
		}
	}
}

func TestConvSpecHelpers(t *testing.T) {
	spec := ConvSpec{N: 16, S: 3, K: 8}
	if spec.M() != 14 {
		t.Errorf("M = %d, want 14", spec.M())
	}
	if spec.MACCs() != 8*9*14*14 {
		t.Errorf("MACCs = %d", spec.MACCs())
	}
}

func TestConvRejectsBadSpec(t *testing.T) {
	if _, err := BuildConv(ConvSpec{N: 4, S: 8, K: 1}); err == nil {
		t.Error("S > N accepted")
	}
}

func TestInferenceCorrectUnderPreemption(t *testing.T) {
	// The paper's Sec. 4.1 requirement: inference state must survive
	// interrupt preemption. Outputs with an aggressive SysTick load must
	// be identical to the undisturbed run.
	r := rng.New(60)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 64, 32, 0.2, true, true),
			randTernaryLayer(r, 32, 10, 0.3, true, false),
		},
	}
	img, err := BuildOpts(m, BuildOptions{Encoding: UseBlock, ISRWorkLoops: 20})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(61), 64)
	quiet, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	dev.ArmSysTick(300) // preempt every 300 cycles
	noisy, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.Output {
		if quiet.Output[i] != noisy.Output[i] {
			t.Fatalf("out[%d] differs under preemption: %d vs %d", i, quiet.Output[i], noisy.Output[i])
		}
	}
	if dev.CPU.SysTick.Fires == 0 {
		t.Fatal("no preemptions occurred")
	}
	if noisy.Cycles <= quiet.Cycles {
		t.Error("interrupt load did not inflate latency")
	}
}

func TestMaskedInferenceDefersInterrupts(t *testing.T) {
	r := rng.New(70)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 64, 32, 0.2, true, false)},
	}
	build := func(mask bool) *device.Device {
		img, err := BuildOpts(m, BuildOptions{
			Encoding: UseBlock, ISRWorkLoops: 30, MaskIRQDuringInference: mask,
		})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := device.New(img)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	in := randInput(rng.New(71), 64)

	open := build(false)
	quiet, err := open.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	open.ArmSysTick(200)
	noisy, err := open.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Cycles <= quiet.Cycles+100 {
		t.Fatalf("unmasked run not inflated: %d vs %d", noisy.Cycles, quiet.Cycles)
	}

	masked := build(true)
	masked.ArmSysTick(200)
	res, err := masked.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// Masked: the pend bit holds a single deferred interrupt, which runs
	// after cpsie; depending on counter phase the timer may roll over
	// once more while that ISR drains, but never beyond that.
	if masked.CPU.SysTick.Fires > 2 {
		t.Errorf("masked run took %d interrupts", masked.CPU.SysTick.Fires)
	}
	// And latency stays near the quiet baseline (entry/exit + the ISR at
	// most twice).
	if res.Cycles > quiet.Cycles+1200 {
		t.Errorf("masked run inflated: %d vs quiet %d", res.Cycles, quiet.Cycles)
	}
	for i := range quiet.Output {
		if res.Output[i] != quiet.Output[i] {
			t.Fatalf("masked output differs at %d", i)
		}
	}
}

func TestListingDisassemblesCodeSection(t *testing.T) {
	r := rng.New(80)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 16, 4, 0.3, true, false)},
	}
	img, err := Build(m, UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	listing := img.Listing()
	for _, want := range []string{"bl ", "bkpt", "ldrsb", "muls", "push {r4, r5, r6, r7, lr}"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	// The data section must not be disassembled.
	if n := strings.Count(listing, "\n"); n > img.CodeBytes/2 {
		t.Errorf("listing has %d lines for %d code bytes", n, img.CodeBytes)
	}
}

func TestNotDeployableOnSRAMExhaustion(t *testing.T) {
	// A layer whose activation/accumulator buffers exceed the 16 KB
	// SRAM must be rejected even if it fits flash.
	r := rng.New(90)
	m := &quant.Model{
		InputScale: 127,
		Layers:     []*quant.Layer{randTernaryLayer(r, 4000, 2500, 0.001, true, false)},
	}
	_, err := Build(m, UseBlock)
	if err == nil {
		t.Fatal("SRAM-exhausting model was deployable")
	}
	nd, ok := err.(*ErrNotDeployable)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if nd.What != "SRAM buffers" {
		t.Errorf("ND reason = %q, want SRAM buffers", nd.What)
	}
}
