package modelimg_test

import (
	"testing"

	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/device"
	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// Cross-validation of the static analyzer against the emulator: for
// every encoding, the statically derived stack and cycle bounds must
// dominate what the device actually does. A bound below an observed
// value is a soundness bug in asmcheck or the certificate evaluator,
// not a tolerance issue. Each case also logs the bound over the
// measured cycles; the MNIST-sized "mnist-" cases give the figures
// docs/ASMCHECK.md cites:
//
//	go test -v -run TestStaticBoundsDominateObserved ./internal/modelimg
func TestStaticBoundsDominateObserved(t *testing.T) {
	r := rng.New(1234)
	ternary := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 40, 24, 0.25, true, true),
			randTernaryLayer(r, 24, 10, 0.35, false, false),
		},
	}
	dense := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randDenseLayer(r, 32, 16, true),
			randDenseLayer(r, 16, 8, false),
		},
	}
	r = rng.New(7)
	ternary784 := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 784, 128, 0.08, true, true),
			randTernaryLayer(r, 128, 48, 0.15, true, true),
			randTernaryLayer(r, 48, 10, 0.30, false, false),
		},
	}
	dense784 := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randDenseLayer(r, 784, 32, true),
			randDenseLayer(r, 32, 10, false),
		},
	}
	cases := []struct {
		name  string
		model *quant.Model
		enc   EncodingChoice
	}{
		{"block", ternary, UseBlock},
		{"csc", ternary, UseCSC},
		{"delta", ternary, UseDelta},
		{"mixed", ternary, UseMixed},
		{"dense", dense, UseBlock},
		{"mnist-block", ternary784, UseBlock},
		{"mnist-csc", ternary784, UseCSC},
		{"mnist-delta", ternary784, UseDelta},
		{"mnist-mixed", ternary784, UseMixed},
		{"mnist-unrolled", ternary784, UseUnrolled},
		{"mnist-dense", dense784, UseBlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, err := Build(tc.model, tc.enc)
			if err != nil {
				t.Fatal(err)
			}
			if img.Check == nil || !img.Check.OK() {
				t.Fatalf("image shipped without a passing check: %+v", img.Check)
			}
			if img.Check.CycleBound == asmcheck.Unbounded {
				t.Fatal("cycle bound is unbounded on a fully annotated image")
			}
			// One cycle engine: the checker's bound is the certificate's
			// WCET, not a second model of its own.
			wcet, err := img.Cert.WCET("entry", 0)
			if err != nil {
				t.Fatal(err)
			}
			if img.Check.CycleBound != wcet || img.Cert.WCETCycles != wcet {
				t.Fatalf("check bound %d, wcet_cycles %d, WCET(entry) %d: want one number",
					img.Check.CycleBound, img.Cert.WCETCycles, wcet)
			}
			dev, err := device.New(img)
			if err != nil {
				t.Fatal(err)
			}
			in := rng.New(99)
			for trial := 0; trial < 3; trial++ {
				res, err := dev.RunProfiled(randInput(in, tc.model.Layers[0].In))
				if err != nil {
					t.Fatal(err)
				}
				if res.StackPeakBytes == 0 {
					t.Fatal("profiler observed zero stack usage; high-water tracking broken")
				}
				if uint32(img.Check.StackBound) < res.StackPeakBytes {
					t.Errorf("static stack bound %d < observed peak %d bytes",
						img.Check.StackBound, res.StackPeakBytes)
				}
				if img.Check.CycleBound < res.Cycles {
					t.Errorf("static cycle bound %d < measured %d cycles",
						img.Check.CycleBound, res.Cycles)
				}
				if trial == 0 {
					t.Logf("cycle bound %d, measured %d: %.2fx", img.Check.CycleBound, res.Cycles,
						float64(img.Check.CycleBound)/float64(res.Cycles))
				}
			}
		})
	}
}

// The same dominance must hold when a SysTick ISR preempts inference at
// the worst possible moment.
func TestStaticBoundsDominateObservedWithISR(t *testing.T) {
	r := rng.New(77)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 40, 24, 0.25, true, true),
			randTernaryLayer(r, 24, 10, 0.35, true, false),
		},
	}
	img, err := BuildOpts(m, BuildOptions{Encoding: UseBlock, ISRWorkLoops: 300})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	dev.ArmSysTick(5000) // fire often enough to land mid-kernel, rarely enough to make progress
	res, err := dev.RunProfiled(randInput(rng.New(5), m.Layers[0].In))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(img.Check.StackBound) < res.StackPeakBytes {
		t.Errorf("static stack bound %d < observed peak %d bytes with ISR",
			img.Check.StackBound, res.StackPeakBytes)
	}
	// The ISR contribution (32-byte hardware frame) must be part of the
	// bound.
	if img.Check.StackBound < 32 {
		t.Errorf("stack bound %d does not account for the exception frame", img.Check.StackBound)
	}
}
