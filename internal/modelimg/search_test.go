package modelimg_test

import (
	"bytes"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// allCandidates is the per-layer search space the auto search draws
// from, mirrored here for exhaustive enumeration.
func allCandidates() []LayerEncoding {
	return []LayerEncoding{
		{Choice: UseBlock}, {Choice: UseCSC}, {Choice: UseDelta}, {Choice: UseMixed},
		{Choice: UseUnrolled, Factor: 1}, {Choice: UseUnrolled, Factor: 2}, {Choice: UseUnrolled, Factor: 4},
	}
}

func searchTestModel() *quant.Model {
	r := rng.New(97)
	return &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 24, 12, 0.15, true, true),
			randTernaryLayer(r, 12, 8, 0.3, false, false),
		},
	}
}

// TestAutoSearchNeverDominated is the acceptance gate for the encoding
// search: against a full exhaustive enumeration of every per-layer
// combination (really built, priced with the certificate WCET the
// search itself uses), the auto choice must be Pareto-optimal — no
// deployable combination is strictly faster, and none is equally fast
// yet smaller.
func TestAutoSearchNeverDominated(t *testing.T) {
	m := searchTestModel()
	img, err := Build(m, UseAuto)
	if err != nil {
		t.Fatalf("auto build: %v", err)
	}
	gotW, err := img.Cert.WCET("entry", SearchWaitStates)
	if err != nil {
		t.Fatalf("auto image WCET: %v", err)
	}
	gotF := img.TotalBytes()

	cands := allCandidates()
	checked := 0
	for _, c0 := range cands {
		for _, c1 := range cands {
			alt, err := BuildOpts(m, BuildOptions{PerLayer: []LayerEncoding{c0, c1}})
			if err != nil {
				if _, ok := err.(*ErrNotDeployable); ok {
					continue
				}
				t.Fatalf("combo %v/%v: %v", c0, c1, err)
			}
			w, err := alt.Cert.WCET("entry", SearchWaitStates)
			if err != nil {
				t.Fatalf("combo %v/%v WCET: %v", c0, c1, err)
			}
			checked++
			if w < gotW {
				t.Errorf("combo %v/%v is faster than the search choice %v: %d < %d cycles",
					c0, c1, img.Encodings, w, gotW)
			}
			if w == gotW && alt.TotalBytes() < gotF {
				t.Errorf("combo %v/%v matches the search choice %v at %d cycles but is smaller: %d < %d bytes",
					c0, c1, img.Encodings, w, alt.TotalBytes(), gotF)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d/49 combinations were deployable; enumeration is not exercising the space", checked)
	}

	// The searched image must also be functionally correct.
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for trial := 0; trial < 5; trial++ {
		in := randInput(r, m.Layers[0].In)
		want := m.Infer(in)
		res, err := dev.Run(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(int8Bytes(res.Output), int8Bytes(want)) {
			t.Fatalf("trial %d: searched image output diverges from reference", trial)
		}
	}
}

// The searched mix must round-trip: rebuilding with PerLayer set to the
// reported Encodings reproduces the image bit for bit — the property
// deploy's telemetry twin builds rely on.
func TestSearchEncodingsRoundTrip(t *testing.T) {
	m := searchTestModel()
	img, err := Build(m, UseAuto)
	if err != nil {
		t.Fatal(err)
	}
	again, err := BuildOpts(m, BuildOptions{PerLayer: img.Encodings})
	if err != nil {
		t.Fatalf("rebuild from Encodings %v: %v", img.Encodings, err)
	}
	if !bytes.Equal(img.Prog.Code, again.Prog.Code) {
		t.Fatalf("PerLayer=%v rebuild is not bit-identical to the searched image", img.Encodings)
	}
}

// An explicit per-layer mix (unrolled + block) must deploy, match the
// reference bit for bit, and report coherent per-layer metadata.
func TestPerLayerMixedEncodings(t *testing.T) {
	m := searchTestModel()
	mix := []LayerEncoding{{Choice: UseUnrolled, Factor: 2}, {Choice: UseBlock}}
	img, err := BuildOpts(m, BuildOptions{PerLayer: mix})
	if err != nil {
		t.Fatalf("mixed build: %v", err)
	}
	if img.Layers[0].Encoding != "unrolled/2" || img.Layers[1].Encoding != "block" {
		t.Errorf("layer encodings %q/%q, want unrolled/2 and block",
			img.Layers[0].Encoding, img.Layers[1].Encoding)
	}
	sum := 0
	for _, li := range img.Layers {
		if li.FlashBytes <= 0 {
			t.Errorf("layer %d has non-positive FlashBytes %d", li.Index, li.FlashBytes)
		}
		sum += li.FlashBytes
	}
	// Per-layer attribution covers kernels and tables; only the vector
	// table and entry sequence are unattributed.
	if sum <= 0 || sum >= img.TotalBytes() {
		t.Errorf("per-layer flash sum %d out of range (image %d bytes)", sum, img.TotalBytes())
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for trial := 0; trial < 5; trial++ {
		in := randInput(r, m.Layers[0].In)
		want := m.Infer(in)
		res, err := dev.Run(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(int8Bytes(res.Output), int8Bytes(want)) {
			t.Fatalf("trial %d: mixed-encoding output diverges from reference", trial)
		}
	}
}

// ParseEncoding must cover every deployable choice and reject junk.
func TestParseEncoding(t *testing.T) {
	for _, name := range []string{"block", "csc", "delta", "mixed", "unrolled", "auto"} {
		e, err := ParseEncoding(name)
		if err != nil {
			t.Errorf("ParseEncoding(%q): %v", name, err)
		}
		if e.String() != name {
			t.Errorf("ParseEncoding(%q) = %v", name, e)
		}
	}
	if _, err := ParseEncoding("sparse"); err == nil {
		t.Error("ParseEncoding accepted an unknown name")
	}
}

func int8Bytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
	return b
}
