package modelimg_test

import (
	"bytes"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// allCandidates is every per-layer encoding, enumerated exhaustively
// here. It keeps the unrolled factors the search no longer probes, so
// TestAutoSearchNeverDominated checks the narrowed search against the
// full space.
func allCandidates() []LayerEncoding {
	return []LayerEncoding{
		{Choice: UseBlock}, {Choice: UseCSC}, {Choice: UseDelta}, {Choice: UseMixed},
		{Choice: UseUnrolled, Factor: 1}, {Choice: UseUnrolled, Factor: 2}, {Choice: UseUnrolled, Factor: 4},
	}
}

// TestUnrolledFourDominates pins the fact that lets the search probe
// only unrolled/4: on seeded random layers, its one-layer probe (the
// image the search prices) never has a larger WCET at SearchWaitStates
// or larger layer flash than unrolled/1 or /2. Where both tie, the two
// images are byte-identical, so dropping the narrower factor cannot
// change which image the search deploys.
func TestUnrolledFourDominates(t *testing.T) {
	r := rng.New(16)
	n := 48
	if testing.Short() {
		n = 12
	}
	probe := func(l *quant.Layer, factor int) (*Image, uint64, bool) {
		m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{l}}
		img, err := BuildOpts(m, BuildOptions{PerLayer: []LayerEncoding{{Choice: UseUnrolled, Factor: factor}}})
		if err != nil {
			if _, ok := err.(*ErrNotDeployable); ok {
				return nil, 0, false
			}
			t.Fatalf("%dx%d unrolled/%d: %v", l.In, l.Out, factor, err)
		}
		w, err := img.Cert.WCET("entry", SearchWaitStates)
		if err != nil {
			t.Fatalf("%dx%d unrolled/%d WCET: %v", l.In, l.Out, factor, err)
		}
		return img, w, true
	}
	compared := 0
	for k := 0; k < n; k++ {
		in, out := 5+r.Intn(396), 1+r.Intn(64)
		if k < 6 {
			out = 1 + k%3 // the edge shapes: one group, or a partial one
		}
		density := 0.02 + 0.68*r.Float64()
		l := randTernaryLayer(r, in, out, density, k%2 == 0, true)
		img4, w4, ok4 := probe(l, 4)
		for _, f := range []int{1, 2} {
			img, w, ok := probe(l, f)
			if !ok {
				continue
			}
			if !ok4 {
				t.Fatalf("%dx%d at %.0f%%: unrolled/%d deploys but unrolled/4 does not", in, out, 100*density, f)
			}
			f4, ff := img4.Layers[0].FlashBytes, img.Layers[0].FlashBytes
			if w4 > w || f4 > ff {
				t.Errorf("%dx%d at %.0f%%: unrolled/4 (%d cycles, %d bytes) loses to unrolled/%d (%d cycles, %d bytes)",
					in, out, 100*density, w4, f4, f, w, ff)
			}
			if w4 == w && f4 == ff && !bytes.Equal(img4.Prog.Code, img.Prog.Code) {
				t.Errorf("%dx%d at %.0f%%: unrolled/4 ties unrolled/%d with a different image", in, out, 100*density, f)
			}
			compared++
		}
	}
	if compared < n {
		t.Fatalf("only %d comparisons over %d layers deployed; the test is not exercising the space", compared, n)
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
