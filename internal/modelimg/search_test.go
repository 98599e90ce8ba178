package modelimg_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/neuro-c/neuroc/internal/armv6m"
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

// probedChoices are the candidates the search prices for every
// ternary layer, in its probe order.
var probedChoices = []LayerEncoding{
	{Choice: UseBlock}, {Choice: UseCSC}, {Choice: UseDelta}, {Choice: UseMixed},
	{Choice: UseUnrolled, Factor: DefaultUnrollFactor},
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

// pressureModel is a seeded model whose all-unrolled image overflows
// flash: a 700-749 input layer, then nTernary-1 narrower layers of
// 48-143 outputs.
func pressureModel(seed uint64, nTernary int, density float64) *quant.Model {
	r := rng.New(seed)
	m := &quant.Model{InputScale: 127}
	in := 700 + r.Intn(50)
	for k := 0; k < nTernary; k++ {
		out := 48 + r.Intn(96)
		m.Layers = append(m.Layers, randTernaryLayer(r, in, out, density, k%2 == 0, k < nTernary-1))
		in = out
	}
	return m
}

// randSearchModel is a seeded model with nTernary ternary layers of
// 2-63 outputs at 3-63% density, and in about a third of the seeds one
// dense layer among them.
func randSearchModel(seed uint64, nTernary int) *quant.Model {
	r := rng.New(seed)
	m := &quant.Model{InputScale: 127}
	in := 8 + r.Intn(120)
	dense := -1
	if r.Bool(0.3) {
		dense = r.Intn(nTernary + 1)
	}
	for k := 0; k <= nTernary; k++ {
		if k == dense {
			out := 4 + r.Intn(24)
			m.Layers = append(m.Layers, randDenseLayer(r, in, out, k < nTernary))
			in = out
		}
		if k == nTernary {
			break
		}
		out := 2 + r.Intn(62)
		m.Layers = append(m.Layers, randTernaryLayer(r, in, out, 0.03+0.6*r.Float64(), r.Bool(0.5), k < nTernary-1))
		in = out
	}
	return m
}

// checkAgainstOracle builds m with the auto search and with the oracle
// and requires the same per-layer encodings and the same image bytes.
func checkAgainstOracle(t *testing.T, name string, m *quant.Model) *Image {
	t.Helper()
	start := time.Now()
	img, err := Build(m, UseAuto)
	elapsed := time.Since(start)
	want, builds, werr := oracleSearch(t, m)
	if err != nil || werr != nil {
		t.Fatalf("%s: search error %v, oracle error %v", name, err, werr)
	}
	if !reflect.DeepEqual(img.Encodings, want.Encodings) || !bytes.Equal(img.Prog.Code, want.Prog.Code) {
		t.Fatalf("%s: search picks %v (%d bytes), oracle picks %v (%d bytes)",
			name, img.Encodings, img.TotalBytes(), want.Encodings, want.TotalBytes())
	}
	t.Logf("%s: %v, %d bytes; search %v, oracle %d builds", name, img.Encodings, img.TotalBytes(), elapsed, builds)
	return img
}

// TestSearchMatchesOracle is the exactness gate of the Pareto-frontier
// search: on seeded models with 1-6 ternary layers, and on 3-5 layer
// models whose all-unrolled image overflows flash, it deploys the image
// the exhaustive enumeration deploys, picks and bytes.
func TestSearchMatchesOracle(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for seed := uint64(1); seed <= 3; seed++ {
			checkAgainstOracle(t, fmt.Sprintf("%d ternary layers, seed %d", n, seed), randSearchModel(100*uint64(n)+seed, n))
		}
	}
	for _, c := range []struct {
		seed    uint64
		layers  int
		density float64
	}{{2, 3, 0.3}, {3, 4, 0.4}, {2, 5, 0.4}} {
		name := fmt.Sprintf("flash pressure, %d layers at %.0f%%, seed %d", c.layers, 100*c.density, c.seed)
		img := checkAgainstOracle(t, name, pressureModel(c.seed, c.layers, c.density))
		if !slices.ContainsFunc(img.Encodings, func(e LayerEncoding) bool { return e.Choice != UseUnrolled }) {
			t.Fatalf("%s: all-unrolled pick %v; the model is not under flash pressure", name, img.Encodings)
		}
	}
}

// TestSearchMatchesOracleSevenLayers checks the search past the six
// layers the old enumeration was capped at: seven small ternary layers,
// 78,125 combinations for the oracle to enumerate.
func TestSearchMatchesOracleSevenLayers(t *testing.T) {
	checkAgainstOracle(t, "7 ternary layers", randSearchModel(7, 7))
}

// TestSearchSevenLayerFlashPressure is the regression case for the
// greedy repair loop that used to search models with more than six
// ternary layers. On this 711-56-52-112-84-60-89-91 model it deployed
// delta + 6x unrolled/4; the exact search must deploy the oracle's
// pick, and that pick must beat the greedy one on whole-image WCET.
func TestSearchSevenLayerFlashPressure(t *testing.T) {
	m := pressureModel(11, 7, 0.4)
	img := checkAgainstOracle(t, "7-layer flash pressure", m)
	greedy := []LayerEncoding{{Choice: UseDelta}}
	for len(greedy) < 7 {
		greedy = append(greedy, LayerEncoding{Choice: UseUnrolled, Factor: DefaultUnrollFactor})
	}
	old, err := BuildOpts(m, BuildOptions{PerLayer: greedy})
	if err != nil {
		t.Fatalf("the greedy mix %v no longer deploys: %v", greedy, err)
	}
	w, err := img.Cert.WCET("entry", SearchWaitStates)
	if err != nil {
		t.Fatal(err)
	}
	oldW, err := old.Cert.WCET("entry", SearchWaitStates)
	if err != nil {
		t.Fatal(err)
	}
	if w >= oldW {
		t.Fatalf("search pick %v at %d WCET cycles does not beat the greedy mix %v at %d", img.Encodings, w, greedy, oldW)
	}
	t.Logf("search pick %d WCET cycles, greedy mix %d", w, oldW)
}

// TestSearchFlashBoundSound pins the soundness of the flash lower bound
// the search drops points by, unbuilt: for every combination of probed
// encodings of a small 3-layer model, the bound is at most the real
// image size.
func TestSearchFlashBoundSound(t *testing.T) {
	r := rng.New(41)
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{
		randTernaryLayer(r, 300, 24, 0.2, true, true),
		randTernaryLayer(r, 24, 40, 0.4, false, true),
		randTernaryLayer(r, 40, 10, 0.3, true, false),
	}}
	bound, err := SearchFlashLowerBound(m)
	if err != nil {
		t.Fatal(err)
	}
	minGap, maxGap, n := -1, 0, 0
	for _, c0 := range probedChoices {
		for _, c1 := range probedChoices {
			for _, c2 := range probedChoices {
				encs := []LayerEncoding{c0, c1, c2}
				img, err := BuildOpts(m, BuildOptions{PerLayer: encs})
				if err != nil {
					t.Fatalf("%v: %v", encs, err)
				}
				lb := bound(encs)
				gap := img.TotalBytes() - lb
				if gap < 0 {
					t.Errorf("%v: flash lower bound %d exceeds the real image, %d bytes, by %d", encs, lb, img.TotalBytes(), -gap)
				}
				if minGap < 0 || gap < minGap {
					minGap = gap
				}
				maxGap = max(maxGap, gap)
				n++
			}
		}
	}
	t.Logf("%d combinations: real image exceeds the bound by %d-%d bytes", n, minGap, maxGap)
}

// A layer that fits under no encoding reports its most compact
// candidate's own ErrNotDeployable, naming the layer, rather than an
// empty "needs 0 bytes, device has 0". Layer 1's 5,000 outputs exhaust
// SRAM under every encoding.
func TestSearchNotDeployableNamesMostCompact(t *testing.T) {
	r := rng.New(77)
	wide := randTernaryLayer(r, 30, 5000, 0.001, true, false)
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{randTernaryLayer(r, 20, 30, 0.3, false, true), wide}}
	_, err := Build(m, UseAuto)
	var nd *ErrNotDeployable
	if !errors.As(err, &nd) {
		t.Fatalf("auto build error %v, want ErrNotDeployable", err)
	}
	if nd.Have != armv6m.SRAMSize || nd.Need <= nd.Have || !strings.Contains(nd.What, "layer 1") {
		t.Fatalf("error %q, want layer 1's SRAM need against the %d-byte device", err, armv6m.SRAMSize)
	}
	alone := &quant.Model{InputScale: 127, Layers: []*quant.Layer{wide}}
	for _, ch := range probedChoices {
		_, err := BuildOpts(alone, BuildOptions{PerLayer: []LayerEncoding{ch}})
		var e *ErrNotDeployable
		if !errors.As(err, &e) {
			t.Fatalf("layer 1 alone as %s: error %v, want ErrNotDeployable", ch, err)
		}
		if e.Need < nd.Need {
			t.Errorf("%s needs %d bytes, less than the reported most compact %d", ch, e.Need, nd.Need)
		}
	}
}

// When every combination's flash lower bound exceeds the device, the
// search builds nothing and reports the smallest bound it dropped, a
// need no real image of the model falls below.
func TestSearchNotDeployableAnyMix(t *testing.T) {
	r := rng.New(78)
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{
		randTernaryLayer(r, 700, 150, 0.5, true, true),
		randTernaryLayer(r, 150, 700, 0.5, false, true),
		randTernaryLayer(r, 700, 150, 0.5, true, false),
	}}
	_, err := Build(m, UseAuto)
	var nd *ErrNotDeployable
	if !errors.As(err, &nd) {
		t.Fatalf("auto build error %v, want ErrNotDeployable", err)
	}
	if nd.Have != armv6m.FlashSize || nd.Need <= nd.Have {
		t.Fatalf("error %q, want a flash need above the %d-byte device", err, armv6m.FlashSize)
	}
	_, err = Build(m, UseBlock)
	var blk *ErrNotDeployable
	if !errors.As(err, &blk) || blk.Need < nd.Need {
		t.Fatalf("uniform block: error %v, want a need of at least the reported %d bytes", err, nd.Need)
	}
}

// oracleSearch is the exhaustive enumeration the Pareto-frontier
// search replaced, kept as its test oracle. It prices the probed
// candidates of every ternary layer with one-layer builds, enumerates
// every combination in lexicographic order over each layer's
// cost-sorted candidates, sorts them by (probe-WCET sum, probe-flash
// sum), and builds best-first until an image deploys; among the
// combinations of that WCET the smallest real image wins. builds counts
// whole-model builds.
func oracleSearch(t *testing.T, m *quant.Model) (img *Image, builds int, err error) {
	t.Helper()
	type cand struct {
		enc   LayerEncoding
		wcet  uint64
		flash int
	}
	base := make([]LayerEncoding, len(m.Layers))
	var ternary []int
	var cands [][]cand
	for i, l := range m.Layers {
		base[i] = LayerEncoding{Choice: UseBlock}
		if l.Kind != quant.Ternary {
			continue
		}
		ternary = append(ternary, i)
		var cs []cand
		for _, ch := range probedChoices {
			probe := &quant.Model{InputScale: m.InputScale, Layers: []*quant.Layer{l}}
			pimg, err := BuildOpts(probe, BuildOptions{PerLayer: []LayerEncoding{ch}})
			if err != nil {
				var nd *ErrNotDeployable
				if errors.As(err, &nd) {
					continue
				}
				t.Fatalf("oracle probe, layer %d as %s: %v", i, ch, err)
			}
			w, err := pimg.Cert.WCET("entry", SearchWaitStates)
			if err != nil {
				t.Fatalf("oracle probe, layer %d as %s: %v", i, ch, err)
			}
			cs = append(cs, cand{ch, w, pimg.Layers[0].FlashBytes})
		}
		if len(cs) == 0 {
			t.Fatalf("oracle: layer %d deploys under no encoding", i)
		}
		sort.SliceStable(cs, func(a, b int) bool {
			if cs[a].wcet != cs[b].wcet {
				return cs[a].wcet < cs[b].wcet
			}
			return cs[a].flash < cs[b].flash
		})
		cands = append(cands, cs)
	}
	if len(ternary) == 0 {
		img, err := BuildOpts(m, BuildOptions{PerLayer: base})
		return img, 1, err
	}

	type combo struct {
		picks []int
		wcet  uint64
		flash int
	}
	var combos []combo
	picks := make([]int, len(ternary))
	for {
		c := combo{picks: append([]int(nil), picks...)}
		for ti, p := range picks {
			c.wcet += cands[ti][p].wcet
			c.flash += cands[ti][p].flash
		}
		combos = append(combos, c)
		ti := len(picks) - 1
		for ; ti >= 0; ti-- {
			if picks[ti]++; picks[ti] < len(cands[ti]) {
				break
			}
			picks[ti] = 0
		}
		if ti < 0 {
			break
		}
	}
	sort.SliceStable(combos, func(a, b int) bool {
		if combos[a].wcet != combos[b].wcet {
			return combos[a].wcet < combos[b].wcet
		}
		return combos[a].flash < combos[b].flash
	})
	build := func(c combo) (*Image, error) {
		encs := append([]LayerEncoding(nil), base...)
		for ti, p := range c.picks {
			encs[ternary[ti]] = cands[ti][p].enc
		}
		builds++
		return BuildOpts(m, BuildOptions{PerLayer: encs})
	}
	var lastND error
	for i, c := range combos {
		img, err := build(c)
		if err != nil {
			var nd *ErrNotDeployable
			if !errors.As(err, &nd) {
				return nil, builds, err
			}
			lastND = err
			continue
		}
		for _, alt := range combos[i+1:] {
			if alt.wcet != c.wcet {
				break
			}
			if a, err := build(alt); err == nil && a.TotalBytes() < img.TotalBytes() {
				img = a
			}
		}
		return img, builds, nil
	}
	return nil, builds, lastND
}
