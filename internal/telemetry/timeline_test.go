package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
	"github.com/neuro-c/neuroc/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite the timeline golden file")

// timelineFixture runs a fixed 10-input batch of the test model through
// the farm and builds its cycle-domain timeline from the layer spans
// measured once on the same image. The tier label is
// pinned to "fixture" so documents from different execution tiers are
// comparable byte for byte — the label is informational, never a
// measurement.
func timelineFixture(t *testing.T, workers int, tier device.Tier) []byte {
	t.Helper()
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	inputs := make([][]int8, 10)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(img, inputs, farm.Options{Workers: workers, Tier: tier})
	if err != nil {
		t.Fatal(err)
	}
	spans, measured := measureSpans(t, img, 0, inputs[0])
	em := device.EnergyModel()
	tl, err := BuildTimeline(img, spans, measured, results, TimelineConfig{Tier: "fixture", Energy: &em})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTimelineGolden pins the cycle-domain document byte for byte. The
// golden file is a full neuroc-timeline/v1 trace: any change to span
// construction, cycle attribution, serialization order, or the JSON
// shape shows up as a diff. Regenerate with `go test -run
// TestTimelineGolden -update ./internal/telemetry/`.
func TestTimelineGolden(t *testing.T) {
	got := timelineFixture(t, 1, device.TierAuto)
	golden := filepath.Join("testdata", "timeline_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timeline differs from golden file %s (run with -update if the change is intended)\ngot %d bytes, want %d",
			golden, len(got), len(want))
	}
	if err := obs.ValidateTimelineJSON(got); err != nil {
		t.Fatalf("golden timeline does not validate: %v", err)
	}
}

// TestTimelineWorkerByteIdentical: the cycle-domain document is the
// virtual serial execution in input order, so pool size cannot change a
// byte of it.
func TestTimelineWorkerByteIdentical(t *testing.T) {
	base := timelineFixture(t, 1, device.TierAuto)
	for _, j := range []int{2, 8} {
		if got := timelineFixture(t, j, device.TierAuto); !bytes.Equal(got, base) {
			t.Fatalf("-j %d timeline differs from -j 1 (%d vs %d bytes)", j, len(got), len(base))
		}
	}
}

// TestTimelineTierByteIdentical: every execution tier retires the same
// architectural cycles, so the cycle-domain document is byte-identical
// on the legacy interpreter, the predecoded interpreter, and the
// certificate-translated tier.
func TestTimelineTierByteIdentical(t *testing.T) {
	base := timelineFixture(t, 4, device.TierAuto)
	for _, tier := range []device.Tier{device.TierLegacy, device.TierPredecoded, device.TierTranslated} {
		if got := timelineFixture(t, 4, tier); !bytes.Equal(got, base) {
			t.Fatalf("tier %s timeline differs from auto (%d vs %d bytes)", tier, len(got), len(base))
		}
	}
}

// TestTimelineSpanInvariants walks the built span tree directly: layer
// spans are contained in their inference, Σ layer cycles equals the
// LayerCycles arg, and layers + other equals the inference total
// exactly — the attribution's exactness carried into spans.
func TestTimelineSpanInvariants(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseDelta})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	inputs := make([][]int8, 7)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(img, inputs, farm.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	spans, measured := measureSpans(t, img, 0, inputs[3])
	em := device.EnergyModel()
	root, err := BuildBatchSpans(img, spans, measured, results, TimelineConfig{Tier: "auto", Energy: &em})
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != len(inputs) {
		t.Fatalf("%d inference spans, want %d", len(root.Children), len(inputs))
	}
	var cursor, total uint64
	for i, inf := range root.Children {
		if inf.Args.StartCycles != cursor {
			t.Fatalf("inference %d starts at %d, want contiguous %d", i, inf.Args.StartCycles, cursor)
		}
		if inf.Args.Cycles != results[i].Cycles {
			t.Fatalf("inference %d span %d cycles, result %d", i, inf.Args.Cycles, results[i].Cycles)
		}
		var layerSum uint64
		for _, l := range inf.Children {
			if l.Args.StartCycles < inf.Args.StartCycles ||
				l.Args.StartCycles+l.Args.Cycles > inf.Args.StartCycles+inf.Args.Cycles {
				t.Fatalf("inference %d: layer span [%d,%d) escapes inference [%d,%d)", i,
					l.Args.StartCycles, l.Args.StartCycles+l.Args.Cycles,
					inf.Args.StartCycles, inf.Args.StartCycles+inf.Args.Cycles)
			}
			if l.Args.Kernel == "" || l.Args.Encoding == "" {
				t.Fatalf("inference %d: layer span missing kernel/encoding annotations: %+v", i, l.Args)
			}
			if l.Args.UJ <= 0 {
				t.Fatalf("inference %d: layer span not energy-priced", i)
			}
			layerSum += l.Args.Cycles
		}
		if layerSum != inf.Args.LayerCycles {
			t.Fatalf("inference %d: Σ layer spans %d != LayerCycles %d", i, layerSum, inf.Args.LayerCycles)
		}
		if inf.Args.LayerCycles+inf.Args.OtherCycles != inf.Args.Cycles {
			t.Fatalf("inference %d: %d + %d != %d", i,
				inf.Args.LayerCycles, inf.Args.OtherCycles, inf.Args.Cycles)
		}
		cursor += inf.Args.Cycles
		total += inf.Args.Cycles
	}
	if root.Args.Cycles != total {
		t.Fatalf("batch span %d cycles, Σ inferences %d", root.Args.Cycles, total)
	}
}

// TestTimelineWallDomain: with IncludeWall the document gains the
// wall-clock process but still validates — the validator checks the
// cycle domain exactly and only shape-checks the banded wall events.
func TestTimelineWallDomain(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	inputs := make([][]int8, 6)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(img, inputs, farm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans, measured := measureSpans(t, img, 0, inputs[0])
	tl, err := BuildTimeline(img, spans, measured, results, TimelineConfig{Tier: "auto", IncludeWall: true})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Meta.Workers < 1 || tl.Meta.Workers > 2 {
		t.Fatalf("meta workers %d, want 1..2", tl.Meta.Workers)
	}
	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTimelineJSON(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineRejectsUnsound inputs: failed-only batches and rows whose
// cycles differ from the layer measurement must refuse to build rather
// than emit an unsound document.
func TestTimelineRejectsUnsound(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(5), img.InDim)
	spans, measured := measureSpans(t, img, 0, in)
	if _, err := BuildBatchSpans(img, spans, measured, nil, TimelineConfig{}); err == nil {
		t.Error("empty batch built a timeline")
	}
	res := []farm.Result{{Cycles: measured}, {Cycles: measured + 3}}
	want := fmt.Sprintf("item 1 cost %d cycles, the layer measurement %d", measured+3, measured)
	if _, err := BuildBatchSpans(img, spans, measured, res, TimelineConfig{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("row off the measurement: err = %v, want %q", err, want)
	}
}
