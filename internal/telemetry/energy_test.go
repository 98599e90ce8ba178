package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/rng"
)

// TestModelEnergyReportExact is the energy acceptance test at model
// level: across all four encodings, the neuroc-energy/v1 report of the
// deployed image must (a) close its cycle accounting exactly, (b) price
// the whole inference as the closed-form P_active·cycles/f value
// bit-for-bit (no sleep, no component adders in the calibrated
// default), (c) price every layer from its cycle count through the same
// expression, and (d) agree bit-for-bit between runs on the predecoded
// and legacy interpreters.
func TestModelEnergyReportExact(t *testing.T) {
	m := testModel()
	em := device.EnergyModel()
	for _, enc := range []modelimg.EncodingChoice{
		modelimg.UseBlock, modelimg.UseCSC, modelimg.UseDelta, modelimg.UseMixed,
	} {
		for _, ws := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/ws%d", enc, ws), func(t *testing.T) {
				img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: enc})
				if err != nil {
					t.Fatal(err)
				}
				in := randInput(rng.New(7), m.Layers[0].In)
				spans, measured := measureSpans(t, img, ws, in)

				report := func(legacy bool) *EnergyReport {
					dev, err := device.New(img)
					if err != nil {
						t.Fatal(err)
					}
					dev.CPU.Bus.FlashWaitStates = ws
					dev.CPU.DisablePredecode = legacy
					res, err := dev.Run(in)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := BuildEnergyReport(spans, measured, res, ws, em)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				fast := report(false)
				leg := report(true)

				// (d) The two interpreters produce one report, floats
				// included — equal integer cycle counts priced through one
				// deterministic expression.
				if !reflect.DeepEqual(fast, leg) {
					t.Fatalf("reports diverge:\nfast   %+v\nlegacy %+v", fast, leg)
				}

				// (a) Integer cycle accounting is closed.
				if fast.LayerCycles+fast.OtherCycles != fast.TotalCycles {
					t.Errorf("cycles do not sum: %d + %d != %d",
						fast.LayerCycles, fast.OtherCycles, fast.TotalCycles)
				}
				var layerSum uint64
				for _, l := range fast.Layers {
					layerSum += l.Cycles
				}
				if layerSum != fast.LayerCycles {
					t.Errorf("per-layer cycles sum to %d, LayerCycles = %d", layerSum, fast.LayerCycles)
				}

				// (b) No sleep in an inference image: total energy IS the
				// paper identity, bit-for-bit.
				if fast.SleepCycles != 0 || fast.SleepUJ != 0 {
					t.Errorf("inference image slept: %d cycles, %v µJ", fast.SleepCycles, fast.SleepUJ)
				}
				if fast.DutyActive != 1 {
					t.Errorf("duty = %v, want 1", fast.DutyActive)
				}
				if fast.TotalUJ != em.ActiveUJ(fast.TotalCycles) {
					t.Errorf("TotalUJ %v != closed form %v", fast.TotalUJ, em.ActiveUJ(fast.TotalCycles))
				}
				if fast.TotalUJ != fast.ActiveUJ {
					t.Errorf("TotalUJ %v != ActiveUJ %v with no sleep", fast.TotalUJ, fast.ActiveUJ)
				}

				// (c) Every layer row is its cycle count priced through the
				// same expression; component rows likewise.
				for i, l := range fast.Layers {
					if l.UJ != em.ActiveUJ(l.Cycles) {
						t.Errorf("layer %d: UJ %v != priced cycles %v", i, l.UJ, em.ActiveUJ(l.Cycles))
					}
				}
				if fast.LayerUJ != em.ActiveUJ(fast.LayerCycles) ||
					fast.OtherUJ != em.ActiveUJ(fast.OtherCycles) {
					t.Error("component µJ rows not priced from their cycle counts")
				}
				if fast.Schema != EnergySchema {
					t.Errorf("schema %q", fast.Schema)
				}
			})
		}
	}
}

// TestVariantEnergyExact walks every kernel variant: the priced cost of
// the telemetry-bracketed kernel span equals the priced cost of the
// uninstrumented kernel (the spans agree in integer cycles, so the
// floats are bit-identical), on both interpreter paths.
func TestVariantEnergyExact(t *testing.T) {
	em := device.EnergyModel()
	for _, v := range kernels.Variants() {
		for _, ws := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/ws%d", v.Name, ws), func(t *testing.T) {
				ref, _ := bootHarness(t, v.Harness, ws)
				runHarness(t, ref, "fast", nil)
				kernelCost := ref.Cycles - uint64(1+ws)

				span := func(path string) (uint64, uint64) {
					cpu, _ := bootHarness(t, v.TelemetryHarness, ws)
					runHarness(t, cpu, path, nil)
					spans, err := Decode(cpu.Bus.Timer.Events, ws)
					if err != nil {
						t.Fatal(err)
					}
					if len(spans) != 1 {
						t.Fatalf("%s: %d spans", path, len(spans))
					}
					return spans[0].Cycles, cpu.Cycles
				}
				fastSpan, fastTotal := span("fast")
				legSpan, legTotal := span("legacy")

				if fastSpan != legSpan || fastTotal != legTotal {
					t.Fatalf("legacy span/total %d/%d, fast %d/%d", legSpan, legTotal, fastSpan, fastTotal)
				}
				if em.ActiveUJ(fastSpan) != em.ActiveUJ(legSpan) {
					t.Error("equal cycles priced to different energies")
				}
				// The attributed kernel energy is the uninstrumented
				// kernel's energy: the decode correction removed the
				// instrumentation cycles before pricing.
				if em.ActiveUJ(fastSpan) != em.ActiveUJ(kernelCost) {
					t.Errorf("span %.6f µJ, uninstrumented kernel %.6f µJ",
						em.ActiveUJ(fastSpan), em.ActiveUJ(kernelCost))
				}
			})
		}
	}
}

// TestFarmEnergyAggregate prices a parallel batch: batch totals come
// from the integer cycle sums, and the per-layer rows price Aggregate's
// integer totals.
func TestFarmEnergyAggregate(t *testing.T) {
	m := testModel()
	em := device.EnergyModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	inputs := make([][]int8, 12)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := AggregateEnergy(img, results, 0, em)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Items != len(inputs) || agg.Schema != EnergySchema {
		t.Fatalf("items %d schema %q", agg.Items, agg.Schema)
	}
	var cyc uint64
	for i := range results {
		cyc += results[i].Cycles
	}
	if agg.TotalCycles != cyc {
		t.Errorf("batch cycles %d, sum of items %d", agg.TotalCycles, cyc)
	}
	if agg.SleepCycles != 0 {
		t.Errorf("inference batch slept %d cycles", agg.SleepCycles)
	}
	if agg.TotalUJ != em.ActiveUJ(agg.TotalCycles) {
		t.Errorf("batch µJ %v != priced cycle total %v", agg.TotalUJ, em.ActiveUJ(agg.TotalCycles))
	}
	stats, err := Aggregate(img, results, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ls := range agg.Layers {
		if ls.TotalUJ != em.ActiveUJ(stats[i].Total) {
			t.Errorf("layer %d: aggregate µJ %v != priced cycles %v", i, ls.TotalUJ, em.ActiveUJ(stats[i].Total))
		}
	}
	var buf bytes.Buffer
	if err := agg.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("MEAN_UJ")) {
		t.Errorf("aggregate table missing header:\n%s", buf.String())
	}
}

// TestMailboxOverflowReportsLoudly is the end-to-end overflow test: a
// capture cap smaller than the event count must surface as a nonzero
// drop count on the result and as hard errors from every twin decoding
// entry point — never as silently under-attributed layers.
func TestMailboxOverflowReportsLoudly(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(5), m.Layers[0].In)

	// Serial path: cap the mailbox below the 2-events-per-layer stream.
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	dev.CPU.Bus.Timer.MaxEvents = 3
	res, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryDropped == 0 {
		t.Fatal("capture cap 3 with 6 marker events: expected drops")
	}
	if len(res.Telemetry) != 3 {
		t.Fatalf("captured %d events at cap 3", len(res.Telemetry))
	}
	if _, err := DecodeImage(img, res.Telemetry, 0); err == nil {
		t.Error("DecodeImage accepted a truncated capture")
	}

	// Farm path: the same cap on every board; aggregation must refuse.
	inputs := [][]int8{in, in, in, in}
	results, _, err := farm.Map(img, inputs, farm.Options{
		Workers:   2,
		Configure: func(b *device.Device) { b.CPU.Bus.Timer.MaxEvents = 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("item %d failed: %v", i, results[i].Err)
		}
		if results[i].TelemetryDropped == 0 {
			t.Fatalf("item %d dropped nothing at cap 3", i)
		}
	}
	if _, err := Aggregate(img, results, 0); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("Aggregate on truncated batch: err = %v, want loud drop error", err)
	}
	if _, err := AggregateEnergy(img, results, 0, device.EnergyModel()); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("AggregateEnergy on truncated batch: err = %v, want loud drop error", err)
	}
}

func TestEnergyReportTableRenders(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseCSC})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(2), m.Layers[0].In)
	res, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	spans, measured := measureSpans(t, img, 0, in)
	rep, err := BuildEnergyReport(spans, measured, res, 0, device.EnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ENERGY_UJ", "[total]", "duty:"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("energy table missing %q:\n%s", want, buf.String())
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("[markers]")) {
		t.Errorf("deployed-image energy table has a markers row:\n%s", buf.String())
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{EnergySchema, "total_uj", "active_power_w"} {
		if !bytes.Contains(js.Bytes(), []byte(want)) {
			t.Errorf("energy JSON missing %q", want)
		}
	}
}

// measureSpans measures img's layer spans the way the shipped tools do:
// one inference of in on a fresh board at ws (HostLayerSpans). It
// returns the spans and the cycles that inference cost.
func measureSpans(t *testing.T, img *modelimg.Image, ws int, in []int8) ([]Span, uint64) {
	t.Helper()
	d, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	d.CPU.Bus.FlashWaitStates = ws
	spans, res, err := HostLayerSpans(d, in)
	if err != nil {
		t.Fatal(err)
	}
	return spans, res.Cycles
}
