package telemetry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// TestDeployedAttributionMatchesTwin is the oracle for every shipped
// consumer of layer spans: the spans measured once on the deployed
// image (HostLayerSpans on a fresh board) and applied to a farm run of
// it must equal, in every report, energy report, timeline and batch
// aggregate, the spans the telemetry twin's markers decode to on the
// same inputs; every deployed inference costs the twin's total less the
// closed-form marker overhead; and a row whose cycles differ from the
// measurement is rejected by name. Every encoding a deployment can
// carry is covered (unrolled/4, an auto-resolved per-layer mix and the
// dense MLP included) at ws 0-2.
func TestDeployedAttributionMatchesTwin(t *testing.T) {
	unrolled4 := make([]modelimg.LayerEncoding, len(testModel().Layers))
	for i := range unrolled4 {
		unrolled4[i] = modelimg.LayerEncoding{Choice: modelimg.UseUnrolled, Factor: 4}
	}
	em := device.EnergyModel()
	for _, c := range []struct {
		name string
		m    *quant.Model
		opts modelimg.BuildOptions
	}{
		{"block", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseBlock}},
		{"csc", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseCSC}},
		{"delta", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseDelta}},
		{"mixed", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseMixed}},
		{"unrolled/4", testModel(), modelimg.BuildOptions{PerLayer: unrolled4}},
		{"auto", autoMixModel(), modelimg.BuildOptions{Encoding: modelimg.UseAuto}},
		{"dense", denseModel(), modelimg.BuildOptions{Encoding: modelimg.UseBlock}},
	} {
		img, err := modelimg.BuildOpts(c.m, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "auto" && img.Encodings[0] == img.Encodings[1] {
			t.Fatalf("auto resolved %v for the first two layers, want a per-layer mix", img.Encodings[0])
		}
		twin, err := modelimg.BuildOpts(c.m, modelimg.BuildOptions{
			Encoding: c.opts.Encoding, PerLayer: img.Encodings, Telemetry: true,
		})
		if err != nil {
			t.Fatalf("%s twin: %v", c.name, err)
		}
		fi, err := device.NewFlashImage(img)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(43)
		inputs := make([][]int8, 3)
		for i := range inputs {
			inputs[i] = randInput(r, img.InDim)
		}
		n := len(c.m.Layers)
		for ws := 0; ws <= 2; ws++ {
			t.Run(fmt.Sprintf("%s/ws%d", c.name, ws), func(t *testing.T) {
				opts := farm.Options{Workers: 2, Configure: func(d *device.Device) { d.CPU.Bus.FlashWaitStates = ws }}
				results, _, err := farm.Run(fi, inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				twinResults, _, err := farm.Map(twin, inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				board := fi.NewBoard()
				board.CPU.Bus.FlashWaitStates = ws
				spans, mres, err := HostLayerSpans(board, inputs[1])
				if err != nil {
					t.Fatal(err)
				}
				measured := mres.Cycles

				root, err := BuildBatchSpans(img, spans, measured, results, TimelineConfig{FlashWaitStates: ws, Energy: &em})
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					want, err := DecodeImage(twin, twinResults[i].Telemetry, ws)
					if err != nil {
						t.Fatal(err)
					}
					if got := results[i].Cycles; got != twinResults[i].Cycles-Overhead(n, ws) {
						t.Errorf("item %d: deployed %d cycles, twin %d less overhead %d",
							i, got, twinResults[i].Cycles, Overhead(n, ws))
					}
					res := &device.Result{Cycles: results[i].Cycles, SleepCycles: results[i].SleepCycles}
					rep, err := BuildReport(spans, measured, res, ws)
					if err != nil {
						t.Fatal(err)
					}
					erep, err := BuildEnergyReport(spans, measured, res, ws, em)
					if err != nil {
						t.Fatal(err)
					}
					layers := root.Children[i].Children
					if len(rep.Layers) != n || len(erep.Layers) != n || len(layers) != n || len(want) != n {
						t.Fatalf("item %d: %d/%d/%d report/energy/timeline layers, twin %d, want %d",
							i, len(rep.Layers), len(erep.Layers), len(layers), len(want), n)
					}
					for l, w := range want {
						if rep.Layers[l].Cycles != w.Cycles || erep.Layers[l].Cycles != w.Cycles ||
							layers[l].Args.Cycles != w.Cycles || rep.Layers[l].Kernel != w.Kernel {
							t.Errorf("item %d layer %d: report %d, energy %d, timeline %d cycles (kernel %q), twin %d (%q)",
								i, l, rep.Layers[l].Cycles, erep.Layers[l].Cycles, layers[l].Args.Cycles,
								rep.Layers[l].Kernel, w.Cycles, w.Kernel)
						}
					}
					if rep.LayerCycles+rep.OtherCycles != rep.TotalCycles || rep.TotalCycles != results[i].Cycles {
						t.Errorf("item %d: report %d + %d != total %d (run %d)",
							i, rep.LayerCycles, rep.OtherCycles, rep.TotalCycles, results[i].Cycles)
					}
				}
				stats, err := AggregateSpans(spans, measured, results)
				if err != nil {
					t.Fatal(err)
				}
				twinStats, err := Aggregate(twin, twinResults, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stats, twinStats) {
					t.Errorf("batch aggregate %+v, twin %+v", stats, twinStats)
				}
				agg, err := AggregateSpansEnergy(spans, measured, results, em)
				if err != nil {
					t.Fatal(err)
				}
				twinAgg, err := AggregateEnergy(twin, twinResults, ws, em)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(agg.Layers, twinAgg.Layers) {
					t.Errorf("energy aggregate layers %+v, twin %+v", agg.Layers, twinAgg.Layers)
				}

				// A row of any other cost than the measurement is refused,
				// by name, by every consumer.
				bad := append([]farm.Result(nil), results...)
				bad[2].Cycles++
				for what, err := range map[string]error{
					"BuildBatchSpans":      errOf(BuildBatchSpans(img, spans, measured, bad, TimelineConfig{})),
					"AggregateSpans":       errOf(AggregateSpans(spans, measured, bad)),
					"AggregateSpansEnergy": errOf(AggregateSpansEnergy(spans, measured, bad, em)),
				} {
					if err == nil || !strings.Contains(err.Error(), "item 2") {
						t.Errorf("%s with a row off the measurement: err = %v, want one naming item 2", what, err)
					}
				}
				off := &device.Result{Cycles: measured + 1}
				for what, err := range map[string]error{
					"BuildReport":       errOf(BuildReport(spans, measured, off, ws)),
					"BuildEnergyReport": errOf(BuildEnergyReport(spans, measured, off, ws, em)),
				} {
					want := fmt.Sprintf("run cost %d cycles, the layer measurement %d", measured+1, measured)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s with a run off the measurement: err = %v, want %q", what, err, want)
					}
				}
			})
		}
	}
}

// errOf keeps the error of a two-valued call.
func errOf[T any](_ T, err error) error { return err }
