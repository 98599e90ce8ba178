package telemetry

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// TestHostLayerSpansTwinParity is the parity promised in the
// HostLayerSpans doc comment: spans segmented from an *uninstrumented*
// image's boundary labels carry the same per-layer cycle costs as the
// telemetry twin's marker-corrected spans, layer by layer, and the
// span fields (Layer, Kernel, Enter < Exit, Cycles == Exit - Enter)
// are internally consistent.
func TestHostLayerSpansTwinParity(t *testing.T) {
	m := testModel()
	for _, ws := range []int{0, 1} {
		imgOff, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock})
		if err != nil {
			t.Fatal(err)
		}
		imgOn, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock, Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		devOff, err := device.New(imgOff)
		if err != nil {
			t.Fatal(err)
		}
		devOn, err := device.New(imgOn)
		if err != nil {
			t.Fatal(err)
		}
		devOff.CPU.Bus.FlashWaitStates = ws
		devOn.CPU.Bus.FlashWaitStates = ws
		in := randInput(rng.New(13), m.Layers[0].In)

		hostSpans, _, err := HostLayerSpans(devOff, in)
		if err != nil {
			t.Fatal(err)
		}
		resOn, err := devOn.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		twinSpans, err := DecodeImage(imgOn, resOn.Telemetry, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(hostSpans) != len(m.Layers) || len(twinSpans) != len(m.Layers) {
			t.Fatalf("ws %d: %d host spans, %d twin spans, want %d", ws, len(hostSpans), len(twinSpans), len(m.Layers))
		}
		for i := range hostSpans {
			h, tw := hostSpans[i], twinSpans[i]
			if h.Layer != i || h.Kernel != imgOff.Layers[i].Kernel {
				t.Errorf("ws %d layer %d: span identity %d %q", ws, i, h.Layer, h.Kernel)
			}
			if h.Enter >= h.Exit || h.Cycles != h.Exit-h.Enter {
				t.Errorf("ws %d layer %d: inconsistent span [%d,%d) cycles %d", ws, i, h.Enter, h.Exit, h.Cycles)
			}
			if h.Cycles != tw.Cycles {
				t.Errorf("ws %d layer %d: host-segmented %d cycles, telemetry twin %d",
					ws, i, h.Cycles, tw.Cycles)
			}
		}
	}
}

// TestHostAggregateMatchesTwin: the host fold over an uninstrumented
// image equals the on-device pipeline's aggregate over the telemetry
// twin, field for field, and its energy aggregate prices exactly the
// plain image's cycles — the twin's less the closed-form overhead.
func TestHostAggregateMatchesTwin(t *testing.T) {
	m := testModel()
	imgOff, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseMixed})
	if err != nil {
		t.Fatal(err)
	}
	imgOn, err := modelimg.BuildOpts(m, modelimg.BuildOptions{PerLayer: imgOff.Encodings, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	inputs := make([][]int8, 5)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(imgOn, inputs, farm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	twinStats, err := Aggregate(imgOn, results, 0)
	if err != nil {
		t.Fatal(err)
	}
	em := device.EnergyModel()
	twinEnergy, err := AggregateEnergy(imgOn, results, 0, em)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(imgOff)
	if err != nil {
		t.Fatal(err)
	}
	hostStats, err := HostAggregate(dev, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hostStats, twinStats) {
		t.Errorf("host aggregate %+v, twin aggregate %+v", hostStats, twinStats)
	}
	hostEnergy, err := HostAggregateEnergy(dev, inputs, em)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hostEnergy.Layers, twinEnergy.Layers) {
		t.Errorf("host energy layers %+v, twin %+v", hostEnergy.Layers, twinEnergy.Layers)
	}
	overhead := uint64(len(inputs)) * Overhead(len(m.Layers), 0)
	if hostEnergy.Items != len(inputs) || hostEnergy.TotalCycles != twinEnergy.TotalCycles-overhead {
		t.Errorf("host prices %d items, %d cycles; twin %d cycles less %d overhead",
			hostEnergy.Items, hostEnergy.TotalCycles, twinEnergy.TotalCycles, overhead)
	}
	if hostEnergy.TotalUJ != em.ActiveUJ(hostEnergy.TotalCycles) {
		t.Errorf("host batch energy %v != ActiveUJ(%d)", hostEnergy.TotalUJ, hostEnergy.TotalCycles)
	}
}

// TestHostLayerSpansBoundaryOrder: the segmenter matches only the next
// boundary, so a boundary listed out of retirement order, or one that
// never retires, leaves its mark unhit and the inference is an error
// naming it — never a span measured from the wrong boundary.
func TestHostLayerSpansBoundaryOrder(t *testing.T) {
	img, err := modelimg.Build(testModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(5), img.InDim)
	sym := img.Prog.Symbols
	for _, c := range []struct {
		name string
		edit map[string]uint32
		want string
	}{
		{"swapped", map[string]uint32{"l1_call": sym["l2_call"], "l2_call": sym["l1_call"]}, "l2_call"},
		{"never-retires", map[string]uint32{"l1_call": sym["l1_call"] + 1}, "l1_call"},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := *img
			prog := *img.Prog
			prog.Symbols = maps.Clone(sym)
			maps.Copy(prog.Symbols, c.edit)
			bad.Prog = &prog
			dev, err := device.New(&bad)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = HostLayerSpans(dev, in)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a boundary error naming %s", err, c.want)
			}
		})
	}
}

// BenchmarkHostLayerSpans times one segmented inference, what
// Deployment.MeasureLayers pays per row, on a seeded 784-128-48-10
// unrolled/4 image: Fast is HostLayerSpans (boundary marks on the
// untraced fast path), Oracle the trace-hook segmenter it replaced.
func BenchmarkHostLayerSpans(b *testing.B) {
	r := rng.New(17)
	m := &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 784, 128, 0.1),
			randTernaryLayer(r, 128, 48, 0.25),
			randTernaryLayer(r, 48, 10, 0.4),
		},
	}
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseUnrolled})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		b.Fatal(err)
	}
	in := randInput(r, img.InDim)
	for _, c := range []struct {
		name string
		run  func(*device.Device, []int8) ([]Span, *device.Result, error)
	}{{"Fast", HostLayerSpans}, {"Oracle", oracleLayerSpans}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.run(dev, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
