package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

func randTernaryLayer(r *rng.RNG, in, out int, density float64) *quant.Layer {
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
		PerNeuron: true, ReLU: out > 8,
		PreShift: 0, PostShift: 7,
		Bias:  make([]int32, out),
		Mults: make([]int32, out),
	}
	for o := range l.Mults {
		l.Mults[o] = int32(r.Intn(200)) - 100 + 64
		l.Bias[o] = int32(r.Intn(21)) - 10
	}
	return l
}

func testModel() *quant.Model {
	r := rng.New(99)
	return &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 32, 16, 0.25),
			randTernaryLayer(r, 16, 12, 0.3),
			randTernaryLayer(r, 12, 6, 0.4),
		},
	}
}

func randInput(r *rng.RNG, n int) []int8 {
	x := make([]int8, n)
	for i := range x {
		x[i] = int8(r.Intn(255) - 127)
	}
	return x
}

// autoMixModel is large enough that unrolled/4 on every layer
// overflows flash, so the auto search resolves a per-layer mix.
func autoMixModel() *quant.Model {
	r := rng.New(99)
	return &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 400, 128, 0.5),
			randTernaryLayer(r, 128, 96, 0.9),
			randTernaryLayer(r, 96, 10, 0.4),
		},
	}
}

// The model-level acceptance test: a telemetry build must change
// nothing about the inference (same outputs), cost exactly the
// closed-form overhead, and its decoded per-layer cycles must equal
// host-side boundary-label attribution of the *uninstrumented* image,
// layer by layer, cycle for cycle — at several wait-state settings, on
// the fast interpreter (Run) and the traced legacy one (RunTraced).
// The instrumented image is built the way a Deployment builds its
// telemetry twin, from the plain image's resolved per-layer encodings.
// The cases cover every encoding a deployment can segment: unrolled/4,
// whose entry code goes through the entry optimizer, and a per-layer
// mix the auto search resolved under flash pressure included.
func TestModelTelemetryExact(t *testing.T) {
	for _, c := range []struct {
		enc modelimg.EncodingChoice
		m   *quant.Model
	}{
		{modelimg.UseBlock, testModel()},
		{modelimg.UseCSC, testModel()},
		{modelimg.UseDelta, testModel()},
		{modelimg.UseMixed, testModel()},
		{modelimg.UseUnrolled, testModel()},
		{modelimg.UseAuto, autoMixModel()},
	} {
		m := c.m
		imgOff, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: c.enc})
		if err != nil {
			t.Fatal(err)
		}
		if c.enc == modelimg.UseAuto && imgOff.Layers[0].Encoding == imgOff.Layers[1].Encoding {
			t.Fatalf("auto resolved %q for the first two layers, want a per-layer mix", imgOff.Layers[0].Encoding)
		}
		imgOn, err := modelimg.BuildOpts(m, modelimg.BuildOptions{
			Encoding: c.enc, PerLayer: imgOff.Encodings, Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !imgOn.Telemetry || len(imgOn.Layers) != len(m.Layers) {
			t.Fatalf("%v: telemetry image metadata: Telemetry=%v Layers=%d", c.enc, imgOn.Telemetry, len(imgOn.Layers))
		}
		for _, ws := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%v/ws%d", c.enc, ws), func(t *testing.T) {
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

				in := randInput(rng.New(7), m.Layers[0].In)
				resOff, err := devOff.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				resOn, err := devOn.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(int8Bytes(resOff.Output), int8Bytes(resOn.Output)) {
					t.Fatalf("telemetry changed outputs: %v vs %v", resOff.Output, resOn.Output)
				}
				n := len(m.Layers)
				if got, want := resOn.Cycles-resOff.Cycles, Overhead(n, ws); got != want {
					t.Errorf("instrumentation added %d cycles, closed form says %d", got, want)
				}

				// Traced legacy run must produce the identical event
				// stream and total.
				resTr, err := devOn.RunTraced(in, armv6m.NewTrace())
				if err != nil {
					t.Fatal(err)
				}
				if resTr.Cycles != resOn.Cycles {
					t.Fatalf("traced %d cycles, fast %d", resTr.Cycles, resOn.Cycles)
				}
				if len(resTr.Telemetry) != len(resOn.Telemetry) {
					t.Fatalf("traced %d events, fast %d", len(resTr.Telemetry), len(resOn.Telemetry))
				}
				for i := range resTr.Telemetry {
					if resTr.Telemetry[i] != resOn.Telemetry[i] {
						t.Fatalf("event %d: traced %+v, fast %+v", i, resTr.Telemetry[i], resOn.Telemetry[i])
					}
				}

				// Decoded on-device attribution == host attribution of the
				// uninstrumented image, exactly.
				spans, err := DecodeImage(imgOn, resOn.Telemetry, ws)
				if err != nil {
					t.Fatal(err)
				}
				hostOff, _, err := HostLayerCycles(devOff, in)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range spans {
					if s.Cycles != hostOff[i] {
						t.Errorf("layer %d: device-attributed %d cycles, host-attributed %d",
							i, s.Cycles, hostOff[i])
					}
					if s.Kernel != imgOn.Layers[i].Kernel {
						t.Errorf("layer %d: kernel %q, want %q", i, s.Kernel, imgOn.Layers[i].Kernel)
					}
				}

				// Host attribution of the instrumented image differs from
				// the device's by exactly the two markers each layer holds.
				hostOn, _, err := HostLayerCycles(devOn, in)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range spans {
					if s.Cycles != hostOn[i]-2*MarkerCost(ws) {
						t.Errorf("layer %d: span %d, host-on %d - 2*marker %d",
							i, s.Cycles, hostOn[i], MarkerCost(ws))
					}
				}

				// The report's cycle accounting is closed.
				rep, err := BuildReport(imgOn, resOn, ws)
				if err != nil {
					t.Fatal(err)
				}
				if rep.LayerCycles+rep.OverheadCycles+rep.OtherCycles != rep.TotalCycles {
					t.Errorf("report does not sum: %d + %d + %d != %d",
						rep.LayerCycles, rep.OverheadCycles, rep.OtherCycles, rep.TotalCycles)
				}
				if rep.Schema != Schema || len(rep.Layers) != n {
					t.Errorf("report schema %q with %d layers", rep.Schema, len(rep.Layers))
				}
			})
		}
	}
}

func int8Bytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
	return b
}

// An uninstrumented image must not even reference the peripheral
// window: telemetry off means zero new bytes, not dormant ones.
func TestTelemetryOffImageHasNoMailboxLiteral(t *testing.T) {
	m := testModel()
	imgOff, err := modelimg.Build(m, modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	imgOn, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseBlock, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	lit := make([]byte, 4)
	binary.LittleEndian.PutUint32(lit, armv6m.TimerMBOX)
	if bytes.Contains(imgOff.Prog.Code, lit) {
		t.Error("uninstrumented image contains the mailbox literal")
	}
	if !bytes.Contains(imgOn.Prog.Code, lit) {
		t.Error("telemetry image is missing the mailbox literal")
	}
	if imgOff.Telemetry {
		t.Error("plain Build marked the image as telemetry")
	}
	// Boundary labels exist either way — host-side segmentation must not
	// require instrumentation.
	if _, err := LayerBoundaryAddrs(imgOff); err != nil {
		t.Error(err)
	}
}

// Telemetry flows through the farm: every item of a parallel batch
// carries a decodable stream, and aggregation folds them into stable
// per-layer statistics (run under -race by the verify script's farm
// stage to pin the per-board peripheral as data-race-free).
func TestFarmTelemetryAggregate(t *testing.T) {
	m := testModel()
	img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{Encoding: modelimg.UseCSC, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	inputs := make([][]int8, 12)
	for i := range inputs {
		inputs[i] = randInput(r, m.Layers[0].In)
	}
	results, _, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Aggregate(img, results, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(m.Layers) {
		t.Fatalf("%d layer stats, want %d", len(stats), len(m.Layers))
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	for li, s := range stats {
		if s.Count != len(inputs) {
			t.Errorf("layer %d aggregated %d items, want %d", li, s.Count, len(inputs))
		}
		if s.Min == 0 || s.Min > s.Max || s.Total == 0 {
			t.Errorf("layer %d stats degenerate: %+v", li, s)
		}
	}
	// Spot-check one item against a serial run: farm results are
	// bit-identical to the serial path, telemetry included.
	res, err := dev.Run(inputs[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Telemetry) != len(results[5].Telemetry) {
		t.Fatalf("serial %d events, farm %d", len(res.Telemetry), len(results[5].Telemetry))
	}
	for i := range res.Telemetry {
		if res.Telemetry[i] != results[5].Telemetry[i] {
			t.Fatalf("event %d: serial %+v, farm %+v", i, res.Telemetry[i], results[5].Telemetry[i])
		}
	}
	var buf bytes.Buffer
	if err := WriteStatsTable(&buf, stats); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("MEAN")) {
		t.Error("stats table missing header")
	}
}
