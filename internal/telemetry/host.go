package telemetry

import (
	"github.com/neuro-c/neuroc/internal/device"
)

// Host-side attribution on the deployed image: the layer spans every
// shipped tool reports (m0run, the bench farm timeline,
// Deployment.MeasureLayers and MeasureEnergy), tested against the
// telemetry twin's markers. The device's flash image marks the image's
// per-layer call labels (modelimg.Image.LayerBoundaries) in its
// translation table, and an untraced run records the cycle total at
// each as it first retires (device.RunBoundaries); because entry code
// is straight-line, those totals segment an inference into exact layer
// costs without any on-device instrumentation, at the fast path's
// speed.
//
// A boundary total is the cycle count before the boundary instruction's
// fetch, which equals a trace's running sum of per-instruction costs
// for exception-free runs; exception entry cost is charged between
// instructions and would make boundary totals diverge from mailbox
// timestamps, so the run refuses an armed SysTick.

// HostLayerSpans runs one untraced inference (device.RunBoundaries) and
// segments it into layer spans by the image's boundary labels: Enter
// and Exit are the cycle totals at the l<i>_call / next-boundary
// instructions, and on the deployed (uninstrumented) image each span's
// Cycles is the pure layer cost, bit-equal to the marker-corrected cost
// the telemetry twin reports (tested in host_test.go and
// deployed_test.go). On a telemetry image each span also holds the two
// markers its layer carries (2*MarkerCost). The Result carries no
// Trace. Any reason the boundaries cannot be recorded is an error; it
// never falls back to a traced run.
func HostLayerSpans(d *device.Device, input []int8) ([]Span, *device.Result, error) {
	res, before, err := d.RunBoundaries(input)
	if err != nil {
		return nil, nil, err
	}
	spans := make([]Span, len(before)-1)
	for i := range spans {
		spans[i] = Span{
			Layer:  i,
			Kernel: d.Img.Layers[i].Kernel,
			Enter:  before[i],
			Exit:   before[i+1],
			Cycles: before[i+1] - before[i],
		}
	}
	return spans, res, nil
}
