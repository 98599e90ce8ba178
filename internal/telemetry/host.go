package telemetry

import (
	"github.com/neuro-c/neuroc/internal/device"
)

// Host-side attribution: the independent measurement the on-device
// markers are checked against, and the one Deployment.MeasureLayers and
// MeasureEnergy take on the deployed image (HostAggregate,
// HostAggregateEnergy), so no instrumented twin is built for them. The
// device's flash image marks the image's per-layer call labels
// (modelimg.Image.LayerBoundaries) in its translation table, and an
// untraced run records the cycle total at each as it first retires
// (device.RunBoundaries); because entry code is straight-line, those
// totals segment an inference into exact layer costs without any
// on-device instrumentation, at the fast path's speed.
//
// A boundary total is the cycle count before the boundary instruction's
// fetch, which equals a trace's running sum of per-instruction costs
// for exception-free runs; exception entry cost is charged between
// instructions and would make boundary totals diverge from mailbox
// timestamps, so the run refuses an armed SysTick.

// HostLayerCycles runs one inference and attributes its cycles to
// layers by the image's boundary labels. The returned slice has one
// exact per-layer cycle cost per image layer; for a telemetry image
// each entry includes the two markers the instrumented layer carries
// (subtract 2*MarkerCost to compare against an uninstrumented build).
func HostLayerCycles(d *device.Device, input []int8) ([]uint64, *device.Result, error) {
	spans, res, err := HostLayerSpans(d, input)
	if err != nil {
		return nil, nil, err
	}
	layers := make([]uint64, len(spans))
	for i := range spans {
		layers[i] = spans[i].Cycles
	}
	return layers, res, nil
}

// HostLayerSpans is HostLayerCycles in span form: one untraced
// inference (device.RunBoundaries), segmented into layer spans by the
// image's boundary labels. It is the span source for images built
// *without* telemetry markers — Enter and Exit are the cycle totals at
// the l<i>_call / next-boundary instructions (no marker correction
// applies, there are no markers), and on an uninstrumented image each
// span's Cycles is the pure layer cost, bit-equal to the
// marker-corrected cost the telemetry twin reports (tested in
// host_test.go). The Result carries no Trace. Any reason the boundaries
// cannot be recorded is an error; it never falls back to a traced run.
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
