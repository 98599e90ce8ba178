package telemetry

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// Host-side attribution: the independent measurement the on-device
// markers are checked against, and the one Deployment.MeasureLayers and
// MeasureEnergy take on the deployed image (HostAggregate,
// HostAggregateEnergy), so no instrumented twin is built for them. A
// HostSegmenter rides the emulator's
// trace hook (armv6m.Trace.OnInstr) and records the running cycle total
// at chosen instruction addresses; because entry code is straight-line,
// the totals at the image's per-layer call labels segment an inference
// into exact layer costs without any on-device instrumentation.
//
// The running total is the sum of per-instruction costs the trace
// streams, which equals CPU.Cycles for exception-free runs; exception
// entry cost is charged between instructions and would make boundary
// totals diverge from mailbox timestamps, so segment masked or
// interrupt-free inferences.

// Mark is one watched instruction address and the cycle totals observed
// at its first retirement after the previous mark's.
type Mark struct {
	Addr   uint32
	Before uint64 // cycles retired before the instruction at Addr began
	After  uint64 // cycles after it fully retired (Before + its cost)
	Hit    bool
}

// HostSegmenter records cycle totals at watched addresses, in order.
// Attach to a trace before running. The addresses must be listed in
// the order they first retire: the segmenter compares each retired
// instruction against the next unhit mark only, so a mark is captured
// at its first retirement after its predecessor's (entry code runs
// once, so that is the layer boundary). A mark listed out of
// retirement order, or one that never retires, stays unhit.
type HostSegmenter struct {
	Marks   []Mark
	next    int
	running uint64
}

// NewHostSegmenter watches the given instruction addresses, in
// retirement order.
func NewHostSegmenter(addrs []uint32) *HostSegmenter {
	s := &HostSegmenter{Marks: make([]Mark, len(addrs))}
	for i, a := range addrs {
		s.Marks[i].Addr = a
	}
	return s
}

// Attach hooks the segmenter into tr. It claims the trace's OnInstr
// slot.
func (s *HostSegmenter) Attach(tr *armv6m.Trace) {
	tr.OnInstr = func(ii armv6m.InstrInfo) {
		if s.next < len(s.Marks) && ii.Addr == s.Marks[s.next].Addr {
			m := &s.Marks[s.next]
			m.Hit = true
			m.Before = s.running
			m.After = s.running + ii.Cycles
			s.next++
		}
		s.running += ii.Cycles
	}
}

// LayerBoundaryAddrs returns the n+1 boundary addresses that segment an
// image's entry sequence into layers: l<i>_call for each layer, then
// entry_end. They exist in every image built since layer labels were
// introduced, instrumented or not.
func LayerBoundaryAddrs(img *modelimg.Image) ([]uint32, error) {
	addrs := make([]uint32, 0, len(img.Layers)+1)
	for i := 0; i <= len(img.Layers); i++ {
		name := boundaryName(img, i)
		a, ok := img.Prog.Symbols[name]
		if !ok {
			return nil, fmt.Errorf("telemetry: image has no %q symbol (built before layer labels?)", name)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// boundaryName is the symbol of an image's i-th layer boundary:
// l<i>_call, or entry_end after the last layer.
func boundaryName(img *modelimg.Image, i int) string {
	if i == len(img.Layers) {
		return "entry_end"
	}
	return fmt.Sprintf("l%d_call", i)
}

// HostLayerCycles runs one traced inference and attributes its cycles
// to layers by the image's boundary labels. The returned slice has one
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

// HostLayerSpans is HostLayerCycles in span form: one traced inference,
// segmented into layer spans by the image's boundary labels. It is the
// span source for images built *without* telemetry markers — Enter and
// Exit are the cycle totals at the l<i>_call / next-boundary
// instructions (no marker correction applies, there are no markers),
// and on an uninstrumented image each span's Cycles is the pure layer
// cost, bit-equal to the marker-corrected cost the telemetry twin
// reports (tested in host_test.go). The trace it runs under keeps no
// per-PC histogram (Result.Trace.PCs is nil); the class, bus and stack
// counters are complete.
func HostLayerSpans(d *device.Device, input []int8) ([]Span, *device.Result, error) {
	addrs, err := LayerBoundaryAddrs(d.Img)
	if err != nil {
		return nil, nil, err
	}
	seg := NewHostSegmenter(addrs)
	tr := armv6m.NewTrace()
	tr.PCs = nil
	seg.Attach(tr)
	res, err := d.RunTraced(input, tr)
	if err != nil {
		return nil, nil, err
	}
	for i, m := range seg.Marks {
		if !m.Hit {
			return nil, nil, fmt.Errorf("telemetry: boundary %s never retired in order", boundaryName(d.Img, i))
		}
	}
	spans := make([]Span, len(addrs)-1)
	for i := range spans {
		lo, hi := seg.Marks[i], seg.Marks[i+1]
		spans[i] = Span{
			Layer:  i,
			Kernel: d.Img.Layers[i].Kernel,
			Enter:  lo.Before,
			Exit:   hi.Before,
			Cycles: hi.Before - lo.Before,
		}
	}
	return spans, res, nil
}
