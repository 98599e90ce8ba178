package telemetry

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// The trace-hook segmenter: the oracle the fast path's boundary marks
// (device.RunBoundaries) are checked against. A HostSegmenter rides the
// emulator's trace hook (armv6m.Trace.OnInstr) and records the running
// cycle total at chosen instruction addresses, so it sees every retired
// instruction through Step, with no translation table involved.

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

// oracleLayerSpans is HostLayerSpans on the oracle: one traced
// inference, segmented at the image's boundary labels by a
// HostSegmenter. The trace keeps no per-PC histogram.
func oracleLayerSpans(d *device.Device, input []int8) ([]Span, *device.Result, error) {
	addrs, err := d.Img.LayerBoundaries()
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
			return nil, nil, fmt.Errorf("telemetry: boundary %s never retired in order", d.Img.BoundaryName(i))
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

// denseModel is a small int8 dense MLP, the baseline the dense kernel
// carries.
func denseModel() *quant.Model {
	r := rng.New(31)
	layer := func(in, out int, relu bool) *quant.Layer {
		l := &quant.Layer{
			Kind: quant.DenseK, In: in, Out: out, W: make([]int8, in*out),
			Mults: []int32{int32(r.Intn(100)) + 20}, Bias: make([]int32, out),
			PostShift: 7, ReLU: relu,
		}
		for i := range l.W {
			l.W[i] = int8(r.Intn(255) - 127)
		}
		return l
	}
	return &quant.Model{InputScale: 127, Layers: []*quant.Layer{layer(32, 16, true), layer(16, 6, false)}}
}

// TestHostLayerSpansOracle: the boundary marks on the untraced fast
// path (HostLayerSpans) segment every encoding exactly as the trace-hook
// segmenter does on a traced run — equal spans, and equal outputs, cycle,
// instruction, sleep and bus counters — at ws 0-2 on seeded rows.
func TestHostLayerSpansOracle(t *testing.T) {
	unrolled := func(f int) modelimg.BuildOptions {
		encs := make([]modelimg.LayerEncoding, len(testModel().Layers))
		for i := range encs {
			encs[i] = modelimg.LayerEncoding{Choice: modelimg.UseUnrolled, Factor: f}
		}
		return modelimg.BuildOptions{PerLayer: encs}
	}
	for _, c := range []struct {
		name string
		m    *quant.Model
		opts modelimg.BuildOptions
		rows int
	}{
		{"block", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseBlock}, 3},
		{"csc", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseCSC}, 3},
		{"delta", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseDelta}, 3},
		{"mixed", testModel(), modelimg.BuildOptions{Encoding: modelimg.UseMixed}, 3},
		{"unrolled/1", testModel(), unrolled(1), 3},
		{"unrolled/2", testModel(), unrolled(2), 3},
		{"unrolled/4", testModel(), unrolled(4), 3},
		{"auto", autoMixModel(), modelimg.BuildOptions{Encoding: modelimg.UseAuto}, 1},
		{"dense", denseModel(), modelimg.BuildOptions{Encoding: modelimg.UseBlock}, 3},
	} {
		img, err := modelimg.BuildOpts(c.m, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fi, err := device.NewFlashImage(img)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(41)
		for row := 0; row < c.rows; row++ {
			in := randInput(r, img.InDim)
			for ws := 0; ws <= 2; ws++ {
				name := fmt.Sprintf("%s/row%d/ws%d", c.name, row, ws)
				fast, oracle := fi.NewBoard(), fi.NewBoard()
				fast.CPU.Bus.FlashWaitStates, oracle.CPU.Bus.FlashWaitStates = ws, ws
				got, res, err := HostLayerSpans(fast, in)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, ref, err := oracleLayerSpans(oracle, in)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: spans %+v, oracle %+v", name, got, want)
				}
				if res.Trace != nil || res.Cycles != ref.Cycles || res.Instructions != ref.Instructions ||
					res.SleepCycles != ref.SleepCycles || !reflect.DeepEqual(res.Output, ref.Output) {
					t.Errorf("%s: result %+v, oracle %+v", name, res, ref)
				}
				fb, ob := fast.CPU.Bus, oracle.CPU.Bus
				if fb.FlashReads != ob.FlashReads || fb.SRAMReads != ob.SRAMReads || fb.SRAMWrites != ob.SRAMWrites {
					t.Errorf("%s: bus %d/%d/%d, oracle %d/%d/%d", name,
						fb.FlashReads, fb.SRAMReads, fb.SRAMWrites, ob.FlashReads, ob.SRAMReads, ob.SRAMWrites)
				}
			}
		}
	}
}
