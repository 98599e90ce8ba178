// Package telemetry attributes an inference's cycles to the model's
// layers, the host half of the paper's TIM2 measurement.
//
// Every shipped tool takes layer spans from the deployed image itself:
// HostLayerSpans segments one untraced inference at the image's layer
// boundaries (device.RunBoundaries), and because a layer's cost does not
// depend on the input, that one measurement is applied to every run or
// farm row of the image (BuildReport, BuildEnergyReport, BuildTimeline,
// AggregateSpans), each of which must cost exactly the measured total.
//
// The telemetry twin is the oracle those spans are tested against: an
// image built with modelimg.BuildOptions.Telemetry brackets every layer
// call with enter/exit stores to the peripheral mailbox, and the
// peripheral stamps each store with the exact retire-time cycle count,
// as TIM2 would on the board. Because the marker sequence is fixed (see
// internal/kernels telemetry.go), its cost is a closed-form constant and
// Decode subtracts it exactly: a decoded Span.Cycles equals, cycle for
// cycle, what the same layer costs in the deployed image.
//
// The timestamp convention: an event's cycle stamp is taken after the
// storing instruction fully retires. The enter marker's own cost
// (MarkerCost) therefore lands *inside* the raw Exit-Enter delta while
// the exit marker's does not, so the corrected layer cost is
// Exit - Enter - MarkerCost(ws).
package telemetry

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// MarkerCost is the exact cycle cost of one marker store (movs imm8 +
// str to the no-wait-state peripheral window) at the given flash
// wait-state setting: (1+ws) + (2+ws).
func MarkerCost(ws int) uint64 { return uint64(3 + 2*ws) }

// PrologueCost is the one-time cost of parking the mailbox address in a
// register (ldr literal: 2 cycles + ws on the fetch + ws on the pool
// read).
func PrologueCost(ws int) uint64 { return uint64(2 + 2*ws) }

// Overhead is the total instrumentation cost an n-layer telemetry image
// adds over its uninstrumented twin: the prologue plus two markers per
// layer. The relation is exact — tested down to the cycle against both
// interpreters.
func Overhead(nLayers, ws int) uint64 {
	return PrologueCost(ws) + uint64(nLayers)*2*MarkerCost(ws)
}

// Span is one layer execution.
type Span struct {
	Layer  int    `json:"layer"`
	Kernel string `json:"kernel,omitempty"` // accumulate kernel symbol, when known

	// Enter and Exit are the cycle totals at the layer's boundaries
	// (HostLayerSpans) or the raw mailbox timestamps (Decode).
	Enter uint64 `json:"enter"`
	Exit  uint64 `json:"exit"`

	// Cycles is the layer cost: Exit - Enter on the deployed image,
	// Exit - Enter - MarkerCost for a decoded twin, equal either way.
	Cycles uint64 `json:"cycles"`
}

// Decode validates and decodes a raw event stream into layer spans. The
// stream must be exactly what a telemetry image emits: one enter/exit
// pair per layer, layers in order 0..n-1, timestamps monotonic. Anything
// else — a truncated capture, interleaved pairs, an image that stored
// its own words into the mailbox — is an error, not a best-effort table.
func Decode(events []armv6m.TimerEvent, ws int) ([]Span, error) {
	if len(events)%2 != 0 {
		return nil, fmt.Errorf("telemetry: odd event count %d, markers come in enter/exit pairs", len(events))
	}
	spans := make([]Span, 0, len(events)/2)
	mc := MarkerCost(ws)
	var prev uint64
	for i := 0; i < len(events); i += 2 {
		enter, exit := events[i], events[i+1]
		layer, isExit := kernels.MarkerLayer(enter.Marker)
		if isExit || layer != len(spans) {
			return nil, fmt.Errorf("telemetry: event %d: marker %d, want enter marker for layer %d",
				i, enter.Marker, len(spans))
		}
		if l, e := kernels.MarkerLayer(exit.Marker); !e || l != layer {
			return nil, fmt.Errorf("telemetry: event %d: marker %d, want exit marker for layer %d",
				i+1, exit.Marker, layer)
		}
		if enter.Cycles < prev || exit.Cycles < enter.Cycles+mc {
			return nil, fmt.Errorf("telemetry: layer %d: non-causal timestamps enter=%d exit=%d (prev %d, marker cost %d)",
				layer, enter.Cycles, exit.Cycles, prev, mc)
		}
		prev = exit.Cycles
		spans = append(spans, Span{
			Layer:  layer,
			Enter:  enter.Cycles,
			Exit:   exit.Cycles,
			Cycles: exit.Cycles - enter.Cycles - mc,
		})
	}
	return spans, nil
}

// DecodeImage decodes against the image that produced the stream: the
// span count must match the image's layer count, and each span is
// labelled with its kernel symbol.
func DecodeImage(img *modelimg.Image, events []armv6m.TimerEvent, ws int) ([]Span, error) {
	if !img.Telemetry {
		return nil, fmt.Errorf("telemetry: image was built without telemetry markers")
	}
	spans, err := Decode(events, ws)
	if err != nil {
		return nil, err
	}
	if len(spans) != len(img.Layers) {
		return nil, fmt.Errorf("telemetry: decoded %d layers, image has %d", len(spans), len(img.Layers))
	}
	for i := range spans {
		spans[i].Kernel = img.Layers[i].Kernel
	}
	return spans, nil
}
