package telemetry

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/neuro-c/neuroc/internal/device"
)

// Schema identifies the JSON record a Report marshals to.
const Schema = "neuroc-telemetry/v1"

// LayerRecord is one layer's row in a Report.
type LayerRecord struct {
	Index       int     `json:"index"`
	Kernel      string  `json:"kernel"`
	EnterCycles uint64  `json:"enter_cycles"`
	ExitCycles  uint64  `json:"exit_cycles"`
	Cycles      uint64  `json:"cycles"`
	LatencyMS   float64 `json:"latency_ms"`
	Share       float64 `json:"share"` // fraction of total inference cycles
}

// Report is the per-layer attribution of one inference of the deployed
// image, the neuroc-telemetry/v1 record.
type Report struct {
	Schema          string        `json:"schema"`
	ClockHz         int           `json:"clock_hz"`
	FlashWaitStates int           `json:"flash_wait_states"`
	TotalCycles     uint64        `json:"total_cycles"` // whole inference
	LayerCycles     uint64        `json:"layer_cycles"` // sum of layer costs
	OtherCycles     uint64        `json:"other_cycles"` // entry glue outside the layers
	Layers          []LayerRecord `json:"layers"`
}

// BuildReport applies the deployed image's layer spans to one run of it.
// spans and measured are one measurement of the image at ws
// (HostLayerSpans and its total cycles); res is the run they describe,
// which must have cost exactly measured cycles.
func BuildReport(spans []Span, measured uint64, res *device.Result, ws int) (*Report, error) {
	if err := checkRow("run", res.Cycles, measured); err != nil {
		return nil, err
	}
	r := &Report{
		Schema:          Schema,
		ClockHz:         device.ClockHz,
		FlashWaitStates: ws,
		TotalCycles:     res.Cycles,
	}
	for _, s := range spans {
		r.LayerCycles += s.Cycles
		r.Layers = append(r.Layers, LayerRecord{
			Index:       s.Layer,
			Kernel:      s.Kernel,
			EnterCycles: s.Enter,
			ExitCycles:  s.Exit,
			Cycles:      s.Cycles,
			LatencyMS:   device.CyclesToMS(s.Cycles),
			Share:       float64(s.Cycles) / float64(res.Cycles),
		})
	}
	r.OtherCycles = r.TotalCycles - r.LayerCycles
	return r, nil
}

// checkRow requires a run or farm row the measured layer spans are
// applied to to have cost exactly the measured total: the spans are
// facts of the image only while every inference of it costs the same.
func checkRow(row string, cycles, measured uint64) error {
	if cycles != measured {
		return fmt.Errorf("telemetry: %s cost %d cycles, the layer measurement %d", row, cycles, measured)
	}
	return nil
}

// WriteTable renders the per-layer table for terminals (m0run -layers).
func (r *Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tKERNEL\tCYCLES\tLATENCY_MS\tSHARE")
	for _, l := range r.Layers {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.3f\t%4.1f%%\n",
			l.Index, l.Kernel, l.Cycles, l.LatencyMS, l.Share*100)
	}
	fmt.Fprintf(tw, "\t[layers]\t%d\t%.3f\t\n", r.LayerCycles, device.CyclesToMS(r.LayerCycles))
	fmt.Fprintf(tw, "\t[other]\t%d\t%.3f\t\n", r.OtherCycles, device.CyclesToMS(r.OtherCycles))
	fmt.Fprintf(tw, "\t[total]\t%d\t%.3f\t\n", r.TotalCycles, device.CyclesToMS(r.TotalCycles))
	return tw.Flush()
}
