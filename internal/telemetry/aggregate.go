package telemetry

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// LayerStats aggregates one layer's corrected cycle cost across a batch
// of inferences.
type LayerStats struct {
	Index  int     `json:"index"`
	Kernel string  `json:"kernel"`
	Count  int     `json:"count"`
	Min    uint64  `json:"min_cycles"`
	Max    uint64  `json:"max_cycles"`
	Total  uint64  `json:"total_cycles"`
	Mean   float64 `json:"mean_cycles"`
}

// batch is the one fold from per-inference layer spans to batch
// statistics. The telemetry twin's decoded event streams (Aggregate,
// AggregateEnergy), the host-segmented spans of every input
// (HostAggregate, HostAggregateEnergy) and one measurement applied to a
// farm run of the deployed image (AggregateSpans, AggregateSpansEnergy)
// all go through it, so equal spans and cycle totals fold to equal
// figures, bit for bit.
type batch struct {
	layers []LayerStats
	items  int
	cycles uint64 // whole-inference cycles, summed over items
	sleep  uint64 // the WFI portion of cycles
}

func newBatch(img *modelimg.Image) *batch {
	b := &batch{layers: make([]LayerStats, len(img.Layers))}
	for i, l := range img.Layers {
		b.layers[i] = LayerStats{Index: i, Kernel: l.Kernel}
	}
	return b
}

// add folds one inference: its layer spans, one per image layer in
// order, and its whole-inference cycle and sleep counts.
func (b *batch) add(spans []Span, cycles, sleep uint64) {
	b.items++
	b.cycles += cycles
	b.sleep += sleep
	for j, s := range spans {
		st := &b.layers[j]
		st.Total += s.Cycles
		if st.Count == 0 || s.Cycles < st.Min {
			st.Min = s.Cycles
		}
		if s.Cycles > st.Max {
			st.Max = s.Cycles
		}
		st.Count++
	}
}

// stats returns the per-layer statistics with their means filled in.
func (b *batch) stats() []LayerStats {
	for i := range b.layers {
		if b.layers[i].Count > 0 {
			b.layers[i].Mean = float64(b.layers[i].Total) / float64(b.layers[i].Count)
		}
	}
	return b.layers
}

// twinBatch decodes every successful item of a telemetry-image farm run
// into the fold. Failed items are skipped (they carry no telemetry);
// any successful item with an undecodable or truncated stream is an
// error — silently dropping it would bias the stats.
func twinBatch(img *modelimg.Image, results []farm.Result, ws int) (*batch, error) {
	b := newBatch(img)
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		if results[i].TelemetryDropped > 0 {
			return nil, fmt.Errorf("telemetry: item %d dropped %d events", i, results[i].TelemetryDropped)
		}
		spans, err := DecodeImage(img, results[i].Telemetry, ws)
		if err != nil {
			return nil, fmt.Errorf("telemetry: item %d: %w", i, err)
		}
		b.add(spans, results[i].Cycles, results[i].SleepCycles)
	}
	return b, nil
}

// hostBatch runs inputs one after another on d, segments each untraced
// inference at the image's layer boundaries (HostLayerSpans), and folds
// the spans. Any failed inference is an error.
func hostBatch(d *device.Device, inputs [][]int8) (*batch, error) {
	b := newBatch(d.Img)
	for i, in := range inputs {
		spans, res, err := HostLayerSpans(d, in)
		if err != nil {
			return nil, fmt.Errorf("telemetry: item %d: %w", i, err)
		}
		b.add(spans, res.Cycles, res.SleepCycles)
	}
	return b, nil
}

// spanBatch applies the deployed image's layer spans, measured once
// (HostLayerSpans, measured total cycles), to every successful item of
// a farm run of that image. Failed items are skipped; a successful item
// of any other cost is an error naming it.
func spanBatch(spans []Span, measured uint64, results []farm.Result) (*batch, error) {
	b := &batch{layers: make([]LayerStats, len(spans))}
	for i, s := range spans {
		b.layers[i] = LayerStats{Index: i, Kernel: s.Kernel}
	}
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		if err := checkRow(fmt.Sprintf("item %d", i), results[i].Cycles, measured); err != nil {
			return nil, err
		}
		b.add(spans, results[i].Cycles, results[i].SleepCycles)
	}
	return b, nil
}

// AggregateSpans folds a farm run of the deployed image into per-layer
// statistics from one measurement of its layer spans (see spanBatch).
func AggregateSpans(spans []Span, measured uint64, results []farm.Result) ([]LayerStats, error) {
	b, err := spanBatch(spans, measured, results)
	if err != nil {
		return nil, err
	}
	return b.stats(), nil
}

// Aggregate decodes every successful item of a telemetry-image farm run
// and folds the per-layer costs into per-layer statistics (see
// twinBatch for which items count).
func Aggregate(img *modelimg.Image, results []farm.Result, ws int) ([]LayerStats, error) {
	b, err := twinBatch(img, results, ws)
	if err != nil {
		return nil, err
	}
	return b.stats(), nil
}

// HostAggregate is Aggregate measured on the host: it runs inputs one
// after another on d, segments each untraced inference at the image's
// layer boundaries, and folds the spans. On an uninstrumented image the
// result equals Aggregate over the telemetry twin's farm run on the
// same inputs, field for field.
func HostAggregate(d *device.Device, inputs [][]int8) ([]LayerStats, error) {
	b, err := hostBatch(d, inputs)
	if err != nil {
		return nil, err
	}
	return b.stats(), nil
}

// WriteStatsTable renders aggregated per-layer statistics for
// terminals (m0run -batch -layers).
func WriteStatsTable(w io.Writer, stats []LayerStats) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tKERNEL\tCOUNT\tMIN\tMEAN\tMAX\tMEAN_MS")
	for _, s := range stats {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.1f\t%d\t%.3f\n",
			s.Index, s.Kernel, s.Count, s.Min, s.Mean, s.Max,
			device.CyclesToMS(uint64(s.Mean)))
	}
	return tw.Flush()
}
