package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/energy"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// EnergySchema identifies the JSON record BuildEnergyReport emits.
const EnergySchema = "neuroc-energy/v1"

// Exactness contract: every µJ figure in this file is derived from an
// integer cycle count through the same deterministic float expression
// (energy.Model.ActiveUJ), so figures computed from equal cycle counts
// are bit-identical. Sums are proven on the cycle domain — layer +
// other == total holds exactly in integers — and the total
// energy is priced from the total count directly, never as a float sum
// of parts, so the whole-inference energy equals the closed-form
// P_active·cycles/f value bit-for-bit when nothing sleeps.

// LayerEnergyRecord is one layer's row in an EnergyReport.
type LayerEnergyRecord struct {
	Index  int     `json:"index"`
	Kernel string  `json:"kernel"`
	Cycles uint64  `json:"cycles"`
	UJ     float64 `json:"uj"`    // active energy of those cycles
	Share  float64 `json:"share"` // fraction of total inference energy
}

// EnergyReport prices one inference's layer attribution, the
// neuroc-energy/v1 record. The cycle fields mirror Report; the µJ
// fields are those cycles priced by the board's energy model.
type EnergyReport struct {
	Schema          string `json:"schema"`
	ClockHz         int    `json:"clock_hz"`
	FlashWaitStates int    `json:"flash_wait_states"`

	// Calibration echo, so a stored report is self-describing.
	ActivePowerW float64 `json:"active_power_w"`
	SleepPowerW  float64 `json:"sleep_power_w"`

	TotalCycles  uint64 `json:"total_cycles"`
	ActiveCycles uint64 `json:"active_cycles"`
	SleepCycles  uint64 `json:"sleep_cycles,omitempty"`

	// TotalUJ prices the whole inference: active cycles at the run-mode
	// point plus sleep cycles at the stop-mode point. With no sleep it
	// equals ActiveUJ exactly.
	TotalUJ  float64 `json:"total_uj"`
	ActiveUJ float64 `json:"active_uj"`
	SleepUJ  float64 `json:"sleep_uj,omitempty"`

	// DutyActive is the measured active fraction (1 when nothing slept).
	DutyActive float64 `json:"duty_active"`

	LayerCycles uint64  `json:"layer_cycles"`
	OtherCycles uint64  `json:"other_cycles"`
	LayerUJ     float64 `json:"layer_uj"` // priced from LayerCycles
	OtherUJ     float64 `json:"other_uj"` // priced from OtherCycles

	Layers []LayerEnergyRecord `json:"layers"`
}

// BuildEnergyReport is BuildReport priced with m.
func BuildEnergyReport(spans []Span, measured uint64, res *device.Result, ws int, m energy.Model) (*EnergyReport, error) {
	base, err := BuildReport(spans, measured, res, ws)
	if err != nil {
		return nil, err
	}
	r := &EnergyReport{
		Schema:          EnergySchema,
		ClockHz:         m.ClockHz,
		FlashWaitStates: ws,
		ActivePowerW:    m.Budget.ActivePowerW(),
		SleepPowerW:     m.Budget.SleepPowerW(),
		TotalCycles:     res.Cycles,
		ActiveCycles:    res.ActiveCycles(),
		SleepCycles:     res.SleepCycles,
		LayerCycles:     base.LayerCycles,
		OtherCycles:     base.OtherCycles,
	}
	r.ActiveUJ = m.ActiveUJ(r.ActiveCycles)
	r.SleepUJ = m.SleepJPerCycle() * float64(r.SleepCycles) * 1e6
	r.TotalUJ = r.ActiveUJ + r.SleepUJ
	if r.TotalCycles > 0 {
		r.DutyActive = float64(r.ActiveCycles) / float64(r.TotalCycles)
	}
	r.LayerUJ = m.ActiveUJ(r.LayerCycles)
	r.OtherUJ = m.ActiveUJ(r.OtherCycles)
	for _, l := range base.Layers {
		rec := LayerEnergyRecord{
			Index:  l.Index,
			Kernel: l.Kernel,
			Cycles: l.Cycles,
			UJ:     m.ActiveUJ(l.Cycles),
		}
		if r.TotalUJ > 0 {
			rec.Share = rec.UJ / r.TotalUJ
		}
		r.Layers = append(r.Layers, rec)
	}
	return r, nil
}

// WriteJSON emits the neuroc-energy/v1 record.
func (r *EnergyReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the per-layer energy table for terminals
// (m0run -energy).
func (r *EnergyReport) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tKERNEL\tCYCLES\tENERGY_UJ\tSHARE")
	for _, l := range r.Layers {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.4f\t%4.1f%%\n",
			l.Index, l.Kernel, l.Cycles, l.UJ, l.Share*100)
	}
	fmt.Fprintf(tw, "\t[layers]\t%d\t%.4f\t\n", r.LayerCycles, r.LayerUJ)
	fmt.Fprintf(tw, "\t[other]\t%d\t%.4f\t\n", r.OtherCycles, r.OtherUJ)
	if r.SleepCycles > 0 {
		fmt.Fprintf(tw, "\t[sleep]\t%d\t%.4f\t\n", r.SleepCycles, r.SleepUJ)
	}
	fmt.Fprintf(tw, "\t[total]\t%d\t%.4f\t\n", r.TotalCycles, r.TotalUJ)
	fmt.Fprintf(tw, "\nduty: %.1f%% active, %.2f µW mean draw at this duty\n",
		r.DutyActive*100, r.meanDrawUW())
	return tw.Flush()
}

// meanDrawUW is the mean power of the measured active/sleep split, in
// microwatts.
func (r *EnergyReport) meanDrawUW() float64 {
	return (r.ActivePowerW*r.DutyActive + r.SleepPowerW*(1-r.DutyActive)) * 1e6
}

// LayerEnergyStats aggregates one layer's priced cost across a batch.
type LayerEnergyStats struct {
	LayerStats
	TotalUJ float64 `json:"total_uj"`
	MeanUJ  float64 `json:"mean_uj"`
}

// EnergyAggregate is the batch-level neuroc-energy/v1 summary from a
// farm run: per-layer priced statistics plus whole-batch totals.
type EnergyAggregate struct {
	Schema       string             `json:"schema"`
	ClockHz      int                `json:"clock_hz"`
	Items        int                `json:"items"`
	TotalCycles  uint64             `json:"total_cycles"`
	ActiveCycles uint64             `json:"active_cycles"`
	SleepCycles  uint64             `json:"sleep_cycles,omitempty"`
	TotalUJ      float64            `json:"total_uj"`
	MeanUJ       float64            `json:"mean_uj"` // per successful item
	Layers       []LayerEnergyStats `json:"layers"`
}

// AggregateEnergy folds a telemetry-image farm run into per-layer and
// whole-batch energy. The same strictness as Aggregate applies: any
// successful item with a truncated or undecodable stream is an error.
// The whole-batch figures price the twin's own cycles, markers
// included.
func AggregateEnergy(img *modelimg.Image, results []farm.Result, ws int, m energy.Model) (*EnergyAggregate, error) {
	b, err := twinBatch(img, results, ws)
	if err != nil {
		return nil, err
	}
	return b.energy(m), nil
}

// HostAggregateEnergy is AggregateEnergy measured on the host, the way
// HostAggregate is Aggregate: on an uninstrumented image the per-layer
// figures equal the twin's and the whole-batch figures price exactly
// the cycles the deployed image spends.
func HostAggregateEnergy(d *device.Device, inputs [][]int8, m energy.Model) (*EnergyAggregate, error) {
	b, err := hostBatch(d, inputs)
	if err != nil {
		return nil, err
	}
	return b.energy(m), nil
}

// AggregateSpansEnergy is AggregateSpans priced with m.
func AggregateSpansEnergy(spans []Span, measured uint64, results []farm.Result, m energy.Model) (*EnergyAggregate, error) {
	b, err := spanBatch(spans, measured, results)
	if err != nil {
		return nil, err
	}
	return b.energy(m), nil
}

// energy prices the fold with m.
func (b *batch) energy(m energy.Model) *EnergyAggregate {
	agg := &EnergyAggregate{
		Schema:       EnergySchema,
		ClockHz:      m.ClockHz,
		Items:        b.items,
		TotalCycles:  b.cycles,
		ActiveCycles: b.cycles - b.sleep,
		SleepCycles:  b.sleep,
	}
	agg.TotalUJ = m.ActiveUJ(agg.ActiveCycles) + m.SleepJPerCycle()*float64(agg.SleepCycles)*1e6
	if agg.Items > 0 {
		agg.MeanUJ = agg.TotalUJ / float64(agg.Items)
	}
	for _, s := range b.stats() {
		agg.Layers = append(agg.Layers, LayerEnergyStats{
			LayerStats: s,
			TotalUJ:    m.ActiveUJ(s.Total),
			MeanUJ:     m.ActiveUJ(s.Total) / float64(max(s.Count, 1)),
		})
	}
	return agg
}

// WriteJSON emits the batch-level neuroc-energy/v1 summary.
func (a *EnergyAggregate) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteTable renders the aggregated energy table
// (m0run -batch -energy).
func (a *EnergyAggregate) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tKERNEL\tCOUNT\tMEAN_CYCLES\tMEAN_UJ")
	for _, s := range a.Layers {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.1f\t%.4f\n",
			s.Index, s.Kernel, s.Count, s.Mean, s.MeanUJ)
	}
	fmt.Fprintf(tw, "\t[batch]\t%d\t%d\t%.4f\n", a.Items, a.TotalCycles, a.TotalUJ)
	fmt.Fprintf(tw, "\t[mean/inference]\t\t\t%.4f\n", a.MeanUJ)
	return tw.Flush()
}
