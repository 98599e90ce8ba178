package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
)

// MetricsSchema identifies the structured-metrics JSON format emitted
// by the runner (`neuroc-bench -metrics out.json`), consumed by
// trajectory tracking (BENCH_*.json) and the metrics-check tooling.
const MetricsSchema = "neuroc-metrics/v1"

// requiredMetricKeys are the per-experiment keys every record must
// carry; ValidateMetricsJSON enforces them so metric regressions fail
// fast in CI.
var requiredMetricKeys = []string{
	"name", "kind", "cycles", "instructions", "cpi",
	"latency_ms", "accuracy", "flash_bytes", "ram_bytes",
}

// Metric is one structured per-experiment measurement. Model records
// (kind "model") carry accuracy; microbenchmarks (kind "micro") report
// accuracy 0 — the field stays present so the schema is uniform.
type Metric struct {
	Name          string  `json:"name"`
	Kind          string  `json:"kind"` // "model" or "micro"
	Encoding      string  `json:"encoding,omitempty"`
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	CPI           float64 `json:"cpi"`
	LatencyMS     float64 `json:"latency_ms"`
	Accuracy      float64 `json:"accuracy"`       // quantized on-device accuracy
	AccuracyFloat float64 `json:"accuracy_float"` // float reference accuracy
	FlashBytes    int     `json:"flash_bytes"`
	RAMBytes      int     `json:"ram_bytes"`
	Params        int     `json:"params,omitempty"`
	Deployable    bool    `json:"deployable"`
	Error         string  `json:"error,omitempty"` // deploy/measure failure, if any

	// True on-emulator test-set accuracy, measured by running samples
	// through the board farm and cross-checked prediction-by-prediction
	// against the host quantized reference. DeviceAccuracyN is how many
	// test samples were evaluated on-device (0 = not measured).
	AccuracyDevice  float64 `json:"accuracy_device,omitempty"`
	DeviceAccuracyN int     `json:"accuracy_device_n,omitempty"`

	// Workers is the board-farm pool size of a farm record (kind
	// "farm"); the records of every pool size carry identical cycles
	// and accuracy.
	Workers int `json:"workers,omitempty"`

	// Layers is the per-layer cycle attribution measured on the
	// deployed image itself: Deployment.MeasureLayers segments its
	// untraced run at boundary marks on the image's layer calls
	// (device.RunBoundaries), cycle-exact. Only deployable model records
	// carry it.
	Layers []LayerMetric `json:"layers,omitempty"`

	// UJPerInference prices the record's measured cycle count with the
	// board's calibrated energy model (device.EnergyModel): the paper's
	// P_active·t identity over exact cycles, so the value is fully
	// deterministic and gated exactly by metricscheck -compare. Zero
	// (omitted) when the record measured no cycles.
	UJPerInference float64 `json:"uj_per_inference,omitempty"`

	// Energy echoes the model calibration the µJ figures were priced
	// with, so a stored metrics file is self-describing.
	Energy *EnergyMetric `json:"energy,omitempty"`
}

// EnergyMetric is the per-record energy block: the calibration constants
// plus the priced per-inference figure they produce.
type EnergyMetric struct {
	ActivePowerW   float64 `json:"active_power_w"`
	ClockHz        int     `json:"clock_hz"`
	UJPerInference float64 `json:"uj_per_inference"`
}

// LayerMetric is one layer's row in a model record's per-layer
// attribution.
type LayerMetric struct {
	Index      int     `json:"index"`
	Kernel     string  `json:"kernel"`
	Encoding   string  `json:"encoding,omitempty"` // resolved encoding ("block", "unrolled/4", "dense")
	Cycles     uint64  `json:"cycles"`
	LatencyMS  float64 `json:"latency_ms"`
	Share      float64 `json:"share"`                 // fraction of the record's total cycles
	UJ         float64 `json:"uj,omitempty"`          // the layer's cycles priced in µJ
	FlashBytes int     `json:"flash_bytes,omitempty"` // layer tables + descriptor + owned kernels
}

// MetricsFile is the top-level metrics document.
type MetricsFile struct {
	Schema      string   `json:"schema"`
	Quick       bool     `json:"quick"`
	Seed        uint64   `json:"seed"`
	Experiments []Metric `json:"experiments"`
}

// inputInvariant checks that a farm run's cycle counts do not vary with
// the input, which the branch-free kernels rule out; the caller names
// the experiment.
func inputInvariant(stats *farm.Stats) error {
	if stats.MinCycles != stats.MaxCycles {
		return fmt.Errorf("cycles vary with the input (%d..%d)", stats.MinCycles, stats.MaxCycles)
	}
	return nil
}

// record registers a metric under its name, overwriting an earlier
// record of the same experiment (memoized candidates report once).
// Derived keys are computed here — CPI from the counts, and the energy
// keys from the cycle count — so every record site (model, micro, farm)
// carries them without repeating the arithmetic.
func (r *Runner) record(m Metric) {
	if m.Instructions > 0 {
		m.CPI = float64(m.Cycles) / float64(m.Instructions)
	}
	if m.Cycles > 0 {
		em := device.EnergyModel()
		m.UJPerInference = em.ActiveUJ(m.Cycles)
		m.Energy = &EnergyMetric{
			ActivePowerW:   em.Budget.ActivePowerW(),
			ClockHz:        em.ClockHz,
			UJPerInference: m.UJPerInference,
		}
		for i := range m.Layers {
			m.Layers[i].UJ = em.ActiveUJ(m.Layers[i].Cycles)
		}
	}
	r.metrics[m.Name] = m
}

// Metrics returns everything recorded so far, sorted by name.
func (r *Runner) Metrics() *MetricsFile {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	f := &MetricsFile{Schema: MetricsSchema, Quick: r.cfg.Quick, Seed: r.cfg.Seed}
	for _, n := range names {
		f.Experiments = append(f.Experiments, r.metrics[n])
	}
	return f
}

// WriteMetricsJSON emits the recorded metrics as indented JSON.
func (r *Runner) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Metrics())
}

// ValidateMetricsJSON checks that data parses as a metrics document
// with the right schema, at least one experiment, every required key
// present on every experiment, no key the schema does not define, and
// no two experiments sharing a name.
// It is the CI gate behind `neuroc-bench -quick -metrics`: a runner
// change that drops a key or stops emitting records fails here rather
// than in downstream tooling. A document it accepts decodes as the
// MetricsFile that CompareMetricsJSON reads, so it compares equal to
// itself.
func ValidateMetricsJSON(data []byte) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("metrics: not valid JSON: %w", err)
	}
	var schema string
	if err := json.Unmarshal(top["schema"], &schema); err != nil || schema != MetricsSchema {
		return fmt.Errorf("metrics: schema %q, want %q", schema, MetricsSchema)
	}
	var exps []map[string]json.RawMessage
	if err := json.Unmarshal(top["experiments"], &exps); err != nil {
		return fmt.Errorf("metrics: experiments: %w", err)
	}
	if len(exps) == 0 {
		return fmt.Errorf("metrics: no experiments recorded")
	}
	for i, e := range exps {
		for _, k := range requiredMetricKeys {
			if _, ok := e[k]; !ok {
				return fmt.Errorf("metrics: experiment %d missing required key %q", i, k)
			}
		}
		// Energy keys: finite non-negative numbers wherever they appear.
		// (A literal NaN is not valid JSON, but a string "NaN" or a
		// negative value would slip through a plain presence check.)
		if raw, ok := e["uj_per_inference"]; ok {
			if err := checkEnergyNumber(raw); err != nil {
				return fmt.Errorf("metrics: experiment %d key \"uj_per_inference\": %w", i, err)
			}
		}
		if raw, ok := e["energy"]; ok {
			var em map[string]json.RawMessage
			if err := json.Unmarshal(raw, &em); err != nil {
				return fmt.Errorf("metrics: experiment %d key \"energy\" is not an object: %w", i, err)
			}
			for _, k := range []string{"active_power_w", "clock_hz", "uj_per_inference"} {
				v, ok := em[k]
				if !ok {
					return fmt.Errorf("metrics: experiment %d energy block missing %q", i, k)
				}
				if err := checkEnergyNumber(v); err != nil {
					return fmt.Errorf("metrics: experiment %d energy.%s: %w", i, k, err)
				}
			}
		}
		// Per-layer attribution, when present, must be well-formed: call
		// order indices and a positive cycle count per layer.
		if raw, ok := e["layers"]; ok {
			var layers []LayerMetric
			if err := json.Unmarshal(raw, &layers); err != nil {
				return fmt.Errorf("metrics: experiment %d key \"layers\": %w", i, err)
			}
			for j, l := range layers {
				if l.Index != j {
					return fmt.Errorf("metrics: experiment %d layer %d has index %d", i, j, l.Index)
				}
				if l.Kernel == "" || l.Cycles == 0 {
					return fmt.Errorf("metrics: experiment %d layer %d missing kernel or cycles", i, j)
				}
				if l.Encoding == "" {
					return fmt.Errorf("metrics: experiment %d layer %d missing encoding", i, j)
				}
				if l.FlashBytes <= 0 {
					return fmt.Errorf("metrics: experiment %d layer %d flash_bytes %d not positive", i, j, l.FlashBytes)
				}
				if math.IsNaN(l.UJ) || l.UJ < 0 {
					return fmt.Errorf("metrics: experiment %d layer %d energy %v is NaN or negative", i, j, l.UJ)
				}
			}
		}
	}
	// The comparison reads the typed records: they must decode with no
	// key left over, and a repeated name would hide all but one of its
	// records there.
	f, err := decodeMetrics(data)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if f.Schema != MetricsSchema {
		return fmt.Errorf("metrics: schema %q, want %q", f.Schema, MetricsSchema)
	}
	if dups := duplicateNames(f.Experiments); len(dups) > 0 {
		return fmt.Errorf("metrics: %s", dups[0])
	}
	return nil
}

// decodeMetrics decodes a metrics document strictly: a key that
// neuroc-metrics/v1 does not define, at the top level, in a record, in
// its layers or in its energy block, is an error rather than silently
// dropped, and so is anything after the document. Keys match their
// struct tags exactly; encoding/json alone would let a case variant
// ("WORKERS") through, and read the last of "params" and "Params".
func decodeMetrics(data []byte) (*MetricsFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f MetricsFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the document")
	}
	tops, err := exactKeys(data, reflect.TypeFor[MetricsFile]())
	if err != nil {
		return nil, err
	}
	exps, err := exactKeys(tops[0]["experiments"], reflect.TypeFor[Metric]())
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		if _, err := exactKeys(e["layers"], reflect.TypeFor[LayerMetric]()); err != nil {
			return nil, err
		}
		if _, err := exactKeys(e["energy"], reflect.TypeFor[EnergyMetric]()); err != nil {
			return nil, err
		}
	}
	return &f, nil
}

// exactKeys requires every key of the JSON objects in raw — one object,
// an array of them, null or nothing — to be the json tag of a field of
// struct t, byte for byte, and returns the objects.
func exactKeys(raw json.RawMessage, t reflect.Type) ([]map[string]json.RawMessage, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return nil, nil
	}
	var objs []map[string]json.RawMessage
	if raw[0] == '[' {
		if err := json.Unmarshal(raw, &objs); err != nil {
			return nil, err
		}
	} else {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			return nil, err
		}
		objs = append(objs, obj)
	}
	tags := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		tags[name] = true
	}
	for _, obj := range objs {
		var unknown []string
		for k := range obj {
			if !tags[k] {
				unknown = append(unknown, k)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return nil, fmt.Errorf("json: unknown field %q", unknown[0])
		}
	}
	return objs, nil
}

// checkEnergyNumber requires raw to decode as a finite, non-negative
// JSON number.
func checkEnergyNumber(raw json.RawMessage) error {
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("not a number: %s", raw)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("not finite: %s", raw)
	}
	if v < 0 {
		return fmt.Errorf("negative: %s", raw)
	}
	return nil
}
