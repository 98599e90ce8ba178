package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
)

// TestFig5RecordsMetrics checks that a training-free device-measured
// experiment populates the structured metrics and that the emitted JSON
// passes its own CI gate.
func TestFig5RecordsMetrics(t *testing.T) {
	r := quickRunner()
	r.Fig5()
	mf := r.Metrics()
	if len(mf.Experiments) == 0 {
		t.Fatal("Fig5 recorded no metrics")
	}
	if mf.Schema != MetricsSchema {
		t.Errorf("schema = %q", mf.Schema)
	}
	if !mf.Quick {
		t.Error("quick flag not propagated")
	}
	sawFig5 := false
	for _, m := range mf.Experiments {
		if !strings.HasPrefix(m.Name, "fig5-") {
			continue
		}
		sawFig5 = true
		if m.Kind != "micro" {
			t.Errorf("%s: kind = %q, want micro", m.Name, m.Kind)
		}
		if m.Error != "" {
			t.Errorf("%s: unexpected error %q", m.Name, m.Error)
			continue
		}
		if m.Cycles == 0 || m.Instructions == 0 {
			t.Errorf("%s: empty measurement %+v", m.Name, m)
		}
		if m.CPI < 1 {
			t.Errorf("%s: CPI %v below 1 (sub-cycle instructions?)", m.Name, m.CPI)
		}
		if m.LatencyMS <= 0 || m.FlashBytes <= 0 {
			t.Errorf("%s: missing latency/flash: %+v", m.Name, m)
		}
	}
	if !sawFig5 {
		t.Error("no fig5-* records among metrics")
	}

	var buf bytes.Buffer
	if err := r.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetricsJSON(buf.Bytes()); err != nil {
		t.Errorf("emitted metrics fail validation: %v", err)
	}
}

// validExp builds a metrics document with one otherwise-valid
// experiment plus extra raw JSON keys spliced into it.
func validExp(extra string) string {
	return `{"schema":"neuroc-metrics/v1","experiments":[{"name":"x","kind":"micro","cycles":1,"instructions":1,"cpi":1,"latency_ms":1,"accuracy":0,"flash_bytes":1,"ram_bytes":1,` + extra + `}]}`
}

func TestValidateMetricsJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"garbage", "{not json", "not valid JSON"},
		{"wrong-schema", `{"schema":"other/v9","experiments":[{}]}`, "schema"},
		{"no-experiments", `{"schema":"neuroc-metrics/v1","experiments":[]}`, "no experiments"},
		{"missing-key", `{"schema":"neuroc-metrics/v1","experiments":[{"name":"x","kind":"micro","cycles":1,"instructions":1,"cpi":1,"latency_ms":1,"accuracy":0,"flash_bytes":1}]}`, `"ram_bytes"`},
		{"energy-negative", validExp(`"uj_per_inference":-1.5`), "negative"},
		{"energy-string", validExp(`"uj_per_inference":"NaN"`), "not a number"},
		{"energy-not-object", validExp(`"energy":42`), "not an object"},
		{"energy-missing-field", validExp(`"energy":{"active_power_w":0.006,"clock_hz":8000000}`), `"uj_per_inference"`},
		{"energy-bad-field", validExp(`"energy":{"active_power_w":-0.006,"clock_hz":8000000,"uj_per_inference":1}`), "negative"},
		{"retired-key", validExp(`"wall_ms":10.67`), `unknown field "wall_ms"`},
		{"unknown-top-key", `{"schema":"neuroc-metrics/v1","tolerance":0.5,"experiments":[{"name":"x","kind":"micro","cycles":1,"instructions":1,"cpi":1,"latency_ms":1,"accuracy":0,"flash_bytes":1,"ram_bytes":1}]}`, `unknown field "tolerance"`},
		{"unknown-layer-key", validExp(`"layers":[{"index":0,"kernel":"k","encoding":"block","cycles":1,"latency_ms":0,"share":1,"flash_bytes":1,"tier":"auto"}]`), `unknown field "tier"`},
		{"unknown-energy-key", validExp(`"energy":{"active_power_w":0.006,"clock_hz":8000000,"uj_per_inference":1,"host_mips":1}`), `unknown field "host_mips"`},
		{"case-variant-key", validExp(`"WORKERS":4`), `unknown field "WORKERS"`},
		{"case-variant-duplicate", validExp(`"params":1,"Params":2`), `unknown field "Params"`},
		{"case-variant-layer-key", validExp(`"layers":[{"index":0,"kernel":"k","encoding":"block","Cycles":1,"latency_ms":0,"share":1,"flash_bytes":1}]`), `unknown field "Cycles"`},
		{"case-variant-energy-key", validExp(`"energy":{"active_power_w":0.006,"Clock_Hz":8000000,"clock_hz":8000000,"uj_per_inference":1}`), `unknown field "Clock_Hz"`},
		{"case-variant-top-key", `{"schema":"neuroc-metrics/v1","Seed":3,"experiments":[{"name":"x","kind":"micro","cycles":1,"instructions":1,"cpi":1,"latency_ms":1,"accuracy":0,"flash_bytes":1,"ram_bytes":1}]}`, `unknown field "Seed"`},
	}
	for _, c := range cases {
		err := ValidateMetricsJSON([]byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestRecordPricesEnergy checks record derives the energy keys — record
// and per-layer — from the measured cycles with the board's calibrated
// model, and leaves them absent when nothing was measured.
func TestRecordPricesEnergy(t *testing.T) {
	r := quickRunner()
	r.record(Metric{Name: "e", Kind: "model", Cycles: 8000, Instructions: 8000,
		Layers: []LayerMetric{{Index: 0, Kernel: "k_fc", Cycles: 8000}}})
	r.record(Metric{Name: "f", Kind: "model", Error: "deploy failed"})
	exps := r.Metrics().Experiments
	em := device.EnergyModel()
	m := exps[0]
	if m.UJPerInference != em.ActiveUJ(8000) {
		t.Errorf("uj_per_inference = %v, want %v", m.UJPerInference, em.ActiveUJ(8000))
	}
	if m.Energy == nil {
		t.Fatal("energy block missing on a measured record")
	}
	if m.Energy.ClockHz != em.ClockHz || m.Energy.ActivePowerW != em.Budget.ActivePowerW() ||
		m.Energy.UJPerInference != m.UJPerInference {
		t.Errorf("energy block desynchronized: %+v", *m.Energy)
	}
	if m.Layers[0].UJ != em.ActiveUJ(8000) {
		t.Errorf("layer uj = %v, want %v", m.Layers[0].UJ, em.ActiveUJ(8000))
	}
	// A failed record measured no cycles: no energy keys at all.
	if f := exps[1]; f.UJPerInference != 0 || f.Energy != nil {
		t.Errorf("failure record carries energy keys: %+v", f)
	}
}

// TestMetricCPIRecomputed checks record derives CPI from the raw counts
// so callers cannot desynchronize the three fields.
func TestMetricCPIRecomputed(t *testing.T) {
	r := quickRunner()
	r.record(Metric{Name: "x", Kind: "micro", Cycles: 300, Instructions: 200, CPI: 99})
	m := r.Metrics().Experiments[0]
	if m.CPI != 1.5 {
		t.Errorf("CPI = %v, want 1.5", m.CPI)
	}
	// Zero instructions (failed deploy): CPI left untouched, marshals as 0.
	r.record(Metric{Name: "y", Kind: "model", Error: "deploy failed"})
	data, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetricsJSON(data); err != nil {
		t.Errorf("metrics with a failure record fail validation: %v", err)
	}
}

// TestInputInvariantRejectsVaryingCycles: a farm batch whose cycles vary
// with the input is an error for the caller to name, not a panic; an
// input-invariant batch passes.
func TestInputInvariantRejectsVaryingCycles(t *testing.T) {
	err := inputInvariant(&farm.Stats{MinCycles: 100, MaxCycles: 104})
	if err == nil || !strings.Contains(err.Error(), "cycles vary with the input (100..104)") {
		t.Fatalf("err = %v, want the varying-cycles error", err)
	}
	if err := inputInvariant(&farm.Stats{MinCycles: 100, MaxCycles: 100}); err != nil {
		t.Fatal(err)
	}
}
