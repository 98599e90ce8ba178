package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

func metricsDoc(t *testing.T, mutate func(*MetricsFile)) []byte {
	t.Helper()
	f := &MetricsFile{
		Schema: MetricsSchema, Quick: true, Seed: 1,
		Experiments: []Metric{
			{
				Name: "neuroc-digits-small", Kind: "model", Encoding: "block",
				Cycles: 14305, Instructions: 13368, CPI: 1.07, LatencyMS: 1.788,
				Accuracy: 0.91, AccuracyFloat: 0.93, FlashBytes: 1940, RAMBytes: 1200,
				Params: 800, Deployable: true,
				Layers: []LayerMetric{
					{Index: 0, Kernel: "k_block_c1", Encoding: "block", Cycles: 11911, LatencyMS: 1.489, Share: 0.83, FlashBytes: 1400},
					{Index: 1, Kernel: "l1_unr4", Encoding: "unrolled/4", Cycles: 2393, LatencyMS: 0.299, Share: 0.17, FlashBytes: 380},
				},
			},
			{
				Name: "farm-digits", Kind: "farm", Cycles: 14305, Instructions: 13368,
				CPI: 1.07, LatencyMS: 1.788, Deployable: true,
				Workers: 4,
			},
		},
	}
	if mutate != nil {
		mutate(f)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCompareMetricsIdentical(t *testing.T) {
	base := metricsDoc(t, nil)
	if err := CompareMetricsJSON(base, metricsDoc(t, nil)); err != nil {
		t.Errorf("identical documents differ: %v", err)
	}
}

func TestCompareMetricsCatchesCycleDrift(t *testing.T) {
	base := metricsDoc(t, nil)
	drifted := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Cycles++ })
	err := CompareMetricsJSON(base, drifted)
	if err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Errorf("one-cycle drift not caught: %v", err)
	}
}

func TestCompareMetricsCatchesLayerDrift(t *testing.T) {
	base := metricsDoc(t, nil)
	drifted := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Layers[1].Cycles-- })
	err := CompareMetricsJSON(base, drifted)
	if err == nil || !strings.Contains(err.Error(), "layers[1]") {
		t.Errorf("per-layer drift not caught: %v", err)
	}
}

// Energy keys are deterministic (priced from exact cycles by a fixed
// model), so the compare gate treats them like cycle counts: any drift
// is an error.
func TestCompareMetricsCatchesEnergyDrift(t *testing.T) {
	withEnergy := func(f *MetricsFile) {
		f.Experiments[0].UJPerInference = 10.728
		f.Experiments[0].Energy = &EnergyMetric{ActivePowerW: 0.006, ClockHz: 8_000_000, UJPerInference: 10.728}
	}
	base := metricsDoc(t, withEnergy)
	drifted := metricsDoc(t, func(f *MetricsFile) {
		withEnergy(f)
		f.Experiments[0].UJPerInference += 0.001
	})
	err := CompareMetricsJSON(base, drifted)
	if err == nil || !strings.Contains(err.Error(), "uj_per_inference") {
		t.Errorf("uj drift not caught: %v", err)
	}
	blockDrift := metricsDoc(t, func(f *MetricsFile) {
		withEnergy(f)
		f.Experiments[0].Energy.ClockHz = 48_000_000
	})
	err = CompareMetricsJSON(base, blockDrift)
	if err == nil || !strings.Contains(err.Error(), "energy") {
		t.Errorf("energy calibration drift not caught: %v", err)
	}
	// Baseline without the block vs candidate with it: presence mismatch.
	err = CompareMetricsJSON(metricsDoc(t, nil), base)
	if err == nil || !strings.Contains(err.Error(), "energy") {
		t.Errorf("energy presence mismatch not caught: %v", err)
	}
}

func TestCompareMetricsMissingAndExtra(t *testing.T) {
	base := metricsDoc(t, nil)
	missing := metricsDoc(t, func(f *MetricsFile) { f.Experiments = f.Experiments[:1] })
	if err := CompareMetricsJSON(base, missing); err == nil || !strings.Contains(err.Error(), "missing from candidate") {
		t.Errorf("dropped experiment not caught: %v", err)
	}
	extra := metricsDoc(t, func(f *MetricsFile) {
		f.Experiments = append(f.Experiments, Metric{Name: "new-exp", Kind: "micro"})
	})
	if err := CompareMetricsJSON(base, extra); err == nil || !strings.Contains(err.Error(), "not in baseline") {
		t.Errorf("new experiment not caught: %v", err)
	}
	// A key the schema does not define fails on either side instead of
	// being dropped unread.
	retired := []byte(strings.Replace(string(base), `"workers":4`, `"workers":4,"wall_ms":120`, 1))
	if err := CompareMetricsJSON(retired, base); err == nil || !strings.Contains(err.Error(), `baseline: json: unknown field "wall_ms"`) {
		t.Errorf("retired key in the baseline not caught: %v", err)
	}
	if err := CompareMetricsJSON(base, retired); err == nil || !strings.Contains(err.Error(), `candidate: json: unknown field "wall_ms"`) {
		t.Errorf("retired key in the candidate not caught: %v", err)
	}
	quick := metricsDoc(t, func(f *MetricsFile) { f.Quick = false })
	if err := CompareMetricsJSON(base, quick); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("mode mismatch not caught: %v", err)
	}
}

func TestValidateLayersKey(t *testing.T) {
	good := metricsDoc(t, nil)
	if err := ValidateMetricsJSON(good); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
	bad := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Layers[1].Index = 5 })
	if err := ValidateMetricsJSON(bad); err == nil {
		t.Error("out-of-order layer index accepted")
	}
	empty := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Layers[0].Kernel = "" })
	if err := ValidateMetricsJSON(empty); err == nil {
		t.Error("layer without kernel accepted")
	}
	noEnc := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Layers[0].Encoding = "" })
	if err := ValidateMetricsJSON(noEnc); err == nil {
		t.Error("layer without encoding accepted")
	}
	noFlash := metricsDoc(t, func(f *MetricsFile) { f.Experiments[0].Layers[1].FlashBytes = 0 })
	if err := ValidateMetricsJSON(noFlash); err == nil {
		t.Error("layer without flash attribution accepted")
	}
}
