package bench

import (
	"fmt"
	"strings"
)

// Metrics comparison: the regression gate behind `metricscheck
// -compare old new`. Every key of neuroc-metrics/v1 is deterministic —
// cycle counts, instructions, seeded-training accuracy, footprints,
// per-layer cycles, energy priced from cycles — so every key must match
// the baseline EXACTLY; any drift is a real behavior change (a
// cycle-model edit, a codegen change, a training change), not noise.
// Host speed is not part of the document: cmd/neuroc-perf measures it
// over repeated runs.

// CompareMetricsJSON compares a freshly generated metrics document
// against a baseline key by key. Both must decode strictly (no key the
// schema does not define). The error, when non-nil, lists every
// difference found.
func CompareMetricsJSON(oldData, newData []byte) error {
	oldF, err := decodeMetrics(oldData)
	if err != nil {
		return fmt.Errorf("metrics: baseline: %w", err)
	}
	newF, err := decodeMetrics(newData)
	if err != nil {
		return fmt.Errorf("metrics: candidate: %w", err)
	}
	if oldF.Schema != MetricsSchema || newF.Schema != MetricsSchema {
		return fmt.Errorf("metrics: schema %q vs %q, want %q", oldF.Schema, newF.Schema, MetricsSchema)
	}
	var diffs []string
	if oldF.Quick != newF.Quick {
		diffs = append(diffs, fmt.Sprintf("quick: baseline %v, candidate %v (different bench modes are not comparable)", oldF.Quick, newF.Quick))
	}
	if oldF.Seed != newF.Seed {
		diffs = append(diffs, fmt.Sprintf("seed: baseline %d, candidate %d (different seeds are not comparable)", oldF.Seed, newF.Seed))
	}
	// A repeated name would hide all but one of its records below.
	for _, d := range duplicateNames(oldF.Experiments) {
		diffs = append(diffs, "baseline: "+d)
	}
	for _, d := range duplicateNames(newF.Experiments) {
		diffs = append(diffs, "candidate: "+d)
	}
	newByName := make(map[string]*Metric, len(newF.Experiments))
	for i := range newF.Experiments {
		newByName[newF.Experiments[i].Name] = &newF.Experiments[i]
	}
	seen := make(map[string]bool, len(oldF.Experiments))
	for i := range oldF.Experiments {
		o := &oldF.Experiments[i]
		seen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: present in baseline, missing from candidate", o.Name))
			continue
		}
		diffs = append(diffs, compareMetric(o, n)...)
	}
	for i := range newF.Experiments {
		if !seen[newF.Experiments[i].Name] {
			diffs = append(diffs, fmt.Sprintf("%s: new experiment not in baseline (regenerate the baseline)", newF.Experiments[i].Name))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("metrics: %d difference(s) from baseline:\n  %s", len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}

// duplicateNames names every experiment that repeats an earlier
// experiment's name, with both indices.
func duplicateNames(exps []Metric) []string {
	first := make(map[string]int, len(exps))
	var dups []string
	for i := range exps {
		name := exps[i].Name
		if j, ok := first[name]; ok {
			dups = append(dups, fmt.Sprintf("experiments %d and %d are both named %q", j, i, name))
			continue
		}
		first[name] = i
	}
	return dups
}

// compareMetric diffs one experiment pair.
func compareMetric(o, n *Metric) []string {
	var diffs []string
	exact := func(key string, ov, nv interface{}) {
		if ov != nv {
			diffs = append(diffs, fmt.Sprintf("%s.%s: baseline %v, candidate %v", o.Name, key, ov, nv))
		}
	}
	exact("kind", o.Kind, n.Kind)
	exact("encoding", o.Encoding, n.Encoding)
	exact("cycles", o.Cycles, n.Cycles)
	exact("instructions", o.Instructions, n.Instructions)
	exact("cpi", o.CPI, n.CPI)
	exact("latency_ms", o.LatencyMS, n.LatencyMS)
	exact("accuracy", o.Accuracy, n.Accuracy)
	exact("accuracy_float", o.AccuracyFloat, n.AccuracyFloat)
	exact("accuracy_device", o.AccuracyDevice, n.AccuracyDevice)
	exact("accuracy_device_n", o.DeviceAccuracyN, n.DeviceAccuracyN)
	exact("flash_bytes", o.FlashBytes, n.FlashBytes)
	exact("ram_bytes", o.RAMBytes, n.RAMBytes)
	exact("params", o.Params, n.Params)
	exact("deployable", o.Deployable, n.Deployable)
	exact("workers", o.Workers, n.Workers)
	exact("error", o.Error, n.Error)
	// Energy keys are priced from exact cycle counts by a fixed model:
	// fully deterministic, so they gate exactly like cycles do.
	exact("uj_per_inference", o.UJPerInference, n.UJPerInference)
	switch {
	case (o.Energy == nil) != (n.Energy == nil):
		diffs = append(diffs, fmt.Sprintf("%s.energy: baseline present=%v, candidate present=%v",
			o.Name, o.Energy != nil, n.Energy != nil))
	case o.Energy != nil:
		exact("energy", *o.Energy, *n.Energy)
	}
	if len(o.Layers) != len(n.Layers) {
		diffs = append(diffs, fmt.Sprintf("%s.layers: baseline has %d, candidate %d", o.Name, len(o.Layers), len(n.Layers)))
	} else {
		for i := range o.Layers {
			if o.Layers[i] != n.Layers[i] {
				diffs = append(diffs, fmt.Sprintf("%s.layers[%d]: baseline %+v, candidate %+v", o.Name, i, o.Layers[i], n.Layers[i]))
			}
		}
	}
	return diffs
}
