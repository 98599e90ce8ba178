package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Metrics comparison: the regression gate behind `metricscheck
// -compare old new`. Everything the emulator computes is deterministic
// — cycle counts, instruction counts, accuracy, footprints — so those
// keys must match the baseline EXACTLY; any drift is a real behavior
// change (a cycle-model edit, a codegen change, a training change), not
// noise. Host wall-clock keys (wall_ms, infers_per_sec, speedup,
// host_mips, predecode_build_ms) legitimately vary run to run and are
// only checked against a relative band when a tolerance is given.

// CompareMetricsJSON compares a freshly generated metrics document
// against a baseline. Deterministic keys must be identical; wall-clock
// keys must be within tolerance (relative, e.g. 0.5 = ±50%), or are
// ignored when tolerance <= 0. The error, when non-nil, lists every
// difference found.
func CompareMetricsJSON(oldData, newData []byte, tolerance float64) error {
	var oldF, newF MetricsFile
	if err := json.Unmarshal(oldData, &oldF); err != nil {
		return fmt.Errorf("metrics: baseline: %w", err)
	}
	if err := json.Unmarshal(newData, &newF); err != nil {
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
		diffs = append(diffs, compareMetric(o, n, tolerance)...)
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

// compareMetric diffs one experiment pair.
func compareMetric(o, n *Metric, tolerance float64) []string {
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
	exact("tier", o.Tier, n.Tier)
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
	if tolerance > 0 {
		banded := func(key string, ov, nv float64) {
			if ov == nv {
				return
			}
			ref := math.Max(math.Abs(ov), math.Abs(nv))
			if math.Abs(nv-ov) > tolerance*ref {
				diffs = append(diffs, fmt.Sprintf("%s.%s: baseline %g, candidate %g (outside ±%.0f%%)",
					o.Name, key, ov, nv, tolerance*100))
			}
		}
		banded("wall_ms", o.WallMS, n.WallMS)
		banded("infers_per_sec", o.InfersPerSec, n.InfersPerSec)
		banded("speedup", o.Speedup, n.Speedup)
		banded("host_mips", o.HostMIPS, n.HostMIPS)
		banded("predecode_build_ms", o.PredecodeBuildMS, n.PredecodeBuildMS)
		banded("translate_build_ms", o.TranslateBuildMS, n.TranslateBuildMS)
		banded("latency_wall_p50_ms", o.LatencyWallP50MS, n.LatencyWallP50MS)
		banded("latency_wall_p95_ms", o.LatencyWallP95MS, n.LatencyWallP95MS)
		banded("latency_wall_p99_ms", o.LatencyWallP99MS, n.LatencyWallP99MS)
		banded("latency_wall_p999_ms", o.LatencyWallP999MS, n.LatencyWallP999MS)
		banded("listen_overhead_ms", o.ListenOverheadMS, n.ListenOverheadMS)
	}
	return diffs
}
