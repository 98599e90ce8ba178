package bench

import (
	"fmt"
	"runtime"

	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/report"
	"github.com/neuro-c/neuroc/internal/telemetry"
)

// farmPools returns the worker counts the farm experiment sweeps: the
// serial baseline, the paper's reference pool of 4, and the configured
// pool when it is larger.
func (r *Runner) farmPools() []int {
	pools := []int{1, 4}
	if r.cfg.Workers > 4 {
		pools = append(pools, r.cfg.Workers)
	}
	return pools
}

// FarmBench evaluates true on-emulator test-set accuracy for the small
// digits model over the full (unsubsampled) digits test split, through
// board-farm pools of increasing size. Every prediction is
// cross-checked against the host quantized reference, and the identical
// accuracy and per-input cycles across pool sizes demonstrate the
// farm's bit-determinism. Each pool is recorded in the metrics pipeline
// (kind "farm"); the farm's host speed is measured over repeated runs
// by cmd/neuroc-perf, not here.
func (r *Runner) FarmBench() *report.Table {
	ds := r.Dataset("digits")
	o := r.runCandidate(ds, r.scalesFor("digits")[0])
	if o.dep == nil {
		panic(fmt.Sprintf("bench: farm experiment model not deployable: %v", o.deployErr))
	}

	// The full test split, even in quick mode: the farm exists to make
	// full-test-set on-emulator evaluation affordable. The model was
	// trained on the (possibly subsampled) runner dataset; evaluation
	// uses the complete split of the same generator.
	full := r.fullDataset("digits")

	t := report.New(fmt.Sprintf("Board farm: full digits test set on-emulator (%d samples, %d host cores)",
		full.TestX.Rows, runtime.NumCPU()),
		"pool", "on-device acc", "host ref acc", "latency/inf")

	// Live metrics: when a registry is configured (`-listen`), every
	// farm item is published as it completes. The callback reads only
	// fields the worker already wrote — it cannot perturb results.
	c := r.Collector()
	if c != nil {
		o.dep.Observe = func(i int, res *farm.Result) {
			c.Observe(res.Cycles, res.HostDurNS, res.Err != nil, res.TelemetryDropped)
		}
		defer func() { o.dep.Observe = nil }()
	}

	hostAcc := o.dep.QModel.Accuracy(full.TestX, full.TestY)
	for _, j := range r.farmPools() {
		o.dep.Workers = j
		if c != nil {
			c.StartBatch(full.TestX.Rows, j, "auto")
		}
		acc, stats, err := o.dep.DeviceAccuracyChecked(full, 0)
		if err != nil {
			panic(fmt.Sprintf("bench: farm evaluation (-j %d): %v", j, err))
		}
		if acc != hostAcc {
			panic(fmt.Sprintf("bench: farm accuracy %.4f diverges from host reference %.4f at -j %d",
				acc, hostAcc, j))
		}
		t.Add(fmt.Sprintf("-j %d", j), report.Pct(acc), report.Pct(hostAcc), report.MS(stats.LatencyMS()))
		m := Metric{
			Name: fmt.Sprintf("farm-digits-j%d", j), Kind: "farm",
			Cycles: stats.MeanCycles, LatencyMS: stats.LatencyMS(),
			Accuracy: acc, AccuracyFloat: o.floatAcc,
			AccuracyDevice: acc, DeviceAccuracyN: stats.Items,
			FlashBytes: o.bytes, RAMBytes: o.dep.Img.RAMBytes,
			Workers: j, Deployable: true,
		}
		if err := inputInvariant(stats); err != nil {
			m.Error = fmt.Sprintf("bench: %s: %v", m.Name, err)
		}
		r.record(m)
		r.logf("farm -j %d: acc %.4f, %d samples, %d cycles", j, acc, stats.Items, stats.MinCycles)
	}
	o.dep.Workers = r.cfg.Workers
	r.buildFarmTimeline(o, full)
	t.Note = "identical accuracy and per-input cycles at every pool size (bit-deterministic)"
	return t
}

// buildFarmTimeline records the run timeline the farm experiment
// exports (`neuroc-bench -exp farm -timeline out.json`): a
// telemetry-twin batch over the head of the full test split, so every
// inference span nests exact layer spans. The twin's marker-corrected
// layer costs equal the uninstrumented deployment's, and the cycle
// domain of the resulting document is byte-identical at any pool size
// and on any execution tier (tested in internal/telemetry).
func (r *Runner) buildFarmTimeline(o *outcome, full *dataset.Dataset) {
	n := 64
	if r.cfg.Quick {
		n = 16
	}
	if n > full.TestX.Rows {
		n = full.TestX.Rows
	}
	twin, err := o.dep.TelemetryTwin()
	if err != nil {
		panic(fmt.Sprintf("bench: farm timeline twin: %v", err))
	}
	inputs := make([][]int8, n)
	for i := range inputs {
		inputs[i] = o.dep.QModel.QuantizeInput(full.TestX.Row(i))
	}
	c := r.Collector()
	opts := farm.Options{Workers: r.cfg.Workers}
	if c != nil {
		c.StartBatch(n, r.cfg.Workers, "auto")
		opts.Observe = func(i int, res *farm.Result) {
			c.Observe(res.Cycles, res.HostDurNS, res.Err != nil, res.TelemetryDropped)
			spans, derr := telemetry.DecodeImage(twin, res.Telemetry, 0)
			if derr != nil {
				return
			}
			for _, s := range spans {
				c.ObserveLayer(s.Layer, s.Kernel, s.Cycles)
			}
		}
	}
	results, _, err := farm.Map(twin, inputs, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: farm timeline batch: %v", err))
	}
	em := device.EnergyModel()
	tl, err := telemetry.BuildTimeline(twin, results, telemetry.TimelineConfig{
		Tier:        "auto",
		Energy:      &em,
		IncludeWall: true,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: farm timeline: %v", err))
	}
	r.timeline = tl
	r.logf("farm timeline: %d inferences, %d trace events", n, len(tl.TraceEvents))
}

// fullDataset returns the complete (never subsampled) dataset for name,
// cached separately from the quick-mode training datasets.
func (r *Runner) fullDataset(name string) *dataset.Dataset {
	key := name + "-full"
	if d, ok := r.data[key]; ok {
		return d
	}
	if !r.cfg.Quick {
		// Full mode never subsamples: reuse the training dataset.
		return r.Dataset(name)
	}
	var cfg dataset.SynthConfig
	switch name {
	case "digits":
		cfg = dataset.Digits()
	case "mnist":
		cfg = dataset.MNIST()
	case "fashion":
		cfg = dataset.FashionMNIST()
	case "cifar5":
		cfg = dataset.CIFAR5()
	default:
		panic("bench: unknown dataset " + name)
	}
	d := dataset.Generate(cfg)
	r.data[key] = d
	return d
}
