package bench

import (
	"fmt"
	"math"

	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/device"
)

// candidate is one model configuration in a sweep.
type candidate struct {
	name   string
	spec   neuroc.ModelSpec
	epochs int
}

// outcome is a trained, deployed (when possible) candidate.
type outcome struct {
	candidate
	model     *neuroc.Model
	dep       *neuroc.Deployment // nil when not deployable
	deployErr error              // why dep is nil, kept so the cache never hides failures
	floatAcc  float64
	quantAcc  float64
	deviceAcc float64 // true on-emulator accuracy (farm-evaluated, cross-checked)
	deviceN   int     // test samples evaluated on-device
	params    int
	latencyMS float64
	cycles    uint64
	instrs    uint64
	bytes     int
}

// deviceAccuracySamples bounds the per-candidate on-emulator accuracy
// evaluation: small test splits run in full; large ones are capped so a
// 20-candidate sweep stays tractable (the dedicated farm experiment
// evaluates a full test set without a cap).
func (r *Runner) deviceAccuracySamples(testRows int) int {
	limit := 512
	if r.cfg.Quick {
		limit = 160
	}
	if testRows < limit {
		return testRows
	}
	return limit
}

// runCandidate trains, deploys, and measures one configuration,
// memoizing by candidate name (sweeps are shared between figures). The
// result is also recorded as a structured metric; deploy failures are
// logged and carried on the outcome rather than silently cached.
func (r *Runner) runCandidate(ds *dataset.Dataset, c candidate) *outcome {
	if o, ok := r.outcomes[c.name]; ok {
		return o
	}
	m := neuroc.NewModel(c.spec)
	rep := m.Train(ds, neuroc.TrainOptions{Epochs: r.epochs(c.epochs)})
	o := &outcome{candidate: c, model: m, floatAcc: rep.TestAccuracy, params: m.EffectiveParams()}
	r.outcomes[c.name] = o
	dep, err := m.Deploy(ds, r.cfg.Encoding)
	if err != nil {
		o.deployErr = err
		r.logf("%s: acc %.4f params %d (not deployable: %v)", c.name, o.floatAcc, o.params, err)
		r.record(Metric{
			Name: c.name, Kind: "model", AccuracyFloat: o.floatAcc,
			Params: o.params, Deployable: false, Error: err.Error(),
		})
		return o
	}
	o.dep = dep
	dep.Workers = r.cfg.Workers
	o.quantAcc = dep.Accuracy(ds)
	o.bytes = dep.ProgramBytes()
	ms, cycles, instrs, err := dep.MeasureStats(ds, 3)
	if err != nil {
		panic(fmt.Sprintf("bench: measuring %s: %v", c.name, err))
	}
	o.latencyMS, o.cycles, o.instrs = ms, cycles, instrs
	// True on-emulator test-set accuracy through the board farm, with
	// every prediction cross-checked against the host reference path.
	o.deviceN = r.deviceAccuracySamples(ds.TestX.Rows)
	o.deviceAcc, _, err = dep.DeviceAccuracyChecked(ds, o.deviceN)
	if err != nil {
		panic(fmt.Sprintf("bench: on-device accuracy for %s: %v", c.name, err))
	}
	// Per-layer cycle attribution, segmented from the deployed image
	// itself; the costs equal the telemetry twin's marker-corrected
	// ones, so they slot under the cycle total recorded above.
	layerStats, err := dep.MeasureLayers(ds, 3)
	if err != nil {
		panic(fmt.Sprintf("bench: layer telemetry for %s: %v", c.name, err))
	}
	layers := make([]LayerMetric, len(layerStats))
	for i, s := range layerStats {
		mean := uint64(math.Round(s.Mean))
		layers[i] = LayerMetric{
			Index: s.Index, Kernel: s.Kernel, Cycles: mean,
			LatencyMS: device.CyclesToMS(mean),
		}
		if cycles > 0 {
			layers[i].Share = float64(mean) / float64(cycles)
		}
		// Per-layer encoding and flash attribution from the deployed
		// image.
		if s.Index < len(dep.Img.Layers) {
			layers[i].Encoding = dep.Img.Layers[s.Index].Encoding
			layers[i].FlashBytes = dep.Img.Layers[s.Index].FlashBytes
		}
	}
	r.record(Metric{
		Name: c.name, Kind: "model", Encoding: r.cfg.Encoding.String(),
		Cycles: cycles, Instructions: instrs, LatencyMS: ms,
		Accuracy: o.quantAcc, AccuracyFloat: o.floatAcc,
		AccuracyDevice: o.deviceAcc, DeviceAccuracyN: o.deviceN,
		FlashBytes: o.bytes, RAMBytes: dep.Img.RAMBytes,
		Params: o.params, Deployable: true,
		Layers: layers,
	})
	r.logf("%s: acc %.4f (q %.4f, device %.4f/n=%d) params %d lat %.2fms mem %dB",
		c.name, o.floatAcc, o.quantAcc, o.deviceAcc, o.deviceN, o.params, o.latencyMS, o.bytes)
	return o
}

// mlpSweep returns the MLP random-search stand-in for a dataset: a
// ladder of hidden sizes spanning deployable and non-deployable
// configurations (the paper's >50-config random search collapses onto
// this axis — width dominates accuracy for fixed-depth MLPs).
func (r *Runner) mlpSweep(dsName string) []candidate {
	var hiddens [][]int
	var epochs int
	switch dsName {
	case "mnist":
		// 1-hidden width ladder plus 2-hidden configurations, spanning
		// deployable and non-deployable sizes (the paper's >50-config
		// random search varies layers and widths; this ladder covers
		// the accuracy-dominating axis of that search).
		hiddens = [][]int{{8}, {16}, {32}, {64}, {64, 32}, {96}, {128},
			{128, 64}, {160}, {160, 96}, {192}, {256}}
		epochs = 10
	case "fashion":
		// Fig 7 needs the best deployable configuration, not the full
		// deployability line; sweep the deployable range only.
		hiddens = [][]int{{16}, {32}, {64}, {64, 32}, {96}, {128}, {128, 64}, {160}}
		epochs = 10
	case "cifar5":
		hiddens = [][]int{{8}, {16}, {24}, {32}, {32, 16}, {40}, {48}}
		epochs = 12
	default: // digits
		hiddens = [][]int{{8}, {16}, {32}, {64}, {96}}
		epochs = 25
	}
	if r.cfg.Quick {
		hiddens = hiddens[:3]
	}
	ds := r.Dataset(dsName)
	var out []candidate
	for _, h := range hiddens {
		name := fmt.Sprintf("mlp-%s-h%d", dsName, h[0])
		if len(h) == 2 {
			name = fmt.Sprintf("mlp-%s-h%dx%d", dsName, h[0], h[1])
		}
		out = append(out, candidate{
			name: name,
			spec: neuroc.ModelSpec{
				InputDim: ds.Dim(), NumClasses: ds.NumClasses,
				Hidden: h, Arch: neuroc.ArchMLP,
				Seed: r.cfg.Seed + uint64(h[0]+len(h)),
			},
			epochs: epochs,
		})
	}
	return out
}

// neurocScales returns the small/medium/large Neuro-C configurations
// for a dataset (the paper's manually selected scales). The Sparsity
// field is the ternarization-threshold factor: larger values prune more
// connections.
func (r *Runner) neurocScales(dsName string) []candidate {
	ds := r.Dataset(dsName)
	mk := func(scale string, hidden []int, factor float64, epochs int) candidate {
		return candidate{
			name: fmt.Sprintf("neuroc-%s-%s", dsName, scale),
			spec: neuroc.ModelSpec{
				InputDim: ds.Dim(), NumClasses: ds.NumClasses,
				Hidden: hidden, Arch: neuroc.ArchNeuroC,
				Strategy: neuroc.StrategyLearned, Sparsity: factor,
				Seed: r.cfg.Seed + uint64(len(hidden)*100+hidden[0]),
			},
			epochs: epochs,
		}
	}
	switch dsName {
	case "mnist":
		return []candidate{
			mk("small", []int{128, 48}, 1.8, 20),
			mk("medium", []int{192, 64}, 1.8, 24),
			mk("large", []int{256, 96}, 1.8, 30),
		}
	case "fashion":
		return []candidate{
			mk("small", []int{128, 48}, 1.8, 20),
			mk("medium", []int{192, 64}, 1.8, 24),
			mk("large", []int{256, 96}, 1.8, 30),
		}
	case "cifar5":
		return []candidate{
			mk("small", []int{96, 32}, 1.8, 12),
			mk("medium", []int{160, 64}, 1.8, 14),
			mk("large", []int{192, 64}, 1.8, 16),
		}
	default: // digits
		return []candidate{
			mk("small", []int{24}, 1.2, 60),
			mk("medium", []int{48}, 1.0, 60),
			mk("large", []int{96}, 0.9, 60),
		}
	}
}

// largestNeuroC returns the best-performing Neuro-C candidate used by
// Fig 7/8: the large scale for MNIST (already trained for Fig 6), the
// medium scale elsewhere (accuracy saturates there; see EXPERIMENTS.md),
// and the small scale in quick mode.
func (r *Runner) largestNeuroC(dsName string) candidate {
	scales := r.scalesFor(dsName)
	if len(scales) >= 2 && dsName != "mnist" {
		return scales[1]
	}
	return scales[len(scales)-1]
}

// scalesFor returns the Neuro-C scales to evaluate: all three at paper
// scale, only the small one in quick mode.
func (r *Runner) scalesFor(dsName string) []candidate {
	scales := r.neurocScales(dsName)
	if r.cfg.Quick {
		return scales[:1]
	}
	return scales
}
