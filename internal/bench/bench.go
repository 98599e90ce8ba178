// Package bench implements the experiment harness: one runner per table
// and figure in the paper's evaluation, each regenerating the same rows
// or series the paper reports (workload generation, training, parameter
// sweeps, deployment, and on-device measurement). cmd/neuroc-bench and
// the root package's Go benchmarks are thin wrappers over this package.
package bench

import (
	"fmt"
	"io"

	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// Config scales the harness. Quick mode shrinks datasets, sweeps, and
// training budgets so the full suite runs in unit-test time; full mode
// regenerates the paper-scale numbers.
type Config struct {
	Quick bool
	Log   io.Writer // optional progress log
	Seed  uint64

	// Workers is the board-farm pool size for device measurements
	// (`neuroc-bench -j`); <= 0 lets the farm pick GOMAXPROCS. Results
	// are bit-identical for every value — parallelism only changes
	// wall-clock time.
	Workers int

	// Encoding selects the deployment encoding for trained-model
	// experiments (`neuroc-bench -encoding`). The zero value is the
	// paper's block scheme; UseUnrolled deploys the straight-line
	// weight-specialized kernels, UseAuto runs the certificate-priced
	// per-layer search. Microbenchmarks that sweep encodings by design
	// (fig5, pareto) ignore it.
	Encoding modelimg.EncodingChoice

	// Obs, when non-nil, receives live metrics during device
	// measurements (`neuroc-bench -listen`): farm batches publish
	// progress, latency histograms, and energy counters into it as they
	// run. nil keeps every measurement path free of observer callbacks
	// — bit-identical output, zero added per-inference work.
	Obs *obs.Registry
}

// Runner executes experiments, caching generated datasets and trained
// candidates (the figure runners share sweeps: Fig 7 reuses Fig 6's
// MNIST results rather than retraining). Every device measurement is
// also recorded as a structured Metric (see metrics.go) for
// `neuroc-bench -metrics` trajectory tracking.
type Runner struct {
	cfg      Config
	data     map[string]*dataset.Dataset
	outcomes map[string]*outcome
	metrics  map[string]Metric

	// collector publishes farm batches into cfg.Obs (lazily built).
	collector *obs.FarmCollector
	// timeline is the neuroc-timeline/v1 document the farm experiment
	// builds (`neuroc-bench -timeline`); nil until FarmBench runs, or
	// when building it failed with timelineErr.
	timeline    *obs.Timeline
	timelineErr error
}

// Collector returns the live-metrics collector bound to cfg.Obs, or nil
// when no registry is configured.
func (r *Runner) Collector() *obs.FarmCollector {
	if r.cfg.Obs == nil {
		return nil
	}
	if r.collector == nil {
		r.collector = obs.NewFarmCollector(r.cfg.Obs, device.EnergyModel().ActiveUJPerCycle())
	}
	return r.collector
}

// WriteTimelineJSON emits the run timeline recorded by the farm
// experiment (`neuroc-bench -exp farm -timeline out.json`).
func (r *Runner) WriteTimelineJSON(w io.Writer) error {
	if r.timelineErr != nil {
		return fmt.Errorf("bench: no timeline recorded: %w", r.timelineErr)
	}
	if r.timeline == nil {
		return fmt.Errorf("bench: no timeline recorded: the farm experiment builds it (-exp farm)")
	}
	return r.timeline.WriteJSON(w)
}

// New returns a Runner for cfg.
func New(cfg Config) *Runner {
	return &Runner{
		cfg:      cfg,
		data:     make(map[string]*dataset.Dataset),
		outcomes: make(map[string]*outcome),
		metrics:  make(map[string]Metric),
	}
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// Dataset returns a cached dataset by name ("digits", "mnist",
// "fashion", "cifar5"), subsampled in quick mode.
func (r *Runner) Dataset(name string) *dataset.Dataset {
	if d, ok := r.data[name]; ok {
		return d
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
	if r.cfg.Quick {
		d = d.Subsample(d.TrainX.Rows/5, d.TestX.Rows/3)
	}
	r.data[name] = d
	return d
}

// epochs picks a training budget.
func (r *Runner) epochs(full int) int {
	if r.cfg.Quick {
		e := full / 3
		if e < 2 {
			e = 2
		}
		return e
	}
	return full
}

// synthTernaryLayer builds an untrained ternary quantized layer with
// the given shape and density, used by the microbenchmarks (Fig. 5)
// where only latency and size matter, exactly like the paper's
// fixed-sparsity single-layer kernel experiments.
func synthTernaryLayer(r *rng.RNG, in, out int, density float64, perNeuron bool) *quant.Layer {
	a := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				if r.Bool(0.5) {
					a.Set(o, i, 1)
				} else {
					a.Set(o, i, -1)
				}
			}
		}
	}
	l := &quant.Layer{
		Kind: quant.Ternary, In: in, Out: out, A: a,
		PerNeuron: perNeuron,
		PreShift:  0, PostShift: 7,
		Bias: make([]int32, out),
		ReLU: true,
	}
	if perNeuron {
		l.Mults = make([]int32, out)
		for o := range l.Mults {
			l.Mults[o] = int32(r.Intn(100)) + 60
		}
	} else {
		l.Mults = []int32{100}
	}
	return l
}

// measurement is one on-device measurement of a deployed model.
type measurement struct {
	ms           float64
	cycles       uint64
	instructions uint64
	flashBytes   int
	ramBytes     int
	// stats is the underlying farm run's aggregate.
	stats *farm.Stats
}

// measureModel deploys m with enc and returns mean latency, cycle and
// instruction counts, and the flash/SRAM footprints. The runs
// repetitions are evaluated through the board farm with the given pool
// size (the mean is unchanged by worker count: emulation is
// deterministic).
func measureModel(m *quant.Model, enc modelimg.EncodingChoice, runs, workers int) (*measurement, error) {
	meas, _, err := measureModelOpts(m, modelimg.BuildOptions{Encoding: enc}, runs, workers)
	return meas, err
}

// measureModelOpts is measureModel over full build options (per-layer
// encoding mixes, the auto search), also returning the built image so
// callers can report the resolved encoding and footprint split.
func measureModelOpts(m *quant.Model, opts modelimg.BuildOptions, runs, workers int) (*measurement, *modelimg.Image, error) {
	img, err := modelimg.BuildOpts(m, opts)
	if err != nil {
		return nil, nil, err
	}
	r := rng.New(77)
	in := make([]int8, m.Layers[0].In)
	for i := range in {
		in[i] = int8(r.Intn(255) - 127)
	}
	inputs := make([][]int8, runs)
	for i := range inputs {
		inputs[i] = in
	}
	results, stats, err := farm.Map(img, inputs, farm.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	var cycles, instrs uint64
	for _, res := range results {
		cycles += res.Cycles
		instrs += res.Instructions
	}
	cycles /= uint64(runs)
	instrs /= uint64(runs)
	return &measurement{
		ms:           device.CyclesToMS(cycles),
		cycles:       cycles,
		instructions: instrs,
		flashBytes:   img.TotalBytes(),
		ramBytes:     img.RAMBytes,
		stats:        stats,
	}, img, nil
}

// measureMicro runs measureModel and records the result as a
// microbenchmark metric under name.
func (r *Runner) measureMicro(name string, m *quant.Model, enc modelimg.EncodingChoice, runs int) (*measurement, error) {
	meas, _, err := r.measureMicroOpts(name, m, modelimg.BuildOptions{Encoding: enc}, runs)
	return meas, err
}

// measureMicroOpts is measureMicro over full build options; the recorded
// encoding label is the resolved per-layer choice (so an auto search
// records what it actually picked, e.g. "auto(unrolled/4)").
func (r *Runner) measureMicroOpts(name string, m *quant.Model, opts modelimg.BuildOptions, runs int) (*measurement, *modelimg.Image, error) {
	label := opts.Encoding.String()
	if len(opts.PerLayer) > 0 {
		label = opts.PerLayer[0].String()
	}
	meas, img, err := measureModelOpts(m, opts, runs, r.cfg.Workers)
	if err != nil {
		r.record(Metric{Name: name, Kind: "micro", Encoding: label, Error: err.Error()})
		return nil, nil, err
	}
	if opts.Encoding == modelimg.UseAuto && len(opts.PerLayer) == 0 && len(img.Encodings) > 0 {
		label = fmt.Sprintf("auto(%s)", img.Encodings[0])
	}
	met := Metric{
		Name: name, Kind: "micro", Encoding: label,
		Cycles: meas.cycles, Instructions: meas.instructions,
		LatencyMS: meas.ms, FlashBytes: meas.flashBytes, RAMBytes: meas.ramBytes,
		Deployable: true,
	}
	// The input-invariance check every farm-backed record gets.
	if err := inputInvariant(meas.stats); err != nil {
		err = fmt.Errorf("bench: %s: %w", name, err)
		r.record(Metric{Name: name, Kind: "micro", Encoding: label, Error: err.Error()})
		return nil, nil, err
	}
	r.record(met)
	return meas, img, nil
}
