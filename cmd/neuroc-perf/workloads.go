package main

import (
	"errors"
	"fmt"
	"slices"

	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/nn"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/telemetry"
	"github.com/neuro-c/neuroc/internal/tensor"
	"github.com/neuro-c/neuroc/internal/ternary"
)

// Every workload fixes its model, seeded by modelSeed, and draws the
// inputs it evaluates from the run's seed. Device cycles and flash bytes
// are therefore identical for every seed, and host times move only with
// the inputs and the host.
const (
	workers   = 2   // farm pool size of every workload, the host's core count
	modelSeed = 7   // seeds every model and the rows it is calibrated on
	calibRows = 512 // rows each model is calibrated (and probe-trained) on
	mnistDim  = 28 * 28
	gridSide  = 20 // the Fig-5 layers take 400 = 20×20 inputs
	classes   = 10
)

// inputSeed maps the run's seed to the generator seed of its inputs,
// keeping it apart from modelSeed.
func inputSeed(seed uint64) uint64 { return 1<<20 + seed }

// sizes holds every size a workload depends on. fullSizes is the
// benchmark; tests pass tiny ones.
type sizes struct {
	// A run sets up at least SetupReps times and for at least
	// SetupSeconds in all; setup_s is the median set-up.
	SetupReps    int
	SetupSeconds float64
	MinRounds    int // timed rounds run even after the time budget is spent

	EvalHidden  []int     // eval-ternary hidden widths
	EvalDensity []float64 // eval-ternary connection probability per layer
	DenseHidden []int     // eval-dense hidden widths
	EvalBatch   int       // inputs per timed farm.Map batch
	EvalWarmup  int       // inputs in the untimed warm-up batch

	SweepOuts     []int // N_out of the Fig-5 layers
	SweepDensity  float64
	SweepRows     int // rows every sweep deployment is evaluated on
	SweepProbeOut int // N_out of the layer the traced run re-times

	PipeHidden []int
	PipeTrain  int // training rows
	PipePool   int // test rows generated; the seed draws PipeTest of them
	PipeTest   int
	PipeEpochs int

	ProbeReps        int     // repetitions of each re-timed call in the traced run
	ProbeWall        int     // inputs of the farm wall-latency probe at -j 2
	ProbeMIPSSeconds float64 // length of one tier sample of the MIPS probe
}

func fullSizes() sizes {
	return sizes{
		SetupReps: 3, SetupSeconds: 1, MinRounds: 2,
		EvalHidden: []int{128, 48}, EvalDensity: []float64{0.08, 0.15, 0.30},
		DenseHidden: []int{32}, EvalBatch: 4000, EvalWarmup: 2000,
		SweepOuts: []int{32, 64, 128, 256}, SweepDensity: 0.10, SweepRows: 16, SweepProbeOut: 64,
		PipeHidden: []int{128, 48}, PipeTrain: 4000, PipePool: 3000, PipeTest: 2500, PipeEpochs: 5,
		ProbeReps: 3, ProbeWall: 10000, ProbeMIPSSeconds: 0.5,
	}
}

// bench is one workload's state across set-up, warm-up and timed rounds.
type bench interface {
	setup(tr *tracer) error
	warmup() error
	// round runs one timed round, cutting it into steps on rc.
	round(tr *tracer, rc *refClock) roundResult
	// subject is the model, image and inputs the traced run re-times
	// each layer on.
	subject() (*subject, error)
}

// roundResult is one timed round and the checks made after it. Its
// times are the steps it cut on the refClock.
type roundResult struct {
	inferences int // emulated inferences the round ran
	attempted  int // operations attempted
	failed     int // operations that returned an error
	cycles     uint64
	flash      int
	accuracy   float64
	problems   []string // failed correctness checks
}

func (r *roundResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// subject is what the traced run re-times every layer on: the
// workload's own model, image and inputs.
type subject struct {
	recipe func() *neuroc.Model // a fresh, untrained float model of the workload
	net    *nn.Network          // the float network dep was quantized from
	ds     *neuroc.Dataset      // TrainX: calibration/training rows; TestX: evaluated rows
	enc    encoding
	dep    *neuroc.Deployment
	inputs [][]int8 // ds.TestX, quantized
}

// workload names a bench; BENCHMARK.json and README.md say why each
// one is in the benchmark.
type workload struct {
	name string
	make func(cfg config) bench
}

var workloads = []workload{
	{"eval-ternary", func(cfg config) bench { return &evalBench{cfg: cfg} }},
	{"eval-dense", func(cfg config) bench { return &evalBench{cfg: cfg, dense: true} }},
	{"sweep-encodings", func(cfg config) bench { return &sweepBench{cfg: cfg} }},
	{"pipeline-mnist", func(cfg config) bench { return &pipelineBench{cfg: cfg} }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// encoding is one deployment encoding of the sweep and the probes.
type encoding struct {
	name   string // metric suffix
	choice modelimg.EncodingChoice
	factor int // unroll factor, 0 unless choice is UseUnrolled
}

var encodings = []encoding{
	{"block", modelimg.UseBlock, 0},
	{"csc", modelimg.UseCSC, 0},
	{"delta", modelimg.UseDelta, 0},
	{"mixed", modelimg.UseMixed, 0},
	{"unrolled1", modelimg.UseUnrolled, 1},
	{"unrolled2", modelimg.UseUnrolled, 2},
	{"unrolled4", modelimg.UseUnrolled, 4},
	{"auto", modelimg.UseAuto, 0},
}

func (e encoding) options(layers int) modelimg.BuildOptions {
	if e.factor == 0 {
		return modelimg.BuildOptions{Encoding: e.choice}
	}
	per := make([]modelimg.LayerEncoding, layers)
	for i := range per {
		per[i] = modelimg.LayerEncoding{Choice: e.choice, Factor: e.factor}
	}
	return modelimg.BuildOptions{PerLayer: per}
}

// deploy builds qm's image with enc, boots a device on it and wraps both
// in a neuroc.Deployment, the way the experiments deploy a quantized
// model.
func deploy(tr *tracer, qm *quant.Model, enc encoding) (*neuroc.Deployment, error) {
	var dep *neuroc.Deployment
	err := tr.span("neuroc.deploy", enc.name, 0, func() error {
		var img *modelimg.Image
		if err := tr.span("modelimg.BuildOpts", enc.name, 0, func() (err error) {
			img, err = modelimg.BuildOpts(qm, enc.options(len(qm.Layers)))
			return err
		}); err != nil {
			return err
		}
		var dev *device.Device
		if err := tr.span("device.New", "", 0, func() (err error) {
			dev, err = device.New(img)
			return err
		}); err != nil {
			return err
		}
		dep = &neuroc.Deployment{QModel: qm, Img: img, Dev: dev, Encoding: enc.choice, Workers: workers}
		return nil
	})
	return dep, err
}

// measurement is one deployment measured the way the experiments
// measure it.
type measurement struct {
	cycles uint64 // MeasureStats mean cycles, 0 when not measured
	acc    float64
	stats  *farm.Stats // of the checked accuracy run
	layers []telemetry.LayerStats
	energy *telemetry.EnergyAggregate
}

// measure runs MeasureLayers(3), MeasureEnergy(3) and the checked
// device accuracy on rows test rows, plus MeasureStats(3) when withStats.
// It ends a step of rc after the checked accuracy run, the long one.
func measure(tr *tracer, rc *refClock, dep *neuroc.Deployment, ds *neuroc.Dataset, rows int, withStats bool) (*measurement, error) {
	m := &measurement{}
	if withStats {
		if err := tr.span("neuroc.Deployment.MeasureStats", "", 3, func() (err error) {
			_, m.cycles, _, err = dep.MeasureStats(ds, 3)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := tr.span("neuroc.Deployment.DeviceAccuracyChecked", "", rows, func() (err error) {
		m.acc, m.stats, err = dep.DeviceAccuracyChecked(ds, rows)
		return err
	}); err != nil {
		return nil, err
	}
	rc.lap()
	if err := tr.span("neuroc.Deployment.MeasureLayers", "", 3, func() (err error) {
		m.layers, err = dep.MeasureLayers(ds, 3)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.span("neuroc.Deployment.MeasureEnergy", "", 3, func() (err error) {
		m.energy, err = dep.MeasureEnergy(ds, 3)
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// check records every way m disagrees with the device facts it must
// reproduce: input-invariant cycles, per-layer costs within the total,
// and one energy record per inference.
func (m *measurement) check(r *roundResult, what string, img *modelimg.Image) {
	if m.stats.MinCycles != m.stats.MaxCycles {
		r.problem("%s: cycles vary with the input (%d..%d)", what, m.stats.MinCycles, m.stats.MaxCycles)
	}
	if m.cycles != 0 && m.cycles != m.stats.MinCycles {
		r.problem("%s: MeasureStats gives %d cycles, the checked run %d", what, m.cycles, m.stats.MinCycles)
	}
	if len(m.layers) != len(img.Layers) {
		r.problem("%s: %d layer records for %d layers", what, len(m.layers), len(img.Layers))
	}
	var sum float64
	for _, l := range m.layers {
		sum += l.Mean
	}
	if sum <= 0 || sum > float64(m.stats.MinCycles) {
		r.problem("%s: layer cycles sum to %.0f of %d", what, sum, m.stats.MinCycles)
	}
	if m.energy.Items != 3 {
		r.problem("%s: energy aggregate over %d items, want 3", what, m.energy.Items)
	}
}

func mnistSet(seed uint64, train, test int) *dataset.Dataset {
	cfg := dataset.MNIST()
	cfg.Seed, cfg.Train, cfg.Test = seed, train, test
	return dataset.Generate(cfg)
}

// gridSet is a 20×20 stand-in whose rows feed the 400-input Fig-5 layers.
func gridSet(seed uint64, train, test int) *dataset.Dataset {
	return dataset.Generate(dataset.SynthConfig{
		Name: "grid20", Width: gridSide, Height: gridSide, Channels: 1, NumClasses: classes,
		Train: train, Test: test, ModesPerClass: 4, BlobsPerMode: 4,
		Noise: 0.07, Shift: 1, Overlap: 0.15, Seed: seed,
	})
}

// join trains on train's train split and evaluates test's test split.
func join(train, test *dataset.Dataset) *neuroc.Dataset {
	d := *train
	d.TestX, d.TestY = test.TestX, test.TestY
	return &d
}

func quantizeRows(qm *quant.Model, x *tensor.Mat) [][]int8 {
	out := make([][]int8, x.Rows)
	for i := range out {
		out[i] = qm.QuantizeInput(x.Row(i))
	}
	return out
}

// ternaryNet builds a Neuro-C network with fixed random connectivity:
// one connection probability per layer, per-neuron scales, ReLU between
// layers.
func ternaryNet(dims []int, density []float64, seed uint64) *nn.Network {
	r := rng.New(seed)
	var layers []nn.Layer
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, ternary.New(ternary.Config{
			In: dims[i], Out: dims[i+1], Strategy: ternary.Random,
			Sparsity: density[i], UseScale: true,
		}, r))
		if i+2 < len(dims) {
			layers = append(layers, nn.NewReLU())
		}
	}
	return nn.NewNetwork(layers...)
}

// evalBench is eval-ternary and eval-dense: closed-loop farm.Map batches
// of seeded MNIST-like inputs on one fixed model at -j 2, tier auto.
type evalBench struct {
	cfg   config
	dense bool
	sub   *subject
	refs  [][]int8 // quant.Model.Infer of every input
}

func (b *evalBench) recipe() *neuroc.Model {
	s := b.cfg.Sizes
	if b.dense {
		return neuroc.NewModel(neuroc.ModelSpec{
			InputDim: mnistDim, NumClasses: classes, Hidden: s.DenseHidden,
			Arch: neuroc.ArchMLP, Seed: modelSeed,
		})
	}
	dims := append(append([]int{mnistDim}, s.EvalHidden...), classes)
	return &neuroc.Model{
		Spec: neuroc.ModelSpec{
			InputDim: mnistDim, NumClasses: classes, Hidden: s.EvalHidden,
			Arch: neuroc.ArchNeuroC, Strategy: neuroc.StrategyRandom, Seed: modelSeed,
		},
		Net: ternaryNet(dims, s.EvalDensity, modelSeed),
	}
}

func (b *evalBench) setup(tr *tracer) error {
	var train, test *dataset.Dataset
	_ = tr.span("dataset.Generate", "train", calibRows, func() error {
		train = mnistSet(modelSeed, calibRows, 0)
		return nil
	})
	_ = tr.span("dataset.Generate", "test", b.cfg.Sizes.EvalBatch, func() error {
		test = mnistSet(inputSeed(b.cfg.Seed), 0, b.cfg.Sizes.EvalBatch)
		return nil
	})
	ds := join(train, test)
	m := b.recipe()
	var qm *quant.Model
	if err := tr.span("quant.FromNetwork", "", 0, func() (err error) {
		qm, err = quant.FromNetwork(m.Net, ds.TrainX, 0)
		return err
	}); err != nil {
		return err
	}
	dep, err := deploy(tr, qm, encodings[0])
	if err != nil {
		return err
	}
	inputs := quantizeRows(qm, ds.TestX)
	refs := make([][]int8, len(inputs))
	_ = tr.span("quant.Model.Infer", "", len(inputs), func() error {
		for i := range inputs {
			refs[i] = qm.Infer(inputs[i])
		}
		return nil
	})
	b.sub = &subject{recipe: b.recipe, net: m.Net, ds: ds, enc: encodings[0], dep: dep, inputs: inputs}
	b.refs = refs
	return nil
}

func (b *evalBench) warmup() error {
	n := min(b.cfg.Sizes.EvalWarmup, len(b.sub.inputs))
	_, _, err := farm.Map(b.sub.dep.Img, b.sub.inputs[:n], farm.Options{Workers: workers})
	return err
}

func (b *evalBench) round(tr *tracer, rc *refClock) roundResult {
	img, inputs := b.sub.dep.Img, b.sub.inputs
	var results []farm.Result
	var st *farm.Stats
	rc.begin()
	err := tr.span("farm.Map", "auto", len(inputs), func() (err error) {
		results, st, err = farm.Map(img, inputs, farm.Options{Workers: workers})
		return err
	})
	rc.lap()
	r := roundResult{inferences: len(inputs), attempted: len(inputs), flash: img.TotalBytes()}
	if st == nil {
		r.failed = len(inputs)
		r.problem("farm.Map: %v", err)
		return r
	}
	r.failed = st.Failed
	match := 0
	for i := range results {
		if results[i].Err == nil && slices.Equal(results[i].Output, b.refs[i]) {
			match++
		}
	}
	if match != st.Items-st.Failed {
		r.problem("%d of %d device outputs differ from quant.Model.Infer", st.Items-st.Failed-match, st.Items-st.Failed)
	}
	if st.MinCycles != st.MaxCycles {
		r.problem("cycles vary with the input (%d..%d)", st.MinCycles, st.MaxCycles)
	}
	r.cycles = st.MinCycles
	r.accuracy = float64(match) / float64(len(inputs))
	return r
}

func (b *evalBench) subject() (*subject, error) { return b.sub, nil }

// sweepBench is sweep-encodings: every Fig-5 layer deployed under every
// encoding and measured like the experiments measure it. One round is
// one pass over all deployments.
type sweepBench struct {
	cfg    config
	ds     *neuroc.Dataset
	models []*quant.Model // one per SweepOuts entry
	nets   []*nn.Network
}

func (b *sweepBench) recipe(out int) func() *neuroc.Model {
	return func() *neuroc.Model {
		net := ternaryNet([]int{gridSide * gridSide, out}, []float64{b.cfg.Sizes.SweepDensity}, modelSeed+uint64(out))
		// A Fig-5 layer is a hidden layer: it keeps its ReLU.
		net.Layers = append(net.Layers, nn.NewReLU())
		return &neuroc.Model{
			Spec: neuroc.ModelSpec{
				InputDim: gridSide * gridSide, NumClasses: out, Arch: neuroc.ArchNeuroC,
				Strategy: neuroc.StrategyRandom, Sparsity: b.cfg.Sizes.SweepDensity, Seed: modelSeed,
			},
			Net: net,
		}
	}
}

func (b *sweepBench) setup(tr *tracer) error {
	s := b.cfg.Sizes
	var train, test *dataset.Dataset
	_ = tr.span("dataset.Generate", "train", calibRows, func() error {
		train = gridSet(modelSeed, calibRows, 0)
		return nil
	})
	_ = tr.span("dataset.Generate", "test", s.SweepRows, func() error {
		test = gridSet(inputSeed(b.cfg.Seed), 0, s.SweepRows)
		return nil
	})
	b.ds = join(train, test)
	b.models, b.nets = nil, nil
	for _, out := range s.SweepOuts {
		m := b.recipe(out)()
		var qm *quant.Model
		if err := tr.span("quant.FromNetwork", "", 0, func() (err error) {
			qm, err = quant.FromNetwork(m.Net, b.ds.TrainX, 0)
			return err
		}); err != nil {
			return err
		}
		b.models = append(b.models, qm)
		b.nets = append(b.nets, m.Net)
	}
	return nil
}

func (b *sweepBench) warmup() error { return nil }

func (b *sweepBench) round(tr *tracer, rc *refClock) roundResult {
	var r roundResult
	type deployed struct {
		what string
		img  *modelimg.Image
		m    *measurement
	}
	var done []deployed
	// One step per deployment.
	rc.begin()
	for i, qm := range b.models {
		for _, enc := range encodings {
			what := fmt.Sprintf("N_out=%d %s", b.cfg.Sizes.SweepOuts[i], enc.name)
			r.attempted++
			dep, err := deploy(tr, qm, enc)
			if err != nil {
				rc.lap()
				if errors.As(err, new(*modelimg.ErrNotDeployable)) {
					r.attempted-- // over the device's limits: not an operation
					continue
				}
				r.failed++
				r.problem("%s: deploy: %v", what, err)
				continue
			}
			m, err := measure(tr, nil, dep, b.ds, b.cfg.Sizes.SweepRows, true)
			rc.lap()
			if err != nil {
				r.failed++
				r.problem("%s: %v", what, err)
				continue
			}
			r.inferences += 9 + b.cfg.Sizes.SweepRows
			done = append(done, deployed{what, dep.Img, m})
		}
	}
	for _, d := range done {
		d.m.check(&r, d.what, d.img)
		r.cycles += d.m.cycles
		r.flash += d.img.TotalBytes()
	}
	if r.attempted > 0 {
		// Every checked evaluation that returned agreed with the host
		// reference on every row.
		r.accuracy = float64(len(done)) / float64(r.attempted)
	}
	return r
}

func (b *sweepBench) subject() (*subject, error) {
	s := b.cfg.Sizes
	i := 0
	for j, out := range s.SweepOuts {
		if out == s.SweepProbeOut {
			i = j
		}
	}
	dep, err := deploy(nil, b.models[i], encodings[0])
	if err != nil {
		return nil, err
	}
	return &subject{
		recipe: b.recipe(s.SweepOuts[i]), net: b.nets[i], ds: b.ds, enc: encodings[0],
		dep: dep, inputs: quantizeRows(b.models[i], b.ds.TestX),
	}, nil
}

// lapWriter ends a step of rc at every write.
type lapWriter struct{ rc *refClock }

func (w lapWriter) Write(p []byte) (int, error) {
	w.rc.lap()
	return len(p), nil
}

// pipelineBench is pipeline-mnist: one round trains Neuro-C on the
// MNIST stand-in, deploys it with the encoding search, evaluates it on
// the device and measures its layers and energy.
type pipelineBench struct {
	cfg config
	ds  *neuroc.Dataset
	sub *subject
}

func (b *pipelineBench) recipe() *neuroc.Model {
	return neuroc.NewModel(neuroc.ModelSpec{
		InputDim: mnistDim, NumClasses: classes, Hidden: b.cfg.Sizes.PipeHidden,
		Arch: neuroc.ArchNeuroC, Strategy: neuroc.StrategyLearned, Sparsity: 1.8, Seed: modelSeed,
	})
}

func (b *pipelineBench) setup(tr *tracer) error {
	s := b.cfg.Sizes
	var full *dataset.Dataset
	_ = tr.span("dataset.Generate", "train+test", s.PipeTrain+s.PipePool, func() error {
		full = mnistSet(dataset.MNIST().Seed, s.PipeTrain, s.PipePool)
		return nil
	})
	// The seed draws the evaluated rows from a pool of the same
	// distribution; the training rows, and so the model, stay fixed.
	pick := rng.New(inputSeed(b.cfg.Seed)).Perm(s.PipePool)[:s.PipeTest]
	ds := *full
	ds.TestX = tensor.NewMat(len(pick), full.TestX.Cols)
	ds.TestY = make([]int, len(pick))
	for i, p := range pick {
		copy(ds.TestX.Row(i), full.TestX.Row(p))
		ds.TestY[i] = full.TestY[p]
	}
	b.ds = &ds
	return nil
}

// warmup runs one untimed round: the first training and encoding search
// in a process grow its heap and run slower than the rounds after them.
func (b *pipelineBench) warmup() error {
	r := b.round(nil, nil)
	if r.failed > 0 || len(r.problems) > 0 {
		return fmt.Errorf("%d failed operations, problems %q", r.failed, r.problems)
	}
	return nil
}

func (b *pipelineBench) round(tr *tracer, rc *refClock) roundResult {
	s := b.cfg.Sizes
	// Operations: train, deploy, and the three measurements. Steps: each
	// training epoch, the rest of training, deploying, the checked
	// accuracy run, and the layer and energy measurements.
	r := roundResult{attempted: 2}
	rc.begin()
	m := b.recipe()
	opts := neuroc.TrainOptions{Epochs: s.PipeEpochs}
	if tr == nil {
		// Train logs a line per epoch: cut a step there, so that the
		// reference samples are no more than an epoch apart. Traced
		// rounds keep their Train spans free of reference samples.
		opts.Log = lapWriter{rc}
	}
	_ = tr.span("neuroc.Model.Train", "", s.PipeEpochs*s.PipeTrain, func() error {
		m.Train(b.ds, opts)
		return nil
	})
	rc.lap()
	var dep *neuroc.Deployment
	err := tr.span("neuroc.deploy", "auto", 0, func() (err error) {
		dep, err = m.Deploy(b.ds, neuroc.EncodingAuto)
		return err
	})
	rc.lap()
	if err != nil {
		r.failed = 1
		r.problem("Deploy(auto): %v", err)
		return r
	}
	dep.Workers = workers
	r.attempted += 3
	meas, err := measure(tr, rc, dep, b.ds, b.ds.TestX.Rows, false)
	rc.lap()
	if err != nil {
		r.failed = 1
		r.problem("%v", err)
		return r
	}
	r.inferences = b.ds.TestX.Rows + 6
	meas.check(&r, "pipeline", dep.Img)
	r.cycles = meas.stats.MinCycles
	r.flash = dep.ProgramBytes()
	r.accuracy = meas.acc
	b.sub = &subject{
		recipe: b.recipe, net: m.Net, ds: b.ds, enc: encodings[len(encodings)-1],
		dep: dep, inputs: quantizeRows(dep.QModel, b.ds.TestX),
	}
	return r
}

func (b *pipelineBench) subject() (*subject, error) {
	if b.sub == nil {
		return nil, fmt.Errorf("pipeline-mnist: no round deployed a model")
	}
	return b.sub, nil
}
