// Package neuroc is the public API of the Neuro-C reproduction: build a
// model (Neuro-C, TNN ablation, or MLP baseline), train it with
// quantization-aware training, quantize it to the integer-only form, and
// deploy it onto the emulated Cortex-M0 to measure accuracy, inference
// latency, and program-memory footprint — the full pipeline of the
// paper "Neuro-C: Neural Inference Shaped by Hardware Limits"
// (EuroSys 2026).
//
// A minimal end-to-end run:
//
//	ds := neuroc.Digits()
//	m := neuroc.NewModel(neuroc.ModelSpec{
//	    InputDim: ds.Dim(), NumClasses: ds.NumClasses,
//	    Hidden: []int{64}, Arch: neuroc.ArchNeuroC, Seed: 1,
//	})
//	m.Train(ds, neuroc.TrainOptions{Epochs: 20})
//	dep, err := m.Deploy(ds, neuroc.EncodingBlock)
//	// dep.ProgramBytes(), dep.MeasureLatency(), dep.Accuracy(ds)
package neuroc

import (
	"fmt"
	"io"

	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/nn"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/ternary"
)

// Arch selects the model family.
type Arch int

// Model families compared in the paper's evaluation.
const (
	// ArchNeuroC is the paper's contribution: ternary adjacency plus a
	// learned per-neuron scale w_j.
	ArchNeuroC Arch = iota
	// ArchTNN removes the per-neuron scale (the Sec. 5.2 ablation).
	ArchTNN
	// ArchMLP is the conventional dense float MLP baseline, deployed
	// with int8 per-tensor quantization.
	ArchMLP
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchNeuroC:
		return "neuroc"
	case ArchTNN:
		return "tnn"
	case ArchMLP:
		return "mlp"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Strategy re-exports the adjacency strategies of Sec. 3.2.
type Strategy = ternary.Strategy

// Adjacency strategies for Neuro-C/TNN layers.
const (
	StrategyLearned           = ternary.Learned
	StrategyRandom            = ternary.Random
	StrategyConstrainedRandom = ternary.ConstrainedRandom
	StrategyLocality          = ternary.Locality
)

// ModelSpec describes a model to construct.
type ModelSpec struct {
	InputDim   int
	NumClasses int
	// Hidden lists the hidden-layer widths (empty builds a single
	// compute layer straight to the classes).
	Hidden []int
	Arch   Arch
	// Strategy selects adjacency construction for ternary models
	// (default Learned). Sparsity/FanIn parameterize it as in the paper.
	Strategy Strategy
	Sparsity float64
	FanIn    int
	// Dropout, when positive, inserts dropout after each hidden
	// activation (MLP baselines in the paper's random search use it).
	Dropout float64
	Seed    uint64
}

// Model is a trainable float model plus its construction spec.
type Model struct {
	Spec ModelSpec
	Net  *nn.Network
}

// NewModel constructs the float model described by spec.
func NewModel(spec ModelSpec) *Model {
	if spec.InputDim <= 0 || spec.NumClasses <= 0 {
		panic(fmt.Sprintf("neuroc: invalid spec dims %d->%d", spec.InputDim, spec.NumClasses))
	}
	r := rng.New(spec.Seed + 0xA11CE)
	var layers []nn.Layer
	dims := append([]int{spec.InputDim}, spec.Hidden...)
	dims = append(dims, spec.NumClasses)
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		hidden := i+2 < len(dims)
		switch spec.Arch {
		case ArchMLP:
			layers = append(layers, nn.NewDense(in, out, r))
		case ArchNeuroC, ArchTNN:
			// The classifier layer always uses learned connectivity:
			// fixing its few connections at random would cripple every
			// strategy equally and mask the hidden-layer comparison the
			// Strategy field exists for.
			strat := spec.Strategy
			sparsity := spec.Sparsity
			if !hidden && strat != ternary.Learned {
				strat = ternary.Learned
				sparsity = 0
			}
			layers = append(layers, ternary.New(ternary.Config{
				In: in, Out: out,
				Strategy: strat,
				Sparsity: sparsity,
				FanIn:    spec.FanIn,
				UseScale: spec.Arch == ArchNeuroC,
			}, r))
		default:
			panic(fmt.Sprintf("neuroc: unknown architecture %v", spec.Arch))
		}
		if hidden {
			layers = append(layers, nn.NewReLU())
			if spec.Dropout > 0 {
				layers = append(layers, nn.NewDropout(spec.Dropout, r.Split()))
			}
		}
	}
	return &Model{Spec: spec, Net: nn.NewNetwork(layers...)}
}

// TrainOptions configures Train.
type TrainOptions struct {
	Epochs    int     // default 10
	BatchSize int     // default 32
	LR        float64 // default 2e-3 (Adam)
	// WeightDecay, when positive, applies decoupled weight decay in
	// Adam. Off by default: decaying ternary latents pushes them
	// against the quantization threshold and destabilizes training
	// (see the ablation bench).
	WeightDecay float64
	Log         io.Writer
}

// TrainReport summarizes a training run.
type TrainReport struct {
	FinalLoss     float64
	TrainAccuracy float64
	TestAccuracy  float64
}

// Train fits the model on ds.TrainX/TrainY and evaluates both splits.
func (m *Model) Train(ds *Dataset, opts TrainOptions) *TrainReport {
	if opts.Epochs <= 0 {
		opts.Epochs = 10
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.LR <= 0 {
		opts.LR = 2e-3
	}
	opt := nn.NewAdam(opts.LR)
	if opts.WeightDecay > 0 {
		opt.WeightDecay = opts.WeightDecay
	}
	// Quantization-aware training schedule: cosine LR decay throughout,
	// then freeze the ternary structure for the last fifth of the run so
	// scales and biases calibrate against the deployed connectivity.
	mainEpochs := opts.Epochs
	freezeEpochs := 0
	if m.Spec.Arch != ArchMLP && opts.Epochs >= 5 {
		freezeEpochs = opts.Epochs / 5
		mainEpochs = opts.Epochs - freezeEpochs
	}
	res := nn.Fit(m.Net, ds.TrainX, ds.TrainY, nn.TrainConfig{
		Epochs:    mainEpochs,
		BatchSize: opts.BatchSize,
		Optimizer: opt,
		Seed:      m.Spec.Seed,
		Log:       opts.Log,
		CosineLR:  true,
	})
	if freezeEpochs > 0 {
		for _, l := range m.Net.Layers {
			if t, ok := l.(*ternary.Layer); ok {
				t.Freeze()
			}
		}
		opt.SetLR(opts.LR * 0.1)
		res = nn.Fit(m.Net, ds.TrainX, ds.TrainY, nn.TrainConfig{
			Epochs:    freezeEpochs,
			BatchSize: opts.BatchSize,
			Optimizer: opt,
			Seed:      m.Spec.Seed + 1,
			Log:       opts.Log,
			CosineLR:  true,
		})
	}
	return &TrainReport{
		FinalLoss:     res.FinalLoss,
		TrainAccuracy: m.Net.Accuracy(ds.TrainX, ds.TrainY),
		TestAccuracy:  m.Net.Accuracy(ds.TestX, ds.TestY),
	}
}

// FloatAccuracy evaluates the float model on the test split.
func (m *Model) FloatAccuracy(ds *Dataset) float64 {
	return m.Net.Accuracy(ds.TestX, ds.TestY)
}

// NumParams is the trainable parameter count of the float model.
func (m *Model) NumParams() int { return m.Net.NumParams() }

// EffectiveParams is the paper's deployed-parameter metric: for ternary
// models, neurons plus nonzero adjacency entries; for MLPs, all weights
// and biases.
func (m *Model) EffectiveParams() int {
	total := 0
	ternaryModel := false
	for _, l := range m.Net.Layers {
		if t, ok := l.(*ternary.Layer); ok {
			ternaryModel = true
			total += t.EffectiveParams()
		}
	}
	if !ternaryModel {
		return m.Net.NumParams()
	}
	return total
}

// Encoding selects the deployed adjacency encoding.
type Encoding = modelimg.EncodingChoice

// Deployment encodings (paper Sec. 4.2). EncodingBlock is the paper's
// selected scheme. EncodingUnrolled bakes the weights into straight-line
// code (fastest, largest); EncodingAuto runs the certificate-priced
// per-layer search (modelimg's searchEncodings) over block, csc, delta,
// mixed and unrolled/4, which never loses to the narrower unroll
// factors.
const (
	EncodingBlock    = modelimg.UseBlock
	EncodingCSC      = modelimg.UseCSC
	EncodingDelta    = modelimg.UseDelta
	EncodingMixed    = modelimg.UseMixed
	EncodingUnrolled = modelimg.UseUnrolled
	EncodingAuto     = modelimg.UseAuto
)
