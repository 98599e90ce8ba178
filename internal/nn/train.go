package nn

import (
	"fmt"
	"io"
	"math"

	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// TrainConfig controls the minibatch training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
	// EvalX/EvalY, when set, are evaluated after each epoch for logging
	// and early best-model tracking (by accuracy).
	EvalX *tensor.Mat
	EvalY []int
	// CosineLR anneals the optimizer learning rate from its base value
	// to 5% of it over the epochs (when the optimizer supports it).
	// Quantization-aware training needs this: late large steps keep
	// flipping ternary connections and destabilize convergence.
	CosineLR bool
}

// TrainResult summarizes a training run.
type TrainResult struct {
	FinalLoss     float64
	EpochLosses   []float64
	EvalAccuracy  float64 // accuracy on EvalX/EvalY after the last epoch
	EpochAccuracy []float64
}

// Fit trains net on (x, labels) with softmax cross-entropy.
func Fit(net *Network, x *tensor.Mat, labels []int, cfg TrainConfig) *TrainResult {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	// A batch larger than the data would fit no whole batch per epoch
	// and silently train nothing.
	if cfg.BatchSize > x.Rows && x.Rows > 0 {
		cfg.BatchSize = x.Rows
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	r := rng.New(cfg.Seed + 0x5eed)
	res := &TrainResult{}
	var baseLR float64
	nSamples := x.Rows
	order := make([]int, nSamples)
	for i := range order {
		order[i] = i
	}
	batchX := tensor.NewMat(cfg.BatchSize, x.Cols)
	batchY := make([]int, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.CosineLR {
			if ls, ok := cfg.Optimizer.(LRSetter); ok {
				if epoch == 0 {
					baseLR = ls.BaseLR()
				}
				frac := float64(epoch) / float64(cfg.Epochs)
				ls.SetLR(baseLR * (0.05 + 0.95*0.5*(1+math.Cos(math.Pi*frac))))
			}
		}
		r.Shuffle(order)
		var epochLoss float64
		batches := 0
		for lo := 0; lo+cfg.BatchSize <= nSamples; lo += cfg.BatchSize {
			bs := cfg.BatchSize
			bx := batchX
			by := batchY[:bs]
			for bi := 0; bi < bs; bi++ {
				src := order[lo+bi]
				copy(bx.Row(bi), x.Row(src))
				by[bi] = labels[src]
			}
			net.ZeroGrad()
			logits := net.Forward(bx, true)
			loss, grad := SoftmaxCrossEntropy(logits, by)
			net.Backward(grad)
			cfg.Optimizer.Step(net.Params())
			epochLoss += loss
			batches++
		}
		if batches > 0 {
			epochLoss /= float64(batches)
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss)
		res.FinalLoss = epochLoss
		if cfg.EvalX != nil {
			acc := net.Accuracy(cfg.EvalX, cfg.EvalY)
			res.EpochAccuracy = append(res.EpochAccuracy, acc)
			res.EvalAccuracy = acc
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "epoch %2d: loss %.4f acc %.4f\n", epoch+1, epochLoss, acc)
			}
		} else if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d: loss %.4f\n", epoch+1, epochLoss)
		}
	}
	return res
}
