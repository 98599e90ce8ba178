package neuroc

import (
	"errors"
	"fmt"
	"io"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/telemetry"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// Deployment is a quantized model loaded on the emulated Cortex-M0.
// QModel, Img, Dev and Encoding are fixed after construction, and Dev
// is required: the flash image its board booted from (Dev.Flash) is the
// deployed artifact every batch evaluation runs on.
type Deployment struct {
	QModel *quant.Model
	Img    *modelimg.Image
	Dev    *device.Device

	// Encoding is the adjacency encoding the image was built with, kept
	// so derived builds (TelemetryTwin) match exactly.
	Encoding Encoding

	// Workers is the board-farm pool size used by batch evaluations
	// (MeasureStats, DeviceAccuracy); <= 0 uses GOMAXPROCS. Any value
	// produces bit-identical outputs and per-input cycle counts — the
	// farm only changes host wall-clock time.
	Workers int

	// Observe, when non-nil, is passed to every batch evaluation's farm
	// run (farm.Options.Observe): the live-metrics hook. It is called
	// concurrently from the farm workers and must be safe for that; nil
	// (the default) keeps every path identical to an unobserved run.
	// The single-board runs (Profile, MeasureLayers, MeasureEnergy) do
	// not feed it.
	Observe func(i int, r *farm.Result)
}

// ErrNotDeployable reports a model that exceeds the device's flash or
// SRAM, the paper's non-deployable condition (Fig. 6a's red line).
var ErrNotDeployable = errors.New("neuroc: model not deployable on the target device")

// errEmptyTestSplit is returned by every method that evaluates test
// rows when the dataset has none.
var errEmptyTestSplit = errors.New("neuroc: empty test split")

// Deploy quantizes the trained model (calibrating on the training
// split) and builds + loads the flash image with the chosen encoding.
func (m *Model) Deploy(ds *Dataset, enc Encoding) (*Deployment, error) {
	calib := ds.TrainX
	if calib.Rows > 512 {
		calib = tensor.FromSlice(512, calib.Cols, calib.Data[:512*calib.Cols])
	}
	qm, err := quant.FromNetwork(m.Net, calib, 0)
	if err != nil {
		return nil, fmt.Errorf("neuroc: quantize: %w", err)
	}
	return deploy(qm, enc)
}

// deploy builds qm's flash image with enc and boots the deployment's
// board on it. An image that exceeds the device is ErrNotDeployable.
func deploy(qm *quant.Model, enc Encoding) (*Deployment, error) {
	img, err := modelimg.Build(qm, enc)
	if err != nil {
		var nd *modelimg.ErrNotDeployable
		if errors.As(err, &nd) {
			return nil, fmt.Errorf("%w: %v", ErrNotDeployable, err)
		}
		return nil, err
	}
	dev, err := device.New(img)
	if err != nil {
		return nil, err
	}
	return &Deployment{QModel: qm, Img: img, Dev: dev, Encoding: enc}, nil
}

// testInputs quantizes n test rows starting at row first, wrapping
// around the test split.
func (d *Deployment) testInputs(ds *Dataset, first, n int) ([][]int8, error) {
	if ds.TestX.Rows == 0 {
		return nil, errEmptyTestSplit
	}
	inputs := make([][]int8, n)
	for i := range inputs {
		inputs[i] = d.QModel.QuantizeInput(ds.TestX.Row((first + i) % ds.TestX.Rows))
	}
	return inputs, nil
}

// runFarm evaluates inputs on fi across the board farm with the
// deployment's batch options.
func (d *Deployment) runFarm(fi *device.FlashImage, inputs [][]int8) ([]farm.Result, *farm.Stats, error) {
	return farm.Run(fi, inputs, farm.Options{Workers: d.Workers, Observe: d.Observe})
}

// QuantizedSizeBytes estimates the flash footprint without building the
// image: weight/structure tables only. Use ProgramBytes on a real
// Deployment for the paper's metric.
func (d *Deployment) QuantizedSizeBytes() int {
	total := 0
	for _, l := range d.QModel.Layers {
		total += l.NumWeightBytes()
	}
	return total
}

// ProgramBytes is the program-memory footprint (flash image size):
// inference code plus all model tables, the paper's memory metric.
func (d *Deployment) ProgramBytes() int { return d.Img.TotalBytes() }

// CodeBytes and DataBytes split the footprint into code and tables.
func (d *Deployment) CodeBytes() int { return d.Img.CodeBytes }

// DataBytes is the descriptor/weight-table portion of the image.
func (d *Deployment) DataBytes() int { return d.Img.DataBytes }

// MeasureLatency runs runs inferences on the device over inputs drawn
// from the test split and returns the mean latency in milliseconds and
// the mean cycle count, mirroring the paper's 100-run TIM2 averaging.
func (d *Deployment) MeasureLatency(ds *Dataset, runs int) (ms float64, cycles uint64, err error) {
	ms, cycles, _, err = d.MeasureStats(ds, runs)
	return ms, cycles, err
}

// MeasureStats is MeasureLatency also returning the mean retired-
// instruction count, so callers can derive CPI alongside latency. The
// runs are evaluated in parallel on the board farm (see Workers); the
// means are identical to the serial path.
func (d *Deployment) MeasureStats(ds *Dataset, runs int) (ms float64, cycles, instructions uint64, err error) {
	if runs <= 0 {
		runs = 10
	}
	inputs, err := d.testInputs(ds, 0, runs)
	if err != nil {
		return 0, 0, 0, err
	}
	_, stats, err := d.runFarm(d.Dev.Flash, inputs)
	if err != nil {
		return 0, 0, 0, err
	}
	return stats.LatencyMS(), stats.MeanCycles, stats.Instructions / uint64(runs), nil
}

// TelemetryTwin builds the deployment's telemetry twin: the same
// quantized model, encoding, and resolved per-layer choices, plus the
// on-device layer markers. It is the oracle the deployed image's layer
// spans are tested against — its marker-corrected layer costs equal
// the deployment's exactly (see internal/telemetry); no shipped tool
// runs it. Every call builds a new image.
func (d *Deployment) TelemetryTwin() (*modelimg.Image, error) {
	img, err := modelimg.BuildOpts(d.QModel, modelimg.BuildOptions{
		Encoding:  d.Encoding,
		PerLayer:  d.Img.Encodings,
		Telemetry: true,
	})
	if err != nil {
		return nil, fmt.Errorf("neuroc: building telemetry twin: %w", err)
	}
	return img, nil
}

// measureInputs quantizes runs test rows (10 when runs <= 0) and boots
// a private board on the deployed image to segment them on, so
// concurrent callers never share d.Dev.
func (d *Deployment) measureInputs(ds *Dataset, runs int) (*device.Device, [][]int8, error) {
	if runs <= 0 {
		runs = 10
	}
	inputs, err := d.testInputs(ds, 0, runs)
	if err != nil {
		return nil, nil, err
	}
	return d.Dev.Flash.NewBoard(), inputs, nil
}

// MeasureLayers measures per-layer cycle attribution on the deployed
// image itself: it runs the inferences one after another on a private
// board, untraced, and segments each at the image's layer-boundary
// labels, whose cycle totals the fast path records through marks in the
// image's translation table (telemetry.HostAggregate,
// device.RunBoundaries). Each layer cost is exact, cycle for cycle, and
// equals what the on-device telemetry pipeline decodes from the
// telemetry twin's markers (see internal/telemetry). An image whose
// boundaries cannot be marked is an error, not a slower traced
// measurement.
func (d *Deployment) MeasureLayers(ds *Dataset, runs int) ([]telemetry.LayerStats, error) {
	dev, inputs, err := d.measureInputs(ds, runs)
	if err != nil {
		return nil, err
	}
	return telemetry.HostAggregate(dev, inputs)
}

// MeasureEnergy measures per-layer energy attribution: MeasureLayers'
// segmentation priced with the board's calibrated energy model
// (device.EnergyModel). It returns the batch-level neuroc-energy/v1
// aggregate — whole-batch and per-layer µJ, derived from the exact
// cycle counts of the deployed image, so the figures are fully
// deterministic and sum exactly (see internal/telemetry).
func (d *Deployment) MeasureEnergy(ds *Dataset, runs int) (*telemetry.EnergyAggregate, error) {
	dev, inputs, err := d.measureInputs(ds, runs)
	if err != nil {
		return nil, err
	}
	return telemetry.HostAggregateEnergy(dev, inputs, device.EnergyModel())
}

// Profile runs one profiled inference on test-split sample idx and
// returns the device result carrying the full cycle-attribution trace
// (symbolize with profile.New(res.Trace, d.Img.Prog.Symbols)).
func (d *Deployment) Profile(ds *Dataset, idx int) (*device.Result, error) {
	inputs, err := d.testInputs(ds, idx, 1)
	if err != nil {
		return nil, err
	}
	return d.Dev.RunProfiled(inputs[0])
}

// Accuracy evaluates the quantized model on the test split. The
// bit-exact host reference is used (the device agrees bit-for-bit; see
// the differential tests), so full-test-set evaluation stays fast.
func (d *Deployment) Accuracy(ds *Dataset) float64 {
	return d.QModel.Accuracy(ds.TestX, ds.TestY)
}

// DeviceAccuracy evaluates accuracy by running every one of n test
// samples on emulated devices (n <= 0 uses the whole test split). The
// samples are distributed across the board farm (see Workers), which
// makes full-test-set on-emulator evaluation practical; the result is
// bit-identical to running every sample serially on one board.
func (d *Deployment) DeviceAccuracy(ds *Dataset, n int) (float64, error) {
	acc, _, err := d.deviceAccuracy(ds, n, false)
	return acc, err
}

// DeviceAccuracyChecked is DeviceAccuracy with a differential gate:
// every device output vector is cross-checked, logit by logit, against
// the host quantized reference path (quant.Model.Infer) on the same
// input, and any divergence is reported as an error rather than folded
// into the accuracy number. This is the trusted form of the paper's
// on-device accuracy measurement: the returned value is a true
// on-emulator result, proven equal to the bit-exact Go reference.
func (d *Deployment) DeviceAccuracyChecked(ds *Dataset, n int) (float64, *farm.Stats, error) {
	return d.deviceAccuracy(ds, n, true)
}

// deviceAccuracy runs n test samples on the deployed image and scores
// the device predictions against the labels; checked cross-checks each
// output vector against the host reference first.
func (d *Deployment) deviceAccuracy(ds *Dataset, n int, checked bool) (float64, *farm.Stats, error) {
	if n <= 0 || n > ds.TestX.Rows {
		n = ds.TestX.Rows
	}
	inputs, err := d.testInputs(ds, 0, n)
	if err != nil {
		return 0, nil, err
	}
	results, stats, err := d.runFarm(d.Dev.Flash, inputs)
	if err != nil {
		return 0, stats, err
	}
	correct := 0
	for i := range results {
		pred := results[i].Argmax()
		if checked {
			out, ref := results[i].Output, d.QModel.Infer(inputs[i])
			if len(out) != len(ref) {
				return 0, stats, fmt.Errorf(
					"neuroc: device/reference divergence on test sample %d: device returns %d logits, host reference %d",
					i, len(out), len(ref))
			}
			for j := range ref {
				if out[j] != ref[j] {
					return 0, stats, fmt.Errorf(
						"neuroc: device/reference divergence on test sample %d: logit %d is %d on the device, %d in the host reference",
						i, j, out[j], ref[j])
				}
			}
		}
		if pred == ds.TestY[i] {
			correct++
		}
	}
	return float64(correct) / float64(n), stats, nil
}

// DeployWithoutScale deploys the already-quantized model with the
// per-neuron scale w_j stripped (identical adjacency and structure) —
// the paper's Sec. 5.2 procedure for measuring the latency and memory
// cost attributable to w_j alone.
func (d *Deployment) DeployWithoutScale(enc Encoding) (*Deployment, error) {
	return deploy(quant.StripPerNeuron(d.QModel), enc)
}

// SaveModel writes the quantized model in the portable NCQ1 binary
// format, so a trained deployment can be reloaded (LoadDeployment)
// without retraining.
func (d *Deployment) SaveModel(w io.Writer) error { return d.QModel.Save(w) }

// LoadDeployment reads an NCQ1 quantized model and deploys it onto a
// fresh emulated device with the given encoding.
func LoadDeployment(r io.Reader, enc Encoding) (*Deployment, error) {
	qm, err := quant.Load(r)
	if err != nil {
		return nil, err
	}
	return deploy(qm, enc)
}
