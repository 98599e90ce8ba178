package neuroc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/telemetry"
)

// smallDigits trims the digits set for fast unit tests.
func smallDigits() *Dataset {
	return Digits().Subsample(800, 250)
}

func TestEndToEndNeuroC(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{48}, Arch: ArchNeuroC, Seed: 1,
	})
	rep := m.Train(ds, TrainOptions{Epochs: 60})
	if rep.TestAccuracy < 0.75 {
		t.Fatalf("float test accuracy = %v", rep.TestAccuracy)
	}
	dep, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	// Quantized accuracy close to float accuracy.
	qacc := dep.Accuracy(ds)
	if qacc < rep.TestAccuracy-0.08 {
		t.Errorf("quantized accuracy %v vs float %v", qacc, rep.TestAccuracy)
	}
	// The emulated device agrees with the host reference.
	dacc, err := dep.DeviceAccuracy(ds, 40)
	if err != nil {
		t.Fatal(err)
	}
	host := 0
	for i := 0; i < 40; i++ {
		if dep.QModel.Predict(dep.QModel.QuantizeInput(ds.TestX.Row(i))) == ds.TestY[i] {
			host++
		}
	}
	if hostAcc := float64(host) / 40; dacc != hostAcc {
		t.Errorf("device accuracy %v != host reference %v", dacc, hostAcc)
	}
	// The checked form agrees, and its batch ran on the deployed
	// tables rather than a freshly flashed copy of the image.
	cacc, stats, err := dep.DeviceAccuracyChecked(ds, 40)
	if err != nil {
		t.Fatal(err)
	}
	if cacc != dacc {
		t.Errorf("checked device accuracy %v != unchecked %v", cacc, dacc)
	}
	if stats.PredecodeBuild != dep.Dev.Flash.Table.BuildTime() {
		t.Errorf("checked batch predecode build %v, want the deployed image's %v",
			stats.PredecodeBuild, dep.Dev.Flash.Table.BuildTime())
	}
	// Latency and footprint are plausible.
	ms, cycles, err := dep.MeasureLatency(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || cycles == 0 {
		t.Errorf("latency %v ms, %d cycles", ms, cycles)
	}
	if dep.ProgramBytes() <= 0 || dep.ProgramBytes() > 128*1024 {
		t.Errorf("program bytes = %d", dep.ProgramBytes())
	}
}

func TestEndToEndMLPAndComparison(t *testing.T) {
	ds := smallDigits()
	mlp := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{48}, Arch: ArchMLP, Seed: 2,
	})
	mlp.Train(ds, TrainOptions{Epochs: 30})
	mlpDep, err := mlp.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}

	nc := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{48}, Arch: ArchNeuroC, Seed: 2,
	})
	nc.Train(ds, TrainOptions{Epochs: 60})
	ncDep, err := nc.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's headline: at the same topology, Neuro-C is much
	// faster and much smaller than the dense MLP.
	mlpMS, _, err := mlpDep.MeasureLatency(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	ncMS, _, err := ncDep.MeasureLatency(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ncMS >= mlpMS {
		t.Errorf("Neuro-C latency %.2fms not below MLP %.2fms", ncMS, mlpMS)
	}
	if ncDep.ProgramBytes() >= mlpDep.ProgramBytes() {
		t.Errorf("Neuro-C image %dB not below MLP %dB", ncDep.ProgramBytes(), mlpDep.ProgramBytes())
	}
}

func TestTNNAblationCosts(t *testing.T) {
	ds := smallDigits()
	spec := ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{32}, Arch: ArchNeuroC, Seed: 3,
	}
	nc := NewModel(spec)
	nc.Train(ds, TrainOptions{Epochs: 40})
	ncDep, err := nc.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 8's cost comparison strips w_j from the same trained model,
	// keeping the adjacency structure identical.
	tnnDep, err := ncDep.DeployWithoutScale(EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 8b/8c: removing w_j saves a little latency and a little
	// memory — both must be small and non-negative.
	ncMS, _, _ := ncDep.MeasureLatency(ds, 3)
	tnnMS, _, _ := tnnDep.MeasureLatency(ds, 3)
	if tnnMS > ncMS {
		t.Errorf("TNN latency %.3f above Neuro-C %.3f", tnnMS, ncMS)
	}
	if ncMS-tnnMS > 0.2*ncMS {
		t.Errorf("scale overhead %.3fms implausibly large vs %.3fms", ncMS-tnnMS, ncMS)
	}
	memDelta := ncDep.ProgramBytes() - tnnDep.ProgramBytes()
	if memDelta < 0 || memDelta > 2048 {
		t.Errorf("scale memory overhead = %d bytes", memDelta)
	}
}

// The checked accuracy gate compares whole output vectors, not only
// their argmax: after the host reference's last-layer bias is lowered on
// a losing class, one logit of test sample 0 differs from the device
// while every prediction stays the same, and the gate must name that
// sample and logit.
func TestDeviceAccuracyCheckedComparesLogits(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{16}, Arch: ArchNeuroC, Seed: 3,
	})
	dep, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.DeviceAccuracyChecked(ds, 20); err != nil {
		t.Fatalf("unmodified reference: %v", err)
	}
	x := dep.QModel.QuantizeInput(ds.TestX.Row(0))
	ref, best := dep.QModel.Infer(x), dep.QModel.Predict(x)
	last := dep.QModel.Layers[len(dep.QModel.Layers)-1]
	losing := -1
	for j, v := range ref {
		// Unsaturated and not clamped by ReLU: a bias one lower lowers
		// the logit by exactly one.
		if v < ref[best] && v > -128 && (!last.ReLU || v > 0) {
			losing = j
			break
		}
	}
	if losing < 0 {
		t.Fatalf("sample 0 logits %v have no adjustable losing class", ref)
	}
	last.Bias[losing]--
	if got := dep.QModel.Predict(x); got != best {
		t.Fatalf("lowering a losing logit moved the argmax from %d to %d", best, got)
	}
	_, _, err = dep.DeviceAccuracyChecked(ds, 20)
	if err == nil {
		t.Fatalf("checked gate passed with logit %d of sample 0 off by one", losing)
	}
	want := fmt.Sprintf("test sample 0: logit %d is %d on the device, %d in the host reference", losing, ref[losing], ref[losing]-1)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestNotDeployableError(t *testing.T) {
	ds := smallDigits()
	// A huge dense MLP cannot fit 128 KB of flash.
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{1500, 1000}, Arch: ArchMLP, Seed: 4,
	})
	// No training needed; deployment must fail on size alone.
	_, err := m.Deploy(ds, EncodingBlock)
	if err == nil {
		t.Fatal("oversized MLP deployed")
	}
	if !errors.Is(err, ErrNotDeployable) {
		t.Errorf("error = %v, want ErrNotDeployable", err)
	}

	// Every deploy path reports it the same way: a 784-96-10 Neuro-C
	// model's unrolled image exceeds flash with or without w_j.
	mnist := MNIST().Subsample(600, 10)
	nc := NewModel(ModelSpec{
		InputDim: mnist.Dim(), NumClasses: mnist.NumClasses,
		Hidden: []int{96}, Arch: ArchNeuroC, Seed: 1,
	})
	if _, err := nc.Deploy(mnist, EncodingUnrolled); !errors.Is(err, ErrNotDeployable) {
		t.Fatalf("Deploy(unrolled) error = %v, want ErrNotDeployable", err)
	}
	dep, err := nc.Deploy(mnist, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.DeployWithoutScale(EncodingUnrolled); !errors.Is(err, ErrNotDeployable) {
		t.Errorf("DeployWithoutScale(unrolled) error = %v, want ErrNotDeployable", err)
	}
}

func TestAllEncodingsDeployable(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{24}, Arch: ArchNeuroC, Seed: 5,
	})
	m.Train(ds, TrainOptions{Epochs: 30})
	var ref float64
	for i, enc := range []Encoding{EncodingBlock, EncodingCSC, EncodingDelta, EncodingMixed} {
		dep, err := m.Deploy(ds, enc)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		acc, err := dep.DeviceAccuracy(ds, 25)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if i == 0 {
			ref = acc
		} else if acc != ref {
			t.Errorf("%v device accuracy %v differs from block %v", enc, acc, ref)
		}
	}
}

// TestEmptyTestSplit pins that every method evaluating test rows
// returns the same error on a dataset without any, instead of a
// NaN or a divide-by-zero panic.
func TestEmptyTestSplit(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{16}, Arch: ArchNeuroC, Seed: 9,
	})
	dep, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	empty := ds.Subsample(ds.TrainX.Rows, 0)
	calls := map[string]func() error{
		"MeasureLatency": func() error { _, _, err := dep.MeasureLatency(empty, 3); return err },
		"MeasureStats":   func() error { _, _, _, err := dep.MeasureStats(empty, 3); return err },
		"MeasureLayers":  func() error { _, err := dep.MeasureLayers(empty, 3); return err },
		"MeasureEnergy":  func() error { _, err := dep.MeasureEnergy(empty, 3); return err },
		"Profile":        func() error { _, err := dep.Profile(empty, 0); return err },
		"DeviceAccuracy": func() error { _, err := dep.DeviceAccuracy(empty, 0); return err },
		"DeviceAccuracyChecked": func() error {
			_, _, err := dep.DeviceAccuracyChecked(empty, 0)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, errEmptyTestSplit) {
			t.Errorf("%s on an empty test split: error = %v, want %v", name, err, errEmptyTestSplit)
		}
	}
}

func TestEffectiveParams(t *testing.T) {
	ds := smallDigits()
	nc := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{16}, Arch: ArchNeuroC, Seed: 6,
	})
	if nc.EffectiveParams() <= 0 || nc.EffectiveParams() >= nc.NumParams() {
		t.Errorf("effective %d vs raw %d", nc.EffectiveParams(), nc.NumParams())
	}
	mlp := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{16}, Arch: ArchMLP, Seed: 6,
	})
	if mlp.EffectiveParams() != mlp.NumParams() {
		t.Error("MLP effective params should equal raw params")
	}
}

func TestModelSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid spec accepted")
		}
	}()
	NewModel(ModelSpec{InputDim: 0, NumClasses: 10})
}

func TestSaveLoadDeployment(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{24}, Arch: ArchNeuroC, Seed: 8,
	})
	m.Train(ds, TrainOptions{Epochs: 20})
	dep, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeployment(&buf, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Accuracy(ds), dep.Accuracy(ds); got != want {
		t.Errorf("reloaded accuracy %v != original %v", got, want)
	}
	if loaded.ProgramBytes() != dep.ProgramBytes() {
		t.Errorf("reloaded image %d != original %d", loaded.ProgramBytes(), dep.ProgramBytes())
	}
	// A file whose layers do not chain is refused, not deployed.
	bad := *dep.QModel
	bad.Layers = []*quant.Layer{dep.QModel.Layers[0], dep.QModel.Layers[0]}
	buf.Reset()
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDeployment(&buf, EncodingBlock); err == nil {
		t.Error("LoadDeployment accepted a model whose layers do not chain")
	}
}

// TestMeasureEnergy checks the public per-layer energy entry point: the
// aggregate carries the neuroc-energy/v1 schema, its total is the paper
// identity over the measured cycles (no WFI sleep in the inference
// images, so active == total bit-for-bit) and prices the deployed
// image's own cycles, not the telemetry twin's, and the per-layer
// figures price exactly the cycle counts MeasureLayers reports. Those
// equal the on-device telemetry pipeline's decoded aggregate over the
// twin, and a fresh Deployment measured from two goroutines at once
// returns the same figures.
func TestMeasureEnergy(t *testing.T) {
	ds := smallDigits()
	m := NewModel(ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: []int{24}, Arch: ArchNeuroC, Seed: 5,
	})
	m.Train(ds, TrainOptions{Epochs: 5})
	dep, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	stats, err := dep.MeasureLayers(ds, runs)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := dep.MeasureEnergy(ds, runs)
	if err != nil {
		t.Fatal(err)
	}

	// The on-device pipeline is the reference: the twin's decoded
	// marker stream over the same rows, aggregated.
	twin, err := dep.TelemetryTwin()
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := dep.testInputs(ds, 0, runs)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := farm.Map(twin, inputs, farm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	twinStats, err := telemetry.Aggregate(twin, results, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, twinStats) {
		t.Errorf("MeasureLayers %+v, telemetry twin aggregate %+v", stats, twinStats)
	}

	_, cycles, _, err := dep.MeasureStats(ds, runs)
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalCycles != uint64(agg.Items)*cycles {
		t.Errorf("batch prices %d cycles, want %d items x %d deployed cycles",
			agg.TotalCycles, agg.Items, cycles)
	}
	if agg.Schema != telemetry.EnergySchema {
		t.Errorf("schema = %q, want %q", agg.Schema, telemetry.EnergySchema)
	}
	if agg.Items != runs || len(agg.Layers) == 0 {
		t.Fatalf("items = %d, layers = %d", agg.Items, len(agg.Layers))
	}
	em := device.EnergyModel()
	if agg.SleepCycles != 0 {
		t.Errorf("inference image slept %d cycles without a WFI", agg.SleepCycles)
	}
	if agg.TotalUJ != em.ActiveUJ(agg.TotalCycles) {
		t.Errorf("batch energy %v != ActiveUJ(%d) = %v (paper identity broken)",
			agg.TotalUJ, agg.TotalCycles, em.ActiveUJ(agg.TotalCycles))
	}
	if agg.MeanUJ != agg.TotalUJ/runs {
		t.Errorf("mean %v != total %v / %d", agg.MeanUJ, agg.TotalUJ, runs)
	}
	if len(stats) != len(agg.Layers) {
		t.Fatalf("MeasureLayers has %d layers, MeasureEnergy %d", len(stats), len(agg.Layers))
	}
	for i := range stats {
		if agg.Layers[i].TotalUJ != em.ActiveUJ(stats[i].Total) {
			t.Errorf("layer %d: energy %v != ActiveUJ(%d)", i, agg.Layers[i].TotalUJ, stats[i].Total)
		}
	}

	// A fresh Deployment, measured by both methods at once, returns the
	// same figures.
	fresh, err := m.Deploy(ds, EncodingBlock)
	if err != nil {
		t.Fatal(err)
	}
	var (
		freshAgg         *telemetry.EnergyAggregate
		freshStats       []telemetry.LayerStats
		errAgg, errStats error
		wg               sync.WaitGroup
	)
	wg.Add(2)
	go func() { defer wg.Done(); freshAgg, errAgg = fresh.MeasureEnergy(ds, runs) }()
	go func() { defer wg.Done(); freshStats, errStats = fresh.MeasureLayers(ds, runs) }()
	wg.Wait()
	if errAgg != nil || errStats != nil {
		t.Fatal(errAgg, errStats)
	}
	if !reflect.DeepEqual(stats, freshStats) {
		t.Errorf("MeasureLayers %+v, on a fresh Deployment %+v", stats, freshStats)
	}
	if !reflect.DeepEqual(agg, freshAgg) {
		t.Errorf("MeasureEnergy %+v, on a fresh Deployment %+v", agg, freshAgg)
	}
}
