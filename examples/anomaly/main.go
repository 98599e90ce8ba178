// Anomaly detection on a battery-powered sensor node — the deployment
// scenario that motivates the paper's introduction: a BLE node sampling
// a vibration sensor must classify events locally within a microwatt
// energy budget, where inference latency is the direct proxy for energy.
//
// The example synthesizes 128-sample vibration windows (normal machine
// hum, bearing fault harmonics, impact transients), trains a tiny
// Neuro-C classifier, deploys it on the emulated Cortex-M0, and
// translates the measured latency into an energy/duty-cycle estimate.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/energy"
)

const (
	windowLen  = 128
	numClasses = 3 // normal, bearing fault, impact
)

// synthWindow produces one normalized vibration window for a class.
func synthWindow(class int, seed, idx int) []float32 {
	w := make([]float32, windowLen)
	// Deterministic pseudo-noise without bringing in math/rand.
	noise := func(i int) float64 {
		x := float64(seed*1_000_003+idx*7919+i*104729) * 0.61803398875
		return 2*(x-math.Floor(x)) - 1
	}
	for i := range w {
		t := float64(i) / windowLen
		base := 0.3 * math.Sin(2*math.Pi*8*t) // machine hum at 8 cycles/window
		switch class {
		case 1: // bearing fault: high-frequency harmonics
			base += 0.25*math.Sin(2*math.Pi*31*t) + 0.15*math.Sin(2*math.Pi*47*t+1.1)
		case 2: // impact: decaying transient
			pos := 0.2 + 0.5*(float64(idx%17)/17)
			if t > pos {
				base += 0.9 * math.Exp(-(t-pos)*18) * math.Sin(2*math.Pi*60*(t-pos))
			}
		}
		v := 0.5 + 0.5*base + 0.05*noise(i)
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		w[i] = float32(v)
	}
	return w
}

func synthSplit(n, seed int) ([][]float32, []int) {
	x := make([][]float32, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % numClasses
		x[i] = synthWindow(y[i], seed, i)
	}
	return x, y
}

func main() {
	trainX, trainY := synthSplit(900, 1)
	testX, testY := synthSplit(300, 2)
	ds, err := neuroc.NewDataset("vibration", numClasses, trainX, trainY, testX, testY)
	if err != nil {
		log.Fatal(err)
	}

	m := neuroc.NewModel(neuroc.ModelSpec{
		InputDim: ds.Dim(), NumClasses: numClasses,
		Hidden: []int{32}, Arch: neuroc.ArchNeuroC,
		Strategy: neuroc.StrategyLearned, Seed: 7,
	})
	fmt.Println("training tiny Neuro-C vibration classifier...")
	rep := m.Train(ds, neuroc.TrainOptions{Epochs: 60})
	dep, err := m.Deploy(ds, neuroc.EncodingBlock)
	if err != nil {
		log.Fatal(err)
	}
	ms, cycles, err := dep.MeasureLatency(ds, 10)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("accuracy: float %.1f%%, int8 on-device %.1f%%\n",
		rep.TestAccuracy*100, dep.Accuracy(ds)*100)
	fmt.Printf("model: %d connections, %.1f KB flash\n",
		m.EffectiveParams(), float64(dep.ProgramBytes())/1024)
	fmt.Printf("inference: %.2f ms (%d cycles @ 8 MHz)\n", ms, cycles)

	// Energy from the measured cycle count at the paper's fixed operating
	// point (no DVFS on Cortex-M0-class parts, so E = P_active · t
	// exactly — no wall-clock estimate involved).
	model := energy.STM32F072Model(device.ClockHz)
	perInference := model.Attribute(energy.Counts{ActiveCycles: cycles})
	fmt.Printf("energy: %.2f µJ per event (%d measured cycles)\n",
		perInference.TotalUJ(), cycles)

	// Per-layer attribution: each inference on the deployed image is
	// segmented at its layer boundaries into exact per-layer cycle
	// costs, and the energy model prices those cycles — so the µJ rows
	// sum to the layers' share of the whole inference.
	agg, err := dep.MeasureEnergy(ds, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-layer energy (10 on-device inferences):")
	if err := agg.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Duty cycle measured in cycles: one window per second, the core
	// sleeping out the rest of each period at the stop-mode draw.
	sleepCycles := uint64(0)
	if cycles < device.ClockHz {
		sleepCycles = device.ClockHz - cycles
	}
	duty := energy.MeasuredDuty(cycles, sleepCycles, device.ClockHz)
	budget := energy.STM32F072
	avgW, err := budget.AveragePowerW(duty)
	if err != nil {
		log.Fatal(err)
	}
	life, err := energy.CR2032.Lifetime(budget, duty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at 1 event/s: mean draw %.1f µW — %.1f years on a CR2032 coin cell\n",
		avgW*1e6, life.Hours()/24/365)
}
