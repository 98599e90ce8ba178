package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/telemetry"
	"github.com/neuro-c/neuroc/internal/tensor"
	"github.com/neuro-c/neuroc/internal/thumb"
)

var tiers = []device.Tier{device.TierLegacy, device.TierPredecoded, device.TierTranslated}

// batch3Reps is how many 3-input farm.Map calls farm.map_ms_p50 is the
// median of; MeasureStats, MeasureLayers and MeasureEnergy each make one.
const batch3Reps = 21

// probeLayers gives the traced run's per-layer metrics. The build,
// emulation and farm layers are re-timed on the workload's subject, so
// each number describes this workload's model and inputs. The neuroc,
// nn and quant stages are read from the spans the set-ups and rounds
// recorded; a stage the workload never calls is re-timed once here on
// the same subject.
func probeLayers(tr *tracer, sub *subject, sz sizes) (metrics, error) {
	out := metrics{}
	stages := []string{
		"neuroc.deploy", "neuroc.Deployment.DeviceAccuracyChecked", "neuroc.Deployment.MeasureStats",
		"neuroc.Deployment.MeasureLayers", "neuroc.Deployment.MeasureEnergy",
		"neuroc.Model.Train", "quant.FromNetwork", "quant.Model.Infer",
	}
	missing := map[string]bool{}
	for _, name := range stages {
		missing[name] = !tr.has(name)
	}
	first := len(tr.spans) // the probes' own spans start here

	images, err := probeBuilds(tr, sub, sz.ProbeReps)
	if err != nil {
		return nil, err
	}
	if err := probeStatic(tr, sub, sz.ProbeReps); err != nil {
		return nil, err
	}
	layers, err := probeTelemetry(tr, sub, sz.ProbeReps)
	if err != nil {
		return nil, err
	}
	if err := probeMIPS(tr, sub, images, sz.ProbeReps, sz.ProbeMIPSSeconds, out); err != nil {
		return nil, err
	}
	if err := probeFarm(tr, sub, sz.ProbeWall, out); err != nil {
		return nil, err
	}
	if err := probeStages(tr, sub, sz.ProbeReps, missing); err != nil {
		return nil, err
	}

	p := &tracer{spans: tr.spans[first:]}
	ms, s := time.Millisecond, time.Second
	for _, enc := range encodings {
		out.set("modelimg.build_ms."+enc.name, "ms", p.p50("modelimg.BuildOpts", enc.name, ms))
	}
	assemble := p.p50("thumb.Assemble", "", ms)
	certify := p.p50("asmcheck.Certify", "", ms)
	out.set("modelimg.codegen_self_ms", "ms", p.p50("modelimg.BuildOpts", "subject", ms)-assemble-certify)
	out.set("thumb.assemble_ms", "ms", assemble)
	out.set("thumb.asm_bytes", "bytes", float64(len(sub.dep.Img.Asm)))
	out.set("asmcheck.certify_ms", "ms", certify)
	out.set("cert.wcet_ms", "ms", p.p50("cert.Certificate.WCET", "", ms))
	out.set("cert.translate_ms", "ms", p.p50("cert.Translate", "", ms))
	out.set("armv6m.predecode_ms", "ms", p.p50("armv6m.Predecode", "", ms))
	out.set("device.flash_image_ms", "ms", p.p50("device.NewFlashImage", "", ms))
	out.set("telemetry.twin_build_ms", "ms", p.p50("neuroc.Deployment.TelemetryTwin", "", ms))
	out.set("telemetry.aggregate_ms", "ms", p.p50("telemetry.Aggregate", "", ms))
	out.set("telemetry.energy_aggregate_ms", "ms", p.p50("telemetry.AggregateEnergy", "", ms))
	out.set("device.layer0_cycles", "cycles", layers[0].Mean)
	out.set("device.layer_last_cycles", "cycles", layers[len(layers)-1].Mean)
	out.set("farm.map_ms_p50", "ms", p.p50("farm.Map", "batch3", ms))

	deployS := tr.p50("neuroc.deploy", "*", s)
	accuracyS := tr.p50("neuroc.Deployment.DeviceAccuracyChecked", "*", s)
	layersMS := tr.p50("neuroc.Deployment.MeasureLayers", "*", ms)
	energyMS := tr.p50("neuroc.Deployment.MeasureEnergy", "*", ms)
	trainS := tr.p50("neuroc.Model.Train", "*", s)
	out.set("neuroc.deploy_s", "s", deployS)
	out.set("neuroc.device_accuracy_s", "s", accuracyS)
	out.set("neuroc.measure_stats_ms", "ms", tr.p50("neuroc.Deployment.MeasureStats", "*", ms))
	out.set("neuroc.measure_layers_ms", "ms", layersMS)
	out.set("neuroc.measure_energy_ms", "ms", energyMS)
	out.set("nn.train_s", "s", trainS)
	out.set("nn.samples_per_s", "1/s", 1/tr.perItem("neuroc.Model.Train", s))
	out.set("nn.train_share", "fraction", trainS/(trainS+deployS+accuracyS+(layersMS+energyMS)/1000))
	out.set("quant.from_network_ms", "ms", tr.p50("quant.FromNetwork", "*", ms))
	out.set("quant.infer_us", "us", tr.perItem("quant.Model.Infer", time.Microsecond))
	return out, nil
}

// probeBuilds builds the subject's model under every encoding and
// returns the last image of each.
func probeBuilds(tr *tracer, sub *subject, reps int) (map[string]*modelimg.Image, error) {
	qm := sub.dep.QModel
	images := map[string]*modelimg.Image{}
	for _, enc := range encodings {
		for r := 0; r < reps; r++ {
			var img *modelimg.Image
			if err := tr.span("modelimg.BuildOpts", enc.name, 0, func() (err error) {
				img, err = modelimg.BuildOpts(qm, enc.options(len(qm.Layers)))
				return err
			}); err != nil {
				return nil, fmt.Errorf("building the subject as %s: %w", enc.name, err)
			}
			images[enc.name] = img
		}
	}
	return images, nil
}

// probeStatic re-times the build of the subject image and each stage
// that turns its source into something a board runs: assembly,
// certification, WCET, predecoding, translation and the shared flash
// image.
func probeStatic(tr *tracer, sub *subject, reps int) error {
	img, qm := sub.dep.Img, sub.dep.QModel
	flash, err := device.SharedFlash(img)
	if err != nil {
		return err
	}
	dataStart, err := img.Prog.Symbol("data_start")
	if err != nil {
		return err
	}
	// The configuration modelimg certifies every image with.
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = modelimg.StackReserve
	cfg.CodeLimit = dataStart
	cfg.Roots = []string{"entry"}
	for r := 0; r < reps; r++ {
		if err := tr.span("modelimg.BuildOpts", "subject", 0, func() error {
			_, err := modelimg.BuildOpts(qm, sub.enc.options(len(qm.Layers)))
			return err
		}); err != nil {
			return fmt.Errorf("rebuilding the subject: %w", err)
		}
		var prog *thumb.Program
		if err := tr.span("thumb.Assemble", "", 0, func() (err error) {
			prog, err = thumb.Assemble(img.Asm, armv6m.FlashBase)
			return err
		}); err != nil {
			return fmt.Errorf("assembling the subject: %w", err)
		}
		if !bytes.Equal(prog.Code, img.Prog.Code) {
			return fmt.Errorf("thumb.Assemble of the subject's source differs from its image")
		}
		if err := tr.span("asmcheck.Certify", "", 0, func() error {
			_, _, err := asmcheck.Certify(prog, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("certifying the subject: %w", err)
		}
		if err := tr.span("cert.Certificate.WCET", "", 0, func() error {
			_, err := img.Cert.WCET("entry", modelimg.SearchWaitStates)
			return err
		}); err != nil {
			return fmt.Errorf("subject WCET: %w", err)
		}
		var table *armv6m.PredecodeTable
		_ = tr.span("armv6m.Predecode", "", 0, func() error {
			table = armv6m.Predecode(flash, len(img.Prog.Code))
			return nil
		})
		_ = tr.span("cert.Translate", "", 0, func() error {
			cert.Translate(img.Cert, table)
			return nil
		})
		if err := tr.span("device.NewFlashImage", "", 0, func() error {
			_, err := device.NewFlashImage(img)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeTelemetry re-times the telemetry twin build and the per-layer
// and energy aggregation of a 3-input batch, returning the layer costs.
func probeTelemetry(tr *tracer, sub *subject, reps int) ([]telemetry.LayerStats, error) {
	var twin *modelimg.Image
	for r := 0; r < reps; r++ {
		if err := tr.span("neuroc.Deployment.TelemetryTwin", "", 0, func() (err error) {
			twin, err = sub.dep.TelemetryTwin()
			return err
		}); err != nil {
			return nil, err
		}
	}
	results, _, err := farm.Map(twin, cycleInputs(sub.inputs, 3), farm.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("telemetry twin batch: %w", err)
	}
	var layers []telemetry.LayerStats
	for r := 0; r < reps; r++ {
		if err := tr.span("telemetry.Aggregate", "", len(results), func() (err error) {
			layers, err = telemetry.Aggregate(twin, results, 0)
			return err
		}); err != nil {
			return nil, err
		}
		if err := tr.span("telemetry.AggregateEnergy", "", len(results), func() error {
			_, err := telemetry.AggregateEnergy(twin, results, 0, device.EnergyModel())
			return err
		}); err != nil {
			return nil, err
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("telemetry: no layers")
	}
	return layers, nil
}

// probeMIPS measures host MIPS per execution tier at -j 1 on the subject
// image and on the subject built under each concrete encoding. Each
// tier is sampled reps times, the tiers taking turns, and every sample
// runs for about sampleSeconds and is scaled by the reference samples
// taken beside it, like the end-to-end times. The metric is the median
// sample.
func probeMIPS(tr *tracer, sub *subject, images map[string]*modelimg.Image, reps int, sampleSeconds float64, out metrics) error {
	rc := &refClock{}
	// Encodings that build identical images (every encoding of a dense
	// model) are measured once.
	seen := map[string][]float64{}
	rates := func(img *modelimg.Image) ([]float64, error) {
		key := string(img.Prog.Code)
		if r, ok := seen[key]; ok {
			return r, nil
		}
		// sample returns the tier's MIPS and its wall time per inference.
		sample := func(tier device.Tier, inputs [][]int8) (float64, float64, error) {
			var st *farm.Stats
			rc.begin()
			err := tr.span("farm.Map", "j1 "+string(tier), len(inputs), func() (err error) {
				_, st, err = farm.Map(img, inputs, farm.Options{Workers: 1, Tier: tier})
				return err
			})
			rc.lap()
			s := rc.take()[0]
			if err != nil {
				return 0, 0, fmt.Errorf("tier %s: %w", tier, err)
			}
			return float64(st.Instructions) / s.scaled() / 1e6, s.Wall / float64(len(inputs)), nil
		}
		// Size each tier's samples from a short calibration batch.
		batch := make([][][]int8, len(tiers))
		for i, tier := range tiers {
			_, perItem, err := sample(tier, cycleInputs(sub.inputs, 5))
			if err != nil {
				return nil, err
			}
			batch[i] = cycleInputs(sub.inputs, max(5, int(sampleSeconds/perItem)))
		}
		samples := make([][]float64, len(tiers))
		for r := 0; r < reps; r++ {
			for k := range tiers {
				i := (k + r) % len(tiers) // rotate which tier goes first
				mips, _, err := sample(tiers[i], batch[i])
				if err != nil {
					return nil, err
				}
				samples[i] = append(samples[i], mips)
			}
		}
		rs := make([]float64, len(tiers))
		for i := range tiers {
			rs[i] = median(samples[i])
		}
		seen[key] = rs
		return rs, nil
	}
	record := func(suffix string, r []float64) {
		for i, tier := range tiers {
			out.set("armv6m.mips."+string(tier)+suffix, "MIPS", r[i])
		}
		out.set("armv6m.translated_over_predecoded"+suffix, "ratio", r[2]/r[1])
	}
	r, err := rates(sub.dep.Img)
	if err != nil {
		return err
	}
	record("", r)
	for _, enc := range encodings {
		if enc.choice == modelimg.UseAuto {
			continue // auto resolves to one of the concrete encodings
		}
		r, err := rates(images[enc.name])
		if err != nil {
			return fmt.Errorf("%s: %w", enc.name, err)
		}
		record("."+enc.name, r)
	}
	return nil
}

// probeFarm measures the board farm on the subject image: per-inference
// host wall latency and dispatch overhead over n inputs at -j 2,
// scaling against -j 1, and the cost of a small (3-input) batch, which
// is what every MeasureStats/MeasureLayers/MeasureEnergy call runs.
func probeFarm(tr *tracer, sub *subject, n int, out metrics) error {
	img := sub.dep.Img
	inputs := cycleInputs(sub.inputs, n)
	var results []farm.Result
	var st2, st1 *farm.Stats
	if err := tr.span("farm.Map", "j2", len(inputs), func() (err error) {
		results, st2, err = farm.Map(img, inputs, farm.Options{Workers: workers})
		return err
	}); err != nil {
		return err
	}
	serial := inputs[:max(1, len(inputs)/4)]
	if err := tr.span("farm.Map", "j1", len(serial), func() (err error) {
		_, st1, err = farm.Map(img, serial, farm.Options{Workers: 1})
		return err
	}); err != nil {
		return err
	}
	walls := make([]float64, len(results))
	var busy float64
	for i := range results {
		walls[i] = float64(results[i].HostDurNS) / 1e3
		busy += float64(results[i].HostDurNS)
	}
	sort.Float64s(walls)
	out.set("farm.scaling_eff", "ratio", st2.Throughput()/(float64(workers)*st1.Throughput()))
	out.set("farm.infer_wall_p50_us", "us", nearestRank(walls, 0.50))
	out.set("farm.infer_wall_p999_us", "us", nearestRank(walls, 0.999))
	out.set("farm.dispatch_overhead_frac", "fraction", 1-busy/(float64(st2.Workers)*float64(st2.Wall.Nanoseconds())))
	out.set("armv6m.instructions_per_inference", "instructions", float64(st2.Instructions)/float64(st2.Items))
	out.set("armv6m.cpi", "cycles/instr", float64(st2.TotalCycles)/float64(st2.Instructions))
	for i := 0; i < batch3Reps; i++ {
		if err := tr.span("farm.Map", "batch3", 3, func() error {
			_, _, err := farm.Map(img, inputs[:3], farm.Options{Workers: workers})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeStages re-times, on the subject, each stage the workload's own
// set-up and rounds never called.
func probeStages(tr *tracer, sub *subject, reps int, missing map[string]bool) error {
	dep, ds := sub.dep, sub.ds
	for r := 0; r < reps; r++ {
		if missing["neuroc.deploy"] {
			if _, err := deploy(tr, dep.QModel, sub.enc); err != nil {
				return err
			}
		}
		if missing["neuroc.Deployment.MeasureStats"] {
			if err := tr.span("neuroc.Deployment.MeasureStats", "", 3, func() error {
				_, _, _, err := dep.MeasureStats(ds, 3)
				return err
			}); err != nil {
				return err
			}
		}
		if missing["neuroc.Deployment.MeasureLayers"] {
			if err := tr.span("neuroc.Deployment.MeasureLayers", "", 3, func() error {
				_, err := dep.MeasureLayers(ds, 3)
				return err
			}); err != nil {
				return err
			}
		}
		if missing["neuroc.Deployment.MeasureEnergy"] {
			if err := tr.span("neuroc.Deployment.MeasureEnergy", "", 3, func() error {
				_, err := dep.MeasureEnergy(ds, 3)
				return err
			}); err != nil {
				return err
			}
		}
	}
	if missing["neuroc.Deployment.DeviceAccuracyChecked"] {
		if err := tr.span("neuroc.Deployment.DeviceAccuracyChecked", "", ds.TestX.Rows, func() error {
			_, _, err := dep.DeviceAccuracyChecked(ds, 0)
			return err
		}); err != nil {
			return err
		}
	}
	if missing["neuroc.Model.Train"] {
		m := sub.recipe()
		_ = tr.span("neuroc.Model.Train", "", ds.TrainX.Rows, func() error {
			m.Train(ds, neuroc.TrainOptions{Epochs: 1})
			return nil
		})
	}
	if missing["quant.FromNetwork"] {
		rows := min(ds.TrainX.Rows, calibRows)
		calib := tensor.FromSlice(rows, ds.TrainX.Cols, ds.TrainX.Data[:rows*ds.TrainX.Cols])
		if err := tr.span("quant.FromNetwork", "", 0, func() error {
			_, err := quant.FromNetwork(sub.net, calib, 0)
			return err
		}); err != nil {
			return err
		}
	}
	if missing["quant.Model.Infer"] {
		inputs := cycleInputs(sub.inputs, min(1000, max(len(sub.inputs), 100)))
		_ = tr.span("quant.Model.Infer", "", len(inputs), func() error {
			for _, in := range inputs {
				dep.QModel.Infer(in)
			}
			return nil
		})
	}
	return nil
}

// cycleInputs returns n inputs, repeating inputs as often as needed.
func cycleInputs(inputs [][]int8, n int) [][]int8 {
	out := make([][]int8, n)
	for i := range out {
		out[i] = inputs[i%len(inputs)]
	}
	return out
}

// nearestRank is the q-quantile of sorted values by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of values; 0 when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
