package bench

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/report"
	"github.com/neuro-c/neuroc/internal/rng"
)

// Table1 reproduces the paper's qualitative MCU-class table.
func (r *Runner) Table1() *report.Table {
	t := report.New("Table 1: qualitative analysis of MCU resources",
		"Class", "Key features", "Memory", "Example")
	t.Add("Low", "8/16/32-bit core, no FPU, no DSP/SIMD",
		"<128 KB RAM, <512 KB Flash", "STM32C0/F0/L0 (Cortex-M0/M0+)")
	t.Add("Medium", "32-bit core, single-precision FPU, basic SIMD",
		"128-512 KB RAM, 512 KB-2 MB Flash", "NXP Kinetis K (Cortex-M4)")
	t.Add("Advanced", "32-bit core, double FPU, vector SIMD, cache",
		">512 KB RAM, >2 MB Flash", "Renesas RA8D1 (Cortex-M85)")
	t.Note = "static data from the paper; the emulated target is the Low class (STM32F072RB)"
	return t
}

// Fig2 reproduces the FC-versus-CNN latency comparison at equal MACC
// counts (paper Sec. 3.3): a 16×16 single-channel input, two CNN
// configurations, and FC layers sized so N_out·N_in matches the CNN's
// K·C·S²·M².
func (r *Runner) Fig2() *report.Table {
	t := report.New("Fig 2: inference latency, conv (im2col+GEMM) vs FC at equal MACCs",
		"case", "S", "K", "MACCs", "CNN latency", "FC latency", "FC speedup")
	specs := []modelimg.ConvSpec{
		{N: 16, S: 3, K: 8, Seed: 1},
		{N: 16, S: 5, K: 8, Seed: 2},
	}
	if r.cfg.Quick {
		specs = specs[:1]
	}
	for ci, spec := range specs {
		ci := ci
		ciImg, err := modelimg.BuildConv(spec)
		if err != nil {
			panic(err)
		}
		dev, err := device.New(&ciImg.Image)
		if err != nil {
			panic(err)
		}
		rr := rng.New(9)
		in := make([]int8, spec.N*spec.N)
		for i := range in {
			in[i] = int8(rr.Intn(255) - 127)
		}
		res, err := dev.Run(in)
		if err != nil {
			panic(err)
		}
		cnnMS := res.LatencyMS()
		r.record(Metric{
			Name: fmt.Sprintf("fig2-cnn%d-s%d-k%d", ci+1, spec.S, spec.K), Kind: "micro",
			Cycles: res.Cycles, Instructions: res.Instructions,
			LatencyMS: cnnMS, FlashBytes: ciImg.TotalBytes(), RAMBytes: ciImg.RAMBytes,
			Deployable: true,
		})

		// FC with the same MACC count: N_out = MACCs / N_in.
		nIn := spec.N * spec.N
		nOut := spec.MACCs() / nIn
		dense := &quant.Layer{
			Kind: quant.DenseK, In: nIn, Out: nOut,
			W: make([]int8, nIn*nOut), Mults: []int32{256},
			Bias: make([]int32, nOut), PreShift: 4, PostShift: 8,
		}
		for i := range dense.W {
			dense.W[i] = int8(rr.Intn(255) - 127)
		}
		fc, err := r.measureMicro(fmt.Sprintf("fig2-fc%d-s%d-k%d", ci+1, spec.S, spec.K),
			&quant.Model{Layers: []*quant.Layer{dense}, InputScale: 127}, modelimg.UseBlock, 3)
		if err != nil {
			panic(err)
		}
		t.Add("FC"+string(rune('1'+ci))+"/CNN"+string(rune('1'+ci)),
			spec.S, spec.K, nIn*nOut, report.MS(cnnMS), report.MS(fc.ms),
			report.Float(cnnMS/fc.ms))
		r.logf("fig2 case %d: cnn %.2fms fc %.2fms", ci+1, cnnMS, fc.ms)
	}
	t.Note = "paper: FC consistently lower latency than equal-MACC conv on the M0"
	return t
}

// Fig3 reproduces the toy-matrix encoding comparison: the four formats
// applied to one small sparse matrix, reporting exact byte sizes.
func (r *Runner) Fig3() *report.Table {
	// An 8-input × 4-output toy adjacency, mixed signs, uneven rows.
	m := encoding.NewMatrix(8, 4)
	for _, e := range []struct {
		o, i int
		v    int8
	}{
		{0, 0, 1}, {0, 3, -1}, {0, 7, 1},
		{1, 2, 1},
		{2, 1, -1}, {2, 4, 1}, {2, 5, -1}, {2, 6, 1},
		// output 3 left unconnected
	} {
		m.Set(e.o, e.i, e.v)
	}
	t := report.New("Fig 3: encoding strategies on a toy sparse matrix",
		"format", "bytes", "index range", "notes")
	for _, enc := range encoding.All(m) {
		var rng, notes string
		switch e := enc.(type) {
		case *encoding.CSC:
			rng = width(e.IdxWidth)
			notes = "absolute indices + pointer array"
		case *encoding.Delta:
			rng = width(e.DeltaWidth)
			notes = "first absolute, then relative offsets"
		case *encoding.Mixed:
			rng = width(e.IdxWidth)
			notes = "per-output counts + absolute indices"
		case *encoding.Block:
			rng = width(e.IdxWidth)
			notes = "block-local indices, 8-bit by construction"
		}
		t.Add(enc.Name(), enc.SizeBytes(), rng, notes)
	}
	t.Note = "nnz = 8 over a 4x8 ternary matrix"
	return t
}

func width(w int) string {
	if w == 1 {
		return "8-bit"
	}
	return "16-bit"
}

// Fig5 reproduces the encoding sweep (paper Sec. 4.3): a single-layer
// kernel with input dimension 400 and 10% density, output size swept in
// powers of two from 32 to 256, reporting per-encoding latency (Fig 5a)
// and flash occupation (Fig 5b).
func (r *Runner) Fig5() (latency, flash *report.Table) {
	const inDim = 400
	const density = 0.10
	outs := []int{32, 64, 128, 256}
	if r.cfg.Quick {
		outs = []int{32, 64}
	}
	encs := []modelimg.EncodingChoice{
		modelimg.UseCSC, modelimg.UseDelta, modelimg.UseMixed, modelimg.UseBlock,
	}
	latency = report.New("Fig 5a: inference latency (ms) vs output size, by encoding",
		"N_out", "csc", "delta", "mixed", "block")
	flash = report.New("Fig 5b: flash occupation (KB) vs output size, by encoding",
		"N_out", "csc", "delta", "mixed", "block")
	for _, out := range outs {
		layer := synthTernaryLayer(rng.New(uint64(1000+out)), inDim, out, density, true)
		m := &quant.Model{Layers: []*quant.Layer{layer}, InputScale: 127}
		latRow := []interface{}{out}
		flashRow := []interface{}{out}
		for _, enc := range encs {
			meas, err := r.measureMicro(fmt.Sprintf("fig5-%s-out%d", enc, out), m, enc, 3)
			if err != nil {
				panic(err)
			}
			latRow = append(latRow, report.MS(meas.ms))
			flashRow = append(flashRow, report.KB(meas.flashBytes))
			r.logf("fig5 out=%d enc=%v: %.2fms %s", out, enc, meas.ms, report.KB(meas.flashBytes))
		}
		latency.Add(latRow...)
		flash.Add(flashRow...)
	}
	latency.Note = "paper at N_out=256: delta 26, mixed 28, block 30, csc 32 ms"
	flash.Note = "paper at N_out=256: block 11.6 KB, csc 20.1 KB"
	return latency, flash
}

// Pareto extends the Fig 5 single-layer sweep with the
// weight-specialized unrolled kernels and the certificate-driven auto
// search: the same 400-input 10%-density layer, deployed as block (the
// paper's scheme), unrolled at each factor, and auto. Each row is one
// point on the latency/flash trade-off frontier. auto's cost model is
// the per-layer WCET bound from the image's own certificate
// (modelimg.SearchWaitStates), an upper bound on the measured cycles.
func (r *Runner) Pareto() *report.Table {
	const inDim = 400
	const density = 0.10
	outs := []int{32, 64, 128}
	if r.cfg.Quick {
		outs = []int{32}
	}
	t := report.New("Pareto: latency vs flash, block vs unrolled vs auto search",
		"N_out", "encoding", "cycles", "latency", "flash")
	cands := []struct {
		key  string
		opts modelimg.BuildOptions
	}{
		{"block", modelimg.BuildOptions{Encoding: modelimg.UseBlock}},
		{"unr1", modelimg.BuildOptions{PerLayer: []modelimg.LayerEncoding{{Choice: modelimg.UseUnrolled, Factor: 1}}}},
		{"unr2", modelimg.BuildOptions{PerLayer: []modelimg.LayerEncoding{{Choice: modelimg.UseUnrolled, Factor: 2}}}},
		{"unr4", modelimg.BuildOptions{PerLayer: []modelimg.LayerEncoding{{Choice: modelimg.UseUnrolled, Factor: 4}}}},
		{"auto", modelimg.BuildOptions{Encoding: modelimg.UseAuto}},
	}
	for _, out := range outs {
		// Same layer seeds as Fig 5, so the block rows cross-check against
		// the fig5 records exactly.
		layer := synthTernaryLayer(rng.New(uint64(1000+out)), inDim, out, density, true)
		m := &quant.Model{Layers: []*quant.Layer{layer}, InputScale: 127}
		for _, c := range cands {
			name := fmt.Sprintf("pareto-%s-out%d", c.key, out)
			meas, _, err := r.measureMicroOpts(name, m, c.opts, 3)
			if err != nil {
				// Not deployable (e.g. unrolled over flash): recorded as such,
				// the table shows the hole in the frontier.
				t.Add(out, c.key, "-", "-", "-")
				r.logf("pareto out=%d enc=%s: not deployable: %v", out, c.key, err)
				continue
			}
			t.Add(out, c.key, meas.cycles, report.MS(meas.ms), report.KB(meas.flashBytes))
			r.logf("pareto out=%d enc=%s: %d cycles %s", out, c.key, meas.cycles, report.KB(meas.flashBytes))
		}
	}
	t.Note = "unrolled trades flash for cycles; auto minimizes the cert WCET bound per layer under the flash budget"
	return t
}
