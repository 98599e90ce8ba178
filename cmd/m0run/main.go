// Command m0run executes a raw flash image on the emulated Cortex-M0
// until the core halts (BKPT), reporting cycle counts, CPI, a bus-
// traffic summary, and final register state. Optionally a raw byte file
// is loaded into SRAM first and a region of SRAM is dumped afterwards.
//
//	m0run -img model.bin -in input.raw -in-addr 0x20000000 \
//	      -dump-addr 0x20000310 -dump-len 10
//
// Profiling (see docs/PROFILING.md):
//
//	m0run -model model.ncq1 -profile            # hotspot + class tables
//	m0run -model model.ncq1 -folded out.folded  # flamegraph input
//	m0run -model model.ncq1 -profile-json p.json
//	m0run -img kernel.bin -trace 50             # first 50 instructions
//
// Energy attribution (see docs/ENERGY.md): -energy builds the image
// with telemetry markers and prices the measured per-layer cycles with
// the board's calibrated energy model, printing a per-layer µJ table;
// -energy-json writes the structured neuroc-energy/v1 record. Combined
// with -profile, the hotspot and class tables gain µJ columns:
//
//	m0run -model model.ncq1 -energy
//	m0run -model model.ncq1 -energy -energy-json energy.json
//	m0run -model model.ncq1 -profile -energy
//
// Batch mode distributes a file of concatenated input records across a
// farm of emulated boards (one per worker, shared immutable flash) and
// reports per-input predictions plus aggregate cycle statistics; the
// results are bit-identical for every -j:
//
//	m0run -model model.ncq1 -batch inputs.raw -j 8
//	m0run -model model.ncq1 -batch inputs.raw -energy   # batch µJ aggregate
//
// Checked execution (see docs/ASMCHECK.md): -checked validates every
// retired instruction against the neuroc-cert/v1 certificate attached
// to the image at build time — certified control-flow edges, memory
// classes, per-block cycle formulas, loop bounds — and fails loudly on
// the first mismatch. Works for single runs and -batch:
//
//	m0run -model model.ncq1 -checked
//	m0run -model model.ncq1 -batch inputs.raw -checked
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
	"github.com/neuro-c/neuroc/internal/profile"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/telemetry"
)

func main() {
	img := flag.String("img", "", "flash image file (or -model)")
	model := flag.String("model", "", "NCQ1 quantized model file: builds and runs a flash image")
	encName := flag.String("encoding", "block", "adjacency encoding when using -model (block, csc, delta, mixed, unrolled, auto)")
	in := flag.String("in", "", "raw bytes to preload into SRAM")
	inAddr := flag.String("in-addr", "0x20000000", "SRAM address for -in")
	dumpAddr := flag.String("dump-addr", "", "SRAM address to dump after halt")
	dumpLen := flag.Int("dump-len", 16, "bytes to dump")
	maxInstr := flag.Uint64("max-instr", 500_000_000, "instruction budget before giving up")
	ws := flag.Int("flash-ws", 0, "flash wait states (0 at 8 MHz, 1 above 24 MHz)")
	checked := flag.Bool("checked", false, "certificate-checked execution: validate every retired instruction against the image's neuroc-cert/v1 certificate (requires -model)")
	prof := flag.Bool("profile", false, "attribute cycles per PC/class/region and print hotspot tables")
	top := flag.Int("top", 10, "rows in the -profile hotspot tables")
	traceN := flag.Uint64("trace", 0, "print the first N executed instructions to stderr")
	folded := flag.String("folded", "", "write a flamegraph-compatible folded-stack profile to this file")
	profJSON := flag.String("profile-json", "", "write the full profile as JSON to this file")
	layers := flag.Bool("layers", false, "build with on-device telemetry markers and print per-layer cycle attribution (requires -model; with -batch, aggregated across the batch)")
	energyRep := flag.Bool("energy", false, "price the measured cycles with the board's calibrated energy model and print a per-layer µJ report (requires -model; implies telemetry markers; with -batch, aggregated across the batch)")
	energyJSON := flag.String("energy-json", "", "write the neuroc-energy/v1 report as JSON to this file (requires -energy)")
	batch := flag.String("batch", "", "raw file of concatenated input records (model input dim each): run all of them on the board farm (requires -model)")
	workers := flag.Int("j", 0, "board-farm workers for -batch (0 = all host cores); results are bit-identical for any value")
	listen := flag.String("listen", "", "serve live batch metrics over HTTP on this address while -batch runs (/metrics Prometheus text, /metrics.json snapshot)")
	timelineFlag := flag.String("timeline", "", "write the run's neuroc-timeline/v1 trace (Perfetto-loadable JSON) to this file (requires -layers or -energy: layer spans come from the telemetry markers)")
	cpuprofile := flag.String("cpuprofile", "", "write a host pprof CPU profile of the emulator to this file")
	memprofile := flag.String("memprofile", "", "write a host pprof heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *img == "" && *model == "" {
		fatal(fmt.Errorf("-img or -model is required"))
	}
	if *layers && *model == "" {
		fatal(fmt.Errorf("-layers requires -model: layer markers are emitted when the image is built"))
	}
	if *energyRep && *model == "" {
		fatal(fmt.Errorf("-energy requires -model: per-layer attribution needs the telemetry markers emitted at image build"))
	}
	if *energyJSON != "" && !*energyRep {
		fatal(fmt.Errorf("-energy-json requires -energy"))
	}
	if *checked && *model == "" {
		fatal(fmt.Errorf("-checked requires -model: the certificate is produced when the image is built"))
	}
	if *timelineFlag != "" && !*layers && !*energyRep {
		fatal(fmt.Errorf("-timeline requires -layers or -energy: layer spans are decoded from the telemetry markers those flags build in"))
	}
	if *listen != "" && *batch == "" {
		fatal(fmt.Errorf("-listen requires -batch: live metrics are published per farm item"))
	}
	profiling := *prof || *traceN > 0 || *folded != "" || *profJSON != ""
	if *batch != "" {
		if conflicts := batchFlagConflicts(*prof, *traceN, *folded, *profJSON, *in, *dumpAddr); len(conflicts) != 0 {
			fatal(fmt.Errorf("-batch is incompatible with %s: the farm runs boards in parallel without "+
				"per-board tracing; run without -batch for a traced single inference, or use -layers "+
				"for per-layer cycles across the batch", strings.Join(conflicts, ", ")))
		}
	}
	var code []byte
	var symbols map[string]uint32
	var image *modelimg.Image
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		qm, err := quant.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// A typo'd encoding used to silently fall back to the map zero
		// value (block); now it is a hard error listing the valid names.
		enc, err := modelimg.ParseEncoding(*encName)
		if err != nil {
			fatal(err)
		}
		image, err = modelimg.BuildOpts(qm, modelimg.BuildOptions{Encoding: enc, Telemetry: *layers || *energyRep})
		if err != nil {
			var nd *modelimg.ErrNotDeployable
			if errors.As(err, &nd) && enc == modelimg.UseUnrolled {
				fatal(fmt.Errorf("%w\nthe unrolled encoding trades flash for speed and this model does not fit; "+
					"use -encoding auto to search for the fastest per-layer mix that does", err))
			}
			fatal(err)
		}
		code = image.Prog.Code
		symbols = image.Prog.Symbols
		fmt.Printf("built %d-byte image from %s (input 0x%08x dim %d, output 0x%08x dim %d)\n",
			len(code), *model, image.InAddr, image.InDim, image.OutAddr, image.OutDim)
	} else {
		var err error
		code, err = os.ReadFile(*img)
		if err != nil {
			fatal(err)
		}
	}
	if *batch != "" {
		if image == nil {
			fatal(fmt.Errorf("-batch requires -model (the input record size is the model's input dimension)"))
		}
		runBatch(image, *batch, *workers, *maxInstr, *ws, *checked, *energyRep, *energyJSON, *timelineFlag, *listen)
		return
	}

	// A -model image boots like every deployed board, from its
	// FlashImage with the shared predecode and certified-loop tables
	// attached (the telemetry timer too, for a -layers/-energy build); a
	// raw -img file has no certificate and runs on a plain core.
	var cpu *armv6m.CPU
	if image != nil {
		fi, err := device.NewFlashImage(image)
		if err != nil {
			fatal(err)
		}
		cpu = fi.NewBoard().CPU
	} else {
		cpu = armv6m.New()
		if err := cpu.Bus.LoadFlash(0, code); err != nil {
			fatal(err)
		}
		if *layers || *energyRep {
			cpu.EnableTimer()
		}
	}
	cpu.Bus.FlashWaitStates = *ws

	var trace *armv6m.Trace
	if profiling || *checked {
		trace = cpu.EnableTrace()
	}
	// The -trace print hook is installed BEFORE the checker attaches:
	// Checker.Attach chains the existing hook, so both fire. (Assigning
	// trace.OnInstr after Attach used to overwrite the checker's hook,
	// silently disabling -checked whenever -trace was also given.)
	if *traceN > 0 {
		var printed uint64
		trace.OnInstr = func(ii armv6m.InstrInfo) {
			if printed >= *traceN {
				return
			}
			printed++
			var lo uint16
			if v, err := cpu.Bus.Read16(ii.Addr + 2); err == nil {
				lo = uint16(v)
			}
			text, _ := armv6m.Disassemble(ii.Addr, ii.Op, lo)
			taken := ""
			if ii.Taken {
				taken = " (taken)"
			}
			fmt.Fprintf(os.Stderr, "trace %08x: %-28s %d cycles [%s]%s\n",
				ii.Addr, text, ii.Cycles, ii.Class, taken)
		}
	}
	var chk *cert.Checker
	if *checked {
		var err error
		chk, err = cert.NewChecker(image.Cert, cpu)
		if err != nil {
			fatal(err)
		}
		chk.Attach(trace)
	}

	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		addr, err := parseAddr(*inAddr)
		if err != nil {
			fatal(err)
		}
		for i, b := range data {
			if err := cpu.Bus.Write8(addr+uint32(i), uint32(b)); err != nil {
				fatal(err)
			}
		}
	}

	if err := cpu.Reset(); err != nil {
		fatal(err)
	}
	if err := cpu.Run(*maxInstr); err != nil {
		// A certificate mismatch explains most checked-mode failures
		// better than the downstream fault it can cause; prefer it.
		if chk != nil && chk.Err() != nil {
			fatal(fmt.Errorf("checked execution: %w", chk.Err()))
		}
		var budget *armv6m.BudgetError
		if errors.As(err, &budget) {
			fmt.Fprintf(os.Stderr, "m0run: instruction budget exhausted: "+
				"no BKPT after %d instructions (stopped at pc=0x%08x).\n"+
				"The kernel is looping or the budget is too small; raise -max-instr. "+
				"No partial result is reported.\n", budget.Instructions, budget.PC)
			os.Exit(3)
		}
		fatal(err)
	}

	if chk != nil {
		if err := chk.Finish(); err != nil {
			fatal(fmt.Errorf("checked execution: %w", err))
		}
		fmt.Printf("checked: every retired instruction matched the certificate (%d certified cycles)\n",
			chk.CertifiedCycles())
	}
	fmt.Printf("tier: %s\n", runTierName(cpu, trace != nil))
	fmt.Printf("halted: BKPT #%d after %d instructions, %d cycles (CPI %.3f, %.3f ms @ 8 MHz)\n",
		cpu.HaltCode, cpu.Instructions, cpu.Cycles,
		float64(cpu.Cycles)/float64(cpu.Instructions), device.CyclesToMS(cpu.Cycles))
	fmt.Printf("bus: %d flash accesses (%d wait-state cycles), %d SRAM reads, %d SRAM writes\n",
		cpu.Bus.FlashReads, cpu.Bus.FlashReads*uint64(cpu.Bus.FlashWaitStates),
		cpu.Bus.SRAMReads, cpu.Bus.SRAMWrites)
	for i := 0; i < 13; i++ {
		fmt.Printf("r%-2d = 0x%08x  ", i, cpu.R[i])
		if i%4 == 3 {
			fmt.Println()
		}
	}
	fmt.Printf("\nsp  = 0x%08x  lr = 0x%08x  pc = 0x%08x\n",
		cpu.R[armv6m.SP], cpu.R[armv6m.LR], cpu.R[armv6m.PC])

	if *layers || *energyRep {
		res := &device.Result{
			Cycles:           cpu.Cycles,
			SleepCycles:      cpu.SleepCycles,
			Telemetry:        cpu.Bus.Timer.Events,
			TelemetryDropped: cpu.Bus.Timer.Dropped,
		}
		if *layers {
			fmt.Println()
			rep, err := telemetry.BuildReport(image, res, *ws)
			if err != nil {
				fatal(err)
			}
			if err := rep.WriteTable(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *energyRep {
			fmt.Println()
			rep, err := telemetry.BuildEnergyReport(image, res, *ws, device.EnergyModel())
			if err != nil {
				fatal(err)
			}
			if err := rep.WriteTable(os.Stdout); err != nil {
				fatal(err)
			}
			if *energyJSON != "" {
				writeTo(*energyJSON, rep.WriteJSON)
			}
		}
		if *timelineFlag != "" {
			em := device.EnergyModel()
			tl, err := telemetry.BuildTimeline(image, []farm.Result{{
				Cycles:           cpu.Cycles,
				Instructions:     cpu.Instructions,
				Telemetry:        cpu.Bus.Timer.Events,
				TelemetryDropped: cpu.Bus.Timer.Dropped,
			}}, telemetry.TimelineConfig{
				FlashWaitStates: *ws,
				Tier:            runTierName(cpu, trace != nil),
				Energy:          &em,
			})
			if err != nil {
				fatal(err)
			}
			writeTo(*timelineFlag, tl.WriteJSON)
		}
	}

	if profiling {
		p := profile.New(trace, symbols)
		if *prof {
			fmt.Println()
			p.ClassTable().Fprint(os.Stdout)
			p.BusTable().Fprint(os.Stdout)
			p.KernelTable(*top).Fprint(os.Stdout)
			p.HotTable(*top).Fprint(os.Stdout)
			if *energyRep {
				em := device.EnergyModel()
				p.EnergyTable(em).Fprint(os.Stdout)
				p.KernelEnergyTable(*top, em).Fprint(os.Stdout)
				p.HotEnergyTable(*top, em).Fprint(os.Stdout)
			}
		}
		if *folded != "" {
			writeTo(*folded, p.WriteFolded)
		}
		if *profJSON != "" {
			writeTo(*profJSON, p.WriteJSON)
		}
	}

	if *dumpAddr != "" {
		addr, err := parseAddr(*dumpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("memory at 0x%08x:", addr)
		for i := 0; i < *dumpLen; i++ {
			v, err := cpu.Bus.Read8(addr + uint32(i))
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %02x", v)
		}
		fmt.Println()
	}
}

// writeTo writes an export to path via emit.
func writeTo(path string, emit func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := emit(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "m0run: wrote %s\n", path)
}

// runTierName reports the tier the run actually executed on: a traced
// run retires through the tracing interpreter, and the fast path needs
// a certificate's translation table.
func runTierName(cpu *armv6m.CPU, traced bool) string {
	switch {
	case traced:
		return "predecoded (tracing interpreter)"
	case cpu.TranslationAttached():
		return "translated"
	default:
		return "predecoded"
	}
}

// batchFlagConflicts lists the single-run observability flags that are
// set but meaningless under -batch, where boards run in parallel
// without per-board traces. m0run used to ignore them silently, which
// read as "profiled the batch" when it had not; now they are a hard
// error (tested in main_test.go).
func batchFlagConflicts(prof bool, traceN uint64, folded, profJSON, in, dumpAddr string) []string {
	var conflicts []string
	if prof {
		conflicts = append(conflicts, "-profile")
	}
	if traceN > 0 {
		conflicts = append(conflicts, "-trace")
	}
	if folded != "" {
		conflicts = append(conflicts, "-folded")
	}
	if profJSON != "" {
		conflicts = append(conflicts, "-profile-json")
	}
	if in != "" {
		conflicts = append(conflicts, "-in")
	}
	if dumpAddr != "" {
		conflicts = append(conflicts, "-dump-addr")
	}
	return conflicts
}

// runBatch runs every record in path through the board farm and prints
// per-input predictions, cycle counts, and aggregate statistics. A
// budget-exhausted or faulting input exits non-zero after the whole
// batch is reported (one bad input never hides the others).
func runBatch(image *modelimg.Image, path string, workers int, maxInstr uint64, ws int, checked, energyRep bool, energyJSON, timelinePath, listen string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if len(data) == 0 || len(data)%image.InDim != 0 {
		fatal(fmt.Errorf("batch file %s is %d bytes, not a positive multiple of the input dim %d",
			path, len(data), image.InDim))
	}
	inputs := make([][]int8, len(data)/image.InDim)
	for i := range inputs {
		rec := data[i*image.InDim : (i+1)*image.InDim]
		in := make([]int8, image.InDim)
		for j, b := range rec {
			in[j] = int8(b)
		}
		inputs[i] = in
	}
	opts := farm.Options{
		Workers: workers,
		Budget:  maxInstr,
		Checked: checked,
		Configure: func(d *device.Device) {
			d.CPU.Bus.FlashWaitStates = ws
		},
	}
	if listen != "" {
		reg := obs.NewRegistry()
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			fatal(fmt.Errorf("-listen: %w", err))
		}
		fmt.Fprintf(os.Stderr, "m0run: live metrics on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler(reg)}
		go srv.Serve(ln)
		defer srv.Close()
		col := obs.NewFarmCollector(reg, device.EnergyModel().ActiveUJPerCycle())
		w := workers
		if w <= 0 {
			w = runtime.NumCPU()
		}
		col.StartBatch(len(inputs), w, "auto")
		opts.Observe = func(i int, res *farm.Result) {
			col.Observe(res.Cycles, res.HostDurNS, res.Err != nil, res.TelemetryDropped)
			if image.Telemetry && res.Err == nil {
				if spans, err := telemetry.DecodeImage(image, res.Telemetry, ws); err == nil {
					for _, s := range spans {
						col.ObserveLayer(s.Layer, s.Kernel, s.Cycles)
					}
				}
			}
		}
	}
	results, stats, batchErr := farm.Map(image, inputs, opts)
	budgetExhausted := false
	for i, res := range results {
		if res.Err != nil {
			var budget *armv6m.BudgetError
			if errors.As(res.Err, &budget) {
				budgetExhausted = true
			}
			fmt.Printf("input %4d: FAILED: %v\n", i, res.Err)
			continue
		}
		fmt.Printf("input %4d: class %d, %d cycles (%.3f ms), outputs %v\n",
			i, res.Argmax(), res.Cycles, device.CyclesToMS(res.Cycles), res.Output)
	}
	fmt.Printf("batch: %d inputs, %d failed, %d workers, wall %v (%.0f inf/s)\n",
		stats.Items, stats.Failed, stats.Workers, stats.Wall.Round(time.Millisecond), stats.Throughput())
	tierName := "auto"
	if checked {
		tierName += " (checked: tracing interpreter)"
	}
	fmt.Printf("emulation: %.0f host MIPS (%d instructions retired, tier %s), predecode build %.2f ms\n",
		stats.HostMIPS(), stats.Instructions, tierName, float64(stats.PredecodeBuild.Microseconds())/1000)
	if stats.Items > stats.Failed {
		fmt.Printf("cycles: mean %d, min %d, max %d (mean %.3f ms @ 8 MHz)\n",
			stats.MeanCycles, stats.MinCycles, stats.MaxCycles, stats.LatencyMS())
	}
	if image.Telemetry && stats.Items > stats.Failed {
		layerStats, err := telemetry.Aggregate(image, results, ws)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := telemetry.WriteStatsTable(os.Stdout, layerStats); err != nil {
			fatal(err)
		}
		if energyRep {
			agg, err := telemetry.AggregateEnergy(image, results, ws, device.EnergyModel())
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			if err := agg.WriteTable(os.Stdout); err != nil {
				fatal(err)
			}
			if energyJSON != "" {
				writeTo(energyJSON, agg.WriteJSON)
			}
		}
		if timelinePath != "" {
			em := device.EnergyModel()
			tl, err := telemetry.BuildTimeline(image, results, telemetry.TimelineConfig{
				FlashWaitStates: ws,
				Tier:            "auto",
				Energy:          &em,
				IncludeWall:     true,
			})
			if err != nil {
				fatal(err)
			}
			writeTo(timelinePath, tl.WriteJSON)
		}
	}
	if batchErr != nil {
		if budgetExhausted {
			fmt.Fprintf(os.Stderr, "m0run: instruction budget exhausted on at least one input; "+
				"the kernel is looping or -max-instr is too small. No truncated counts were reported.\n")
			os.Exit(3)
		}
		fatal(batchErr)
	}
}

// startProfiles starts a host CPU profile and/or arranges a heap
// profile, returning a stop function to run on normal exit. Error-path
// os.Exit calls skip it, which only loses profiles of failed runs.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "m0run: cpuprofile:", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "m0run: memprofile:", err)
				return
			}
			runtime.GC() // report live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "m0run: memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

func parseAddr(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad address %q: %v", s, err)
	}
	return uint32(v), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "m0run:", err)
	os.Exit(1)
}
