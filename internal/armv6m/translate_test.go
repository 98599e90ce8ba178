package armv6m_test

// Differential tests for the certified-loop fast path (the translated
// tier): every certified kernel variant (and the fallback/budget edge
// cases) must execute bit-identically — registers, flags, memory,
// cycles, instructions, bus counters, telemetry — with the fast path,
// on the predecoded tier and on the on-demand (legacy) tier as on the
// fetch/decode oracle (oracle_test.go), at every wait-state setting.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/thumb"
)

const certBase = 0x08000100

// tierNames indexes the cores under test. The first, the fetch/decode
// oracle, is the reference every execution tier is compared against.
var tierNames = []string{"oracle", "legacy", "predecoded", "translated"}

// runTier runs a core booted by bootTier for tier for at most n
// instructions: the oracle through armv6m.OracleRun, every execution
// tier through Run.
func runTier(cpu *armv6m.CPU, tier string, n uint64) error {
	if tier == "oracle" {
		return armv6m.OracleRun(cpu, n)
	}
	return cpu.Run(n)
}

// certifySrc assembles and certifies a standalone harness under the
// strict kernel configuration, optionally with the telemetry
// peripheral window mapped.
func certifySrc(t testing.TB, src string, telemetry bool) (*thumb.Program, *cert.Certificate) {
	t.Helper()
	prog, err := thumb.Assemble(src, certBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = 1024
	if telemetry {
		cfg.PeriphBase, cfg.PeriphSize = armv6m.TimerBase, armv6m.TimerSize
	}
	if desc, err := prog.Symbol("desc"); err == nil {
		cfg.CodeLimit = desc
	}
	c, rep, err := asmcheck.Certify(prog, cfg)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	return prog, c
}

// bootTier boots prog on a fresh core configured for one of tierNames;
// the oracle core needs no configuration, as runTier never hands it to
// Run. For the translated tier the certificate is lowered through
// cert.Translate over the core's own predecode table.
func bootTier(t testing.TB, prog *thumb.Program, c *cert.Certificate, ws int, tier string, telemetry bool) *armv6m.CPU {
	t.Helper()
	cpu := armv6m.New()
	vec := make([]byte, 16)
	put32 := func(off int, v uint32) {
		vec[off] = byte(v)
		vec[off+1] = byte(v >> 8)
		vec[off+2] = byte(v >> 16)
		vec[off+3] = byte(v >> 24)
	}
	put32(0, armv6m.SRAMBase+armv6m.SRAMSize)
	put32(4, prog.Base|1)
	if err := cpu.Bus.LoadFlash(0, vec); err != nil {
		t.Fatalf("load vectors: %v", err)
	}
	if err := cpu.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatalf("load code: %v", err)
	}
	cpu.Bus.FlashWaitStates = ws
	if telemetry {
		cpu.EnableTimer()
	}
	switch tier {
	case "oracle":
	case "legacy":
		cpu.DisablePredecode = true
	case "predecoded":
		cpu.DisableTranslation = true
	case "translated":
		tt := cert.Translate(c, cpu.PredecodeNow())
		if tt == nil {
			t.Fatalf("cert.Translate returned nil: nothing translated")
		}
		cpu.UseTranslation(tt)
	default:
		t.Fatalf("unknown tier %q", tier)
	}
	if err := cpu.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	cpu.Cycles, cpu.Instructions = 0, 0
	return cpu
}

// requireSameState asserts bit-identical architectural and counter
// state between a reference core and a core under test.
func requireSameState(t *testing.T, name string, ref, got *armv6m.CPU) {
	t.Helper()
	for i := range ref.R {
		if ref.R[i] != got.R[i] {
			t.Errorf("%s: R%d = 0x%08x, want 0x%08x", name, i, got.R[i], ref.R[i])
		}
	}
	if got.N != ref.N || got.Z != ref.Z || got.C != ref.C || got.V != ref.V {
		t.Errorf("%s: flags NZCV = %v%v%v%v, want %v%v%v%v", name,
			got.N, got.Z, got.C, got.V, ref.N, ref.Z, ref.C, ref.V)
	}
	if got.Cycles != ref.Cycles {
		t.Errorf("%s: cycles = %d, want %d", name, got.Cycles, ref.Cycles)
	}
	if got.Instructions != ref.Instructions {
		t.Errorf("%s: instructions = %d, want %d", name, got.Instructions, ref.Instructions)
	}
	if got.Halted != ref.Halted || got.HaltCode != ref.HaltCode {
		t.Errorf("%s: halted=%v code=%d, want halted=%v code=%d", name,
			got.Halted, got.HaltCode, ref.Halted, ref.HaltCode)
	}
	if got.Bus.FlashReads != ref.Bus.FlashReads {
		t.Errorf("%s: flash reads = %d, want %d", name, got.Bus.FlashReads, ref.Bus.FlashReads)
	}
	if got.Bus.SRAMReads != ref.Bus.SRAMReads {
		t.Errorf("%s: SRAM reads = %d, want %d", name, got.Bus.SRAMReads, ref.Bus.SRAMReads)
	}
	if got.Bus.SRAMWrites != ref.Bus.SRAMWrites {
		t.Errorf("%s: SRAM writes = %d, want %d", name, got.Bus.SRAMWrites, ref.Bus.SRAMWrites)
	}
	for i := range ref.Bus.SRAM {
		if ref.Bus.SRAM[i] != got.Bus.SRAM[i] {
			t.Errorf("%s: SRAM[0x%x] = 0x%02x, want 0x%02x", name, i, got.Bus.SRAM[i], ref.Bus.SRAM[i])
			break
		}
	}
	rt, gt := ref.Bus.Timer, got.Bus.Timer
	if (rt == nil) != (gt == nil) {
		t.Fatalf("%s: timer presence mismatch", name)
	}
	if rt != nil {
		if len(rt.Events) != len(gt.Events) || rt.Dropped != gt.Dropped {
			t.Fatalf("%s: %d telemetry events (%d dropped), want %d (%d dropped)",
				name, len(gt.Events), gt.Dropped, len(rt.Events), rt.Dropped)
		}
		for i := range rt.Events {
			if rt.Events[i] != gt.Events[i] {
				t.Errorf("%s: telemetry event %d = %+v, want %+v", name, i, gt.Events[i], rt.Events[i])
			}
		}
	}
}

// TestTranslateParityKernels runs every generated kernel variant to
// completion on the oracle and all three tiers at ws 0..2 and requires
// bit-identical final state.
func TestTranslateParityKernels(t *testing.T) {
	for _, v := range kernels.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.Harness, false)
			for ws := 0; ws <= 2; ws++ {
				t.Run(fmt.Sprintf("ws=%d", ws), func(t *testing.T) {
					cores := make(map[string]*armv6m.CPU, len(tierNames))
					for _, tier := range tierNames {
						cpu := bootTier(t, prog, c, ws, tier, false)
						if err := runTier(cpu, tier, 3_000_000); err != nil {
							t.Fatalf("%s run: %v", tier, err)
						}
						cores[tier] = cpu
					}
					for _, tier := range tierNames[1:] {
						requireSameState(t, tier+" vs oracle", cores["oracle"], cores[tier])
					}
				})
			}
		})
	}
}

// TestTranslateParityTelemetry repeats the parity gate over the
// telemetry harnesses: mailbox events must commit at identical
// retire-time cycle counts on all tiers as on the oracle, around the
// fast-path loops.
func TestTranslateParityTelemetry(t *testing.T) {
	for _, v := range kernels.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.TelemetryHarness, true)
			for ws := 0; ws <= 2; ws++ {
				refCPU := bootTier(t, prog, c, ws, "oracle", true)
				if err := armv6m.OracleRun(refCPU, 3_000_000); err != nil {
					t.Fatalf("oracle run: %v", err)
				}
				for _, tier := range tierNames[1:] {
					cpu := bootTier(t, prog, c, ws, tier, true)
					if err := cpu.Run(3_000_000); err != nil {
						t.Fatalf("%s run: %v", tier, err)
					}
					requireSameState(t, fmt.Sprintf("%s ws=%d", tier, ws), refCPU, cpu)
				}
			}
		})
	}
}

// gatherKernel reports whether a kernel variant's inner loops are gather
// loops: the block, mixed and delta kernels.
func gatherKernel(name string) bool {
	return strings.HasPrefix(name, "k_block_") || strings.HasPrefix(name, "k_mixed_") ||
		strings.HasPrefix(name, "k_delta_")
}

// TestTranslateBudgetLockstep advances a translated core and a
// predecoded core under identical instruction budgets — including
// budgets that land mid-loop — and requires the exact same truncation
// point, state, and error classification at every checkpoint. This is
// the lockstep gate at budget granularity: a loop head whose full pass
// the budget does not cover must execute per instruction, not skew the
// cut point, and a run head whose whole run the budget does not cover
// must too. It runs every kernel variant at ws 0-2. For the variants
// with a whole-loop or run executor (k_dense, the block, mixed and
// delta kernels, and the unrolled kernels) every budget up to the full
// run is a checkpoint, so cuts land at each instruction of their loops
// and runs.
func TestTranslateBudgetLockstep(t *testing.T) {
	for _, v := range kernels.Variants() {
		every := v.Name == "k_dense" || gatherKernel(v.Name) || unrolledKernel(v.Name)
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.Harness, false)
			for ws := 0; ws <= 2; ws++ {
				ref := bootTier(t, prog, c, ws, "predecoded", false)
				if err := ref.Run(3_000_000); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				total := ref.Instructions
				budgets := []uint64{0, 1, 2, 3, 5, 8, 13, 21, 100, total / 3, total / 2, total - 1, total, total + 17}
				if every {
					budgets = budgets[:0]
					for k := uint64(0); k <= total+1; k++ {
						budgets = append(budgets, k)
					}
				}
				for _, k := range budgets {
					name := fmt.Sprintf("ws=%d budget=%d", ws, k)
					p := bootTier(t, prog, c, ws, "predecoded", false)
					x := bootTier(t, prog, c, ws, "translated", false)
					perr, xerr := p.Run(k), x.Run(k)
					var pb, xb *armv6m.BudgetError
					if errors.As(perr, &pb) != errors.As(xerr, &xb) || (perr == nil) != (xerr == nil) {
						t.Fatalf("%s: error mismatch: predecoded %v, translated %v", name, perr, xerr)
					}
					requireSameState(t, name, p, x)
				}
			}
		})
	}
}

// loops is the number of loops a table runs in whole-loop executors.
func loops(tt *armv6m.TranslationTable) int { return tt.MacLoops() + tt.GatherLoops() }

// dropBlocks returns a JSON-round-tripped copy of the certificate
// without the blocks for which drop (given each block's index in its
// function) holds.
func dropBlocks(t *testing.T, c *cert.Certificate, drop func(bi int, b *cert.Block) bool) *cert.Certificate {
	t.Helper()
	data, err := c.JSON()
	if err != nil {
		t.Fatalf("cert JSON: %v", err)
	}
	holed, err := cert.Parse(data)
	if err != nil {
		t.Fatalf("cert parse: %v", err)
	}
	for fi := range holed.Funcs {
		f := &holed.Funcs[fi]
		kept := f.Blocks[:0]
		for bi := range f.Blocks {
			if !drop(bi, &f.Blocks[bi]) {
				kept = append(kept, f.Blocks[bi])
			}
		}
		f.Blocks = kept
	}
	return holed
}

// TestTranslateFallbackMidRun drops one of the two executor loops from
// each block, mixed and delta kernel's certificate before translation
// and keeps the other, so the translated core runs one inner loop in
// its executor and the other per instruction on the predecoded path,
// and still finishes bit-identical to the predecoded tier.
func TestTranslateFallbackMidRun(t *testing.T) {
	for _, v := range kernels.Variants() {
		if !gatherKernel(v.Name) {
			continue
		}
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.Harness, false)
			full := loops(translateProg(t, prog, c))
			var holed *cert.Certificate
			for _, sl := range c.SelfLoops() {
				h := dropBlocks(t, c, func(_ int, b *cert.Block) bool { return b.Start == sl.Start })
				if n := loops(translateProg(t, prog, h)); n > 0 && n < full {
					holed = h
					break
				}
			}
			if holed == nil {
				t.Fatalf("no certified self-loop drops one of the %d executor loops and keeps another", full)
			}
			for ws := 0; ws <= 2; ws++ {
				ref := bootTier(t, prog, c, ws, "predecoded", false)
				if err := ref.Run(3_000_000); err != nil {
					t.Fatalf("predecoded run: %v", err)
				}
				x := bootTier(t, prog, holed, ws, "translated", false)
				if err := x.Run(3_000_000); err != nil {
					t.Fatalf("translated run: %v", err)
				}
				requireSameState(t, fmt.Sprintf("ws=%d", ws), ref, x)
			}
		})
	}
}

// TestTranslateStaleTableFallsBack pins the generation guard: after
// LoadFlash mutates the image, a stale translation table's loops must
// not execute — the run stays on the predecoded tier (which rebuilds
// its own table) with correct results.
func TestTranslateStaleTableFallsBack(t *testing.T) {
	var prog *thumb.Program
	var c *cert.Certificate
	for _, v := range kernels.Variants() {
		if v.Name == "k_dense" { // its MAC loop is in the table
			prog, c = certifySrc(t, v.Harness, false)
		}
	}
	ref := bootTier(t, prog, c, 0, "predecoded", false)
	if err := ref.Run(3_000_000); err != nil {
		t.Fatalf("predecoded run: %v", err)
	}
	x := bootTier(t, prog, c, 0, "translated", false)
	// Rewrite the same bytes: contents identical, generation bumped.
	if err := x.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatalf("reload flash: %v", err)
	}
	if x.TranslationAttached() {
		t.Fatal("translation table still attached after LoadFlash")
	}
	if err := x.Run(3_000_000); err != nil {
		t.Fatalf("run after reload: %v", err)
	}
	requireSameState(t, "stale-table", ref, x)
}

// translateProg lowers a certified program's certificate over the
// predecode table of a core with the program in flash.
func translateProg(t testing.TB, prog *thumb.Program, c *cert.Certificate) *armv6m.TranslationTable {
	t.Helper()
	cpu := armv6m.New()
	if err := cpu.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatalf("load code: %v", err)
	}
	return cert.Translate(c, cpu.PredecodeNow())
}

// TestTranslateLoopCoverage pins which loops and runs the fast path
// carries: the dense kernel's inner loop must lower to one whole-loop
// MAC executor, every block, mixed and delta kernel's two inner loops
// (one per polarity pass) to whole-loop gather executors, the block and
// mixed kernels' two column loops around them to column executors,
// every unrolled kernel to at least one straight-line run, and the
// csc, requant and im2col kernels to a table with no loop — which must
// still exist, so the translated tier is honoured for every certified
// image. No kernel but the unrolled ones has a run, and none but the
// block and mixed ones a column loop. If a refactor silently demotes a
// hot loop or run to per-instruction dispatch, this fails before the
// benchmark regression does.
func TestTranslateLoopCoverage(t *testing.T) {
	seen := map[string]int{}
	for _, v := range kernels.Variants() {
		var kind string
		var mac, gather, columns int
		switch {
		case v.Name == "k_dense":
			kind, mac = "dense", 1
		case gatherKernel(v.Name):
			kind, gather = "gather", 2
			if !strings.HasPrefix(v.Name, "k_delta_") {
				columns = 2
			}
		case unrolledKernel(v.Name):
			kind = "unrolled"
		case strings.HasPrefix(v.Name, "k_csc_"), v.Name == "k_requant", v.Name == "k_im2col":
			kind = "none"
		default:
			continue
		}
		seen[kind]++
		prog, c := certifySrc(t, v.Harness, false)
		tt := translateProg(t, prog, c)
		if tt == nil {
			t.Fatalf("%s: certified image yielded no table", v.Name)
		}
		if tt.MacLoops() != mac || tt.GatherLoops() != gather {
			t.Errorf("%s: %d MAC loops, %d gather loops; want %d and %d",
				v.Name, tt.MacLoops(), tt.GatherLoops(), mac, gather)
		}
		if tt.Columns() != columns {
			t.Errorf("%s: %d column loops; want %d", v.Name, tt.Columns(), columns)
		}
		if (tt.Runs() > 0) != (kind == "unrolled") {
			t.Errorf("%s: %d straight-line runs; want them exactly on unrolled kernels", v.Name, tt.Runs())
		}
	}
	if seen["dense"] != 1 || seen["gather"] == 0 || seen["unrolled"] == 0 || seen["none"] == 0 {
		t.Fatalf("variant coverage %v: want one k_dense and some gather, unrolled and loop-free variants", seen)
	}
}

// gatherDeviationSrc renders a certified harness around one gather loop
// (the block kernel's connection loop, optionally with the delta
// kernel's moving base) whose runtime behaviour leaves the certified
// facts in the way scenario names. P is r4, B r1, A r7, N r6; x and v
// are the index and gathered-value registers. A pointer the checker
// must not see (so that an "asmcheck: load" annotation is what
// certifies a wrong region) reaches its register through an SRAM slot.
func gatherDeviationSrc(scenario string, width int, x, v, op string, moving bool) string {
	hide := func(reg, val string) string {
		return "\tldr r2, =0x20000200\n\tldr r3, =" + val + "\n\tstr r3, [r2]\n\tldr " + reg + ", [r2]\n"
	}
	ld, step, dir := "ldrb", 1, ".byte"
	if width == 2 {
		ld, step, dir = "ldrh", 2, ".hword"
	}
	idxRegion, count := "flash", 4
	var setup string
	switch scenario {
	case "gather-leaves-sram": // the last index sends the gather past SRAM's end
		setup = "\tldr r4, =tbl\n\tldr r1, =0x20003fc0\n"
	case "gather-in-flash": // B is a flash table certified as SRAM
		setup = "\tldr r4, =tbl\n" + hide("r1", "tbl")
	case "cursor-leaves-sram": // P runs past SRAM's end
		setup = "\tldr r4, =0x20003ffc\n\tldr r1, =0x20000000\n"
		idxRegion, count = "sram", 6
	case "cursor-in-sram": // P points into SRAM, certified as flash
		setup = hide("r4", "0x20000100") + "\tldr r1, =0x20000000\n"
	case "misaligned-cursor": // an odd stride misaligns the second ldrh
		setup = "\tldr r4, =tbl\n\tldr r1, =0x20000000\n"
		step = 3
	}
	mov := ""
	if moving {
		mov = "\tadds r1, r1, " + x + "\n"
	}
	return "entry:\n" + setup +
		"\tmovs r7, #100\n\tmovs r0, #0\n\tmovs r5, #0\n" +
		fmt.Sprintf("\tmovs r6, #%d\n", count) +
		"loop:\n" +
		fmt.Sprintf("\t%s %s, [r4]      @ asmcheck: load %s\n", ld, x, idxRegion) +
		fmt.Sprintf("\tadds r4, #%d\n", step) +
		fmt.Sprintf("\tldrsb %s, [r1, %s]  @ asmcheck: load sram\n", v, x) +
		mov +
		fmt.Sprintf("\t%s r7, r7, %s\n", op, v) +
		"\tsubs r6, #1\n" +
		fmt.Sprintf("\tbne loop             @ asmcheck: loop %d\n", count) +
		"\tbkpt #0\n\t.pool\n" +
		"tbl:\n\t" + dir + " 3, 1, 2, 250, 7, 9\n"
}

// TestTranslateGatherDeviation drives the whole-loop gather executor
// off its certified facts at both loads — faulting and non-faulting,
// on the first pass and after completed ones — and requires the
// translated tier, the predecoded tier and the on-demand tier to match
// the oracle in fault text, cycles, bus counters, registers and flags
// at ws 0-2. A fault at the gather stops the run with the flags of the
// cursor advance live, so the executor's flag hand-off is observable.
func TestTranslateGatherDeviation(t *testing.T) {
	regs := []struct {
		name   string
		x, v   string
		moving bool
	}{
		{"x=v", "r5", "r5", false},
		{"x!=v", "r5", "r0", false},
		{"x!=v+moving", "r5", "r0", true},
	}
	scenarios := []string{"gather-leaves-sram", "gather-in-flash", "cursor-leaves-sram", "cursor-in-sram", "misaligned-cursor"}
	for _, sc := range scenarios {
		for _, width := range []int{1, 2} {
			if sc == "misaligned-cursor" && width == 1 {
				continue
			}
			for _, rg := range regs {
				for _, op := range []string{"adds", "subs"} {
					name := fmt.Sprintf("%s/w%d/%s/%s", sc, width, rg.name, op)
					t.Run(name, func(t *testing.T) {
						src := gatherDeviationSrc(sc, width, rg.x, rg.v, op, rg.moving)
						prog, c := certifySrc(t, src, false)
						if tt := translateProg(t, prog, c); tt == nil || tt.GatherLoops() != 1 {
							t.Fatalf("harness loop does not lower to a gather loop")
						}
						for ws := 0; ws <= 2; ws++ {
							cores := make(map[string]*armv6m.CPU, len(tierNames))
							errs := make(map[string]string, len(tierNames))
							for _, tier := range tierNames {
								cpu := bootTier(t, prog, c, ws, tier, false)
								errs[tier] = fmt.Sprint(runTier(cpu, tier, 10_000))
								cores[tier] = cpu
							}
							for _, tier := range tierNames[1:] {
								if errs[tier] != errs["oracle"] {
									t.Errorf("ws=%d %s: error %q, want %q", ws, tier, errs[tier], errs["oracle"])
								}
								requireSameState(t, fmt.Sprintf("ws=%d %s", ws, tier), cores["oracle"], cores[tier])
							}
							wantFault := !strings.HasSuffix(sc, "-in-flash") && sc != "cursor-in-sram"
							if (errs["oracle"] != "<nil>") != wantFault {
								t.Errorf("ws=%d: oracle run ended with %q, want a fault: %v", ws, errs["oracle"], wantFault)
							}
						}
					})
				}
			}
		}
	}
}
