package armv6m_test

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// Differential tests for the predecoded fast interpreter: a predecoded
// core and a DisablePredecode (fetch/decode) core run the same image in
// lockstep, and every architectural and accounting observable must be
// bit-identical at every step — registers, flags, Cycles, Instructions,
// bus counters, SysTick fires, error strings, and final SRAM contents.

// errStr folds an error to a comparable string ("" for nil).
func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareState fails the test on any state divergence between the two
// cores after step n.
func compareState(t *testing.T, n int, fast, legacy *armv6m.CPU) {
	t.Helper()
	if fast.R != legacy.R {
		t.Fatalf("step %d: registers diverged\nfast:   %08x\nlegacy: %08x", n, fast.R, legacy.R)
	}
	if fast.N != legacy.N || fast.Z != legacy.Z || fast.C != legacy.C || fast.V != legacy.V {
		t.Fatalf("step %d: flags diverged: fast NZCV=%v%v%v%v legacy %v%v%v%v",
			n, fast.N, fast.Z, fast.C, fast.V, legacy.N, legacy.Z, legacy.C, legacy.V)
	}
	if fast.Cycles != legacy.Cycles {
		t.Fatalf("step %d: cycles %d vs %d", n, fast.Cycles, legacy.Cycles)
	}
	if fast.Instructions != legacy.Instructions {
		t.Fatalf("step %d: instructions %d vs %d", n, fast.Instructions, legacy.Instructions)
	}
	if fast.Halted != legacy.Halted || fast.HaltCode != legacy.HaltCode {
		t.Fatalf("step %d: halt state (%v,%d) vs (%v,%d)",
			n, fast.Halted, fast.HaltCode, legacy.Halted, legacy.HaltCode)
	}
	if fast.Bus.FlashReads != legacy.Bus.FlashReads ||
		fast.Bus.SRAMReads != legacy.Bus.SRAMReads ||
		fast.Bus.SRAMWrites != legacy.Bus.SRAMWrites {
		t.Fatalf("step %d: bus counters flash %d/%d sramR %d/%d sramW %d/%d",
			n, fast.Bus.FlashReads, legacy.Bus.FlashReads,
			fast.Bus.SRAMReads, legacy.Bus.SRAMReads,
			fast.Bus.SRAMWrites, legacy.Bus.SRAMWrites)
	}
	if fast.SysTick.Fires != legacy.SysTick.Fires {
		t.Fatalf("step %d: SysTick fires %d vs %d", n, fast.SysTick.Fires, legacy.SysTick.Fires)
	}
}

// lockstep steps both cores until both stop (halt or error) or
// maxSteps, comparing full state after every step. The cores must stop
// the same way with the same error text.
func lockstep(t *testing.T, fast, legacy *armv6m.CPU, maxSteps int) {
	t.Helper()
	if !legacy.DisablePredecode {
		t.Fatal("legacy core does not have DisablePredecode set")
	}
	for n := 0; n < maxSteps; n++ {
		errFast := fast.Step()
		errLegacy := legacy.Step()
		if errStr(errFast) != errStr(errLegacy) {
			t.Fatalf("step %d: error diverged\nfast:   %v\nlegacy: %v", n, errFast, errLegacy)
		}
		compareState(t, n, fast, legacy)
		if errFast != nil {
			break
		}
	}
	for i := range fast.Bus.SRAM {
		if fast.Bus.SRAM[i] != legacy.Bus.SRAM[i] {
			t.Fatalf("SRAM diverged at +0x%x: %02x vs %02x", i, fast.Bus.SRAM[i], legacy.Bus.SRAM[i])
		}
	}
}

// bootPair boots the same source on a predecoded and a legacy core.
func bootPair(t testing.TB, src string) (fast, legacy *armv6m.CPU) {
	fast, _ = boot(t, src)
	legacy, _ = boot(t, src)
	legacy.DisablePredecode = true
	return fast, legacy
}

// TestPredecodeParityKernels runs every generated kernel variant's
// self-check harness to completion on both paths. This is the tentpole
// guarantee: the fast interpreter is invisible to every kernel the
// deployment search space can emit.
func TestPredecodeParityKernels(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, legacy := bootPair(t, v.Harness)
			lockstep(t, fast, legacy, 3_000_000)
			if !fast.Halted {
				t.Fatalf("kernel %s never halted", v.Name)
			}
		})
	}
}

// TestPredecodeParitySysTick preempts a flag-sensitive loop with a
// short-period SysTick on both paths: exception entry/return, hardware
// stacking, and the fire accounting must stay bit-identical.
func TestPredecodeParitySysTick(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 97)
	legacy := bootWithISR(t, countdownLoop, 97)
	legacy.DisablePredecode = true
	lockstep(t, fast, legacy, 2_000_000)
	if !fast.Halted {
		t.Fatal("loop never halted")
	}
	if fast.SysTick.Fires == 0 {
		t.Fatal("SysTick never fired: the preemption parity run was vacuous")
	}
}

// TestPredecodeParityTrace runs the traced path on both cores and
// requires identical attribution: per-class cycles, branch outcomes,
// bus traffic, exception buckets, and the per-PC histogram.
func TestPredecodeParityTrace(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 501)
	legacy := bootWithISR(t, countdownLoop, 501)
	legacy.DisablePredecode = true
	tf := fast.EnableTrace()
	tl := legacy.EnableTrace()
	lockstep(t, fast, legacy, 2_000_000)

	if tf.ClassCycles != tl.ClassCycles || tf.ClassInstrs != tl.ClassInstrs {
		t.Errorf("class attribution diverged:\nfast:   %v %v\nlegacy: %v %v",
			tf.ClassCycles, tf.ClassInstrs, tl.ClassCycles, tl.ClassInstrs)
	}
	if tf.BranchTaken != tl.BranchTaken || tf.BranchNotTaken != tl.BranchNotTaken {
		t.Errorf("branch outcomes %d/%d vs %d/%d",
			tf.BranchTaken, tf.BranchNotTaken, tl.BranchTaken, tl.BranchNotTaken)
	}
	if tf.ExceptionEntries != tl.ExceptionEntries || tf.ExceptionEntryCycles != tl.ExceptionEntryCycles {
		t.Errorf("exception buckets %d/%d vs %d/%d",
			tf.ExceptionEntries, tf.ExceptionEntryCycles, tl.ExceptionEntries, tl.ExceptionEntryCycles)
	}
	if tf.FlashAccesses != tl.FlashAccesses || tf.SRAMReads != tl.SRAMReads ||
		tf.SRAMWrites != tl.SRAMWrites || tf.FlashWaitCycles != tl.FlashWaitCycles {
		t.Errorf("bus attribution diverged: %+v vs %+v", tf, tl)
	}
	if tf.SPMin != tl.SPMin {
		t.Errorf("SPMin 0x%08x vs 0x%08x", tf.SPMin, tl.SPMin)
	}
	if len(tf.PCs) != len(tl.PCs) {
		t.Fatalf("PC histogram sizes %d vs %d", len(tf.PCs), len(tl.PCs))
	}
	for pc, s := range tf.PCs {
		ls := tl.PCs[pc]
		if ls == nil || *s != *ls {
			t.Errorf("PC 0x%08x: %+v vs %+v", pc, s, ls)
		}
	}
}

// TestPredecodeParityWaitStates re-runs a kernel harness with one flash
// wait state: the fast path must charge the same fetch penalty the bus
// model does.
func TestPredecodeParityWaitStates(t *testing.T) {
	v := kernels.Variants()[0]
	fast, legacy := bootPair(t, v.Harness)
	fast.Bus.FlashWaitStates = 1
	legacy.Bus.FlashWaitStates = 1
	lockstep(t, fast, legacy, 3_000_000)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// TestPredecodeFallbackBeyondPrefix jumps execution past the loaded
// image, where no predecoded entries exist: the zero-filled flash
// (LSLS r0, r0, #0 sleds) must execute identically through the
// interpreted fallback on both cores, including the budget error.
func TestPredecodeFallbackBeyondPrefix(t *testing.T) {
	fast, legacy := bootPair(t, `
		ldr r0, =0x08010001     @ far beyond any loaded byte, Thumb bit set
		bx r0
		.pool
	`)
	for _, c := range []*armv6m.CPU{fast, legacy} {
		err := c.Run(1000)
		var be *armv6m.BudgetError
		if !asBudget(err, &be) {
			t.Fatalf("err = %v, want BudgetError from the zero sled", err)
		}
	}
	compareState(t, -1, fast, legacy)
}

func asBudget(err error, target **armv6m.BudgetError) bool {
	be, ok := err.(*armv6m.BudgetError)
	if ok {
		*target = be
	}
	return ok
}

// TestPredecodeFallbackBootAlias executes code through the flash boot
// alias at address 0, which the predecode table does not cover: the
// interpreted fallback must produce identical state.
func TestPredecodeFallbackBootAlias(t *testing.T) {
	// The program lives at codeBase = FlashBase + 0x10; its alias is at
	// plain 0x10. Jump there and run the same instructions.
	fast, legacy := bootPair(t, `
		ldr r0, =0x11           @ alias of codeBase, Thumb bit set
		mov r12, r0
		cmp r1, #1
		beq aliased             @ second pass: skip the jump, finish
		movs r1, #1
		bx r0
	aliased:
		movs r2, #41
		adds r2, r2, r1
		bkpt #0
		.pool
	`)
	lockstep(t, fast, legacy, 1000)
	if !fast.Halted || fast.R[2] != 42 {
		t.Fatalf("alias run: halted=%v r2=%d, want halted r2=42", fast.Halted, fast.R[2])
	}
}

// TestPredecodeInvalidateOnLoadFlash overwrites the program after a
// predecoded run: the stale table must be rebuilt, and the second
// program's behavior (not the first's) must execute.
func TestPredecodeInvalidateOnLoadFlash(t *testing.T) {
	cpu, _ := boot(t, `
		movs r0, #1
		bkpt #0
	`)
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 1 {
		t.Fatalf("first program: r0 = %d, want 1", cpu.R[0])
	}

	prog, err := thumb.Assemble("movs r0, #2\n\tbkpt #0\n", codeBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Bus.LoadFlash(int(codeBase-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 2 {
		t.Fatalf("after LoadFlash: r0 = %d, want 2 (stale predecode table executed)", cpu.R[0])
	}
}

// TestPredecodeSharedTableParity boots one board with a table built
// externally (the farm's shared-table path, armv6m.Predecode +
// UsePredecode) and one legacy board, and requires identical runs.
func TestPredecodeSharedTableParity(t *testing.T) {
	v := kernels.Variants()[0]
	prog, err := thumb.Assemble(v.Harness, codeBase)
	if err != nil {
		t.Fatal(err)
	}
	flash := make([]byte, armv6m.FlashSize)
	sp := uint32(armv6m.SRAMBase + armv6m.SRAMSize)
	entry := prog.Base | 1
	put32 := func(off int, val uint32) {
		flash[off] = byte(val)
		flash[off+1] = byte(val >> 8)
		flash[off+2] = byte(val >> 16)
		flash[off+3] = byte(val >> 24)
	}
	put32(0, sp)
	put32(4, entry)
	copy(flash[codeBase-armv6m.FlashBase:], prog.Code)

	table := armv6m.Predecode(flash, int(codeBase-armv6m.FlashBase)+len(prog.Code))
	if table.Len() == 0 {
		t.Fatal("empty predecode table")
	}
	fast := armv6m.NewSharedFlash(flash)
	fast.UsePredecode(table)
	legacy := armv6m.NewSharedFlash(flash)
	legacy.DisablePredecode = true
	for _, c := range []*armv6m.CPU{fast, legacy} {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	lockstep(t, fast, legacy, 3_000_000)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// TestPredecodeRunParity drives whole runs through Run — which uses the
// hoisted steady-state loop, not Step — against legacy Run, over every
// kernel variant and a SysTick-preempted loop, comparing final state.
func TestPredecodeRunParity(t *testing.T) {
	finish := func(t *testing.T, fast, legacy *armv6m.CPU) {
		t.Helper()
		errFast, errLegacy := fast.Run(3_000_000), legacy.Run(3_000_000)
		if errStr(errFast) != errStr(errLegacy) {
			t.Fatalf("run error diverged: %v vs %v", errFast, errLegacy)
		}
		compareState(t, -1, fast, legacy)
		for i := range fast.Bus.SRAM {
			if fast.Bus.SRAM[i] != legacy.Bus.SRAM[i] {
				t.Fatalf("SRAM diverged at +0x%x", i)
			}
		}
	}
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, legacy := bootPair(t, v.Harness)
			finish(t, fast, legacy)
		})
	}
	t.Run("systick", func(t *testing.T) {
		fast := bootWithISR(t, countdownLoop, 97)
		legacy := bootWithISR(t, countdownLoop, 97)
		legacy.DisablePredecode = true
		finish(t, fast, legacy)
		if fast.SysTick.Fires == 0 {
			t.Fatal("SysTick never fired")
		}
	})
}

// TestStepNoAllocs pins the zero-allocation contract for straight-line
// execution on both the predecoded and the interpreted path.
func TestStepNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"Predecoded", false},
		{"Legacy", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, _ := boot(t, `
				ldr r1, =0x20000000
			loop:
				adds r0, #1
				ldr r2, [r1]
				str r2, [r1]
				b loop
				.pool
			`)
			cpu.DisablePredecode = tc.disable
			if err := cpu.Step(); err != nil { // builds the table off the measured path
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := cpu.Step(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Step allocates %v times per instruction, want 0", n)
			}
		})
	}
}

// TestPredecodeTableMetadata sanity-checks the table API the callers
// build observability on.
func TestPredecodeTableMetadata(t *testing.T) {
	flash := make([]byte, 64)
	table := armv6m.Predecode(flash, 32)
	if table.Len() != 16 {
		t.Errorf("Len = %d, want 16 (32-byte prefix)", table.Len())
	}
	if table.BuildTime() <= 0 {
		t.Errorf("BuildTime = %v, want > 0", table.BuildTime())
	}
	if got := armv6m.Predecode(flash, 0).Len(); got != 32 {
		t.Errorf("limit 0 decodes %d slots, want the whole array (32)", got)
	}
	if got := armv6m.Predecode(flash, 1<<20).Len(); got != 32 {
		t.Errorf("oversized limit decodes %d slots, want 32", got)
	}
}

// sink keeps benchmark results live.
var sink uint64

// benchProgram mirrors the dense kernel's MAC inner loop from
// internal/kernels (kernels.go, the `_i` loop) instruction for
// instruction: a signed weight load from flash, a signed activation
// load from SRAM, multiply-accumulate, and the column-index
// compare/branch, wrapped in a row loop that stores the accumulator.
// This is the instruction mix inference spends its cycles in, so the
// two MIPS figures below give the speedup on real workloads.
const benchProgram = `
entry:
	ldr r7, =2000           @ row count
	ldr r3, =0x08000000     @ weight row pointer (flash)
	ldr r4, =0x20000000     @ activation buffer (SRAM)
	movs r5, #64            @ connections per row
outer:
	movs r1, #0             @ accumulator
	movs r2, #0             @ column index
inner:
	ldrsb r6, [r3, r2]      @ weight (flash)
	ldrsb r0, [r4, r2]      @ activation (SRAM)
	muls r6, r0, r6
	adds r1, r1, r6
	adds r2, #1
	cmp r2, r5
	blo inner               @ asmcheck: loop 64
	str r1, [r4, #64]       @ store the row accumulator
	subs r7, #1
	bne outer               @ asmcheck: loop 2000
	bkpt #0
	.pool
`

// benchBlockProgram mirrors the block kernel's connection loop from
// internal/kernels (sparse.go, the `_k` loop) instruction for
// instruction: an 8-bit block-local index load from flash, a signed
// activation gather from SRAM through it, and an adds/subs accumulate
// under a countdown latch — one pass of 64 connections per column,
// alternating polarity, wrapped in a column loop that stores the
// accumulator. It is the ternary counterpart of benchProgram.
var benchBlockProgram = func() string {
	idx := make([]string, 64)
	for i := range idx {
		idx[i] = fmt.Sprint(i * 37 % 251)
	}
	return `
entry:
	ldr r3, =1000           @ column pairs
	ldr r1, =0x20000000     @ block input base (SRAM)
	ldr r2, =0x20000100     @ accumulator (SRAM)
col:
	ldr r4, =idx            @ index cursor (flash)
	movs r7, #0
	movs r6, #64
pos:
	ldrb r5, [r4]           @ asmcheck: load flash
	adds r4, #1
	ldrsb r5, [r1, r5]      @ asmcheck: load sram
	adds r7, r7, r5
	subs r6, #1
	bne pos                 @ asmcheck: loop 64
	str r7, [r2]
	ldr r4, =idx
	movs r6, #64
neg:
	ldrb r5, [r4]           @ asmcheck: load flash
	adds r4, #1
	ldrsb r5, [r1, r5]      @ asmcheck: load sram
	subs r7, r7, r5
	subs r6, #1
	bne neg                 @ asmcheck: loop 64
	str r7, [r2]
	subs r3, #1
	bne col                 @ asmcheck: loop 1000
	bkpt #0
	.pool
idx:
	.byte ` + strings.Join(idx, ", ") + "\n"
}()

func benchRun(b *testing.B, src string, disable bool) {
	cpu, _ := boot(b, src)
	cpu.DisablePredecode = disable
	if err := cpu.Run(10_000_000); err != nil { // warm up, build the table
		b.Fatal(err)
	}
	instrPerRun := cpu.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Reset(); err != nil {
			b.Fatal(err)
		}
		cpu.Cycles, cpu.Instructions = 0, 0
		if err := cpu.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		sink += cpu.Cycles
	}
	b.StopTimer()
	mips := float64(instrPerRun) * float64(b.N) / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(mips, "MIPS")
}

// benchRunTranslated is benchRun on the translated tier: the same
// program, certified, with its hot loop run whole in a loop executor.
func benchRunTranslated(b *testing.B, src string) {
	prog, c := certifySrc(b, src, false)
	cpu := bootTier(b, prog, c, 0, "translated", false)
	if err := cpu.Run(10_000_000); err != nil {
		b.Fatal(err)
	}
	if !cpu.TranslationAttached() {
		b.Fatal("translation table not attached")
	}
	instrPerRun := cpu.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Reset(); err != nil {
			b.Fatal(err)
		}
		cpu.Cycles, cpu.Instructions = 0, 0
		if err := cpu.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		sink += cpu.Cycles
	}
	b.StopTimer()
	mips := float64(instrPerRun) * float64(b.N) / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(mips, "MIPS")
}

// BenchmarkInference measures a whole emulated kernel run (reset to
// BKPT) on all three tiers; the ratios of the MIPS figures are the
// predecode and translation speedups.
func BenchmarkInference(b *testing.B) {
	b.Run("Translated", func(b *testing.B) { benchRunTranslated(b, benchProgram) })
	b.Run("Predecoded", func(b *testing.B) { benchRun(b, benchProgram, false) })
	b.Run("Legacy", func(b *testing.B) { benchRun(b, benchProgram, true) })
}

// BenchmarkInferenceBlock is BenchmarkInference on the block kernel's
// gather loop (benchBlockProgram), the inner loop of the deployed
// default encoding.
func BenchmarkInferenceBlock(b *testing.B) {
	b.Run("Translated", func(b *testing.B) { benchRunTranslated(b, benchBlockProgram) })
	b.Run("Predecoded", func(b *testing.B) { benchRun(b, benchBlockProgram, false) })
	b.Run("Legacy", func(b *testing.B) { benchRun(b, benchBlockProgram, true) })
}

// BenchmarkInferenceUnrolled is BenchmarkInference on a deployed
// unrolled/4 kernel (unrolledHarness) for a seeded 400→64 ternary layer
// at 25% density: straight-line gather-accumulate code, which the
// translated tier runs in execRun.
func BenchmarkInferenceUnrolled(b *testing.B) {
	src := unrolledHarness(randTernary(1, 400, 64, 0.25), 4)
	b.Run("Translated", func(b *testing.B) { benchRunTranslated(b, src) })
	b.Run("Predecoded", func(b *testing.B) { benchRun(b, src, false) })
	b.Run("Legacy", func(b *testing.B) { benchRun(b, src, true) })
}

// BenchmarkStep measures the per-instruction cost of the hot loop in
// isolation (a taken branch and an add, the tightest possible loop).
func BenchmarkStep(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"Predecoded", false},
		{"Legacy", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cpu, _ := boot(b, `
			loop:
				adds r0, #1
				b loop
			`)
			cpu.DisablePredecode = tc.disable
			if err := cpu.Step(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cpu.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sink += cpu.Cycles
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}

// TestHotStructsFillLines pins the padding of CPU and Bus to whole
// 64-byte cache lines on 64-bit hosts: every farm worker writes its
// board's CPU and Bus on nearly every emulated instruction, and a line
// shared with a table other workers read (the allocator may place them
// side by side) costs those readers a cache miss per access.
func TestHotStructsFillLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(armv6m.CPU{}); n%64 != 0 {
		t.Errorf("CPU is %d bytes, not a multiple of 64: resize its padding", n)
	}
	if n := unsafe.Sizeof(armv6m.Bus{}); n%64 != 0 {
		t.Errorf("Bus is %d bytes, not a multiple of 64: resize its padding", n)
	}
}
