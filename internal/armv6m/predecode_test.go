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

// Differential tests for the emulator's one instruction semantics: a
// table-driven core, an on-demand (DisablePredecode) core and the
// fetch/decode oracle (oracle_test.go) run the same image in lockstep,
// and every architectural and accounting observable must be
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
func compareState(t *testing.T, n int, core, oracle *armv6m.CPU) {
	t.Helper()
	if core.R != oracle.R {
		t.Fatalf("step %d: registers diverged\ncore:   %08x\noracle: %08x", n, core.R, oracle.R)
	}
	if core.N != oracle.N || core.Z != oracle.Z || core.C != oracle.C || core.V != oracle.V {
		t.Fatalf("step %d: flags diverged: core NZCV=%v%v%v%v oracle %v%v%v%v",
			n, core.N, core.Z, core.C, core.V, oracle.N, oracle.Z, oracle.C, oracle.V)
	}
	if core.Cycles != oracle.Cycles {
		t.Fatalf("step %d: cycles %d vs %d", n, core.Cycles, oracle.Cycles)
	}
	if core.Instructions != oracle.Instructions {
		t.Fatalf("step %d: instructions %d vs %d", n, core.Instructions, oracle.Instructions)
	}
	if core.Halted != oracle.Halted || core.HaltCode != oracle.HaltCode {
		t.Fatalf("step %d: halt state (%v,%d) vs (%v,%d)",
			n, core.Halted, core.HaltCode, oracle.Halted, oracle.HaltCode)
	}
	if core.Bus.FlashReads != oracle.Bus.FlashReads ||
		core.Bus.SRAMReads != oracle.Bus.SRAMReads ||
		core.Bus.SRAMWrites != oracle.Bus.SRAMWrites {
		t.Fatalf("step %d: bus counters flash %d/%d sramR %d/%d sramW %d/%d",
			n, core.Bus.FlashReads, oracle.Bus.FlashReads,
			core.Bus.SRAMReads, oracle.Bus.SRAMReads,
			core.Bus.SRAMWrites, oracle.Bus.SRAMWrites)
	}
	if core.SysTick.Fires != oracle.SysTick.Fires {
		t.Fatalf("step %d: SysTick fires %d vs %d", n, core.SysTick.Fires, oracle.SysTick.Fires)
	}
}

// lockstep steps every core under test with Step and the oracle core
// with armv6m.OracleStep until they stop (halt or error) or maxSteps,
// comparing full state after every step. The cores must stop the same
// way with the same error text.
func lockstep(t *testing.T, oracle *armv6m.CPU, maxSteps int, cores ...*armv6m.CPU) {
	t.Helper()
	for n := 0; n < maxSteps; n++ {
		errOracle := armv6m.OracleStep(oracle)
		for _, c := range cores {
			if err := c.Step(); errStr(err) != errStr(errOracle) {
				t.Fatalf("step %d (DisablePredecode=%v): error diverged\ncore:   %v\noracle: %v",
					n, c.DisablePredecode, err, errOracle)
			}
			compareState(t, n, c, oracle)
		}
		if errOracle != nil {
			break
		}
	}
	for _, c := range cores {
		compareSRAM(t, c, oracle)
	}
}

// compareSRAM fails the test on any SRAM byte that differs between a
// core under test and the oracle.
func compareSRAM(t *testing.T, c, oracle *armv6m.CPU) {
	t.Helper()
	for i := range c.Bus.SRAM {
		if c.Bus.SRAM[i] != oracle.Bus.SRAM[i] {
			t.Fatalf("DisablePredecode=%v: SRAM diverged at +0x%x: %02x vs %02x",
				c.DisablePredecode, i, c.Bus.SRAM[i], oracle.Bus.SRAM[i])
		}
	}
}

// bootTrio boots the same source on a table-driven core, an on-demand
// core and an oracle core.
func bootTrio(t testing.TB, src string) (fast, onDemand, oracle *armv6m.CPU) {
	fast, _ = boot(t, src)
	onDemand, _ = boot(t, src)
	onDemand.DisablePredecode = true
	oracle, _ = boot(t, src)
	return fast, onDemand, oracle
}

// TestPredecodeParityKernels runs every generated kernel variant's
// self-check harness to completion on the table, on demand and on the
// oracle: the handlers and the table are invisible to every kernel the
// deployment search space can emit.
func TestPredecodeParityKernels(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, onDemand, oracle := bootTrio(t, v.Harness)
			lockstep(t, oracle, 3_000_000, fast, onDemand)
			if !fast.Halted {
				t.Fatalf("kernel %s never halted", v.Name)
			}
		})
	}
}

// TestPredecodeParitySysTick preempts a flag-sensitive loop with a
// short-period SysTick on every path: exception entry/return, hardware
// stacking, and the fire accounting must stay bit-identical.
func TestPredecodeParitySysTick(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 97)
	onDemand := bootWithISR(t, countdownLoop, 97)
	onDemand.DisablePredecode = true
	oracle := bootWithISR(t, countdownLoop, 97)
	lockstep(t, oracle, 2_000_000, fast, onDemand)
	if !fast.Halted {
		t.Fatal("loop never halted")
	}
	if fast.SysTick.Fires == 0 {
		t.Fatal("SysTick never fired: the preemption parity run was vacuous")
	}
}

// TestPredecodeParityTrace runs the traced path on the table core, the
// on-demand core and the oracle and requires identical attribution:
// per-class cycles, branch outcomes, bus traffic, exception buckets, and
// the per-PC histogram.
func TestPredecodeParityTrace(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 501)
	onDemand := bootWithISR(t, countdownLoop, 501)
	onDemand.DisablePredecode = true
	oracle := bootWithISR(t, countdownLoop, 501)
	tl := oracle.EnableTrace()
	traces := map[string]*armv6m.Trace{"fast": fast.EnableTrace(), "on-demand": onDemand.EnableTrace()}
	lockstep(t, oracle, 2_000_000, fast, onDemand)

	for name, tf := range traces {
		if tf.ClassCycles != tl.ClassCycles || tf.ClassInstrs != tl.ClassInstrs {
			t.Errorf("%s: class attribution diverged:\ncore:   %v %v\noracle: %v %v",
				name, tf.ClassCycles, tf.ClassInstrs, tl.ClassCycles, tl.ClassInstrs)
		}
		if tf.BranchTaken != tl.BranchTaken || tf.BranchNotTaken != tl.BranchNotTaken {
			t.Errorf("%s: branch outcomes %d/%d vs %d/%d",
				name, tf.BranchTaken, tf.BranchNotTaken, tl.BranchTaken, tl.BranchNotTaken)
		}
		if tf.ExceptionEntries != tl.ExceptionEntries || tf.ExceptionEntryCycles != tl.ExceptionEntryCycles {
			t.Errorf("%s: exception buckets %d/%d vs %d/%d",
				name, tf.ExceptionEntries, tf.ExceptionEntryCycles, tl.ExceptionEntries, tl.ExceptionEntryCycles)
		}
		if tf.FlashAccesses != tl.FlashAccesses || tf.SRAMReads != tl.SRAMReads ||
			tf.SRAMWrites != tl.SRAMWrites || tf.FlashWaitCycles != tl.FlashWaitCycles {
			t.Errorf("%s: bus attribution diverged: %+v vs %+v", name, tf, tl)
		}
		if tf.SPMin != tl.SPMin {
			t.Errorf("%s: SPMin 0x%08x vs 0x%08x", name, tf.SPMin, tl.SPMin)
		}
		if len(tf.PCs) != len(tl.PCs) {
			t.Fatalf("%s: PC histogram sizes %d vs %d", name, len(tf.PCs), len(tl.PCs))
		}
		for pc, s := range tf.PCs {
			ls := tl.PCs[pc]
			if ls == nil || *s != *ls {
				t.Errorf("%s: PC 0x%08x: %+v vs %+v", name, pc, s, ls)
			}
		}
	}
}

// TestPredecodeParityWaitStates re-runs a kernel harness with one flash
// wait state: the fast path must charge the same fetch penalty the bus
// model does.
func TestPredecodeParityWaitStates(t *testing.T) {
	v := kernels.Variants()[0]
	fast, onDemand, oracle := bootTrio(t, v.Harness)
	for _, c := range []*armv6m.CPU{fast, onDemand, oracle} {
		c.Bus.FlashWaitStates = 1
	}
	lockstep(t, oracle, 3_000_000, fast, onDemand)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// TestPredecodeFallbackBeyondPrefix jumps execution past the loaded
// image, where no predecoded entries exist: the zero-filled flash
// (LSLS r0, r0, #0 sleds) must execute identically when decoded on
// demand, including the budget error.
func TestPredecodeFallbackBeyondPrefix(t *testing.T) {
	fast, onDemand, oracle := bootTrio(t, `
		ldr r0, =0x08010001     @ far beyond any loaded byte, Thumb bit set
		bx r0
		.pool
	`)
	for _, c := range []*armv6m.CPU{fast, onDemand, oracle} {
		var err error
		if c == oracle {
			err = armv6m.OracleRun(c, 1000)
		} else {
			err = c.Run(1000)
		}
		var be *armv6m.BudgetError
		if !asBudget(err, &be) {
			t.Fatalf("err = %v, want BudgetError from the zero sled", err)
		}
	}
	compareState(t, -1, fast, oracle)
	compareState(t, -1, onDemand, oracle)
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
// on-demand decode must produce identical state.
func TestPredecodeFallbackBootAlias(t *testing.T) {
	// The program lives at codeBase = FlashBase + 0x10; its alias is at
	// plain 0x10. Jump there and run the same instructions.
	fast, onDemand, oracle := bootTrio(t, `
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
	lockstep(t, oracle, 1000, fast, onDemand)
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
// UsePredecode) and one oracle board, and requires identical runs.
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
	oracle := armv6m.NewSharedFlash(flash)
	for _, c := range []*armv6m.CPU{fast, oracle} {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	lockstep(t, oracle, 3_000_000, fast)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// TestPredecodeRunParity drives whole runs through Run — which uses the
// hoisted steady-state loop on the table core and a Step loop on the
// on-demand core — against the oracle's run, over every kernel variant
// and a SysTick-preempted loop, comparing final state.
func TestPredecodeRunParity(t *testing.T) {
	finish := func(t *testing.T, fast, onDemand, oracle *armv6m.CPU) {
		t.Helper()
		errOracle := armv6m.OracleRun(oracle, 3_000_000)
		for _, c := range []*armv6m.CPU{fast, onDemand} {
			if err := c.Run(3_000_000); errStr(err) != errStr(errOracle) {
				t.Fatalf("DisablePredecode=%v: run error diverged: %v vs %v", c.DisablePredecode, err, errOracle)
			}
			compareState(t, -1, c, oracle)
			compareSRAM(t, c, oracle)
		}
	}
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, onDemand, oracle := bootTrio(t, v.Harness)
			finish(t, fast, onDemand, oracle)
		})
	}
	t.Run("systick", func(t *testing.T) {
		fast := bootWithISR(t, countdownLoop, 97)
		onDemand := bootWithISR(t, countdownLoop, 97)
		onDemand.DisablePredecode = true
		finish(t, fast, onDemand, bootWithISR(t, countdownLoop, 97))
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

// TestDecodeAgreesWithEmulator pins Decode (the disassembler's and the
// static analyzer's view) to the emulator's decode over every first
// halfword, each with a BL suffix and a non-suffix second halfword:
// Decode gives Unknown/UDF/SVC exactly where the emulator decodes a
// fault entry, and on every other halfword the trace's class
// (classifyOp) is the one Decode's kind implies. It also requires a
// handler on every entry, and on every entry of a table decoded over a
// flash image holding every halfword.
func TestDecodeAgreesWithEmulator(t *testing.T) {
	classOf := func(in armv6m.Instr) armv6m.InstrClass {
		switch in.Kind {
		case armv6m.KindLoad, armv6m.KindStore, armv6m.KindLoadMulti, armv6m.KindStoreMulti,
			armv6m.KindPush, armv6m.KindPop:
			return armv6m.ClassLoadStore
		case armv6m.KindBranch, armv6m.KindBranchCond, armv6m.KindBL, armv6m.KindBX, armv6m.KindBLX:
			return armv6m.ClassBranch
		case armv6m.KindALU:
			if in.IsMul {
				return armv6m.ClassMul
			}
			if in.WritesPC {
				return armv6m.ClassBranch
			}
		}
		return armv6m.ClassALU
	}
	var faultMismatch, classMismatch int // first halfwords
	for op := uint32(0); op <= 0xffff; op++ {
		faultBad, classBad := false, false
		for _, lo := range []uint32{0xf800, 0x0000} { // a BL suffix, then not one
			in := armv6m.Decode(armv6m.FlashBase, uint16(op), uint16(lo))
			handled, fault := armv6m.DecodeEntry(op, lo)
			if !handled {
				t.Fatalf("op 0x%04x lo 0x%04x: entry has no handler", op, lo)
			}
			rejected := in.Kind == armv6m.KindUnknown || in.Kind == armv6m.KindUDF || in.Kind == armv6m.KindSVC
			if rejected != fault {
				if !faultBad && faultMismatch < 5 {
					t.Errorf("op 0x%04x lo 0x%04x: Decode %q (kind %d), emulator fault entry %v",
						op, lo, in.Text, in.Kind, fault)
				}
				faultBad = true
				continue
			}
			if !fault && armv6m.ClassifyOp(op) != classOf(in) {
				if !classBad && classMismatch < 5 {
					t.Errorf("op 0x%04x (%s): trace class %v, Decode implies %v",
						op, in.Text, armv6m.ClassifyOp(op), classOf(in))
				}
				classBad = true
			}
		}
		if faultBad {
			faultMismatch++
		}
		if classBad {
			classMismatch++
		}
	}
	if faultMismatch+classMismatch != 0 {
		t.Errorf("%d fault mismatches, %d class mismatches", faultMismatch, classMismatch)
	}
	flash := make([]byte, 2*0x10000)
	for i := range 0x10000 {
		flash[2*i], flash[2*i+1] = byte(i), byte(i>>8)
	}
	if !armv6m.Predecode(flash, 0).TableTotal() {
		t.Error("a predecode table entry has no handler")
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

// BenchmarkRunIRQ measures SysTick-armed code (countdownLoop under a
// 4,800-cycle period) through Run, which runs it in the hoisted armed
// loop (runPredecodedIRQ), and through a loop of Step calls, the same
// semantics one instruction at a time. The gap between the two MIPS
// figures is what the armed loop buys.
func BenchmarkRunIRQ(b *testing.B) {
	for _, tc := range []struct {
		name string
		step bool
	}{
		{"Run", false},
		{"Step", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cpu := bootWithISR(b, countdownLoop, 4800)
			run := func() {
				if err := cpu.Reset(); err != nil {
					b.Fatal(err)
				}
				cpu.Cycles, cpu.Instructions = 0, 0
				if !tc.step {
					if err := cpu.Run(10_000_000); err != nil {
						b.Fatal(err)
					}
					return
				}
				for {
					err := cpu.Step()
					if err == armv6m.ErrHalted {
						return
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			run() // builds the table off the measured path
			if cpu.SysTick.Fires == 0 {
				b.Fatal("SysTick never fired")
			}
			instrPerRun := cpu.Instructions
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
				sink += cpu.Cycles
			}
			b.StopTimer()
			b.ReportMetric(float64(instrPerRun)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
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
