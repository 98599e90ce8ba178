package armv6m_test

import (
	"reflect"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Representative kernels for attribution tests: ALU-only, load/store-
// heavy, branch-heavy, and multiply-heavy, mirroring the instruction
// mixes of the repository's inference kernels.
var traceKernels = []struct {
	name string
	src  string
}{
	{"alu-only", `
		movs r0, #0
		movs r1, #7
		adds r0, r0, r1
		lsls r2, r1, #3
		eors r2, r1
		mvns r3, r2
		sxtb r4, r3
		bkpt #0
	`},
	{"loadstore-heavy", `
		ldr r0, =0x20000000
		movs r1, #32
		movs r2, #0
	fill:
		str r2, [r0]
		ldr r3, [r0]
		strb r3, [r0, #1]
		ldrb r4, [r0, #1]
		adds r0, #4
		subs r1, #1
		bne fill
		push {r0-r4}
		pop {r0-r4}
		bkpt #0
	`},
	{"branch-heavy", `
		movs r0, #40
		movs r1, #0
	loop:
		adds r1, #1
		cmp r1, #3
		beq skip             @ taken every third iteration
		b cont
	skip:
		movs r1, #0
	cont:
		subs r0, #1
		bne loop
		bl sub
		bkpt #0
	sub:
		bx lr
	`},
	{"mul-heavy", `
		movs r0, #20
		movs r1, #3
		movs r2, #1
	mloop:
		muls r2, r1, r2
		lsls r2, r2, #16
		lsrs r2, r2, #16
		subs r0, #1
		bne mloop
		bkpt #0
	`},
}

// TestTraceAttributionSums checks the profiler's core invariant on each
// representative kernel, with and without flash wait states: per-class
// cycles (plus exception-entry overhead) and the per-PC histogram each
// sum exactly to CPU.Cycles, and per-class instruction counts sum to
// CPU.Instructions.
func TestTraceAttributionSums(t *testing.T) {
	for _, k := range traceKernels {
		for _, ws := range []int{0, 1} {
			cpu, _ := boot(t, k.src)
			cpu.Bus.FlashWaitStates = ws
			tr := cpu.EnableTrace()
			if err := cpu.Run(1_000_000); err != nil {
				t.Fatalf("%s ws=%d: %v", k.name, ws, err)
			}
			if got, want := tr.TotalCycles(), cpu.Cycles; got != want {
				t.Errorf("%s ws=%d: class cycles sum %d, CPU.Cycles %d", k.name, ws, got, want)
			}
			if got, want := tr.TotalInstructions(), cpu.Instructions; got != want {
				t.Errorf("%s ws=%d: class instrs sum %d, CPU.Instructions %d", k.name, ws, got, want)
			}
			var pcCycles, pcCount uint64
			for _, s := range tr.PCs {
				pcCycles += s.Cycles
				pcCount += s.Count
			}
			if got, want := pcCycles+tr.ExceptionEntryCycles, cpu.Cycles; got != want {
				t.Errorf("%s ws=%d: PC histogram cycles %d, CPU.Cycles %d", k.name, ws, got, want)
			}
			if pcCount != cpu.Instructions {
				t.Errorf("%s ws=%d: PC histogram count %d, CPU.Instructions %d", k.name, ws, pcCount, cpu.Instructions)
			}
			if ws > 0 && tr.FlashWaitCycles == 0 {
				t.Errorf("%s ws=%d: no flash wait cycles recorded", k.name, ws)
			}
			if ws == 0 && tr.FlashWaitCycles != 0 {
				t.Errorf("%s ws=0: spurious flash wait cycles %d", k.name, tr.FlashWaitCycles)
			}
		}
	}
}

// TestTraceWithoutPCHistogram: a trace whose PCs map is nil keeps no
// histogram, and every other counter and the OnInstr stream are exactly
// those of a full trace.
func TestTraceWithoutPCHistogram(t *testing.T) {
	for _, k := range traceKernels {
		for _, ws := range []int{0, 1} {
			var full, bare []armv6m.InstrInfo
			run := func(tr *armv6m.Trace, into *[]armv6m.InstrInfo) {
				cpu, _ := boot(t, k.src)
				cpu.Bus.FlashWaitStates = ws
				tr.OnInstr = func(ii armv6m.InstrInfo) { *into = append(*into, ii) }
				cpu.Trace = tr
				if err := cpu.Run(1_000_000); err != nil {
					t.Fatalf("%s ws=%d: %v", k.name, ws, err)
				}
			}
			trFull := armv6m.NewTrace()
			run(trFull, &full)
			trBare := armv6m.NewTrace()
			trBare.PCs = nil
			run(trBare, &bare)
			if trBare.PCs != nil {
				t.Fatalf("%s ws=%d: a nil histogram was allocated", k.name, ws)
			}
			trFull.PCs, trFull.OnInstr, trBare.OnInstr = nil, nil, nil
			if !reflect.DeepEqual(trFull, trBare) {
				t.Errorf("%s ws=%d: counters %+v without the histogram, %+v with it", k.name, ws, trBare, trFull)
			}
			if !reflect.DeepEqual(full, bare) {
				t.Errorf("%s ws=%d: OnInstr streams differ", k.name, ws)
			}
		}
	}
}

// TestTraceDisabledChangesNothing runs each kernel with and without the
// hook and demands bit-identical architectural results.
func TestTraceDisabledChangesNothing(t *testing.T) {
	for _, k := range traceKernels {
		plain, _ := boot(t, k.src)
		if err := plain.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		traced, _ := boot(t, k.src)
		traced.EnableTrace()
		if err := traced.Run(1_000_000); err != nil {
			t.Fatalf("%s traced: %v", k.name, err)
		}
		if plain.Cycles != traced.Cycles {
			t.Errorf("%s: cycles %d (plain) vs %d (traced)", k.name, plain.Cycles, traced.Cycles)
		}
		if plain.Instructions != traced.Instructions {
			t.Errorf("%s: instructions %d vs %d", k.name, plain.Instructions, traced.Instructions)
		}
		if plain.R != traced.R {
			t.Errorf("%s: register files differ", k.name)
		}
		if plain.N != traced.N || plain.Z != traced.Z || plain.C != traced.C || plain.V != traced.V {
			t.Errorf("%s: flags differ", k.name)
		}
	}
}

// TestTraceClassAndBusCounters spot-checks the classification and
// bus-region attribution on the load/store and branch kernels.
func TestTraceClassAndBusCounters(t *testing.T) {
	cpu, _ := boot(t, traceKernels[1].src) // loadstore-heavy
	tr := cpu.EnableTrace()
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if tr.ClassInstrs[armv6m.ClassLoadStore] == 0 {
		t.Error("no load/store instructions classified")
	}
	if tr.SRAMReads == 0 || tr.SRAMWrites == 0 {
		t.Errorf("SRAM traffic not attributed: %d reads, %d writes", tr.SRAMReads, tr.SRAMWrites)
	}
	// Every retired instruction was fetched from flash.
	if tr.FlashAccesses < cpu.Instructions {
		t.Errorf("flash accesses %d < instructions %d", tr.FlashAccesses, cpu.Instructions)
	}

	cpu, _ = boot(t, traceKernels[2].src) // branch-heavy
	tr = cpu.EnableTrace()
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if tr.BranchTaken == 0 || tr.BranchNotTaken == 0 {
		t.Errorf("branch outcomes not attributed: %d taken, %d not taken", tr.BranchTaken, tr.BranchNotTaken)
	}
	if got := tr.ClassInstrs[armv6m.ClassBranch]; got != tr.BranchTaken+tr.BranchNotTaken {
		t.Errorf("branch class %d != taken %d + not-taken %d", got, tr.BranchTaken, tr.BranchNotTaken)
	}

	cpu, _ = boot(t, traceKernels[3].src) // mul-heavy
	tr = cpu.EnableTrace()
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := tr.ClassInstrs[armv6m.ClassMul]; got != 20 {
		t.Errorf("muls retired %d, want 20", got)
	}
}

// TestTraceExceptionAttribution checks that exception entries land in
// the dedicated bucket and the sum invariant holds under preemption.
func TestTraceExceptionAttribution(t *testing.T) {
	cpu := bootWithISR(t, `
		ldr r2, =5000
	tloop:
		subs r2, #1
		bne tloop
		bkpt #0
		.pool
	`, 200)
	tr := cpu.EnableTrace()
	if err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if tr.ExceptionEntries == 0 {
		t.Fatal("no exception entries traced")
	}
	if tr.ExceptionEntries != cpu.SysTick.Fires {
		t.Errorf("traced entries %d, SysTick fires %d", tr.ExceptionEntries, cpu.SysTick.Fires)
	}
	wantEntry := tr.ExceptionEntries * uint64(cpu.Profile.ExceptionEntry)
	if tr.ExceptionEntryCycles != wantEntry {
		t.Errorf("exception entry cycles %d, want %d", tr.ExceptionEntryCycles, wantEntry)
	}
	if got, want := tr.TotalCycles(), cpu.Cycles; got != want {
		t.Errorf("attribution sum %d, CPU.Cycles %d", got, want)
	}
	if got, want := tr.TotalInstructions(), cpu.Instructions; got != want {
		t.Errorf("instruction sum %d, CPU.Instructions %d", got, want)
	}
}

// TestTraceOnInstrStreams checks the streaming callback sees every
// retired instruction with its attributed cost.
func TestTraceOnInstrStreams(t *testing.T) {
	cpu, _ := boot(t, traceKernels[0].src)
	tr := cpu.EnableTrace()
	var n, cycles uint64
	tr.OnInstr = func(ii armv6m.InstrInfo) {
		n++
		cycles += ii.Cycles
	}
	if err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if n != cpu.Instructions {
		t.Errorf("streamed %d instructions, retired %d", n, cpu.Instructions)
	}
	if cycles != cpu.Cycles {
		t.Errorf("streamed %d cycles, counted %d", cycles, cpu.Cycles)
	}
}

// TestBudgetError checks Run's typed budget-exhaustion error.
func TestBudgetError(t *testing.T) {
	cpu, _ := boot(t, "spin: b spin\n")
	err := cpu.Run(100)
	var budget *armv6m.BudgetError
	if !asBudgetError(err, &budget) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if budget.Instructions != 100 {
		t.Errorf("budget = %d, want 100", budget.Instructions)
	}
}

func asBudgetError(err error, target **armv6m.BudgetError) bool {
	for err != nil {
		if be, ok := err.(*armv6m.BudgetError); ok {
			*target = be
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
