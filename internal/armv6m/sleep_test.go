package armv6m_test

import (
	"errors"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// wfiLoop is the canonical duty-cycled sensor loop: sleep until the
// periodic interrupt, do a tick of work, repeat N times.
const wfiLoop = `
	ldr r2, =50
	movs r1, #0
loop:
	wfi
	adds r1, #1
	cmp r1, r2
	bne loop
	bkpt #0
`

func TestWFISleepsUntilSysTick(t *testing.T) {
	const period = 1000
	cpu := bootWithISR(t, wfiLoop, period)
	if err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if cpu.R[1] != 50 {
		t.Fatalf("loop count = %d, want 50", cpu.R[1])
	}
	// Every WFI sleeps to exactly one fire: the loop body plus ISR is far
	// shorter than the period, so no fire can land outside a WFI.
	if cpu.SysTick.Fires != 50 {
		t.Errorf("fires = %d, want 50 (one per WFI)", cpu.SysTick.Fires)
	}
	if cpu.SleepCycles == 0 {
		t.Fatal("SleepCycles = 0, WFI never slept")
	}
	if cpu.SleepCycles >= cpu.Cycles {
		t.Fatalf("SleepCycles %d >= Cycles %d", cpu.SleepCycles, cpu.Cycles)
	}
	// The loop is sleep-dominated: active work (ISR + 3 loop
	// instructions) is a small fraction of each 1000-cycle period.
	active := cpu.Cycles - cpu.SleepCycles
	if active*10 > cpu.Cycles {
		t.Errorf("active %d of %d cycles; expected a sleep-dominated loop", active, cpu.Cycles)
	}
	// Wall-clock spans the 50 periods the core slept through.
	if cpu.Cycles < 50*period {
		t.Errorf("Cycles = %d, want >= %d (50 full periods)", cpu.Cycles, 50*period)
	}
}

// TestWFIInterpreterParity runs the sleep loop on the legacy and
// predecoded tiers, the traced path and the test oracle, and requires
// bit-identical cycle, sleep, instruction, and register state.
func TestWFIInterpreterParity(t *testing.T) {
	run := func(configure func(*armv6m.CPU)) *armv6m.CPU {
		cpu := bootWithISR(t, wfiLoop, 997) // prime period: fires land mid-instruction
		configure(cpu)
		if err := cpu.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return cpu
	}
	pre := run(func(c *armv6m.CPU) {})
	leg := run(func(c *armv6m.CPU) { c.DisablePredecode = true })
	tra := run(func(c *armv6m.CPU) { c.EnableTrace() })
	ora := bootWithISR(t, wfiLoop, 997)
	if err := armv6m.OracleRun(ora, 10_000_000); err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]*armv6m.CPU{"legacy": leg, "traced": tra, "oracle": ora} {
		if got.Cycles != pre.Cycles || got.SleepCycles != pre.SleepCycles || got.Instructions != pre.Instructions {
			t.Errorf("%s: cycles/sleep/instrs = %d/%d/%d, predecoded = %d/%d/%d",
				name, got.Cycles, got.SleepCycles, got.Instructions,
				pre.Cycles, pre.SleepCycles, pre.Instructions)
		}
		if got.R != pre.R {
			t.Errorf("%s: register state diverged", name)
		}
		if got.SysTick.Fires != pre.SysTick.Fires {
			t.Errorf("%s: fires = %d, predecoded = %d", name, got.SysTick.Fires, pre.SysTick.Fires)
		}
	}
}

// TestWFITraceInvariant checks the extended attribution identity: class
// cycles + exception entries + sleep account for every CPU cycle, with
// the sleep kept out of the class/PC histograms but included in the
// streamed per-instruction costs.
func TestWFITraceInvariant(t *testing.T) {
	cpu := bootWithISR(t, wfiLoop, 1000)
	tr := cpu.EnableTrace()
	var streamed, streamedSleep uint64
	tr.OnInstr = func(ii armv6m.InstrInfo) {
		streamed += ii.Cycles
		streamedSleep += ii.Sleep
		if ii.Sleep > 0 && ii.Op != armv6m.OpWFI {
			t.Errorf("sleep attributed to op 0x%04x, only WFI sleeps", ii.Op)
		}
	}
	if err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if tr.TotalCycles() != cpu.Cycles {
		t.Errorf("trace TotalCycles = %d, CPU.Cycles = %d", tr.TotalCycles(), cpu.Cycles)
	}
	if tr.TotalInstructions() != cpu.Instructions {
		t.Errorf("trace instructions = %d, CPU.Instructions = %d", tr.TotalInstructions(), cpu.Instructions)
	}
	if tr.SleepCycles != cpu.SleepCycles {
		t.Errorf("trace SleepCycles = %d, CPU.SleepCycles = %d", tr.SleepCycles, cpu.SleepCycles)
	}
	if streamedSleep != cpu.SleepCycles {
		t.Errorf("streamed sleep = %d, CPU.SleepCycles = %d", streamedSleep, cpu.SleepCycles)
	}
	// InstrInfo.Cycles keeps the full cost (sleep included) so running
	// totals over the stream line up with CPU.Cycles and the telemetry
	// mailbox timestamps.
	if streamed+tr.ExceptionEntryCycles != cpu.Cycles {
		t.Errorf("streamed cycles %d + entries %d != CPU.Cycles %d",
			streamed, tr.ExceptionEntryCycles, cpu.Cycles)
	}
	// The per-PC histogram holds active cycles only.
	var pcCycles uint64
	for _, s := range tr.PCs {
		pcCycles += s.Cycles
	}
	if pcCycles+tr.SleepCycles+tr.ExceptionEntryCycles != cpu.Cycles {
		t.Errorf("PC cycles %d + sleep %d + entries %d != CPU.Cycles %d",
			pcCycles, tr.SleepCycles, tr.ExceptionEntryCycles, cpu.Cycles)
	}
}

// TestWFINoWakeSourceFaults requires WFI with SysTick disarmed and
// nothing pending to fail loudly on both interpreters instead of
// spinning the instruction budget on an unwakeable core.
func TestWFINoWakeSourceFaults(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		cpu, _ := boot(t, `
			wfi
			bkpt #0
		`)
		cpu.DisablePredecode = legacy
		err := cpu.Run(1000)
		if err == nil {
			t.Fatalf("legacy=%v: WFI with no wake source should fault", legacy)
		}
		if !errors.Is(err, armv6m.ErrNoWakeSource) {
			t.Errorf("legacy=%v: error = %v, want ErrNoWakeSource", legacy, err)
		}
	}
}

// TestWFIPendingIRQRetiresAsNOP: a wake event already pending (here
// deferred by PRIMASK) makes WFI a 1-cycle NOP — no sleep, and no
// dispatch while interrupts stay masked.
func TestWFIPendingIRQRetiresAsNOP(t *testing.T) {
	src := `
		cpsid i
		ldr r2, =2000       @ spin well past one SysTick period
	spin:
		subs r2, #1
		bne spin
		wfi                 @ fire is pending: wake immediately
		bkpt #0
	`
	for _, legacy := range []bool{false, true} {
		cpu := bootWithISR(t, src, 100)
		cpu.DisablePredecode = legacy
		if err := cpu.Run(1_000_000); err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if cpu.SleepCycles != 0 {
			t.Errorf("legacy=%v: SleepCycles = %d, want 0 (wake event was pending)", legacy, cpu.SleepCycles)
		}
		if cpu.SysTick.Fires != 0 {
			t.Errorf("legacy=%v: handler dispatched %d times under PRIMASK", legacy, cpu.SysTick.Fires)
		}
	}
}

// TestWFIUnusedIsFree: the sleep counters stay zero for programs that
// never execute WFI, on every path.
func TestWFIUnusedIsFree(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		cpu := bootWithISR(t, countdownLoop, 97)
		cpu.DisablePredecode = legacy
		if err := cpu.Run(50_000_000); err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if cpu.SleepCycles != 0 {
			t.Errorf("legacy=%v: SleepCycles = %d without WFI", legacy, cpu.SleepCycles)
		}
	}
}
