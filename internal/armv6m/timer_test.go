package armv6m_test

import (
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Tests for the telemetry peripheral (timer.go): the CNT and MBOX
// semantics are pinned to exact cycle values, and every observable —
// read values, event timestamps, fault strings — must be bit-identical
// across the legacy and predecoded tiers, the traced path and the test
// oracle, at 0 and 1 flash wait states.

// timerProg loads the peripheral base into r6 before src runs.
func timerProg(src string) string {
	return "\tldr r6, =0x40000000\n" + src + "\tbkpt #0\n\t.pool\n"
}

// runTimer boots src with the telemetry peripheral attached and runs it
// to halt on the requested path: "legacy" (DisablePredecode), "fast"
// (predecoded Run loop), "traced" (trace hook attached), or "oracle"
// (the fetch/decode test oracle).
func runTimer(t *testing.T, src, path string, ws int) (*armv6m.CPU, *armv6m.Timer) {
	t.Helper()
	cpu, _ := boot(t, src)
	cpu.Bus.FlashWaitStates = ws
	tmr := cpu.EnableTimer()
	run := cpu.Run
	switch path {
	case "legacy":
		cpu.DisablePredecode = true
	case "traced":
		cpu.EnableTrace()
	case "oracle":
		run = func(n uint64) error { return armv6m.OracleRun(cpu, n) }
	}
	if err := run(1_000_000); err != nil {
		t.Fatalf("%s run: %v", path, err)
	}
	return cpu, tmr
}

// timerPaths lists the oracle first: the differential tests compare
// every other path against it.
var timerPaths = []string{"oracle", "legacy", "fast", "traced"}

// TestTimerCNTExact pins the CNT read semantics to exact cycle values:
// the read returns the cycles retired by every earlier instruction plus
// the reading instruction's own fetch wait states.
func TestTimerCNTExact(t *testing.T) {
	// ldr r6, =CNT-base offset; ldr r0, [r6, #0x24] reads CNT.
	src := timerProg("\tldr r0, [r6, #0x24]\n\tmovs r1, #0\n")
	// ws=0: the ldr-literal retires in 2 cycles, so CNT reads 2.
	// ws=1: the literal load costs 1 (fetch ws) + 2+1 (flash data) = 4,
	// plus the reading instruction's own fetch ws -> 5.
	want := map[int]uint32{0: 2, 1: 5}
	for ws, w := range want {
		for _, path := range timerPaths {
			cpu, _ := runTimer(t, src, path, ws)
			if cpu.R[0] != w {
				t.Errorf("ws=%d %s: CNT read = %d, want %d", ws, path, cpu.R[0], w)
			}
		}
	}
}

// TestTimerMailboxExact pins the MBOX timestamp semantics: the event
// carries the cycle count at which the storing instruction retires.
func TestTimerMailboxExact(t *testing.T) {
	src := timerProg("\tmovs r0, #7\n\tstr r0, [r6, #0x40]\n")
	// ws=0: ldr-literal 2 + movs 1 + str 2 (timer adds no wait states)
	// = 5 at the store's retire.
	// ws=1: (1+3) + (1+1) + (1+2) = 9.
	want := map[int]uint64{0: 5, 1: 9}
	for ws, w := range want {
		for _, path := range timerPaths {
			_, tmr := runTimer(t, src, path, ws)
			if len(tmr.Events) != 1 {
				t.Fatalf("ws=%d %s: %d events, want 1", ws, path, len(tmr.Events))
			}
			ev := tmr.Events[0]
			if ev.Marker != 7 || ev.Cycles != w {
				t.Errorf("ws=%d %s: event {%d, %d}, want {7, %d}", ws, path, ev.Marker, ev.Cycles, w)
			}
		}
	}
}

// TestTimerDifferentialLoop runs a marker-bracketed loop on every path
// and requires the oracle's cycle totals, CNT reads, and event logs bit
// for bit.
func TestTimerDifferentialLoop(t *testing.T) {
	src := timerProg(`
	movs r0, #0
	str r0, [r6, #0x40]     @ enter marker
	ldr r2, [r6, #0x24]     @ CNT snapshot into r2
	movs r1, #23
loop:
	subs r1, #1
	bne loop
	movs r0, #1
	str r0, [r6, #0x40]     @ exit marker
	ldr r3, [r6, #0x24]     @ CNT snapshot into r3
	ldr r0, [r6, #0x44]     @ NEVT into r0
`)
	for _, ws := range []int{0, 1} {
		var ref *armv6m.CPU
		var refEvents []armv6m.TimerEvent
		for _, path := range timerPaths {
			cpu, tmr := runTimer(t, src, path, ws)
			if cpu.R[0] != 2 {
				t.Fatalf("ws=%d %s: NEVT = %d, want 2", ws, path, cpu.R[0])
			}
			if ref == nil {
				ref, refEvents = cpu, append([]armv6m.TimerEvent(nil), tmr.Events...)
				continue
			}
			if cpu.Cycles != ref.Cycles || cpu.Instructions != ref.Instructions {
				t.Errorf("ws=%d %s: %d cycles / %d instrs, oracle %d / %d",
					ws, path, cpu.Cycles, cpu.Instructions, ref.Cycles, ref.Instructions)
			}
			if cpu.R[2] != ref.R[2] || cpu.R[3] != ref.R[3] {
				t.Errorf("ws=%d %s: CNT reads %d/%d, oracle %d/%d",
					ws, path, cpu.R[2], cpu.R[3], ref.R[2], ref.R[3])
			}
			if len(tmr.Events) != len(refEvents) {
				t.Fatalf("ws=%d %s: %d events, oracle %d", ws, path, len(tmr.Events), len(refEvents))
			}
			for i, ev := range tmr.Events {
				if ev != refEvents[i] {
					t.Errorf("ws=%d %s: event %d = {%d, %d}, oracle {%d, %d}",
						ws, path, i, ev.Marker, ev.Cycles, refEvents[i].Marker, refEvents[i].Cycles)
				}
			}
		}
	}
}

// TestTimerDifferentialSysTick exercises the IRQ-enabled predecoded
// loop (runPredecodedIRQ): with a short-period SysTick preempting the
// marker loop, event timestamps on the predecoded and the on-demand
// (legacy) tier must agree with the oracle's to the cycle.
func TestTimerDifferentialSysTick(t *testing.T) {
	main := `
	ldr r6, =0x40000000
	movs r0, #0
	str r0, [r6, #0x40]
	movs r1, #200
spin:
	subs r1, #1
	bne spin
	movs r0, #1
	str r0, [r6, #0x40]
	bkpt #0
	.pool
`
	var refCycles uint64
	var refEvents []armv6m.TimerEvent
	for i, path := range []string{"oracle", "legacy", "fast"} {
		cpu := bootWithISR(t, main, 37)
		cpu.DisablePredecode = path == "legacy"
		tmr := cpu.EnableTimer()
		run := cpu.Run
		if path == "oracle" {
			run = func(n uint64) error { return armv6m.OracleRun(cpu, n) }
		}
		if err := run(1_000_000); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if cpu.SysTick.Fires == 0 {
			t.Fatal("SysTick never fired")
		}
		if i == 0 {
			refCycles = cpu.Cycles
			refEvents = append([]armv6m.TimerEvent(nil), tmr.Events...)
			continue
		}
		if cpu.Cycles != refCycles {
			t.Errorf("%s: %d cycles, oracle %d", path, cpu.Cycles, refCycles)
		}
		if len(tmr.Events) != len(refEvents) {
			t.Fatalf("%s: %d events, oracle %d", path, len(tmr.Events), len(refEvents))
		}
		for j, ev := range tmr.Events {
			if ev != refEvents[j] {
				t.Errorf("%s: event %d: {%d, %d}, oracle {%d, %d}",
					path, j, ev.Marker, ev.Cycles, refEvents[j].Marker, refEvents[j].Cycles)
			}
		}
	}
}

// TestTimerWordOnly: sub-word accesses to the peripheral window fault
// with the oracle's message on both tiers.
func TestTimerWordOnly(t *testing.T) {
	src := timerProg("\tmovs r7, #0x24\n\tldrb r0, [r6, r7]\n")
	var msgs []string
	paths := []string{"oracle", "legacy", "fast"}
	for _, path := range paths {
		cpu, _ := boot(t, src)
		cpu.DisablePredecode = path == "legacy"
		cpu.EnableTimer()
		var err error
		if path == "oracle" {
			err = armv6m.OracleRun(cpu, 1000)
		} else {
			err = cpu.Run(1000)
		}
		if err == nil {
			t.Fatalf("%s: byte read of CNT did not fault", path)
		}
		if !strings.Contains(err.Error(), "word-access only") {
			t.Errorf("%s: fault %q, want word-access-only", path, err)
		}
		msgs = append(msgs, err.Error())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Errorf("fault strings diverge:\noracle: %s\n%s: %s", msgs[0], paths[i], msgs[i])
		}
	}
}

// TestTimerUnmappedWithoutEnable: with no timer attached the window
// stays unmapped and faults exactly as before the peripheral existed.
func TestTimerUnmappedWithoutEnable(t *testing.T) {
	src := timerProg("\tldr r0, [r6, #0x24]\n")
	for _, disable := range []bool{true, false} {
		cpu, _ := boot(t, src)
		cpu.DisablePredecode = disable
		err := cpu.Run(1000)
		if err == nil || !strings.Contains(err.Error(), "unmapped address") {
			t.Errorf("disable=%v: err = %v, want unmapped-address fault", disable, err)
		}
	}
}

// TestTimerUnimplementedRegister: word access to an unbacked offset
// faults rather than reading zeroes.
func TestTimerUnimplementedRegister(t *testing.T) {
	cpu, _ := boot(t, timerProg("\tldr r0, [r6, #0x10]\n"))
	cpu.EnableTimer()
	err := cpu.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "unimplemented timer register") {
		t.Errorf("err = %v, want unimplemented-register fault", err)
	}
}

// TestTimerEventCap: the mailbox drops (and counts) events past
// MaxEvents instead of growing without bound.
func TestTimerEventCap(t *testing.T) {
	src := timerProg(`
	movs r1, #5
fill:
	str r1, [r6, #0x40]
	subs r1, #1
	bne fill
`)
	cpu, _ := boot(t, src)
	tmr := cpu.EnableTimer()
	tmr.MaxEvents = 2
	if err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(tmr.Events) != 2 || tmr.Dropped != 3 {
		t.Errorf("got %d events, %d dropped; want 2 events, 3 dropped", len(tmr.Events), tmr.Dropped)
	}
	if tmr.Events[0].Marker != 5 || tmr.Events[1].Marker != 4 {
		t.Errorf("markers %d,%d, want 5,4", tmr.Events[0].Marker, tmr.Events[1].Marker)
	}
}

// TestTimerReset clears the log between runs without detaching.
func TestTimerReset(t *testing.T) {
	src := timerProg("\tmovs r0, #3\n\tstr r0, [r6, #0x40]\n")
	cpu, _ := boot(t, src)
	tmr := cpu.EnableTimer()
	if err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	first := append([]armv6m.TimerEvent(nil), tmr.Events...)
	tmr.Reset()
	if len(tmr.Events) != 0 {
		t.Fatalf("Reset left %d events", len(tmr.Events))
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	cpu.Cycles, cpu.Instructions = 0, 0
	if err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(tmr.Events) != 1 || tmr.Events[0] != first[0] {
		t.Errorf("rerun events %v, want %v", tmr.Events, first)
	}
}

// TestTimerStepLockstep runs the marker loop in per-Step lockstep on a
// table-driven, an on-demand and an oracle core, with timers attached:
// the full architectural state must match after every single
// instruction, and so must the event logs at the end.
func TestTimerStepLockstep(t *testing.T) {
	src := timerProg(`
	movs r0, #0
	str r0, [r6, #0x40]
	ldr r2, [r6, #0x24]
	movs r1, #9
lk:
	subs r1, #1
	bne lk
	movs r0, #1
	str r0, [r6, #0x40]
`)
	fast, onDemand, oracle := bootTrio(t, src)
	ft, dt, ot := fast.EnableTimer(), onDemand.EnableTimer(), oracle.EnableTimer()
	lockstep(t, oracle, 1000, fast, onDemand)
	for _, got := range []*armv6m.Timer{ft, dt} {
		if len(got.Events) != 2 || len(ot.Events) != 2 {
			t.Fatalf("events: core %d, oracle %d, want 2", len(got.Events), len(ot.Events))
		}
		for i := range got.Events {
			if got.Events[i] != ot.Events[i] {
				t.Errorf("event %d: core {%d, %d}, oracle {%d, %d}", i,
					got.Events[i].Marker, got.Events[i].Cycles, ot.Events[i].Marker, ot.Events[i].Cycles)
			}
		}
	}
}
