package armv6m_test

import (
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// bootWithISR assembles a program with a SysTick handler installed in
// vector slot 15 and arms the timer.
func bootWithISR(t testing.TB, src string, period int64) *armv6m.CPU {
	t.Helper()
	full := `
	main:
	` + src + `
	handler:
		push {r4, lr}
		ldr r4, =0x20003ffc     @ ISR hit counter in high SRAM
		ldr r0, [r4]
		adds r0, #1
		str r0, [r4]
		@ clobber flags deliberately: the interrupted code must not see it
		movs r0, #0
		cmp r0, #0
		pop {r4, pc}
		.pool
	`
	prog, err := thumb.Assemble(full, codeBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cpu := armv6m.New()
	vec := make([]byte, 64)
	put32 := func(off int, v uint32) {
		vec[off] = byte(v)
		vec[off+1] = byte(v >> 8)
		vec[off+2] = byte(v >> 16)
		vec[off+3] = byte(v >> 24)
	}
	put32(0, armv6m.SRAMBase+armv6m.SRAMSize-64) // keep the counter word free
	put32(4, prog.Base|1)
	handler, err := prog.Symbol("handler")
	if err != nil {
		t.Fatal(err)
	}
	put32(4*armv6m.SysTickVector, handler|1)
	if err := cpu.Bus.LoadFlash(0, vec); err != nil {
		t.Fatalf("load vectors: %v", err)
	}
	if err := cpu.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatalf("load code: %v", err)
	}
	cpu.SysTick.Configure(period)
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	return cpu
}

// countdownLoop is a flag-sensitive main program: an interrupt between
// subs and bne that corrupted flags would break the loop count.
const countdownLoop = `
	ldr r2, =100000
	movs r1, #0
loop:
	adds r1, #1
	subs r2, #1
	bne loop
	bkpt #0
`

func TestSysTickPreemptionPreservesState(t *testing.T) {
	cpu := bootWithISR(t, countdownLoop, 97) // fire mid-loop constantly
	if err := cpu.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if cpu.R[1] != 100000 {
		t.Errorf("loop count = %d, want 100000 (state corrupted by ISR)", cpu.R[1])
	}
	if cpu.SysTick.Fires == 0 {
		t.Fatal("SysTick never fired")
	}
	// ISR hit counter in SRAM matches Fires.
	v, err := cpu.Bus.Read32(armv6m.SRAMBase + armv6m.SRAMSize - 4)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(v) != cpu.SysTick.Fires {
		t.Errorf("ISR ran %d times, %d fires recorded", v, cpu.SysTick.Fires)
	}
}

func TestSysTickDisabledNeverFires(t *testing.T) {
	cpu := bootWithISR(t, countdownLoop, 0)
	if err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if cpu.SysTick.Fires != 0 {
		t.Errorf("fires = %d with disabled timer", cpu.SysTick.Fires)
	}
}

func TestSysTickCycleOverhead(t *testing.T) {
	base := bootWithISR(t, countdownLoop, 0)
	if err := base.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	loaded := bootWithISR(t, countdownLoop, 500)
	if err := loaded.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if loaded.Cycles <= base.Cycles {
		t.Fatal("interrupt load did not increase cycles")
	}
	// Overhead per fire: 16 entry + 16 exit + handler body (~25 cycles).
	perFire := float64(loaded.Cycles-base.Cycles) / float64(loaded.SysTick.Fires)
	if perFire < 30 || perFire > 80 {
		t.Errorf("overhead per fire = %.1f cycles, expected 30-80", perFire)
	}
}

func TestExcReturnOutsideHandlerFaults(t *testing.T) {
	cpu, _ := boot(t, `
		ldr r0, =0xfffffff9
		bx r0
		bkpt #0
	`)
	if err := cpu.Run(100); err == nil {
		t.Fatal("EXC_RETURN outside a handler should fault")
	}
}

func TestSysTickWithoutVectorFaults(t *testing.T) {
	// Arm the timer on an image whose slot 15 is empty.
	cpu, _ := boot(t, countdownLoop)
	cpu.SysTick.Configure(50)
	err := cpu.Run(10_000_000)
	if err == nil {
		t.Fatal("missing vector should fault when SysTick fires")
	}
}
