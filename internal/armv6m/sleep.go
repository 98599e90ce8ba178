package armv6m

import "errors"

// WFI sleep: the one hint encoding with architectural behavior in this
// emulator. Executing WFI with no wake event pending idles the core
// until the next SysTick fire; the idle cycles accumulate in
// CPU.SleepCycles (and Trace.SleepCycles when traced) while still
// advancing CPU.Cycles, because the paper's duty-cycled sensor loop is
// measured in wall-clock time with the core drawing sleep current.
//
// Semantics, identical on every execution path:
//
//   - A pending interrupt is a wake event: WFI retires as a 1-cycle NOP
//     (even under PRIMASK — waking does not require dispatching).
//   - Otherwise the core sleeps until the SysTick counter expires. WFI
//     retires as one instruction whose cost is 1 cycle of execution plus
//     the remaining SysTick period of sleep; the fire is observed at
//     retire exactly as if the cycles had been spent executing, so the
//     exception dispatches before the next instruction.
//   - With SysTick disarmed and nothing pending there is no wake source:
//     the run fails loudly (ErrNoWakeSource) instead of emulating an
//     infinite sleep instruction by instruction until the budget runs
//     out.
//
// Programs that never execute WFI are unaffected: no path below runs,
// and every counter this file touches stays zero.

// OpWFI is the Thumb encoding of WFI (hint group 0b1011_1111).
const OpWFI = 0xbf30

// ErrNoWakeSource is returned (wrapped with the faulting PC) when WFI
// executes with SysTick disarmed and no interrupt pending: the core
// would sleep forever.
var ErrNoWakeSource = errors.New("WFI with SysTick disarmed and no interrupt pending: no wake source")

// wfi executes the WFI instruction: it returns the instruction's total
// cycle cost (1 execute cycle plus any sleep) and accumulates the sleep
// portion in SleepCycles. The caller charges the returned cost and runs
// the SysTick tick over it, which is what makes the timer fire exactly
// at wake-up on every execution path.
func (c *CPU) wfi() (int, error) {
	if c.pendingIRQ {
		return 1, nil
	}
	if c.SysTick.Reload <= 0 {
		return 0, ErrNoWakeSource
	}
	// The WFI's own execute cycle consumes one tick of the period; the
	// remainder is slept. tick(1+sleep) then lands the counter exactly
	// on zero, so the fire is observed at the WFI's retire.
	var sleep uint64
	if c.SysTick.counter > 1 {
		sleep = uint64(c.SysTick.counter - 1)
	}
	c.SleepCycles += sleep
	return 1 + int(sleep), nil
}
