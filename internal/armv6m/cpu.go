package armv6m

import (
	"errors"
	"fmt"
)

// Register indices in CPU.R.
const (
	SP = 13
	LR = 14
	PC = 15
)

// ErrHalted is returned by Run when the core executes a BKPT
// instruction, the conventional "measurement done" stop in this
// repository's kernels.
var ErrHalted = errors.New("armv6m: core halted (BKPT)")

// Profile captures the microarchitectural cycle parameters that differ
// between ARMv6-M cores.
type Profile struct {
	Name string
	// PipelineRefill is the extra cost of a taken branch (pipeline
	// depth minus one): 2 on the 3-stage Cortex-M0, 1 on the 2-stage
	// Cortex-M0+.
	PipelineRefill int
	// ExceptionEntry/Exit are the interrupt latencies.
	ExceptionEntry, ExceptionExit int
}

// Core profiles.
var (
	ProfileM0     = Profile{Name: "cortex-m0", PipelineRefill: 2, ExceptionEntry: 16, ExceptionExit: 16}
	ProfileM0Plus = Profile{Name: "cortex-m0plus", PipelineRefill: 1, ExceptionEntry: 15, ExceptionExit: 15}
)

// CPU is an ARMv6-M core attached to a Bus.
type CPU struct {
	R   [16]uint32 // R0-R12, SP, LR, PC
	N   bool       // negative flag
	Z   bool       // zero flag
	C   bool       // carry flag
	V   bool       // overflow flag
	Bus *Bus

	// Cycles is the running cycle count following the Cortex-M0 TRM
	// model (see package comment).
	Cycles uint64
	// Instructions counts retired instructions.
	Instructions uint64

	// SleepCycles counts the cycles spent idling in WFI sleep, waiting
	// for the next SysTick fire. They are included in Cycles — wall-clock
	// time keeps advancing while the core sleeps — but are charged to no
	// instruction class, so energy accounting can price them at the sleep
	// operating point instead of the active one. Zero unless the program
	// executes WFI (see sleep.go).
	SleepCycles uint64

	// MulCycles is the cost of MULS. The Cortex-M0 multiplier is
	// configurable at silicon-integration time as 1 cycle (fast) or 32
	// cycles (iterative); the STM32F0 uses the fast option, so 1 is the
	// default. Exposed for the ablation bench.
	MulCycles int

	// Profile selects the core's pipeline cycle parameters (default
	// ProfileM0, the paper's target).
	Profile Profile

	// Halted is set after BKPT.
	Halted bool
	// HaltCode is the BKPT immediate.
	HaltCode uint8

	// SysTick is the optional periodic interrupt source; configure it
	// with SysTick.Configure before Run.
	SysTick SysTick
	// inHandler is true while a (non-nested) exception is active.
	inHandler bool
	// pendingIRQ marks a SysTick fire awaiting dispatch.
	pendingIRQ bool
	// PriMask, when set (CPSID i), defers interrupt dispatch; pending
	// interrupts are taken once CPSIE i clears it.
	PriMask bool

	// Trace, when non-nil, attributes every retired instruction (see
	// trace.go). Nil — the default — costs Step two nil checks and
	// lets Run take the predecoded loop.
	Trace *Trace

	// ptab is the predecoded execution table (see predecode.go), built
	// lazily on first Step or attached via UsePredecode; ptabGen is the
	// Bus.flashGen it was built against, so LoadFlash invalidates it.
	ptab    *PredecodeTable
	ptabGen uint32
	// DisablePredecode runs the core with no table: every fetch reads
	// the halfword through the bus and decodes it on demand, through the
	// same handlers (the legacy tier). The differential tests require
	// bit-identical state against a table-driven core.
	DisablePredecode bool
	// dec holds the entry of the last instruction decoded on demand
	// (see fetch).
	dec pentry

	// ttab is the certificate-derived loop table (see translate.go),
	// attached via UseTranslation; ttabGen is the Bus.flashGen it was
	// built against. Unlike the predecode table it is never rebuilt
	// lazily — a stale generation simply runs without its loops.
	ttab    *TranslationTable
	ttabGen uint32
	// DisableTranslation keeps Run off the certified-loop fast path
	// even when a translation table is attached; the differential tests
	// pin the fast path against it.
	DisableTranslation bool
	// marks receives the translation table's marks on untraced runs
	// (RecordMarks).
	marks *MarkRecorder

	// Pads CPU to whole 64-byte cache lines (TestHotStructsFillLines).
	// A farm worker writes its core's fields on nearly every emulated
	// instruction, and the allocator may place a core next to tables
	// every worker reads (a loop table's arrays share its size class);
	// a shared line would cost the readers a cache miss per access.
	_ [48]byte
}

// New returns a CPU wired to a fresh STM32F072-like bus with the
// single-cycle multiplier.
func New() *CPU {
	return &CPU{Bus: NewBus(), MulCycles: 1, Profile: ProfileM0}
}

// NewSharedFlash returns a CPU wired to a bus that aliases the given
// immutable flash array (see NewBusSharedFlash). All boot state is
// reconstructed from flash on Reset — the vector table provides SP and
// PC — so any number of boards cloned from the same image boot to
// bit-identical architectural state with only the private SRAM and
// counters distinguishing them.
func NewSharedFlash(flash []byte) *CPU {
	return &CPU{Bus: NewBusSharedFlash(flash), MulCycles: 1, Profile: ProfileM0}
}

// Reset performs an architectural reset: SP is loaded from the vector
// table at flash offset 0, PC from offset 4 (with the Thumb bit
// cleared), LR is set to a recognizable dead value, and flags clear.
func (c *CPU) Reset() error {
	sp, err := c.Bus.Read32(c.Bus.FlashBase)
	if err != nil {
		return fmt.Errorf("reset: initial SP: %w", err)
	}
	pc, err := c.Bus.Read32(c.Bus.FlashBase + 4)
	if err != nil {
		return fmt.Errorf("reset: initial PC: %w", err)
	}
	for i := range c.R {
		c.R[i] = 0
	}
	c.R[SP] = sp
	c.R[PC] = pc &^ 1
	c.R[LR] = 0xffff_ffff
	c.N, c.Z, c.C, c.V = false, false, false, false
	c.Halted = false
	c.inHandler = false
	c.pendingIRQ = false
	c.PriMask = false
	c.SysTick.counter = c.SysTick.Reload
	return nil
}

// PCReadValue is the value the PC reads as inside an instruction:
// current instruction address + 4 (Thumb pipeline semantics).
func (c *CPU) PCReadValue() uint32 { return c.R[PC] + 4 }

// reg reads register n with PC pipeline semantics.
func (c *CPU) reg(n int) uint32 {
	if n == PC {
		return c.PCReadValue()
	}
	return c.R[n]
}

// setNZ updates N and Z from v.
func (c *CPU) setNZ(v uint32) {
	c.N = v&0x8000_0000 != 0
	c.Z = v == 0
}

// addWithCarry is the ARM AddWithCarry pseudo-function; it returns the
// result and the carry/overflow outputs.
func addWithCarry(a, b uint32, carryIn bool) (res uint32, carry, overflow bool) {
	var ci uint64
	if carryIn {
		ci = 1
	}
	usum := uint64(a) + uint64(b) + ci
	ssum := int64(int32(a)) + int64(int32(b)) + int64(ci)
	res = uint32(usum)
	carry = usum != uint64(res)
	overflow = ssum != int64(int32(res))
	return
}

// condPassed evaluates ARM condition code cond against the flags.
func (c *CPU) condPassed(cond uint32) bool {
	switch cond {
	case 0x0: // EQ
		return c.Z
	case 0x1: // NE
		return !c.Z
	case 0x2: // CS/HS
		return c.C
	case 0x3: // CC/LO
		return !c.C
	case 0x4: // MI
		return c.N
	case 0x5: // PL
		return !c.N
	case 0x6: // VS
		return c.V
	case 0x7: // VC
		return !c.V
	case 0x8: // HI
		return c.C && !c.Z
	case 0x9: // LS
		return !c.C || c.Z
	case 0xa: // GE
		return c.N == c.V
	case 0xb: // LT
		return c.N != c.V
	case 0xc: // GT
		return !c.Z && c.N == c.V
	case 0xd: // LE
		return c.Z || c.N != c.V
	default: // AL
		return true
	}
}

// Step executes a single instruction, updating cycle and instruction
// counters. It returns ErrHalted after BKPT and bus faults as errors.
// The instruction runs through its decoded entry's handler (see fetch);
// with no trace attached the attribution costs two nil checks.
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	if c.pendingIRQ && !c.inHandler && !c.PriMask {
		c.pendingIRQ = false
		c.SysTick.Fires++
		entryStart := c.Cycles
		if err := c.takeException(SysTickVector); err != nil {
			return err
		}
		if c.Trace != nil {
			c.Trace.ExceptionEntries++
			c.Trace.ExceptionEntryCycles += c.Cycles - entryStart
		}
	}
	instrAddr := c.R[PC]
	// Counter snapshots for attribution: c.Cycles - instrStart covers
	// the fetch wait states, the execution cost, and any exception-
	// return overhead charged inside the handler.
	var instrStart, flashBefore, sramRBefore, sramWBefore, sleepBefore uint64
	if c.Trace != nil {
		instrStart, sleepBefore = c.Cycles, c.SleepCycles
		flashBefore, sramRBefore, sramWBefore = c.Bus.FlashReads, c.Bus.SRAMReads, c.Bus.SRAMWrites
	}
	e, err := c.fetch(instrAddr)
	if err != nil {
		return fmt.Errorf("fetch at 0x%08x: %w", instrAddr, err)
	}
	cycles, err := e.fn(c, e)
	if err != nil {
		return fmt.Errorf("at 0x%08x (op 0x%04x): %w", instrAddr, e.op, err)
	}
	c.Cycles += uint64(cycles)
	c.Instructions++
	if t := c.Bus.Timer; t != nil && t.pending() {
		t.commit(c.Cycles)
	}
	if c.Trace != nil {
		c.Trace.record(c, instrAddr, uint32(e.op), c.Cycles-instrStart, flashBefore, sramRBefore, sramWBefore, c.SleepCycles-sleepBefore)
	}
	if c.SysTick.tick(int64(cycles)) {
		c.pendingIRQ = true
	}
	if c.Halted {
		return ErrHalted
	}
	return nil
}

// BudgetError is returned by Run when the instruction budget is
// exhausted before the core halts: the run was cut short and any
// observed state is partial. Callers should treat it as a hard failure
// (m0run exits non-zero on it) rather than report the truncated counts.
type BudgetError struct {
	Instructions uint64 // the exhausted budget
	PC           uint32 // where execution was abandoned
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("armv6m: instruction budget exhausted: no halt after %d instructions (pc=0x%08x)",
		e.Instructions, e.PC)
}

// Run executes instructions until the core halts via BKPT (returning
// nil), faults (returning the fault), or maxInstructions retire without
// halting (returning a *BudgetError, to catch runaway kernels). With no
// trace attached it runs the predecoded steady-state loop
// (runPredecoded), with the certified loops of an attached translation
// table; the Step-per-instruction path below is semantically identical
// and runs traced and predecode-disabled runs.
func (c *CPU) Run(maxInstructions uint64) error {
	if c.Trace == nil && !c.DisablePredecode {
		return c.runPredecoded(maxInstructions)
	}
	for i := uint64(0); i < maxInstructions; i++ {
		err := c.Step()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrHalted) {
			return nil
		}
		return err
	}
	return &BudgetError{Instructions: maxInstructions, PC: c.R[PC]}
}

// dataAccessCycles is the base cost of a single load/store plus wait
// states for the accessed address.
func (c *CPU) dataAccessCycles(addr uint32) int {
	return 2 + c.Bus.accessCycles(addr)
}
