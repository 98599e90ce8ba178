package armv6m

// Tracing support: an opt-in, zero-overhead-when-disabled observation
// hook on CPU.Step. When CPU.Trace is nil (the default) the only cost
// per retired instruction is two nil checks; when set, every retired
// instruction is attributed — by PC, by instruction class, and by bus
// region — so that the per-class and per-PC cycle totals sum exactly to
// CPU.Cycles and CPU.Instructions. Exception entries are charged to a
// separate bucket (they retire no instruction); exception-return
// overhead is folded into the returning BX/POP instruction, matching
// how the core itself spends the cycles.

// InstrClass buckets retired instructions for cycle attribution.
type InstrClass int

// Instruction classes. The assignment is a partition: every encoding
// maps to exactly one class, so per-class sums are exact. MULS gets its
// own class because its cost is the configurable CPU.MulCycles; PUSH,
// POP, LDM, and STM count as load/store.
const (
	ClassALU       InstrClass = iota // data processing, moves, extends, hints
	ClassLoadStore                   // single and multiple loads/stores
	ClassBranch                      // B, BL, BX/BLX, PC-writing ADD/MOV
	ClassMul                         // MULS
	NumClasses
)

// String names the class.
func (cl InstrClass) String() string {
	switch cl {
	case ClassALU:
		return "alu"
	case ClassLoadStore:
		return "load-store"
	case ClassBranch:
		return "branch"
	case ClassMul:
		return "mul"
	default:
		return "unknown"
	}
}

// PCSample is the per-address histogram cell.
type PCSample struct {
	Count  uint64 // retired instructions at this PC
	Cycles uint64 // active cycles attributed to this PC (incl. fetch wait states, excl. WFI sleep)
}

// InstrInfo describes one retired instruction, streamed to an OnInstr
// callback (used by `m0run -trace` for execution listings).
type InstrInfo struct {
	Addr   uint32
	Op     uint16 // first halfword (BL's second halfword is at Addr+2)
	Class  InstrClass
	Cycles uint64 // total cost charged for this instruction (incl. Sleep)
	Sleep  uint64 // WFI sleep portion of Cycles (0 for everything else)
	Taken  bool   // branch redirected the PC

	// Bus-counter deltas for this retire (the fetch included), so a
	// consumer can classify the instruction's memory traffic without
	// seeing addresses. Checked execution (internal/cert) validates
	// these against the certified memory classes.
	FlashReads uint64
	SRAMReads  uint64
	SRAMWrites uint64
}

// Trace accumulates per-run attribution counters. Attach with
// CPU.EnableTrace (or set CPU.Trace to NewTrace()) before Run; all
// counters start at zero.
type Trace struct {
	// ClassCycles/ClassInstrs attribute retired instructions by class.
	// Sum(ClassCycles) + ExceptionEntryCycles + SleepCycles == CPU.Cycles
	// and Sum(ClassInstrs) == CPU.Instructions for a trace enabled from
	// reset. Class and per-PC cycles count active execution only: the
	// sleep portion of a WFI is charged to SleepCycles, not to its class,
	// so the active/sleep split feeds energy accounting directly.
	ClassCycles [NumClasses]uint64
	ClassInstrs [NumClasses]uint64

	// SleepCycles is the WFI idle time observed by this trace (the
	// per-run counterpart of CPU.SleepCycles).
	SleepCycles uint64

	// ExceptionEntryCycles is the stacking/vectoring cost of taken
	// exceptions, charged between instructions; ExceptionEntries counts
	// them. Exception-return cycles are folded into the returning
	// instruction's class.
	ExceptionEntryCycles uint64
	ExceptionEntries     uint64

	// Branch outcome counters over ClassBranch instructions.
	BranchTaken, BranchNotTaken uint64

	// Bus-region traffic: access counts per region and the wait-state
	// cycles paid on flash accesses (fetch and data alike).
	FlashAccesses   uint64
	SRAMReads       uint64
	SRAMWrites      uint64
	FlashWaitCycles uint64

	// PCs is the cycle/instruction histogram keyed by instruction
	// address. NewTrace allocates it; a trace whose PCs is nil keeps no
	// histogram (every other counter and OnInstr still run), which is
	// how hook-only consumers such as the host layer segmenter avoid
	// one map cell per straight-line address.
	PCs map[uint32]*PCSample

	// SPMin is the lowest stack-pointer value observed after any retired
	// instruction (including exception stacking, which lowers SP before
	// the handler's first instruction retires). It starts at ^uint32(0);
	// StackPeak converts it to a depth.
	SPMin uint32

	// OnInstr, when set, streams every retired instruction. It runs
	// after the counters above are updated.
	OnInstr func(InstrInfo)
}

// NewTrace returns an empty trace ready to attach to a CPU.
func NewTrace() *Trace {
	return &Trace{PCs: make(map[uint32]*PCSample), SPMin: ^uint32(0)}
}

// StackPeak is the deepest stack usage observed, in bytes below
// initialSP (the reset value of SP). Zero if the stack never grew.
func (t *Trace) StackPeak(initialSP uint32) uint32 {
	if t.SPMin >= initialSP {
		return 0
	}
	return initialSP - t.SPMin
}

// EnableTrace attaches a fresh trace to the CPU and returns it.
func (c *CPU) EnableTrace() *Trace {
	t := NewTrace()
	c.Trace = t
	return t
}

// TotalCycles is the cycle total the trace accounts for; it equals
// CPU.Cycles when the trace was enabled from reset.
func (t *Trace) TotalCycles() uint64 {
	total := t.ExceptionEntryCycles + t.SleepCycles
	for _, c := range t.ClassCycles {
		total += c
	}
	return total
}

// TotalInstructions is the retired-instruction total over all classes.
func (t *Trace) TotalInstructions() uint64 {
	var total uint64
	for _, n := range t.ClassInstrs {
		total += n
	}
	return total
}

// CPI is cycles per retired instruction (0 when nothing retired).
func (t *Trace) CPI() float64 {
	n := t.TotalInstructions()
	if n == 0 {
		return 0
	}
	return float64(t.TotalCycles()) / float64(n)
}

// record attributes one retired instruction. fr/sr/sw are the bus
// counters snapshotted before the fetch, so the deltas cover the fetch
// and all data accesses the instruction made; sleep is the WFI idle
// portion of cycles (zero for everything but a sleeping WFI), kept out
// of the class/PC histograms but included in InstrInfo.Cycles so
// running totals over OnInstr still match CPU.Cycles.
func (t *Trace) record(c *CPU, addr, op uint32, cycles uint64, fr, sr, sw, sleep uint64) {
	if c.R[SP] < t.SPMin {
		t.SPMin = c.R[SP]
	}
	cl := classifyOp(op)
	t.ClassCycles[cl] += cycles - sleep
	t.SleepCycles += sleep
	t.ClassInstrs[cl]++
	taken := false
	if cl == ClassBranch {
		// A taken branch left the PC off the fall-through address. BL is
		// the only 32-bit encoding, so the width is known from op. (A
		// branch targeting its own fall-through would read as not taken;
		// no real code does that, and cycle attribution is unaffected.)
		width := uint32(2)
		if op>>11 == 0b11110 {
			width = 4
		}
		if c.R[PC] != addr+width {
			taken = true
			t.BranchTaken++
		} else {
			t.BranchNotTaken++
		}
	}
	flash := c.Bus.FlashReads - fr
	sramR := c.Bus.SRAMReads - sr
	sramW := c.Bus.SRAMWrites - sw
	t.FlashAccesses += flash
	t.SRAMReads += sramR
	t.SRAMWrites += sramW
	t.FlashWaitCycles += flash * uint64(c.Bus.FlashWaitStates)
	if t.PCs != nil {
		s := t.PCs[addr]
		if s == nil {
			s = &PCSample{}
			t.PCs[addr] = s
		}
		s.Count++
		s.Cycles += cycles - sleep
	}
	if t.OnInstr != nil {
		t.OnInstr(InstrInfo{
			Addr: addr, Op: uint16(op), Class: cl,
			Cycles: cycles, Sleep: sleep, Taken: taken,
			FlashReads: flash, SRAMReads: sramR, SRAMWrites: sramW,
		})
	}
}

// classifyOp maps a first halfword to its instruction class. It agrees
// with the class Decode's kind implies on every halfword the core
// executes (TestDecodeAgreesWithEmulator).
func classifyOp(op uint32) InstrClass {
	switch op >> 11 {
	case 0b01001, // LDR literal
		0b01010, 0b01011, // load/store register offset
		0b01100, 0b01101, 0b01110, 0b01111, // load/store word/byte imm
		0b10000, 0b10001, // load/store halfword imm
		0b10010, 0b10011, // load/store SP-relative
		0b11000, 0b11001: // STM/LDM
		return ClassLoadStore
	case 0b11010, 0b11011, 0b11100, 0b11110: // B<cond>, B, BL
		return ClassBranch
	case 0b01000:
		if op&(1<<10) == 0 { // data-processing register
			if (op>>6)&0xf == 0b1101 {
				return ClassMul
			}
			return ClassALU
		}
		switch (op >> 8) & 3 {
		case 0b11: // BX/BLX
			return ClassBranch
		case 0b00, 0b10: // hi-reg ADD/MOV: a branch when Rd is the PC
			if op&0x87 == 0x87 {
				return ClassBranch
			}
		}
		return ClassALU
	case 0b10110, 0b10111: // miscellaneous 1011 xxxx
		if op>>9 == 0b1011_010 || op>>9 == 0b1011_110 { // PUSH/POP
			return ClassLoadStore
		}
		return ClassALU
	default:
		return ClassALU
	}
}
