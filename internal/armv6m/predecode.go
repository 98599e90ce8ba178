package armv6m

import (
	"fmt"
	"time"
)

// The emulator's one instruction semantics: every halfword decodes
// (predecode1) into an entry carrying the operand fields extracted from
// the encoding plus a direct handler, and every retired instruction runs
// through its entry's handler. The flash image is decoded once into a
// dense table indexed by (PC - FlashBase) >> 1, so the steady-state Step
// is `e := &table[idx]; e.fn(c, e)` — no bus fetch, no decode switch. A
// PC the table does not cover is fetched through the bus and decoded on
// demand into a per-CPU entry (CPU.fetch). The contract, enforced by the
// differential and fuzz tests against the fetch/decode interpreter kept
// as a test oracle (oracle_test.go), is bit-identical architectural
// state, Cycles, Instructions, bus counters and error text:
//
//   - A table fetch is not performed (flash is immutable while
//     executing) but is still accounted: FlashReads increments once per
//     retire, and the fetch wait states are charged from the live
//     Bus.FlashWaitStates, so wait-state ablations and trace attribution
//     see identical numbers. BL reads its second halfword through the
//     bus when it executes, so that read is counted against whatever
//     region holds it.
//   - Cycle costs that depend on per-core configuration (PipelineRefill,
//     MulCycles, wait states) are read from the CPU at execution time,
//     never baked into the table, so one table serves heterogeneous
//     board configurations.
//   - Every halfword offset gets its own independently decoded entry
//     (a PC landing mid-BL sees exactly what a fetch there would), and
//     every encoding the core rejects — UDF, SVC, empty register lists,
//     unknown halfwords, a BL without a BL second halfword — decodes to
//     a fault entry (kind kFault, handler phFault) that reports the
//     fault with the oracle's text and bus accounting.
//   - The table is built over the LoadFlash high-water prefix and is
//     invalidated by generation counter when LoadFlash mutates flash;
//     PCs outside the prefix (SRAM, the flash boot alias at 0, flash
//     beyond the loaded bytes) are decoded on demand, as is every PC of
//     a core with DisablePredecode set.
//
// The table is immutable after construction and safe to share across
// any number of cores concurrently (the board farm builds one per
// image); see CPU.UsePredecode.

// phandler executes one predecoded instruction. On entry c.R[PC] holds
// the instruction address; the handler advances it (e.next) or
// redirects it, exactly as exec does, and returns the instruction's
// cycle cost.
type phandler func(c *CPU, e *pentry) (int, error)

// pentry is one predecoded halfword.
type pentry struct {
	fn   phandler
	next uint32 // fall-through PC (address + size)
	tgt  uint32 // branch target / literal address / materialized constant
	imm  uint32 // pre-scaled immediate / shift amount / link value
	list uint32 // PUSH/POP/LDM/STM register list (LR/PC bits widened)
	op   uint16 // original first halfword, for error/trace parity
	rd   uint8
	rn   uint8
	rm   uint8
	cond uint8
	n    uint8 // register-list popcount
	kind uint8 // inline-dispatch class for runPredecoded's switch
}

// Inline-dispatch kinds: the encodings hot in generated kernels (ALU
// loop bodies, byte/word loads of weights and activations, the loop
// branches) execute inline in runPredecoded's switch instead of through
// the indirect handler call. kind is purely an optimization class — the
// handler in fn implements identical semantics and remains the fallback
// for every case the inline body cannot take (non-SRAM/flash addresses,
// faults, PC-relative register operands), so Step and the armed loop
// stay handler-only and bit-identical. kFault marks the entries whose
// handler only reports a fault; they dispatch through fn like kGeneric.
const (
	kGeneric uint8 = iota // dispatch through e.fn
	kMovsImm8
	kCmpImm8
	kAddsImm8
	kSubsImm8
	kAddsReg
	kSubsReg
	kAddsImm3
	kSubsImm3
	kMuls
	kAnds
	kEors
	kOrrs
	kBics
	kMvns
	kCmpReg
	kLslsImm // imm 1..31 only; imm 0 (MOVS) stays generic
	kLsrsImm
	kAsrsImm
	kLslsReg
	kLsrsReg
	kAsrsReg
	kMovHi // rd and rm both below PC
	kSxth
	kSxtb
	kUxth
	kUxtb
	kB
	kBCond
	kLdrLit
	kLdrImm
	kStrImm
	kLdrbImm
	kStrbImm
	kLdrhImm
	kStrhImm
	kLdrReg
	kStrReg
	kLdrbReg
	kStrbReg
	kLdrsbReg
	kLoop  // a certified loop head; only in a TranslationTable's entries (translate.go)
	kMark  // a watched address; only in a TranslationTable's entries (translate.go)
	kFault // an encoding the core rejects: phFault reports it
)

// PredecodeTable is a decode-once execution cache for one flash image.
// It is immutable after Predecode returns and may be shared by any
// number of CPUs whose buses alias the same flash content.
type PredecodeTable struct {
	base    uint32
	entries []pentry
	build   time.Duration
}

// Len is the number of predecoded halfword slots.
func (t *PredecodeTable) Len() int { return len(t.entries) }

// BuildTime is the host time spent decoding the image.
func (t *PredecodeTable) BuildTime() time.Duration { return t.build }

// Predecode decodes a flash array into an execution table. limit bounds
// the decoded prefix in bytes (<= 0 or beyond the array decodes all of
// it); execution past the prefix decodes each fetch on demand, with
// identical semantics. The flash content must not change while any
// CPU uses the table — LoadFlash on a private bus invalidates the
// CPU-attached table automatically, and shared-flash buses reject
// LoadFlash outright.
func Predecode(flash []byte, limit int) *PredecodeTable {
	start := time.Now() //neurolint:allow nondet (host-side predecode build timing; never feeds emulated state)
	if limit <= 0 || limit > len(flash) {
		limit = len(flash)
	}
	t := &PredecodeTable{base: FlashBase, entries: make([]pentry, limit/2)}
	for i := range t.entries {
		op := uint32(flash[2*i]) | uint32(flash[2*i+1])<<8
		var lo uint32
		loOK := 2*i+3 < len(flash)
		if loOK {
			lo = uint32(flash[2*i+2]) | uint32(flash[2*i+3])<<8
		}
		predecode1(&t.entries[i], FlashBase+uint32(2*i), op, lo, loOK)
	}
	t.build = time.Since(start) //neurolint:allow nondet (host-side predecode build timing; never feeds emulated state)
	return t
}

// UsePredecode attaches a shared table built by Predecode from the
// same flash content this CPU's bus aliases. The attached table is used
// until flash mutates (LoadFlash), after which the CPU rebuilds a
// private one lazily.
func (c *CPU) UsePredecode(t *PredecodeTable) {
	c.ptab = t
	c.ptabGen = c.Bus.flashGen
}

// PredecodeNow builds (or rebuilds) this CPU's private table from the
// current flash content and returns it, so callers can account the
// build cost eagerly instead of on the first Step.
func (c *CPU) PredecodeNow() *PredecodeTable {
	return c.buildPredecode()
}

func (c *CPU) buildPredecode() *PredecodeTable {
	t := Predecode(c.Bus.Flash, c.Bus.loadedLen)
	c.ptab = t
	c.ptabGen = c.Bus.flashGen
	return t
}

// fetch returns the entry for the instruction at addr with its fetch
// accounted: the table's entry when addr is in the predecoded prefix
// (lazily (re)building the table), otherwise the fetched halfword
// decoded on demand into c.dec, which the next fetch overwrites. A
// fetch that faults (an unmapped or misaligned PC) returns the bus
// error.
func (c *CPU) fetch(addr uint32) (*pentry, error) {
	if !c.DisablePredecode {
		t := c.ptab
		if t == nil || c.ptabGen != c.Bus.flashGen {
			t = c.buildPredecode()
		}
		off := addr - t.base
		// The shift would alias an odd PC onto the even entry below it;
		// a misaligned PC must fault through the bus fetch instead.
		if idx := off >> 1; idx < uint32(len(t.entries)) && off&1 == 0 {
			c.Bus.FlashReads++
			c.Cycles += uint64(c.Bus.FlashWaitStates)
			return &t.entries[idx], nil
		}
	}
	op, err := c.Bus.Read16(addr)
	if err != nil {
		return nil, err
	}
	c.Cycles += uint64(c.Bus.accessCycles(addr))
	// A BL's second halfword is looked at without counting the read:
	// phBL (or the fault entry) reads it through the bus when it runs.
	var lo uint32
	var loOK bool
	if op>>11 == 0b11110 {
		lo, loOK = c.Bus.peek16(addr + 2)
	}
	predecode1(&c.dec, addr, op, lo, loOK)
	return &c.dec, nil
}

// runPredecoded is Run's steady-state loop: the table resolution,
// trace check, and bus configuration are hoisted out of the
// per-instruction path, leaving `e := &entries[idx]; e.fn(c, e)` plus
// the retire bookkeeping. A PC outside the table (beyond the prefix,
// SRAM, the boot alias) takes one Step, which decodes it on demand, so
// the two paths interleave freely with identical semantics — the
// instruction-for-instruction contract with Run's Step loop is enforced
// by the parity tests. With an attached translation table, a
// certified loop head runs its whole loop in a loop executor.
func (c *CPU) runPredecoded(maxInstructions uint64) error {
	t := c.ptab
	if t == nil || c.ptabGen != c.Bus.flashGen {
		t = c.buildPredecode()
	}
	// With the timer disarmed and nothing pending, no interrupt can
	// arise mid-run (only SysTick.tick sets pendingIRQ, and Configure
	// is a host-side call), so the steady-state loop drops the
	// dispatch-and-tick work entirely.
	if c.SysTick.Reload > 0 || c.pendingIRQ {
		return c.runPredecodedIRQ(maxInstructions, t)
	}
	entries := t.entries
	base := t.base
	// The certified-loop fast path (translate.go): with a table whose
	// loops and marks this core may run, dispatch goes over the table's
	// copy of the entries, where each loop head has the kind kLoop and
	// each mark the kind kMark.
	if tt := c.loopTable(); tt != nil {
		entries = tt.entries
	}
	bus := c.Bus
	ws := uint64(bus.FlashWaitStates)
	// The telemetry peripheral is reachable only through handler
	// delegation (the inline memory fast paths cover SRAM and flash
	// alone), so the hot loop never checks it; the delegate path commits
	// pending mailbox events at retire.
	tmr := bus.Timer
	// Loop invariants: Configure hooks and LoadFlash are host-side calls
	// that cannot run mid-Run, so the cycle-model knobs and the memory
	// map are fixed for the whole loop.
	refill := 1 + c.Profile.PipelineRefill
	mulCyc := c.MulCycles
	dataFlash := 2 + int(ws) // dataAccessCycles for a flash address
	sram := bus.SRAM
	sramBase := bus.SRAMBase
	sramLen := uint32(len(sram))
	flash := bus.Flash
	flashBase := bus.FlashBase
	flashLen := uint32(len(flash))
	// Word/halfword access limits (offset of the last valid start), kept
	// underflow-safe for degenerate region sizes.
	var sramWordLim, sramHalfLim, flashWordLim, flashHalfLim uint32
	if sramLen >= 4 {
		sramWordLim, sramHalfLim = sramLen-3, sramLen-1
	}
	if flashLen >= 4 {
		flashWordLim, flashHalfLim = flashLen-3, flashLen-1
	}
	if sramBase < flashLen {
		// SRAM overlapping the flash boot alias would resolve to the
		// alias on the bus; route every memory fast path to the handler.
		sramLen, sramWordLim, sramHalfLim = 0, 0, 0
	}
	// Cycle, instruction, and memory-traffic counters accumulate in
	// locals and flush at every point the CPU fields become observable
	// (fallback Step, errors, return) — the sums commute, the totals are
	// exact.
	// instr doubles as the fetch count: the fast path performs exactly
	// one accounted fetch per retired instruction (BL's second-halfword
	// read goes through the handler directly). dreads counts the inline
	// flash *data* reads (literals, weights) on top of the fetches.
	var cyc, instr, dreads, sreads, swrites uint64
	// The PC lives in a local for the duration of the loop: inline cases
	// advance it register-to-register, and it syncs with c.R[PC] around
	// every delegated call (handlers and the fallback Step read and
	// write the architectural PC).
	pc := c.R[PC]
	// Likewise the four APSR flags: nearly every inline instruction
	// writes them and the loop branches read them, so they stay in
	// registers and sync around delegated calls.
	fN, fZ, fC, fV := c.N, c.Z, c.C, c.V
	// Only the BKPT handler and the fallback Step can halt the core, so
	// the halt check lives on those paths instead of the hot loop; a
	// core already halted on entry completes immediately, as the Step
	// loop would.
	if c.Halted && maxInstructions > 0 {
		return nil
	}
	var (
		instrAddr uint32
		e         *pentry
		cycles    int
		err       error
	)
	for n := uint64(0); n < maxInstructions; n++ {
		instrAddr = pc
		off := instrAddr - base
		idx := off >> 1
		if off&1 != 0 || idx >= uint32(len(entries)) {
			c.R[PC] = pc
			c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
			c.Cycles += cyc
			c.Instructions += instr
			bus.FlashReads += instr + dreads
			bus.SRAMReads += sreads
			bus.SRAMWrites += swrites
			cyc, instr, dreads, sreads, swrites = 0, 0, 0, 0, 0
			// One Step decodes this instruction on demand.
			err = c.Step()
			pc = c.R[PC]
			fN, fZ, fC, fV = c.N, c.Z, c.C, c.V
			if err == nil {
				if c.Halted {
					goto done
				}
				continue
			}
			if err == ErrHalted {
				return nil
			}
			return err
		}
		e = &entries[idx]
		// The hot kernel encodings execute inline; every case either
		// completes with exactly the handler's semantics or delegates to
		// the handler (default / else branches), so the handler remains
		// the single source of truth for faults and edge addresses.
		switch e.kind {
		case kMovsImm8:
			v := e.imm
			c.R[e.rd] = v
			fN, fZ = v&0x8000_0000 != 0, v == 0
			pc = e.next
			cycles = 1
		case kCmpImm8: // flags of a - b, computed directly
			a, b := c.R[e.rn], e.imm
			res := a - b
			fC = a >= b
			fV = ((a^b)&(a^res))>>31 != 0
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kAddsImm8: // flags of a + b, computed directly
			a, b := c.R[e.rd], e.imm
			res := a + b
			fC = res < a
			fV = (^(a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kSubsImm8: // flags of a - b, computed directly
			a, b := c.R[e.rd], e.imm
			res := a - b
			fC = a >= b
			fV = ((a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kAddsReg: // flags of a + b, computed directly
			a, b := c.R[e.rn], c.R[e.rm]
			res := a + b
			fC = res < a
			fV = (^(a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kSubsReg: // flags of a - b, computed directly
			a, b := c.R[e.rn], c.R[e.rm]
			res := a - b
			fC = a >= b
			fV = ((a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kAddsImm3: // flags of a + b, computed directly
			a, b := c.R[e.rn], e.imm
			res := a + b
			fC = res < a
			fV = (^(a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kSubsImm3: // flags of a - b, computed directly
			a, b := c.R[e.rn], e.imm
			res := a - b
			fC = a >= b
			fV = ((a^b)&(a^res))>>31 != 0
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kMuls:
			res := c.R[e.rd] * c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = mulCyc
		case kAnds:
			res := c.R[e.rd] & c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kEors:
			res := c.R[e.rd] ^ c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kOrrs:
			res := c.R[e.rd] | c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kBics:
			res := c.R[e.rd] &^ c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kMvns:
			res := ^c.R[e.rm]
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kCmpReg: // flags of a - b, computed directly
			a, b := c.R[e.rd], c.R[e.rm]
			res := a - b
			fC = a >= b
			fV = ((a^b)&(a^res))>>31 != 0
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kLslsImm: // imm 1..31 by construction
			val := c.R[e.rm]
			fC = val&(1<<(32-e.imm)) != 0
			res := val << e.imm
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kLsrsImm:
			val := c.R[e.rm]
			fC = val&(1<<(e.imm-1)) != 0
			res := val >> e.imm
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kAsrsImm:
			val := c.R[e.rm]
			fC = val&(1<<(e.imm-1)) != 0
			res := uint32(int32(val) >> e.imm)
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kLslsReg: // shiftReg reads and writes the architectural C
			c.C = fC
			res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftLSL)
			fC = c.C
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kLsrsReg: // shiftReg reads and writes the architectural C
			c.C = fC
			res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftLSR)
			fC = c.C
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kAsrsReg: // shiftReg reads and writes the architectural C
			c.C = fC
			res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftASR)
			fC = c.C
			c.R[e.rd] = res
			fN, fZ = res&0x8000_0000 != 0, res == 0
			pc = e.next
			cycles = 1
		case kMovHi: // rd, rm < PC by construction: no pipeline value
			c.R[e.rd] = c.R[e.rm]
			pc = e.next
			cycles = 1
		case kSxth:
			c.R[e.rd] = uint32(int32(int16(c.R[e.rm])))
			pc = e.next
			cycles = 1
		case kSxtb:
			c.R[e.rd] = uint32(int32(int8(c.R[e.rm])))
			pc = e.next
			cycles = 1
		case kUxth:
			c.R[e.rd] = c.R[e.rm] & 0xffff
			pc = e.next
			cycles = 1
		case kUxtb:
			c.R[e.rd] = c.R[e.rm] & 0xff
			pc = e.next
			cycles = 1
		case kB:
			pc = e.tgt
			cycles = refill
		case kBCond:
			var pass bool
			switch e.cond { // condPassed over the local flags; 0xe/0xf never predecode
			case 0x0: // EQ
				pass = fZ
			case 0x1: // NE
				pass = !fZ
			case 0x2: // CS/HS
				pass = fC
			case 0x3: // CC/LO
				pass = !fC
			case 0x4: // MI
				pass = fN
			case 0x5: // PL
				pass = !fN
			case 0x6: // VS
				pass = fV
			case 0x7: // VC
				pass = !fV
			case 0x8: // HI
				pass = fC && !fZ
			case 0x9: // LS
				pass = !fC || fZ
			case 0xa: // GE
				pass = fN == fV
			case 0xb: // LT
				pass = fN != fV
			case 0xc: // GT
				pass = !fZ && fN == fV
			default: // LE
				pass = fZ || fN != fV
			}
			if pass {
				pc = e.tgt
				cycles = refill
			} else {
				pc = e.next
				cycles = 1
			}
		case kLdrLit: // e.tgt is 4-aligned by construction
			if o := e.tgt - flashBase; o < flashWordLim {
				dreads++
				c.R[e.rd] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
					uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kLdrImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; addr&3 == 0 && o < sramWordLim {
				sreads++
				c.R[e.rd] = uint32(sram[o]) | uint32(sram[o+1])<<8 |
					uint32(sram[o+2])<<16 | uint32(sram[o+3])<<24
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; addr&3 == 0 && o < flashWordLim {
				dreads++ // descriptor and weight-table loads
				c.R[e.rd] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
					uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kStrImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; addr&3 == 0 && o < sramWordLim {
				swrites++
				v := c.R[e.rd]
				sram[o], sram[o+1], sram[o+2], sram[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				pc = e.next
				cycles = 2
			} else {
				goto delegate
			}
		case kLdrbImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; o < sramLen {
				sreads++
				c.R[e.rd] = uint32(sram[o])
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; o < flashLen {
				dreads++
				c.R[e.rd] = uint32(flash[o])
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kStrbImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; o < sramLen {
				swrites++
				sram[o] = byte(c.R[e.rd])
				pc = e.next
				cycles = 2
			} else {
				goto delegate
			}
		case kLdrhImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; addr&1 == 0 && o < sramHalfLim {
				sreads++
				c.R[e.rd] = uint32(sram[o]) | uint32(sram[o+1])<<8
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; addr&1 == 0 && o < flashHalfLim {
				dreads++ // multiplier/bias tables live in flash
				c.R[e.rd] = uint32(flash[o]) | uint32(flash[o+1])<<8
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kStrhImm:
			addr := c.R[e.rn] + e.imm
			if o := addr - sramBase; addr&1 == 0 && o < sramHalfLim {
				swrites++
				v := c.R[e.rd]
				sram[o], sram[o+1] = byte(v), byte(v>>8)
				pc = e.next
				cycles = 2
			} else {
				goto delegate
			}
		case kLdrReg:
			addr := c.R[e.rn] + c.R[e.rm]
			if o := addr - sramBase; addr&3 == 0 && o < sramWordLim {
				sreads++
				c.R[e.rd] = uint32(sram[o]) | uint32(sram[o+1])<<8 |
					uint32(sram[o+2])<<16 | uint32(sram[o+3])<<24
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; addr&3 == 0 && o < flashWordLim {
				dreads++
				c.R[e.rd] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
					uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kStrReg:
			addr := c.R[e.rn] + c.R[e.rm]
			if o := addr - sramBase; addr&3 == 0 && o < sramWordLim {
				swrites++
				v := c.R[e.rd]
				sram[o], sram[o+1], sram[o+2], sram[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				pc = e.next
				cycles = 2
			} else {
				goto delegate
			}
		case kLdrbReg:
			addr := c.R[e.rn] + c.R[e.rm]
			if o := addr - sramBase; o < sramLen {
				sreads++
				c.R[e.rd] = uint32(sram[o])
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; o < flashLen {
				dreads++ // gathers and weight loads read flash
				c.R[e.rd] = uint32(flash[o])
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kStrbReg:
			addr := c.R[e.rn] + c.R[e.rm]
			if o := addr - sramBase; o < sramLen {
				swrites++
				sram[o] = byte(c.R[e.rd])
				pc = e.next
				cycles = 2
			} else {
				goto delegate
			}
		case kLdrsbReg:
			addr := c.R[e.rn] + c.R[e.rm]
			if o := addr - sramBase; o < sramLen {
				sreads++
				c.R[e.rd] = uint32(int32(int8(sram[o])))
				pc = e.next
				cycles = 2
			} else if o := addr - flashBase; o < flashLen {
				dreads++ // signed weight loads read flash
				c.R[e.rd] = uint32(int32(int8(flash[o])))
				pc = e.next
				cycles = dataFlash
			} else {
				goto delegate
			}
		case kLoop:
			// The executor reads the architectural registers and flags
			// and adds its own retires to the counters, which commute
			// with the locals.
			c.R[PC] = pc
			c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
			if k := c.runLoop(e.imm, maxInstructions-n); k != 0 {
				pc = c.R[PC]
				fN, fZ, fC, fV = c.N, c.Z, c.C, c.V
				n += k - 1 // the loop statement counts one more
				continue
			}
			// A pass the budget does not cover, or a deviation at the
			// head before any progress: the head runs through its
			// handler.
			e = c.ttab.loops[e.imm].head
			goto delegate
		case kMark:
			// A watched address (translate.go): when it is the
			// recorder's next mark, record the total before this
			// instruction's fetch; then run the entry the mark replaced.
			if r := c.marks; r != nil && r.Hit < len(r.Before) && c.ttab.marks[r.Hit].addr == pc {
				r.Before[r.Hit] = c.Cycles + cyc
				r.Hit++
			}
			e = &c.ttab.marks[e.imm].e
			goto delegate
		default:
			goto delegate
		}
		cyc += ws + uint64(cycles)
		instr++
		continue

	delegate:
		// Handler delegation. The accumulated cycles plus this fetch's
		// wait states flush to the architectural counter *before* the
		// handler runs, exactly as Step charges them before exec: a
		// handler that observes c.Cycles (the telemetry peripheral's CNT
		// register reads through it) sees the same value on every
		// execution path. The handler's own cycles are charged at retire,
		// and any mailbox store it enqueued commits against the exact
		// retire-time count.
		c.R[PC] = pc
		c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
		c.Cycles += cyc + ws
		cyc = 0
		cycles, err = e.fn(c, e)
		pc = c.R[PC]
		fN, fZ, fC, fV = c.N, c.Z, c.C, c.V
		if err != nil {
			// The failing instruction's fetch was performed and its wait
			// states pre-charged above. The handler left the architectural
			// PC and flags at the fault point.
			c.Instructions += instr
			bus.FlashReads += instr + dreads + 1
			bus.SRAMReads += sreads
			bus.SRAMWrites += swrites
			return fmt.Errorf("at 0x%08x (op 0x%04x): %w", instrAddr, e.op, err)
		}
		c.Cycles += uint64(cycles)
		instr++
		if tmr != nil && tmr.pending() {
			tmr.commit(c.Cycles)
		}
		if c.Halted { // BKPT: retired above, stop
			goto done
		}
	}
done:
	c.R[PC] = pc
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	c.Cycles += cyc
	c.Instructions += instr
	bus.FlashReads += instr + dreads
	bus.SRAMReads += sreads
	bus.SRAMWrites += swrites
	// A halt retired by the final budgeted instruction is a completed
	// run, exactly as the Step loop reports it. (Run(0) never executes
	// and is a BudgetError there even on a halted core.)
	if maxInstructions > 0 && c.Halted {
		return nil
	}
	return &BudgetError{Instructions: maxInstructions, PC: c.R[PC]}
}

// runPredecodedIRQ is runPredecoded with the interrupt machinery live:
// dispatch ahead of each instruction and a timer tick after each
// retire, mirroring Step.
func (c *CPU) runPredecodedIRQ(maxInstructions uint64, t *PredecodeTable) error {
	entries := t.entries
	base := t.base
	bus := c.Bus
	ws := uint64(bus.FlashWaitStates)
	var instr, freads uint64
	for n := uint64(0); n < maxInstructions; n++ {
		if c.Halted {
			break
		}
		if c.pendingIRQ && !c.inHandler && !c.PriMask {
			c.pendingIRQ = false
			c.SysTick.Fires++
			if err := c.takeException(SysTickVector); err != nil {
				c.Instructions += instr
				bus.FlashReads += freads
				return err
			}
		}
		instrAddr := c.R[PC]
		off := instrAddr - base
		idx := int(off >> 1)
		if off&1 != 0 || idx >= len(entries) {
			c.Instructions += instr
			bus.FlashReads += freads
			instr, freads = 0, 0
			err := c.Step()
			if err == nil {
				continue
			}
			if err == ErrHalted {
				return nil
			}
			return err
		}
		e := &entries[idx]
		// The fetch wait states are charged before the handler runs,
		// mirroring Step, so a handler that observes c.Cycles (the
		// telemetry CNT register) sees the same value on every path;
		// mailbox events commit against the exact retire-time count.
		c.Cycles += ws
		cycles, err := e.fn(c, e)
		if err != nil {
			c.Instructions += instr
			bus.FlashReads += freads + 1
			return fmt.Errorf("at 0x%08x (op 0x%04x): %w", instrAddr, e.op, err)
		}
		c.Cycles += uint64(cycles)
		instr++
		freads++
		if tmr := bus.Timer; tmr != nil && tmr.pending() {
			tmr.commit(c.Cycles)
		}
		if c.SysTick.tick(int64(cycles)) {
			c.pendingIRQ = true
		}
	}
	c.Instructions += instr
	bus.FlashReads += freads
	if maxInstructions > 0 && c.Halted {
		return nil
	}
	return &BudgetError{Instructions: maxInstructions, PC: c.R[PC]}
}

// Handler dispatch tables for the register-indexed instruction groups.
var dpHandlers = [16]phandler{
	phAnds, phEors, phLslsReg, phLsrsReg, phAsrsReg, phAdcs, phSbcs, phRorsReg,
	phTst, phRsbs, phCmpReg, phCmn, phOrrs, phMuls, phBics, phMvns,
}

var lsRegHandlers = [8]phandler{
	phStrReg, phStrhReg, phStrbReg, phLdrsbReg, phLdrReg, phLdrhReg, phLdrbReg, phLdrshReg,
}

var extHandlers = [4]phandler{phSxth, phSxtb, phUxth, phUxtb}

// Inline-dispatch kinds for the same groups, index-aligned with the
// handler tables above; kGeneric entries dispatch through the handler.
var dpKinds = [16]uint8{
	kAnds, kEors, kLslsReg, kLsrsReg, kAsrsReg, kGeneric, kGeneric, kGeneric,
	kGeneric, kGeneric, kCmpReg, kGeneric, kOrrs, kMuls, kBics, kMvns,
}

var lsRegKinds = [8]uint8{
	kStrReg, kGeneric, kStrbReg, kLdrsbReg, kLdrReg, kGeneric, kLdrbReg, kGeneric,
}

var extKinds = [4]uint8{kSxth, kSxtb, kUxth, kUxtb}

func popcount16(v uint32) uint8 {
	var n uint8
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Fault codes: the imm of a kFault entry, naming the fault phFault
// reports.
const (
	faultUnknown uint32 = iota // a halfword with no 16-bit encoding
	faultUDF
	faultSVC
	faultRev  // the undefined REV variant 1011 1010 10xx xxxx
	faultMisc // an unimplemented 1011 miscellaneous encoding
	faultPush // PUSH {}
	faultPop  // POP {}
	faultStm  // STMIA Rn!, {}
	faultLdm  // LDMIA Rn!, {}
	faultBL   // a BL first halfword without a BL second halfword
)

// fault makes e a fault entry reporting code.
func (e *pentry) fault(code uint32) {
	e.fn, e.kind, e.imm = phFault, kFault, code
}

// predecode1 decodes the halfword op at addr into *e, overwriting it;
// lo is the next halfword when loOK (only a BL reads it). Every
// halfword gets a handler: an encoding the core rejects becomes a fault
// entry. It writes through e rather than returning the entry so the
// on-demand decode fills the CPU's entry in place.
func predecode1(e *pentry, addr, op, lo uint32, loOK bool) {
	*e = pentry{op: uint16(op), next: addr + 2}
	r3 := func(shift uint) uint8 { return uint8(op >> shift & 7) }

	switch op >> 11 {
	case 0b00000: // LSLS Rd, Rm, #imm5
		e.fn, e.rd, e.rm, e.imm = phLslsImm, r3(0), r3(3), op>>6&0x1f
		if e.imm != 0 { // imm 0 is MOVS Rd, Rm with its C-unchanged case
			e.kind = kLslsImm
		}
	case 0b00001: // LSRS
		e.fn, e.rd, e.rm, e.imm = phLsrsImm, r3(0), r3(3), op>>6&0x1f
		if e.imm != 0 {
			e.kind = kLsrsImm
		}
	case 0b00010: // ASRS
		e.fn, e.rd, e.rm, e.imm = phAsrsImm, r3(0), r3(3), op>>6&0x1f
		if e.imm != 0 {
			e.kind = kAsrsImm
		}
	case 0b00011: // ADDS/SUBS register or imm3
		e.rd, e.rn = r3(0), r3(3)
		sub := op&(1<<9) != 0
		if op&(1<<10) != 0 {
			e.imm = op >> 6 & 7
			if sub {
				e.fn, e.kind = phSubsImm3, kSubsImm3
			} else {
				e.fn, e.kind = phAddsImm3, kAddsImm3
			}
		} else {
			e.rm = r3(6)
			if sub {
				e.fn, e.kind = phSubsReg, kSubsReg
			} else {
				e.fn, e.kind = phAddsReg, kAddsReg
			}
		}
	case 0b00100: // MOVS Rd, #imm8
		e.fn, e.kind, e.rd, e.imm = phMovsImm8, kMovsImm8, r3(8), op&0xff
	case 0b00101: // CMP Rn, #imm8
		e.fn, e.kind, e.rn, e.imm = phCmpImm8, kCmpImm8, r3(8), op&0xff
	case 0b00110: // ADDS Rdn, #imm8
		e.fn, e.kind, e.rd, e.imm = phAddsImm8, kAddsImm8, r3(8), op&0xff
	case 0b00111: // SUBS Rdn, #imm8
		e.fn, e.kind, e.rd, e.imm = phSubsImm8, kSubsImm8, r3(8), op&0xff
	case 0b01000:
		if op&(1<<10) == 0 { // data-processing register
			e.fn, e.kind, e.rd, e.rm = dpHandlers[op>>6&0xf], dpKinds[op>>6&0xf], r3(0), r3(3)
		} else { // hi-register ops and BX/BLX
			rd := uint8(op&7 | op>>4&8)
			rm := uint8(op >> 3 & 0xf)
			e.rd, e.rm = rd, rm
			switch op >> 8 & 3 {
			case 0b00:
				if rd == PC {
					e.fn = phAddHiPC
				} else {
					e.fn = phAddHi
				}
			case 0b01:
				e.fn = phCmpHi
			case 0b10:
				if rd == PC {
					e.fn = phMovHiPC
				} else {
					e.fn = phMovHi
					if rm != PC { // MOV from PC needs the pipeline value
						e.kind = kMovHi
					}
				}
			default:
				if op&(1<<7) != 0 {
					e.fn, e.imm = phBlx, (addr+2)|1
				} else {
					e.fn = phBx
				}
			}
		}
	case 0b01001: // LDR Rd, [PC, #imm8<<2]
		e.fn, e.kind, e.rd = phLdrLit, kLdrLit, r3(8)
		e.tgt = ((addr + 4) &^ 3) + (op&0xff)<<2
	case 0b01010, 0b01011: // load/store register offset
		e.fn, e.kind, e.rd, e.rn, e.rm = lsRegHandlers[op>>9&7], lsRegKinds[op>>9&7], r3(0), r3(3), r3(6)
	case 0b01100: // STR Rd, [Rn, #imm5<<2]
		e.fn, e.kind, e.rd, e.rn, e.imm = phStrImm, kStrImm, r3(0), r3(3), op>>6&0x1f<<2
	case 0b01101: // LDR
		e.fn, e.kind, e.rd, e.rn, e.imm = phLdrImm, kLdrImm, r3(0), r3(3), op>>6&0x1f<<2
	case 0b01110: // STRB
		e.fn, e.kind, e.rd, e.rn, e.imm = phStrbImm, kStrbImm, r3(0), r3(3), op>>6&0x1f
	case 0b01111: // LDRB
		e.fn, e.kind, e.rd, e.rn, e.imm = phLdrbImm, kLdrbImm, r3(0), r3(3), op>>6&0x1f
	case 0b10000: // STRH
		e.fn, e.kind, e.rd, e.rn, e.imm = phStrhImm, kStrhImm, r3(0), r3(3), op>>6&0x1f<<1
	case 0b10001: // LDRH
		e.fn, e.kind, e.rd, e.rn, e.imm = phLdrhImm, kLdrhImm, r3(0), r3(3), op>>6&0x1f<<1
	case 0b10010: // STR Rd, [SP, #imm8<<2]
		e.fn, e.rd, e.imm = phStrSP, r3(8), op&0xff<<2
	case 0b10011: // LDR Rd, [SP, #imm8<<2]
		e.fn, e.rd, e.imm = phLdrSP, r3(8), op&0xff<<2
	case 0b10100: // ADR Rd, label
		e.fn, e.rd = phAdr, r3(8)
		e.tgt = ((addr + 4) &^ 3) + (op&0xff)<<2
	case 0b10101: // ADD Rd, SP, #imm8<<2
		e.fn, e.rd, e.imm = phAddRdSP, r3(8), op&0xff<<2
	case 0b10110, 0b10111: // miscellaneous 1011 xxxx
		predecodeMisc(e, op)
	case 0b11000: // STMIA Rn!, {list}
		if op&0xff == 0 {
			e.fault(faultStm)
			break
		}
		e.fn, e.rn, e.list = phStm, r3(8), op&0xff
		e.n = popcount16(e.list)
	case 0b11001: // LDMIA Rn!, {list}
		if op&0xff == 0 {
			e.fault(faultLdm)
			break
		}
		e.fn, e.rn, e.list = phLdm, r3(8), op&0xff
		e.n = popcount16(e.list)
	case 0b11010, 0b11011: // B<cond>, UDF, SVC
		switch cond := op >> 8 & 0xf; cond {
		case 0xe:
			e.fault(faultUDF)
		case 0xf:
			e.fault(faultSVC)
		default:
			e.fn, e.kind, e.cond = phBCond, kBCond, uint8(cond)
			e.tgt = addr + 4 + signExtend(op&0xff, 8)<<1
		}
	case 0b11100: // B
		e.fn, e.kind = phB, kB
		e.tgt = addr + 4 + signExtend(op&0x7ff, 11)<<1
	case 0b11110: // BL, first halfword
		if loOK && lo>>14 == 0b11 && lo&(1<<12) != 0 {
			s := op >> 10 & 1
			j1 := lo >> 13 & 1
			j2 := lo >> 11 & 1
			i1 := ^(j1 ^ s) & 1
			i2 := ^(j2 ^ s) & 1
			off := signExtend(s<<24|i1<<23|i2<<22|(op&0x3ff)<<12|(lo&0x7ff)<<1, 25)
			e.fn = phBL
			e.next = addr + 4
			e.tgt = addr + 4 + off
			e.imm = (addr + 4) | 1
		} else {
			e.fault(faultBL)
		}
	default: // 0b11101, 0b11111: 32-bit prefixes the core does not implement
		e.fault(faultUnknown)
	}
}

// predecodeMisc fills entries for the 1011 miscellaneous group.
func predecodeMisc(e *pentry, op uint32) {
	switch {
	case op>>8 == 0b1011_0000: // ADD/SUB SP, #imm7<<2
		e.imm = op & 0x7f << 2
		if op&(1<<7) != 0 {
			e.fn = phSubSPImm
		} else {
			e.fn = phAddSPImm
		}
	case op>>8 == 0b1011_0010: // SXTH/SXTB/UXTH/UXTB
		e.fn, e.kind, e.rd, e.rm = extHandlers[op>>6&3], extKinds[op>>6&3], uint8(op&7), uint8(op>>3&7)
	case op>>9 == 0b1011_010: // PUSH {list[, lr]}
		list := op & 0xff
		if op&(1<<8) != 0 {
			list |= 1 << LR
		}
		if list == 0 {
			e.fault(faultPush)
			return
		}
		e.fn, e.list, e.n = phPush, list, popcount16(list)
	case op>>9 == 0b1011_110: // POP {list[, pc]}
		list := op & 0xff
		if op&(1<<8) != 0 {
			list |= 1 << PC
			e.fn = phPopPC
		} else {
			e.fn = phPop
		}
		if list == 0 {
			e.fault(faultPop)
			return
		}
		e.list, e.n = list, popcount16(list)
	case op>>8 == 0b1011_1010: // REV/REV16/REVSH
		switch op >> 6 & 3 {
		case 0:
			e.fn = phRev
		case 1:
			e.fn = phRev16
		case 3:
			e.fn = phRevsh
		default:
			e.fault(faultRev)
			return
		}
		e.rd, e.rm = uint8(op&7), uint8(op>>3&7)
	case op == 0xb672:
		e.fn = phCpsid
	case op == 0xb662:
		e.fn = phCpsie
	case op>>8 == 0b1011_1110: // BKPT #imm8
		e.fn, e.imm = phBkpt, op&0xff
	case op>>8 == 0b1011_1111: // hints
		if op == OpWFI {
			e.fn = phWFI
		} else {
			e.fn = phHint
		}
	default:
		e.fault(faultMisc)
	}
}

// signExtend sign-extends the low bits bits of v to 32 bits.
func signExtend(v uint32, bits uint) uint32 {
	shift := 32 - bits
	return uint32(int32(v<<shift) >> shift)
}

type shiftKind int

const (
	shiftLSL shiftKind = iota
	shiftLSR
	shiftASR
	shiftROR
)

// shiftReg implements register-amount shifts with ARM's >=32 semantics,
// updating the carry flag.
func (c *CPU) shiftReg(v, amountReg uint32, kind shiftKind) uint32 {
	amount := amountReg & 0xff
	if amount == 0 {
		return v // flags C unchanged; N,Z set by caller
	}
	switch kind {
	case shiftLSL:
		switch {
		case amount < 32:
			c.C = v&(1<<(32-amount)) != 0
			return v << amount
		case amount == 32:
			c.C = v&1 != 0
			return 0
		default:
			c.C = false
			return 0
		}
	case shiftLSR:
		switch {
		case amount < 32:
			c.C = v&(1<<(amount-1)) != 0
			return v >> amount
		case amount == 32:
			c.C = v&0x8000_0000 != 0
			return 0
		default:
			c.C = false
			return 0
		}
	case shiftASR:
		if amount >= 32 {
			c.C = v&0x8000_0000 != 0
			return uint32(int32(v) >> 31)
		}
		c.C = v&(1<<(amount-1)) != 0
		return uint32(int32(v) >> amount)
	default: // ROR
		rot := amount & 31
		if rot == 0 {
			c.C = v&0x8000_0000 != 0
			return v
		}
		res := v>>rot | v<<(32-rot)
		c.C = res&0x8000_0000 != 0
		return res
	}
}

// ---- handlers ----
//
// Each handler is one instruction's semantics with operand extraction
// hoisted to decode time. Low-register fields (encodings
// whose registers are r0-r7) index CPU.R directly; hi-register forms go
// through c.reg for PC pipeline semantics. Handlers only advance the PC
// on success, like exec.

func phLslsImm(c *CPU, e *pentry) (int, error) {
	val := c.R[e.rm]
	var res uint32
	if e.imm == 0 { // MOVS Rd, Rm: C unchanged
		res = val
	} else {
		c.C = val&(1<<(32-e.imm)) != 0
		res = val << e.imm
	}
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phLsrsImm(c *CPU, e *pentry) (int, error) {
	val := c.R[e.rm]
	var res uint32
	if e.imm == 0 { // shift by 32
		c.C = val&0x8000_0000 != 0
		res = 0
	} else {
		c.C = val&(1<<(e.imm-1)) != 0
		res = val >> e.imm
	}
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAsrsImm(c *CPU, e *pentry) (int, error) {
	val := c.R[e.rm]
	var res uint32
	if e.imm == 0 { // shift by 32
		c.C = val&0x8000_0000 != 0
		res = uint32(int32(val) >> 31)
	} else {
		c.C = val&(1<<(e.imm-1)) != 0
		res = uint32(int32(val) >> e.imm)
	}
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAddsReg(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rn], c.R[e.rm], false)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phSubsReg(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rn], ^c.R[e.rm], true)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAddsImm3(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rn], e.imm, false)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phSubsImm3(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rn], ^e.imm, true)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phMovsImm8(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = e.imm
	c.setNZ(e.imm)
	c.R[PC] = e.next
	return 1, nil
}

func phCmpImm8(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rn], ^e.imm, true)
	c.C, c.V = carry, over
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAddsImm8(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], e.imm, false)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phSubsImm8(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], ^e.imm, true)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

// Data-processing register group (Rdn in rd, operand in rm).

func phAnds(c *CPU, e *pentry) (int, error) {
	res := c.R[e.rd] & c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phEors(c *CPU, e *pentry) (int, error) {
	res := c.R[e.rd] ^ c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phLslsReg(c *CPU, e *pentry) (int, error) {
	res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftLSL)
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phLsrsReg(c *CPU, e *pentry) (int, error) {
	res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftLSR)
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAsrsReg(c *CPU, e *pentry) (int, error) {
	res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftASR)
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phRorsReg(c *CPU, e *pentry) (int, error) {
	res := c.shiftReg(c.R[e.rd], c.R[e.rm], shiftROR)
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phAdcs(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], c.R[e.rm], c.C)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phSbcs(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], ^c.R[e.rm], c.C)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phTst(c *CPU, e *pentry) (int, error) {
	c.setNZ(c.R[e.rd] & c.R[e.rm])
	c.R[PC] = e.next
	return 1, nil
}

func phRsbs(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(^c.R[e.rm], 0, true)
	c.C, c.V = carry, over
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phCmpReg(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], ^c.R[e.rm], true)
	c.C, c.V = carry, over
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phCmn(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.R[e.rd], c.R[e.rm], false)
	c.C, c.V = carry, over
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phOrrs(c *CPU, e *pentry) (int, error) {
	res := c.R[e.rd] | c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phMuls(c *CPU, e *pentry) (int, error) {
	res := c.R[e.rd] * c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return c.MulCycles, nil
}

func phBics(c *CPU, e *pentry) (int, error) {
	res := c.R[e.rd] &^ c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phMvns(c *CPU, e *pentry) (int, error) {
	res := ^c.R[e.rm]
	c.R[e.rd] = res
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

// Hi-register ops and interworking branches.

func phAddHi(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = c.reg(int(e.rd)) + c.reg(int(e.rm))
	c.R[PC] = e.next
	return 1, nil
}

func phAddHiPC(c *CPU, e *pentry) (int, error) {
	c.R[PC] = (c.reg(PC) + c.reg(int(e.rm))) &^ 1
	return 1 + c.Profile.PipelineRefill, nil
}

func phCmpHi(c *CPU, e *pentry) (int, error) {
	res, carry, over := addWithCarry(c.reg(int(e.rd)), ^c.reg(int(e.rm)), true)
	c.C, c.V = carry, over
	c.setNZ(res)
	c.R[PC] = e.next
	return 1, nil
}

func phMovHi(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = c.reg(int(e.rm))
	c.R[PC] = e.next
	return 1, nil
}

func phMovHiPC(c *CPU, e *pentry) (int, error) {
	c.R[PC] = c.reg(int(e.rm)) &^ 1
	return 1 + c.Profile.PipelineRefill, nil
}

func phBx(c *CPU, e *pentry) (int, error) {
	target := c.reg(int(e.rm))
	if isExcReturn(target) {
		if !c.inHandler {
			return 0, fmt.Errorf("EXC_RETURN outside an exception handler")
		}
		if err := c.exceptionReturn(); err != nil {
			return 0, err
		}
		return 1 + c.Profile.PipelineRefill, nil
	}
	if target&1 == 0 {
		return 0, fmt.Errorf("BX/BLX to ARM state (target 0x%08x has Thumb bit clear)", target)
	}
	c.R[PC] = target &^ 1
	return 1 + c.Profile.PipelineRefill, nil
}

func phBlx(c *CPU, e *pentry) (int, error) {
	target := c.reg(int(e.rm))
	c.R[LR] = e.imm // (addr + 2) | 1
	if target&1 == 0 {
		return 0, fmt.Errorf("BX/BLX to ARM state (target 0x%08x has Thumb bit clear)", target)
	}
	c.R[PC] = target &^ 1
	return 1 + c.Profile.PipelineRefill, nil
}

// Loads and stores.

func phLdrLit(c *CPU, e *pentry) (int, error) {
	v, err := c.Bus.Read32(e.tgt)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(e.tgt), nil
}

func phStrReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	if err := c.Bus.Write32(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrhReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	if err := c.Bus.Write16(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrbReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	if err := c.Bus.Write8(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrsbReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	v, err := c.Bus.Read8(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = signExtend(v, 8)
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	v, err := c.Bus.Read32(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrhReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	v, err := c.Bus.Read16(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrbReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	v, err := c.Bus.Read8(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrshReg(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + c.R[e.rm]
	v, err := c.Bus.Read16(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = signExtend(v, 16)
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	if err := c.Bus.Write32(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	v, err := c.Bus.Read32(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrbImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	if err := c.Bus.Write8(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrbImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	v, err := c.Bus.Read8(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrhImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	if err := c.Bus.Write16(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrhImm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn] + e.imm
	v, err := c.Bus.Read16(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phStrSP(c *CPU, e *pentry) (int, error) {
	addr := c.R[SP] + e.imm
	if err := c.Bus.Write32(addr, c.R[e.rd]); err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

func phLdrSP(c *CPU, e *pentry) (int, error) {
	addr := c.R[SP] + e.imm
	v, err := c.Bus.Read32(addr)
	if err != nil {
		return 0, err
	}
	c.R[e.rd] = v
	c.R[PC] = e.next
	return c.dataAccessCycles(addr), nil
}

// Address generation and SP adjustment.

func phAdr(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = e.tgt
	c.R[PC] = e.next
	return 1, nil
}

func phAddRdSP(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = c.R[SP] + e.imm
	c.R[PC] = e.next
	return 1, nil
}

func phAddSPImm(c *CPU, e *pentry) (int, error) {
	c.R[SP] += e.imm
	c.R[PC] = e.next
	return 1, nil
}

func phSubSPImm(c *CPU, e *pentry) (int, error) {
	c.R[SP] -= e.imm
	c.R[PC] = e.next
	return 1, nil
}

// Extends and byte-reversals.

func phSxth(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = signExtend(c.R[e.rm]&0xffff, 16)
	c.R[PC] = e.next
	return 1, nil
}

func phSxtb(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = signExtend(c.R[e.rm]&0xff, 8)
	c.R[PC] = e.next
	return 1, nil
}

func phUxth(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = c.R[e.rm] & 0xffff
	c.R[PC] = e.next
	return 1, nil
}

func phUxtb(c *CPU, e *pentry) (int, error) {
	c.R[e.rd] = c.R[e.rm] & 0xff
	c.R[PC] = e.next
	return 1, nil
}

func phRev(c *CPU, e *pentry) (int, error) {
	v := c.R[e.rm]
	c.R[e.rd] = v<<24 | v>>24 | (v&0xff00)<<8 | (v>>8)&0xff00
	c.R[PC] = e.next
	return 1, nil
}

func phRev16(c *CPU, e *pentry) (int, error) {
	v := c.R[e.rm]
	c.R[e.rd] = (v&0xff)<<8 | (v>>8)&0xff | (v&0xff0000)<<8 | (v>>8)&0xff0000
	c.R[PC] = e.next
	return 1, nil
}

func phRevsh(c *CPU, e *pentry) (int, error) {
	v := c.R[e.rm]
	c.R[e.rd] = signExtend((v&0xff)<<8|(v>>8)&0xff, 16)
	c.R[PC] = e.next
	return 1, nil
}

// Stack and multiple transfers.

func phPush(c *CPU, e *pentry) (int, error) {
	addr := c.R[SP] - 4*uint32(e.n)
	c.R[SP] = addr
	for i, list := 0, e.list; list != 0; i, list = i+1, list>>1 {
		if list&1 == 0 {
			continue
		}
		if err := c.Bus.Write32(addr, c.R[i]); err != nil {
			return 0, err
		}
		addr += 4
	}
	c.R[PC] = e.next
	return 1 + int(e.n), nil
}

func phPop(c *CPU, e *pentry) (int, error) {
	addr := c.R[SP]
	for i, list := 0, e.list; list != 0; i, list = i+1, list>>1 {
		if list&1 == 0 {
			continue
		}
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[i] = v
		addr += 4
	}
	c.R[SP] = addr
	c.R[PC] = e.next
	return 1 + int(e.n), nil
}

func phPopPC(c *CPU, e *pentry) (int, error) {
	addr := c.R[SP]
	cycles := 1 + int(e.n)
	for i, list := 0, e.list&0x7fff; list != 0; i, list = i+1, list>>1 {
		if list&1 == 0 {
			continue
		}
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[i] = v
		addr += 4
	}
	v, err := c.Bus.Read32(addr)
	if err != nil {
		return 0, err
	}
	addr += 4
	if isExcReturn(v) {
		if !c.inHandler {
			return 0, fmt.Errorf("EXC_RETURN outside an exception handler")
		}
		c.R[SP] = addr // consume the frame popped so far
		if err := c.exceptionReturn(); err != nil {
			return 0, err
		}
		return cycles + 3, nil
	}
	if v&1 == 0 {
		return 0, fmt.Errorf("POP to PC with Thumb bit clear (0x%08x)", v)
	}
	c.R[PC] = v &^ 1
	c.R[SP] = addr
	return cycles + 1 + c.Profile.PipelineRefill, nil // 4+N on the M0
}

func phStm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn]
	for i, list := 0, e.list; list != 0; i, list = i+1, list>>1 {
		if list&1 == 0 {
			continue
		}
		if err := c.Bus.Write32(addr, c.R[i]); err != nil {
			return 0, err
		}
		addr += 4
	}
	c.R[e.rn] = addr // writeback
	c.R[PC] = e.next
	return 1 + int(e.n), nil
}

func phLdm(c *CPU, e *pentry) (int, error) {
	addr := c.R[e.rn]
	for i, list := 0, e.list; list != 0; i, list = i+1, list>>1 {
		if list&1 == 0 {
			continue
		}
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[i] = v
		addr += 4
	}
	if e.list&(1<<e.rn) == 0 {
		c.R[e.rn] = addr // writeback only when Rn not loaded
	}
	c.R[PC] = e.next
	return 1 + int(e.n), nil
}

// System and control flow.

func phCpsid(c *CPU, e *pentry) (int, error) {
	c.PriMask = true
	c.R[PC] = e.next
	return 1, nil
}

func phCpsie(c *CPU, e *pentry) (int, error) {
	c.PriMask = false
	c.R[PC] = e.next
	return 1, nil
}

func phBkpt(c *CPU, e *pentry) (int, error) {
	c.Halted = true
	c.HaltCode = uint8(e.imm)
	c.R[PC] = e.next
	return 1, nil
}

func phHint(c *CPU, e *pentry) (int, error) {
	c.R[PC] = e.next
	return 1, nil
}

func phWFI(c *CPU, e *pentry) (int, error) {
	cycles, err := c.wfi()
	if err != nil {
		return 0, err
	}
	c.R[PC] = e.next
	return cycles, nil
}

func phBCond(c *CPU, e *pentry) (int, error) {
	if !c.condPassed(uint32(e.cond)) {
		c.R[PC] = e.next
		return 1, nil
	}
	c.R[PC] = e.tgt
	return 1 + c.Profile.PipelineRefill, nil
}

func phB(c *CPU, e *pentry) (int, error) {
	c.R[PC] = e.tgt
	return 1 + c.Profile.PipelineRefill, nil
}

func phBL(c *CPU, e *pentry) (int, error) {
	// The second halfword was decoded ahead of time; its read is counted
	// here, through the bus, against the region that holds it.
	if _, err := c.Bus.Read16(c.R[PC] + 2); err != nil {
		return 0, err
	}
	c.R[LR] = e.imm // (addr + 4) | 1
	c.R[PC] = e.tgt
	return 2 + c.Profile.PipelineRefill, nil
}

// phFault reports the fault of an encoding the core rejects; e.imm is
// the fault code. A BL first halfword reads its second halfword before
// rejecting the pair, so a missing one reports that read's bus fault.
func phFault(c *CPU, e *pentry) (int, error) {
	op := uint32(e.op)
	switch e.imm {
	case faultUDF:
		return 0, fmt.Errorf("UDF (permanently undefined) executed")
	case faultSVC:
		return 0, fmt.Errorf("SVC executed but no supervisor is modeled")
	case faultRev:
		return 0, fmt.Errorf("unimplemented 1011 1010 variant 0x%04x", op)
	case faultMisc:
		return 0, fmt.Errorf("unimplemented miscellaneous encoding 0x%04x", op)
	case faultPush:
		return 0, fmt.Errorf("PUSH with empty register list")
	case faultPop:
		return 0, fmt.Errorf("POP with empty register list")
	case faultStm:
		return 0, fmt.Errorf("STM with empty register list")
	case faultLdm:
		return 0, fmt.Errorf("LDM with empty register list")
	case faultBL:
		lo, err := c.Bus.Read16(c.R[PC] + 2)
		if err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("unsupported 32-bit encoding 0x%04x 0x%04x", op, lo)
	default:
		return 0, fmt.Errorf("unimplemented encoding")
	}
}
