package armv6m

import "fmt"

// The fetch/decode interpreter, kept as the test oracle for the
// emulator's one instruction semantics (predecode.go): oracleStep
// fetches each halfword through the bus and executes it through a
// decode switch written independently of the predecoded handlers. The
// parity tests and FuzzPredecodeParity run it in lockstep with the
// table-driven and the on-demand cores and require bit-identical
// state, counters and error text.

// oracleStep is Step on the oracle interpreter, with the same retire
// sequence: interrupt dispatch, fetch, execute, counters, timer commit,
// trace attribution and the SysTick tick.
func (c *CPU) oracleStep() error {
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
	instrStart := c.Cycles
	flashBefore := c.Bus.FlashReads
	sramRBefore := c.Bus.SRAMReads
	sramWBefore := c.Bus.SRAMWrites
	sleepBefore := c.SleepCycles
	op, err := c.fetch16()
	if err != nil {
		return fmt.Errorf("fetch at 0x%08x: %w", instrAddr, err)
	}
	// Wait states on the instruction fetch itself.
	c.Cycles += uint64(c.Bus.accessCycles(instrAddr))

	cycles, err := c.exec(op)
	if err != nil {
		return fmt.Errorf("at 0x%08x (op 0x%04x): %w", instrAddr, op, err)
	}
	c.Cycles += uint64(cycles)
	c.Instructions++
	if t := c.Bus.Timer; t != nil && t.pending() {
		t.commit(c.Cycles)
	}
	if c.Trace != nil {
		c.Trace.record(c, instrAddr, op, c.Cycles-instrStart, flashBefore, sramRBefore, sramWBefore, c.SleepCycles-sleepBefore)
	}
	if c.SysTick.tick(int64(cycles)) {
		c.pendingIRQ = true
	}
	if c.Halted {
		return ErrHalted
	}
	return nil
}

// oracleRun is Run on the oracle interpreter.
func (c *CPU) oracleRun(maxInstructions uint64) error {
	for i := uint64(0); i < maxInstructions; i++ {
		err := c.oracleStep()
		if err == nil {
			continue
		}
		if err == ErrHalted {
			return nil
		}
		return err
	}
	return &BudgetError{Instructions: maxInstructions, PC: c.R[PC]}
}

// fetch16 reads the halfword at the current PC.
func (c *CPU) fetch16() (uint32, error) {
	return c.Bus.Read16(c.R[PC])
}

// branchTo redirects execution to addr (bit 0 ignored).
func (c *CPU) branchTo(addr uint32) {
	c.R[PC] = addr &^ 1
}

// branched is tracked per instruction so exec knows whether to advance
// the PC past the instruction afterwards.
type execState struct {
	branched bool
}

// exec decodes and executes one instruction whose first halfword is op,
// returning its cycle cost. c.R[PC] holds the instruction address on
// entry; exec advances it (by 2 or 4) or redirects it on branches.
func (c *CPU) exec(op uint32) (int, error) {
	var st execState
	cycles, err := c.exec1(op, &st)
	if err != nil {
		return 0, err
	}
	if !st.branched {
		c.R[PC] += 2
	}
	return cycles, nil
}

func (st *execState) branch(c *CPU, addr uint32) {
	st.branched = true
	c.branchTo(addr)
}

func (c *CPU) exec1(op uint32, st *execState) (int, error) {
	switch op >> 11 {
	case 0b00000, 0b00001, 0b00010: // LSLS/LSRS/ASRS Rd, Rm, #imm5
		imm := (op >> 6) & 0x1f
		rm := int((op >> 3) & 7)
		rd := int(op & 7)
		val := c.reg(rm)
		var res uint32
		switch op >> 11 {
		case 0b00000: // LSLS (imm 0 == MOVS Rd, Rm: C unchanged)
			if imm == 0 {
				res = val
			} else {
				c.C = val&(1<<(32-imm)) != 0
				res = val << imm
			}
		case 0b00001: // LSRS (imm 0 means 32)
			if imm == 0 {
				c.C = val&0x8000_0000 != 0
				res = 0
			} else {
				c.C = val&(1<<(imm-1)) != 0
				res = val >> imm
			}
		default: // ASRS (imm 0 means 32)
			if imm == 0 {
				c.C = val&0x8000_0000 != 0
				res = uint32(int32(val) >> 31)
			} else {
				c.C = val&(1<<(imm-1)) != 0
				res = uint32(int32(val) >> imm)
			}
		}
		c.R[rd] = res
		c.setNZ(res)
		return 1, nil

	case 0b00011: // ADDS/SUBS register or 3-bit immediate
		rd := int(op & 7)
		rn := int((op >> 3) & 7)
		var operand uint32
		if op&(1<<10) != 0 {
			operand = (op >> 6) & 7 // imm3
		} else {
			operand = c.reg(int((op >> 6) & 7))
		}
		var res uint32
		if op&(1<<9) != 0 { // SUBS
			res, c.C, c.V = addWithCarry(c.reg(rn), ^operand, true)
		} else { // ADDS
			res, c.C, c.V = addWithCarry(c.reg(rn), operand, false)
		}
		c.R[rd] = res
		c.setNZ(res)
		return 1, nil

	case 0b00100: // MOVS Rd, #imm8
		rd := int((op >> 8) & 7)
		imm := op & 0xff
		c.R[rd] = imm
		c.setNZ(imm)
		return 1, nil

	case 0b00101: // CMP Rn, #imm8
		rn := int((op >> 8) & 7)
		imm := op & 0xff
		res, carry, over := addWithCarry(c.reg(rn), ^imm, true)
		c.C, c.V = carry, over
		c.setNZ(res)
		return 1, nil

	case 0b00110: // ADDS Rdn, #imm8
		rd := int((op >> 8) & 7)
		imm := op & 0xff
		res, carry, over := addWithCarry(c.reg(rd), imm, false)
		c.C, c.V = carry, over
		c.R[rd] = res
		c.setNZ(res)
		return 1, nil

	case 0b00111: // SUBS Rdn, #imm8
		rd := int((op >> 8) & 7)
		imm := op & 0xff
		res, carry, over := addWithCarry(c.reg(rd), ^imm, true)
		c.C, c.V = carry, over
		c.R[rd] = res
		c.setNZ(res)
		return 1, nil

	case 0b01000:
		if op&(1<<10) == 0 { // data-processing register
			return c.execDP(op)
		}
		return c.execHiReg(op, st)

	case 0b01001: // LDR Rd, [PC, #imm8<<2]
		rd := int((op >> 8) & 7)
		imm := (op & 0xff) << 2
		addr := (c.PCReadValue() &^ 3) + imm
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
		return c.dataAccessCycles(addr), nil

	case 0b01010, 0b01011: // load/store register offset
		return c.execLoadStoreReg(op)

	case 0b01100, 0b01101, 0b01110, 0b01111, 0b10000, 0b10001:
		return c.execLoadStoreImm(op)

	case 0b10010: // STR Rd, [SP, #imm8<<2]
		rd := int((op >> 8) & 7)
		addr := c.reg(SP) + (op&0xff)<<2
		if err := c.Bus.Write32(addr, c.reg(rd)); err != nil {
			return 0, err
		}
		return c.dataAccessCycles(addr), nil

	case 0b10011: // LDR Rd, [SP, #imm8<<2]
		rd := int((op >> 8) & 7)
		addr := c.reg(SP) + (op&0xff)<<2
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
		return c.dataAccessCycles(addr), nil

	case 0b10100: // ADR Rd, label (ADD Rd, PC, #imm8<<2)
		rd := int((op >> 8) & 7)
		c.R[rd] = (c.PCReadValue() &^ 3) + (op&0xff)<<2
		return 1, nil

	case 0b10101: // ADD Rd, SP, #imm8<<2
		rd := int((op >> 8) & 7)
		c.R[rd] = c.reg(SP) + (op&0xff)<<2
		return 1, nil

	case 0b10110, 0b10111: // miscellaneous 1011 xxxx
		return c.execMisc(op, st)

	case 0b11000: // STMIA Rn!, {list}
		return c.execSTM(op)

	case 0b11001: // LDMIA Rn!, {list}
		return c.execLDM(op)

	case 0b11010, 0b11011: // B<cond> / UDF / SVC
		cond := (op >> 8) & 0xf
		switch cond {
		case 0xe:
			return 0, fmt.Errorf("UDF (permanently undefined) executed")
		case 0xf:
			return 0, fmt.Errorf("SVC executed but no supervisor is modeled")
		}
		if !c.condPassed(cond) {
			return 1, nil
		}
		off := signExtend(op&0xff, 8) << 1
		st.branch(c, c.PCReadValue()+off)
		return 1 + c.Profile.PipelineRefill, nil

	case 0b11100: // B (unconditional)
		off := signExtend(op&0x7ff, 11) << 1
		st.branch(c, c.PCReadValue()+off)
		return 1 + c.Profile.PipelineRefill, nil

	case 0b11110: // 32-bit instruction, first halfword (BL)
		return c.execBL(op, st)

	default:
		return 0, fmt.Errorf("unimplemented encoding")
	}
}

// execDP handles the 010000 data-processing register group.
func (c *CPU) execDP(op uint32) (int, error) {
	opc := (op >> 6) & 0xf
	rm := int((op >> 3) & 7)
	rdn := int(op & 7)
	vn := c.reg(rdn)
	vm := c.reg(rm)
	cycles := 1
	var res uint32
	writeback := true
	switch opc {
	case 0b0000: // ANDS
		res = vn & vm
	case 0b0001: // EORS
		res = vn ^ vm
	case 0b0010: // LSLS (register)
		res = c.shiftReg(vn, vm, shiftLSL)
	case 0b0011: // LSRS (register)
		res = c.shiftReg(vn, vm, shiftLSR)
	case 0b0100: // ASRS (register)
		res = c.shiftReg(vn, vm, shiftASR)
	case 0b0101: // ADCS
		res, c.C, c.V = addWithCarry(vn, vm, c.C)
	case 0b0110: // SBCS
		res, c.C, c.V = addWithCarry(vn, ^vm, c.C)
	case 0b0111: // RORS
		res = c.shiftReg(vn, vm, shiftROR)
	case 0b1000: // TST
		res = vn & vm
		writeback = false
	case 0b1001: // RSBS (NEG): 0 - Rm
		res, c.C, c.V = addWithCarry(^vm, 0, true)
	case 0b1010: // CMP
		res, c.C, c.V = addWithCarry(vn, ^vm, true)
		writeback = false
	case 0b1011: // CMN
		res, c.C, c.V = addWithCarry(vn, vm, false)
		writeback = false
	case 0b1100: // ORRS
		res = vn | vm
	case 0b1101: // MULS
		res = vn * vm
		cycles = c.MulCycles
	case 0b1110: // BICS
		res = vn &^ vm
	default: // MVNS
		res = ^vm
	}
	if writeback {
		c.R[rdn] = res
	}
	c.setNZ(res)
	return cycles, nil
}

// execHiReg handles 010001: ADD/CMP/MOV with high registers and BX/BLX.
func (c *CPU) execHiReg(op uint32, st *execState) (int, error) {
	opc := (op >> 8) & 3
	rm := int((op >> 3) & 0xf)
	rd := int(op&7 | (op>>4)&8)
	switch opc {
	case 0b00: // ADD Rd, Rm (no flags)
		res := c.reg(rd) + c.reg(rm)
		if rd == PC {
			st.branch(c, res)
			return 1 + c.Profile.PipelineRefill, nil
		}
		c.R[rd] = res
		return 1, nil
	case 0b01: // CMP Rn, Rm
		res, carry, over := addWithCarry(c.reg(rd), ^c.reg(rm), true)
		c.C, c.V = carry, over
		c.setNZ(res)
		return 1, nil
	case 0b10: // MOV Rd, Rm (no flags)
		res := c.reg(rm)
		if rd == PC {
			st.branch(c, res)
			return 1 + c.Profile.PipelineRefill, nil
		}
		c.R[rd] = res
		return 1, nil
	default: // BX / BLX
		target := c.reg(rm)
		if op&(1<<7) != 0 { // BLX
			c.R[LR] = (c.R[PC] + 2) | 1
		} else if isExcReturn(target) {
			if !c.inHandler {
				return 0, fmt.Errorf("EXC_RETURN outside an exception handler")
			}
			st.branched = true
			if err := c.exceptionReturn(); err != nil {
				return 0, err
			}
			return 1 + c.Profile.PipelineRefill, nil
		}
		if target&1 == 0 {
			return 0, fmt.Errorf("BX/BLX to ARM state (target 0x%08x has Thumb bit clear)", target)
		}
		st.branch(c, target)
		return 1 + c.Profile.PipelineRefill, nil
	}
}

// execLoadStoreReg handles the 0101 group (register-offset load/store).
func (c *CPU) execLoadStoreReg(op uint32) (int, error) {
	opc := (op >> 9) & 7
	rm := int((op >> 6) & 7)
	rn := int((op >> 3) & 7)
	rd := int(op & 7)
	addr := c.reg(rn) + c.reg(rm)
	switch opc {
	case 0b000: // STR
		if err := c.Bus.Write32(addr, c.reg(rd)); err != nil {
			return 0, err
		}
	case 0b001: // STRH
		if err := c.Bus.Write16(addr, c.reg(rd)); err != nil {
			return 0, err
		}
	case 0b010: // STRB
		if err := c.Bus.Write8(addr, c.reg(rd)); err != nil {
			return 0, err
		}
	case 0b011: // LDRSB
		v, err := c.Bus.Read8(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = signExtend(v, 8)
	case 0b100: // LDR
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
	case 0b101: // LDRH
		v, err := c.Bus.Read16(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
	case 0b110: // LDRB
		v, err := c.Bus.Read8(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
	default: // LDRSH
		v, err := c.Bus.Read16(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = signExtend(v, 16)
	}
	return c.dataAccessCycles(addr), nil
}

// execLoadStoreImm handles 011xx (word/byte) and 1000x (halfword)
// immediate-offset load/store.
func (c *CPU) execLoadStoreImm(op uint32) (int, error) {
	imm := (op >> 6) & 0x1f
	rn := int((op >> 3) & 7)
	rd := int(op & 7)
	base := c.reg(rn)
	switch op >> 11 {
	case 0b01100: // STR
		addr := base + imm<<2
		if err := c.Bus.Write32(addr, c.reg(rd)); err != nil {
			return 0, err
		}
		return c.dataAccessCycles(addr), nil
	case 0b01101: // LDR
		addr := base + imm<<2
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
		return c.dataAccessCycles(addr), nil
	case 0b01110: // STRB
		addr := base + imm
		if err := c.Bus.Write8(addr, c.reg(rd)); err != nil {
			return 0, err
		}
		return c.dataAccessCycles(addr), nil
	case 0b01111: // LDRB
		addr := base + imm
		v, err := c.Bus.Read8(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
		return c.dataAccessCycles(addr), nil
	case 0b10000: // STRH
		addr := base + imm<<1
		if err := c.Bus.Write16(addr, c.reg(rd)); err != nil {
			return 0, err
		}
		return c.dataAccessCycles(addr), nil
	default: // LDRH
		addr := base + imm<<1
		v, err := c.Bus.Read16(addr)
		if err != nil {
			return 0, err
		}
		c.R[rd] = v
		return c.dataAccessCycles(addr), nil
	}
}

// execMisc handles the 1011 miscellaneous group.
func (c *CPU) execMisc(op uint32, st *execState) (int, error) {
	switch {
	case op>>8 == 0b1011_0000: // ADD/SUB SP, #imm7<<2
		imm := (op & 0x7f) << 2
		if op&(1<<7) != 0 {
			c.R[SP] -= imm
		} else {
			c.R[SP] += imm
		}
		return 1, nil

	case op>>8 == 0b1011_0010: // SXTH/SXTB/UXTH/UXTB
		rm := int((op >> 3) & 7)
		rd := int(op & 7)
		v := c.reg(rm)
		switch (op >> 6) & 3 {
		case 0:
			c.R[rd] = signExtend(v&0xffff, 16)
		case 1:
			c.R[rd] = signExtend(v&0xff, 8)
		case 2:
			c.R[rd] = v & 0xffff
		default:
			c.R[rd] = v & 0xff
		}
		return 1, nil

	case op>>9 == 0b1011_010: // PUSH {list[, lr]}
		list := op & 0xff
		if op&(1<<8) != 0 {
			list |= 1 << LR
		}
		return c.pushRegs(list)

	case op>>9 == 0b1011_110: // POP {list[, pc]}
		list := op & 0xff
		if op&(1<<8) != 0 {
			list |= 1 << PC
		}
		return c.popRegs(list, st)

	case op>>8 == 0b1011_1010: // REV/REV16/REVSH
		rm := int((op >> 3) & 7)
		rd := int(op & 7)
		v := c.reg(rm)
		switch (op >> 6) & 3 {
		case 0: // REV
			c.R[rd] = v<<24 | v>>24 | (v&0xff00)<<8 | (v>>8)&0xff00
		case 1: // REV16
			c.R[rd] = (v&0xff)<<8 | (v>>8)&0xff | (v&0xff0000)<<8 | (v>>8)&0xff0000
		case 3: // REVSH
			c.R[rd] = signExtend((v&0xff)<<8|(v>>8)&0xff, 16)
		default:
			return 0, fmt.Errorf("unimplemented 1011 1010 variant 0x%04x", op)
		}
		return 1, nil

	case op == 0xb672: // CPSID i
		c.PriMask = true
		return 1, nil

	case op == 0xb662: // CPSIE i
		c.PriMask = false
		return 1, nil

	case op>>8 == 0b1011_1110: // BKPT #imm8
		c.Halted = true
		c.HaltCode = uint8(op & 0xff)
		return 1, nil

	case op>>8 == 0b1011_1111: // hints: NOP/WFE/SEV/YIELD are 1-cycle NOPs
		if op == OpWFI { // WFI sleeps until the next wake event (sleep.go)
			return c.wfi()
		}
		return 1, nil

	default:
		return 0, fmt.Errorf("unimplemented miscellaneous encoding 0x%04x", op)
	}
}

func (c *CPU) pushRegs(list uint32) (int, error) {
	n := 0
	for i := 0; i < 16; i++ {
		if list&(1<<i) != 0 {
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("PUSH with empty register list")
	}
	addr := c.R[SP] - uint32(4*n)
	c.R[SP] = addr
	cycles := 1 + n
	for i := 0; i < 16; i++ {
		if list&(1<<i) == 0 {
			continue
		}
		if err := c.Bus.Write32(addr, c.R[i]); err != nil {
			return 0, err
		}
		addr += 4
	}
	return cycles, nil
}

func (c *CPU) popRegs(list uint32, st *execState) (int, error) {
	n := 0
	for i := 0; i < 16; i++ {
		if list&(1<<i) != 0 {
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("POP with empty register list")
	}
	addr := c.R[SP]
	cycles := 1 + n
	for i := 0; i < 16; i++ {
		if list&(1<<i) == 0 {
			continue
		}
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		addr += 4
		if i == PC {
			if isExcReturn(v) {
				if !c.inHandler {
					return 0, fmt.Errorf("EXC_RETURN outside an exception handler")
				}
				c.R[SP] = addr // consume the frame popped so far
				st.branched = true
				if err := c.exceptionReturn(); err != nil {
					return 0, err
				}
				return cycles + 3, nil
			}
			if v&1 == 0 {
				return 0, fmt.Errorf("POP to PC with Thumb bit clear (0x%08x)", v)
			}
			st.branch(c, v)
			cycles += 1 + c.Profile.PipelineRefill // POP {...,pc} is 4+N on the M0
		} else {
			c.R[i] = v
		}
	}
	c.R[SP] = addr
	return cycles, nil
}

func (c *CPU) execSTM(op uint32) (int, error) {
	rn := int((op >> 8) & 7)
	list := op & 0xff
	addr := c.reg(rn)
	n := 0
	for i := 0; i < 8; i++ {
		if list&(1<<i) == 0 {
			continue
		}
		if err := c.Bus.Write32(addr, c.reg(i)); err != nil {
			return 0, err
		}
		addr += 4
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("STM with empty register list")
	}
	c.R[rn] = addr // writeback
	return 1 + n, nil
}

func (c *CPU) execLDM(op uint32) (int, error) {
	rn := int((op >> 8) & 7)
	list := op & 0xff
	addr := c.reg(rn)
	n := 0
	for i := 0; i < 8; i++ {
		if list&(1<<i) == 0 {
			continue
		}
		v, err := c.Bus.Read32(addr)
		if err != nil {
			return 0, err
		}
		c.R[i] = v
		addr += 4
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("LDM with empty register list")
	}
	if list&(1<<rn) == 0 {
		c.R[rn] = addr // writeback only when Rn not loaded
	}
	return 1 + n, nil
}

// execBL handles the 32-bit BL instruction (the only 32-bit encoding
// ARMv6-M kernels in this repository use).
func (c *CPU) execBL(op uint32, st *execState) (int, error) {
	lo, err := c.Bus.Read16(c.R[PC] + 2)
	if err != nil {
		return 0, err
	}
	if lo>>14 != 0b11 || lo&(1<<12) == 0 {
		return 0, fmt.Errorf("unsupported 32-bit encoding 0x%04x 0x%04x", op, lo)
	}
	s := (op >> 10) & 1
	imm10 := op & 0x3ff
	j1 := (lo >> 13) & 1
	j2 := (lo >> 11) & 1
	imm11 := lo & 0x7ff
	i1 := ^(j1 ^ s) & 1
	i2 := ^(j2 ^ s) & 1
	off := s<<24 | i1<<23 | i2<<22 | imm10<<12 | imm11<<1
	off = signExtend(off, 25)
	c.R[LR] = (c.R[PC] + 4) | 1
	st.branch(c, c.PCReadValue()+off)
	return 2 + c.Profile.PipelineRefill, nil
}
