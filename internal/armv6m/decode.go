package armv6m

import "fmt"

// Machine-readable instruction decode. Decode is the single source of
// truth for the Thumb-1 encodings this repository understands: the
// disassembler renders Instr values as text, and the static analyzer
// (internal/asmcheck) walks them to recover control flow, register
// effects, and worst-case cycle costs. The emulator decodes into its
// own execution entries (predecode1) for speed; TestDecodeAgreesWithEmulator
// pins the two to the same set of rejected halfwords and the same
// instruction classes over every first halfword, and the thumb
// round-trip fuzz target covers the rendering.

// Kind classifies a decoded instruction by its effect on control flow,
// memory, and the stack — the granularity static analysis needs.
type Kind uint8

// Instruction kinds.
const (
	KindUnknown    Kind = iota // undecodable halfword (data)
	KindALU                    // register-writing data processing
	KindCompare                // flags only: CMP, CMN, TST
	KindLoad                   // single load (incl. PC- and SP-relative)
	KindStore                  // single store
	KindLoadMulti              // LDMIA
	KindStoreMulti             // STMIA
	KindPush
	KindPop
	KindBranch     // B
	KindBranchCond // B<cond>
	KindBL
	KindBX
	KindBLX
	KindAddSP // ADD/SUB sp, #imm
	KindHint  // NOP, WFI, WFE, SEV, YIELD
	KindBKPT
	KindCPS // CPSID/CPSIE i
	KindSVC
	KindUDF
)

// AluOp is the sub-classification of KindALU instructions whose results
// a value-tracking analysis can model.
type AluOp uint8

// ALU sub-operations.
const (
	AluOther AluOp = iota // result not modeled (shifts, logic, extends, ...)
	AluConst              // Rd = uint32(Imm): MOVS #imm8, ADR
	AluMov                // Rd = Rm: MOV, MOVS register form
	AluAdd                // Rd = Rn + (Rm or #Imm)
	AluSub                // Rd = Rn - (Rm or #Imm)
)

// Instr is one decoded instruction. Register fields are -1 when absent.
// For loads and stores, Rn is the base register (13 = SP, 15 = PC for
// literal loads), Rm the index register (or -1 for immediate offsets),
// and Imm the immediate offset. Target is the absolute branch target
// for B/B<cond>/BL and the literal address for PC-relative LDR/ADR.
type Instr struct {
	Addr uint32
	Op   uint16 // first halfword
	Op2  uint16 // second halfword (BL only)
	Size int    // 2 or 4 bytes
	Text string // disassembly rendering

	Kind     Kind
	Alu      AluOp
	Rd       int8
	Rn       int8
	Rm       int8
	Imm      int32
	Cond     int8   // condition code for KindBranchCond; -1 otherwise
	Target   uint32 // branch target / literal address, when ValidTarget
	RegList  uint16 // PUSH/POP/LDM/STM list; bit 14 = LR, bit 15 = PC
	MemWidth int8   // 1, 2, or 4 bytes for single loads/stores
	Signed   bool   // sign-extending load (LDRSB/LDRSH)
	IsMul    bool   // MULS (its cost is the configurable multiplier)
	WritesPC bool   // hi-register ADD/MOV with Rd == PC

	// ValidTarget marks Target as meaningful (B/B<cond>/BL and the
	// PC-relative LDR/ADR literal address).
	ValidTarget bool
}

// Returns reports whether the instruction is a function return under
// this repository's calling convention: BX LR or POP {..., pc}.
func (in *Instr) Returns() bool {
	switch in.Kind {
	case KindBX:
		return in.Rm == 14
	case KindPop:
		return in.RegList&(1<<15) != 0
	}
	return false
}

// Terminator reports whether control never falls through to the next
// instruction: unconditional branches, returns, BKPT, and traps.
func (in *Instr) Terminator() bool {
	switch in.Kind {
	case KindBranch, KindBX, KindBKPT, KindSVC, KindUDF, KindUnknown:
		return true
	case KindPop:
		return in.RegList&(1<<15) != 0
	case KindALU:
		return in.WritesPC
	}
	return false
}

// RegCount is the number of registers transferred by a list instruction.
func (in *Instr) RegCount() int {
	n := 0
	for v := in.RegList; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func regName(n uint32) string {
	switch n {
	case 13:
		return "sp"
	case 14:
		return "lr"
	case 15:
		return "pc"
	default:
		return fmt.Sprintf("r%d", n)
	}
}

// Decode decodes the instruction whose first halfword is op (and, for
// the 32-bit BL encoding, second halfword lo) at address addr. Unknown
// encodings — including the empty-list PUSH/POP/STMIA/LDMIA the core
// faults on — return KindUnknown with a ".hword" rendering, so walking
// a region that contains data never fails.
func Decode(addr uint32, op, lo uint16) Instr {
	o := uint32(op)
	in := Instr{
		Addr: addr, Op: op, Size: 2,
		Rd: -1, Rn: -1, Rm: -1, Cond: -1, MemWidth: 0,
	}
	r3 := func(shift uint) int8 { return int8(o >> shift & 7) }
	txt := func(format string, args ...interface{}) {
		in.Text = fmt.Sprintf(format, args...)
	}

	switch o >> 11 {
	case 0b00000:
		in.Kind = KindALU
		in.Rd, in.Rm = r3(0), r3(3)
		if o>>6&0x1f == 0 {
			in.Alu = AluMov
			txt("movs r%d, r%d", in.Rd, in.Rm)
			return in
		}
		in.Imm = int32(o >> 6 & 0x1f)
		txt("lsls r%d, r%d, #%d", in.Rd, in.Rm, in.Imm)
		return in
	case 0b00001, 0b00010:
		in.Kind = KindALU
		in.Rd, in.Rm = r3(0), r3(3)
		in.Imm = int32(imm5Shift(o))
		mn := "lsrs"
		if o>>11 == 0b00010 {
			mn = "asrs"
		}
		txt("%s r%d, r%d, #%d", mn, in.Rd, in.Rm, in.Imm)
		return in
	case 0b00011:
		in.Kind = KindALU
		in.Rd, in.Rn = r3(0), r3(3)
		in.Alu = AluAdd
		mn := "adds"
		if o&(1<<9) != 0 {
			mn = "subs"
			in.Alu = AluSub
		}
		if o&(1<<10) != 0 {
			in.Imm = int32(o >> 6 & 7)
			txt("%s r%d, r%d, #%d", mn, in.Rd, in.Rn, in.Imm)
			return in
		}
		in.Rm = r3(6)
		txt("%s r%d, r%d, r%d", mn, in.Rd, in.Rn, in.Rm)
		return in
	case 0b00100:
		in.Kind = KindALU
		in.Alu = AluConst
		in.Rd = r3(8)
		in.Imm = int32(o & 0xff)
		txt("movs r%d, #%d", in.Rd, in.Imm)
		return in
	case 0b00101:
		in.Kind = KindCompare
		in.Rn = r3(8)
		in.Imm = int32(o & 0xff)
		txt("cmp r%d, #%d", in.Rn, in.Imm)
		return in
	case 0b00110, 0b00111:
		in.Kind = KindALU
		in.Rd = r3(8)
		in.Rn = in.Rd
		in.Imm = int32(o & 0xff)
		in.Alu = AluAdd
		mn := "adds"
		if o>>11 == 0b00111 {
			mn = "subs"
			in.Alu = AluSub
		}
		txt("%s r%d, #%d", mn, in.Rd, in.Imm)
		return in
	case 0b01001:
		in.Kind = KindLoad
		in.Rd = r3(8)
		in.Rn = 15
		in.Imm = int32((o & 0xff) << 2)
		in.MemWidth = 4
		in.Target = ((addr + 4) &^ 3) + uint32(in.Imm)
		in.ValidTarget = true
		txt("ldr r%d, [pc, #%d] ; 0x%08x", in.Rd, in.Imm, in.Target)
		return in
	}

	switch {
	case o>>10 == 0b010000:
		mns := [16]string{"ands", "eors", "lsls", "lsrs", "asrs", "adcs", "sbcs", "rors",
			"tst", "rsbs", "cmp", "cmn", "orrs", "muls", "bics", "mvns"}
		opc := o >> 6 & 0xf
		in.Rm = r3(3)
		switch opc {
		case 0b1000, 0b1010, 0b1011: // TST, CMP, CMN
			in.Kind = KindCompare
			in.Rn = r3(0)
			txt("%s r%d, r%d", mns[opc], in.Rn, in.Rm)
		default:
			in.Kind = KindALU
			in.Rd = r3(0)
			in.Rn = in.Rd
			in.IsMul = opc == 0b1101
			txt("%s r%d, r%d", mns[opc], in.Rd, in.Rm)
		}
		return in
	case o>>10 == 0b010001:
		rd := int8(o&7 | o>>4&8)
		rm := int8(o >> 3 & 0xf)
		switch o >> 8 & 3 {
		case 0:
			in.Kind = KindALU
			in.Alu = AluAdd
			in.Rd, in.Rn, in.Rm = rd, rd, rm
			in.WritesPC = rd == 15
			txt("add %s, %s", regName(uint32(rd)), regName(uint32(rm)))
		case 1:
			in.Kind = KindCompare
			in.Rn, in.Rm = rd, rm
			txt("cmp %s, %s", regName(uint32(rd)), regName(uint32(rm)))
		case 2:
			in.Kind = KindALU
			in.Alu = AluMov
			in.Rd, in.Rm = rd, rm
			in.WritesPC = rd == 15
			txt("mov %s, %s", regName(uint32(rd)), regName(uint32(rm)))
		default:
			in.Rm = rm
			if o&(1<<7) != 0 {
				in.Kind = KindBLX
				txt("blx %s", regName(uint32(rm)))
			} else {
				in.Kind = KindBX
				txt("bx %s", regName(uint32(rm)))
			}
		}
		return in
	case o>>12 == 0b0101:
		mns := [8]string{"str", "strh", "strb", "ldrsb", "ldr", "ldrh", "ldrb", "ldrsh"}
		widths := [8]int8{4, 2, 1, 1, 4, 2, 1, 2}
		opc := o >> 9 & 7
		in.Rd, in.Rn, in.Rm = r3(0), r3(3), r3(6)
		in.MemWidth = widths[opc]
		in.Signed = opc == 0b011 || opc == 0b111
		if opc <= 0b010 {
			in.Kind = KindStore
		} else {
			in.Kind = KindLoad
		}
		txt("%s r%d, [r%d, r%d]", mns[opc], in.Rd, in.Rn, in.Rm)
		return in
	case o>>13 == 0b011:
		imm := o >> 6 & 0x1f
		in.Rd, in.Rn = r3(0), r3(3)
		if o&(1<<12) == 0 { // word
			in.MemWidth = 4
			in.Imm = int32(imm << 2)
			mn := "str"
			in.Kind = KindStore
			if o&(1<<11) != 0 {
				mn = "ldr"
				in.Kind = KindLoad
			}
			txt("%s r%d, [r%d, #%d]", mn, in.Rd, in.Rn, in.Imm)
			return in
		}
		in.MemWidth = 1
		in.Imm = int32(imm)
		mn := "strb"
		in.Kind = KindStore
		if o&(1<<11) != 0 {
			mn = "ldrb"
			in.Kind = KindLoad
		}
		txt("%s r%d, [r%d, #%d]", mn, in.Rd, in.Rn, in.Imm)
		return in
	case o>>12 == 0b1000:
		in.Rd, in.Rn = r3(0), r3(3)
		in.MemWidth = 2
		in.Imm = int32(o >> 6 & 0x1f << 1)
		mn := "strh"
		in.Kind = KindStore
		if o&(1<<11) != 0 {
			mn = "ldrh"
			in.Kind = KindLoad
		}
		txt("%s r%d, [r%d, #%d]", mn, in.Rd, in.Rn, in.Imm)
		return in
	case o>>12 == 0b1001:
		in.Rd = r3(8)
		in.Rn = 13
		in.MemWidth = 4
		in.Imm = int32(o & 0xff << 2)
		mn := "str"
		in.Kind = KindStore
		if o&(1<<11) != 0 {
			mn = "ldr"
			in.Kind = KindLoad
		}
		txt("%s r%d, [sp, #%d]", mn, in.Rd, in.Imm)
		return in
	case o>>12 == 0b1010:
		in.Kind = KindALU
		in.Rd = r3(8)
		if o&(1<<11) == 0 { // ADR
			in.Alu = AluConst
			off := o & 0xff << 2
			in.Target = ((addr + 4) &^ 3) + off
			in.ValidTarget = true
			in.Imm = int32(in.Target)
			txt("adr r%d, pc+#%d", in.Rd, off)
			return in
		}
		in.Alu = AluAdd
		in.Rn = 13
		in.Imm = int32(o & 0xff << 2)
		txt("add r%d, sp, #%d", in.Rd, in.Imm)
		return in
	case o>>8 == 0b1011_0000:
		in.Kind = KindAddSP
		imm := int32((o & 0x7f) << 2)
		if o&(1<<7) != 0 {
			in.Imm = -imm
			txt("sub sp, #%d", imm)
		} else {
			in.Imm = imm
			txt("add sp, #%d", imm)
		}
		return in
	case o>>8 == 0b1011_0010:
		mns := [4]string{"sxth", "sxtb", "uxth", "uxtb"}
		in.Kind = KindALU
		in.Rd, in.Rm = r3(0), r3(3)
		txt("%s r%d, r%d", mns[o>>6&3], in.Rd, in.Rm)
		return in
	case o>>9 == 0b1011_010:
		if o&0x1ff == 0 { // push {}: the core faults on an empty list
			break
		}
		in.Kind = KindPush
		in.RegList = uint16(o & 0xff)
		if o&(1<<8) != 0 {
			in.RegList |= 1 << 14
		}
		txt("push {%s}", regList(o&0xff, o&(1<<8) != 0, "lr"))
		return in
	case o>>9 == 0b1011_110:
		if o&0x1ff == 0 { // pop {}
			break
		}
		in.Kind = KindPop
		in.RegList = uint16(o & 0xff)
		if o&(1<<8) != 0 {
			in.RegList |= 1 << 15
		}
		txt("pop {%s}", regList(o&0xff, o&(1<<8) != 0, "pc"))
		return in
	case o>>8 == 0b1011_1010:
		mns := map[uint32]string{0: "rev", 1: "rev16", 3: "revsh"}
		if mn, ok := mns[o>>6&3]; ok {
			in.Kind = KindALU
			in.Rd, in.Rm = r3(0), r3(3)
			txt("%s r%d, r%d", mn, in.Rd, in.Rm)
			return in
		}
	case op == 0xb672:
		in.Kind = KindCPS
		in.Text = "cpsid i"
		return in
	case op == 0xb662:
		in.Kind = KindCPS
		in.Text = "cpsie i"
		return in
	case o>>8 == 0b1011_1110:
		in.Kind = KindBKPT
		in.Imm = int32(o & 0xff)
		txt("bkpt #%d", in.Imm)
		return in
	case o>>8 == 0b1011_1111:
		in.Kind = KindHint
		hints := map[uint32]string{0x00: "nop", 0x10: "yield", 0x20: "wfe", 0x30: "wfi", 0x40: "sev"}
		if h, ok := hints[o&0xff]; ok {
			in.Text = h
		} else {
			in.Text = "hint"
		}
		return in
	case o>>11 == 0b11000:
		if o&0xff == 0 { // stmia rN!, {}
			break
		}
		in.Kind = KindStoreMulti
		in.Rn = r3(8)
		in.RegList = uint16(o & 0xff)
		txt("stmia r%d!, {%s}", in.Rn, regList(o&0xff, false, ""))
		return in
	case o>>11 == 0b11001:
		if o&0xff == 0 { // ldmia rN!, {}
			break
		}
		in.Kind = KindLoadMulti
		in.Rn = r3(8)
		in.RegList = uint16(o & 0xff)
		txt("ldmia r%d!, {%s}", in.Rn, regList(o&0xff, false, ""))
		return in
	case o>>12 == 0b1101:
		cond := o >> 8 & 0xf
		conds := [14]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le"}
		switch cond {
		case 0xe:
			in.Kind = KindUDF
			in.Text = "udf"
			return in
		case 0xf:
			in.Kind = KindSVC
			in.Imm = int32(o & 0xff)
			txt("svc #%d", in.Imm)
			return in
		}
		in.Kind = KindBranchCond
		in.Cond = int8(cond)
		off := signExtend(o&0xff, 8) << 1
		in.Target = addr + 4 + off
		in.ValidTarget = true
		txt("b%s 0x%08x", conds[cond], in.Target)
		return in
	case o>>11 == 0b11100:
		in.Kind = KindBranch
		off := signExtend(o&0x7ff, 11) << 1
		in.Target = addr + 4 + off
		in.ValidTarget = true
		txt("b 0x%08x", in.Target)
		return in
	case o>>11 == 0b11110:
		l := uint32(lo)
		if l>>14 == 0b11 && l&(1<<12) != 0 {
			s := o >> 10 & 1
			imm10 := o & 0x3ff
			j1 := l >> 13 & 1
			j2 := l >> 11 & 1
			imm11 := l & 0x7ff
			i1 := ^(j1 ^ s) & 1
			i2 := ^(j2 ^ s) & 1
			off := signExtend(s<<24|i1<<23|i2<<22|imm10<<12|imm11<<1, 25)
			in.Kind = KindBL
			in.Op2 = lo
			in.Size = 4
			in.Target = addr + 4 + off
			in.ValidTarget = true
			txt("bl 0x%08x", in.Target)
			return in
		}
	}
	in.Kind = KindUnknown
	txt(".hword 0x%04x", op)
	return in
}
