package armv6m

import (
	"fmt"
	"time"
)

// Superblock translation: the third execution tier. When an image
// carries a neuroc-cert/v1 certificate, each certified basic block is
// translated once into a fused execution record whose instructions run
// back-to-back with no per-instruction dispatch, cycle accounting, or
// bus classification: the block's cycle count, instruction count, and
// bus-counter deltas are per-block constants derived from the
// certificate's closed forms (base + WS·ws) and applied in one shot at
// block exit. Certified self-loops (single-block natural loops with a
// proven trip bound) additionally iterate latch-to-header inside one
// dispatch. Two self-loop shapes run whole in host locals with no
// per-op dispatch at all: the dense kernel's MAC loop (execMacLoop)
// and the ternary kernels' gather loop — one index load, one gather,
// one adds/subs per connection, optionally advancing a moving base
// (execGatherLoop; the block, mixed and delta inner loops). There the
// steady-state cost of a kernel inner loop is a few Go statements per
// emulated instruction.
//
// The contract is the same bit-for-bit parity the predecoded tier
// holds against the legacy interpreter, enforced by the differential
// tests and FuzzTranslateParity:
//
//   - The translator never trusts a certified fact it cannot check.
//     At build time every fast-path instruction's certified cost
//     formula and bus-counter deltas are re-derived from the decoded
//     encoding and the proven memory region; any mismatch demotes the
//     instruction to handler delegation (real execution, real
//     accounting), and structural problems (non-contiguous instrs, a
//     control transfer mid-block, an encoding the interpreter would
//     fault on) drop the whole block from the table.
//   - At run time every fast memory access re-checks that its address
//     falls in the certified region. A miss abandons the block before
//     the access: the prefix already executed is flushed exactly
//     (its constants commute with per-instruction accounting), the PC
//     is left on the offending instruction, and the dispatch loop
//     re-executes it through the interpreted path — which performs
//     the real bus access and reports the same fault text, cycle
//     charge, or cross-region access the predecoded tier would.
//   - Tracing, checked execution, armed SysTick/pending IRQs, profile
//     or multiplier mismatches, flash mutation, and the boot-alias
//     overlap all fall back to the predecoded tier before any block
//     runs; budget exhaustion and PCs outside certified ranges fall
//     back mid-run, one interpreted Step at a time.
//
// The table is immutable after Translate returns and is shared across
// all boards of a farm exactly like the predecode table it references.

// Translated memory regions, the armv6m-side mirror of the
// certificate's proven classes. Only flash and SRAM have inline fast
// paths; everything else delegates to the instruction's handler.
const (
	RegionNone uint8 = iota
	RegionFlash
	RegionSRAM
	RegionPeriph
)

// CertInstr is the per-instruction slice of certificate fact the
// translator consumes, expressed without importing the cert package
// (cert depends on armv6m). Cost is a closed form in the flash
// wait-state setting: cycles(ws) = CostBase + CostWS·ws, fetch
// included. Counter fields are exact per-retire bus deltas, fetch
// included.
type CertInstr struct {
	Addr uint32
	Size uint8

	CostBase   uint64
	CostWS     uint64
	TakenExtra uint64

	FlashReads uint64
	SRAMReads  uint64
	SRAMWrites uint64

	Region uint8 // RegionNone/Flash/SRAM/Periph
	Store  bool
	Exact  bool

	Target uint32
	Call   uint32
	Ret    bool
	Halt   bool
}

// CertBlock is one certified basic block [Start, End) in translator
// form. TakenExtra is the extra cost of the conditional terminator's
// taken edge. SelfLoop marks a single-block natural loop whose header
// is its own latch; Bound is its proven trip bound.
type CertBlock struct {
	Start, End uint32
	TakenExtra uint64
	Instrs     []CertInstr
	SelfLoop   bool
	Bound      uint64
}

// TranslationConfig pins the cycle-model parameters the certificate's
// formulas were derived under; a core whose configuration disagrees
// falls back to the predecoded tier at run time.
type TranslationConfig struct {
	Profile        string
	PipelineRefill int
	MulCycles      int
}

// Translated-op kinds, continuing the predecode inline-dispatch kinds.
// tDelegate routes through the instruction's predecode handler with
// per-instruction accounting; the fused kinds execute several
// architectural instructions in one case.
const (
	tDelegate uint8 = 200 + iota
	tBkpt
	tMac     // ldrsb Ra,[..]; ldrsb Rb,[..]; muls; adds — the kernel MAC
	tIncCmpB // adds Rd, #imm8; cmp Ra, Rb; b<cond> — counted-loop latch
	tDecB    // subs Rd, #imm8; b<cond> — countdown-loop latch
)

// Block terminator categories.
const (
	tmFall uint8 = iota // falls through to blk.next
	tmB                 // unconditional branch to blk.btgt
	tmCond              // conditional: blk.btgt when taken, blk.next otherwise
	tmHalt              // BKPT: halts with PC = blk.next
	tmDyn               // delegated terminator; the handler sets the PC
)

// ttop is one translated operation: a run of 1-4 architectural
// instructions executed by a single switch case. The c* fields are the
// op's own certified constants; the pre* fields are prefix sums of the
// fast-op constants strictly before this op, used to flush exact
// partial totals when the block is abandoned at this op (deviation or
// delegation).
type ttop struct {
	pe   *pentry // predecode entry of the (first) instruction
	addr uint32  // its address: the replay point on deviation
	tgt  uint32
	imm  uint32

	kind uint8
	cls  uint8 // certified region of the first memory access
	cls2 uint8 // certified region of the second fused load
	cond uint8

	rd, rn, rm    uint8
	rd2, rn2, rm2 uint8
	rd3, rm3      uint8
	rd4, rn4, rm4 uint8

	// Own certified constants (zero for tDelegate: those account
	// through the handler).
	cB, cW, cFR, cSR, cSW, cN uint64

	// Prefix sums of the constants above over ops[0:i].
	preB, preW, preFR, preSR, preSW, preN uint64
}

// tblock is one translated superblock.
type tblock struct {
	start uint32
	next  uint32 // fall-through / not-taken successor (== End)
	btgt  uint32 // branch target of a fast terminator

	ops []ttop

	// nInstr is the architectural instruction count of one full pass
	// (delegated instructions included); the dispatch loop admits a
	// block only when the remaining budget covers a full pass.
	nInstr uint64

	// Whole-block constants over the fast ops, terminator at its
	// not-taken cost; takenExtra is added on a taken fast terminator.
	totB, totW, totFR, totSR, totSW, totN uint64
	takenExtra                            uint64

	term     uint8
	selfLoop bool
	loop     uint8 // whole-loop executor: loopNone, loopMac or loopGather
	bound    uint64
	fused    int // architectural instructions folded into fused ops
}

// Whole-loop executors for certified self-loops of a recognized shape.
const (
	loopNone   uint8 = iota
	loopMac          // detectMacLoop; runs in execMacLoop
	loopGather       // detectGatherLoop; runs in execGatherLoop
)

// TranslationTable is the superblock execution cache for one certified
// flash image. It references (and shares the lifetime of) the
// PredecodeTable it was built against. Immutable after Translate
// returns; safe to share across any number of cores.
type TranslationTable struct {
	base   uint32
	bidx   []int32 // (addr - base) >> 1 -> block index, -1 when none
	blocks []tblock

	profile   string
	refill    int
	mulCycles int

	build       time.Duration
	selfLoops   int
	macLoops    int
	gatherLoops int
	fusedOps    int
}

// Blocks is the number of translated superblocks.
func (t *TranslationTable) Blocks() int { return len(t.blocks) }

// SelfLoops is the number of translated whole-loop superblocks.
func (t *TranslationTable) SelfLoops() int { return t.selfLoops }

// MacLoops is the number of self-loops that run whole in execMacLoop.
func (t *TranslationTable) MacLoops() int { return t.macLoops }

// GatherLoops is the number of self-loops that run whole in
// execGatherLoop.
func (t *TranslationTable) GatherLoops() int { return t.gatherLoops }

// FusedInstrs is the number of architectural instructions folded into
// multi-instruction fused ops.
func (t *TranslationTable) FusedInstrs() int { return t.fusedOps }

// BuildTime is the host time spent translating.
func (t *TranslationTable) BuildTime() time.Duration { return t.build }

// UseTranslation attaches a shared table built by Translate against
// the same flash content this CPU's bus aliases (nil detaches). The
// table is used until flash mutates; it does not rebuild.
func (c *CPU) UseTranslation(t *TranslationTable) {
	c.ttab = t
	c.ttabGen = c.Bus.flashGen
}

// TranslationAttached reports whether a translation table is attached
// and still valid against the current flash generation.
func (c *CPU) TranslationAttached() bool {
	return c.ttab != nil && c.ttabGen == c.Bus.flashGen
}

// fastFacts re-derives the exact cost formula and bus-counter deltas
// the emulator charges for one retire of an inline-dispatch kind given
// the proven memory region. ok is false when the kind has no certified
// fast path (generic encodings, unproven or peripheral regions,
// flash stores).
func fastFacts(kind uint8, region uint8, store bool, refill, mulCyc uint64) (base, wsCo, fr, sr, sw uint64, ok bool) {
	switch kind {
	case kMovsImm8, kCmpImm8, kAddsImm8, kSubsImm8, kAddsReg, kSubsReg,
		kAddsImm3, kSubsImm3, kAnds, kEors, kOrrs, kBics, kMvns, kCmpReg,
		kLslsImm, kLsrsImm, kAsrsImm, kLslsReg, kLsrsReg, kAsrsReg,
		kMovHi, kSxth, kSxtb, kUxth, kUxtb:
		return 1, 1, 1, 0, 0, true
	case kMuls:
		return mulCyc, 1, 1, 0, 0, true
	case kB:
		return 1 + refill, 1, 1, 0, 0, true
	case kBCond:
		return 1, 1, 1, 0, 0, true // + refill on the taken edge (TakenExtra)
	case kLdrLit, kLdrImm, kLdrReg, kLdrbImm, kLdrbReg, kLdrhImm, kLdrsbReg:
		switch region {
		case RegionFlash:
			return 2, 2, 2, 0, 0, true // fetch ws + data ws
		case RegionSRAM:
			return 2, 1, 1, 1, 0, true
		}
	case kStrImm, kStrbImm, kStrhImm, kStrReg, kStrbReg:
		if region == RegionSRAM && store {
			return 2, 1, 1, 0, 1, true
		}
	}
	return 0, 0, 0, 0, 0, false
}

// Translate builds a superblock table from certified blocks over a
// predecode table of the same flash image. Blocks that fail structural
// validation are dropped (their PCs execute on the predecoded tier);
// instructions whose certified facts cannot be re-derived from the
// encoding demote to handler delegation. Returns nil when nothing
// translates.
func Translate(pt *PredecodeTable, blocks []CertBlock, cfg TranslationConfig) *TranslationTable {
	start := time.Now() //neurolint:allow nondet (host-side translation build timing; never feeds emulated state)
	if pt == nil || len(blocks) == 0 {
		return nil
	}
	t := &TranslationTable{
		base:      pt.base,
		bidx:      make([]int32, len(pt.entries)),
		profile:   cfg.Profile,
		refill:    cfg.PipelineRefill,
		mulCycles: cfg.MulCycles,
	}
	for i := range t.bidx {
		t.bidx[i] = -1
	}
	refill := uint64(cfg.PipelineRefill)
	mulCyc := uint64(cfg.MulCycles)
	for bi := range blocks {
		cb := &blocks[bi]
		blk, ok := translateBlock(pt, cb, refill, mulCyc)
		if !ok {
			continue
		}
		off := cb.Start - pt.base
		if off&1 != 0 || off>>1 >= uint32(len(t.bidx)) {
			continue
		}
		t.blocks = append(t.blocks, blk)
		t.bidx[off>>1] = int32(len(t.blocks) - 1)
		if blk.selfLoop {
			t.selfLoops++
		}
		switch blk.loop {
		case loopMac:
			t.macLoops++
		case loopGather:
			t.gatherLoops++
		}
		t.fusedOps += blk.fused
	}
	if len(t.blocks) == 0 {
		return nil
	}
	t.build = time.Since(start) //neurolint:allow nondet (host-side translation build timing; never feeds emulated state)
	return t
}

// translateBlock validates one certified block against the decoded
// image and lowers it to a tblock.
func translateBlock(pt *PredecodeTable, cb *CertBlock, refill, mulCyc uint64) (tblock, bool) {
	blk := tblock{start: cb.Start, next: cb.End}
	if len(cb.Instrs) == 0 || cb.Instrs[0].Addr != cb.Start {
		return blk, false
	}
	blk.nInstr = uint64(len(cb.Instrs))
	addr := cb.Start
	last := len(cb.Instrs) - 1
	blk.term = tmFall
	for ii := range cb.Instrs {
		ci := &cb.Instrs[ii]
		if ci.Addr != addr || (ci.Size != 2 && ci.Size != 4) {
			return blk, false
		}
		off := ci.Addr - pt.base
		if off&1 != 0 || off>>1 >= uint32(len(pt.entries)) {
			return blk, false
		}
		e := &pt.entries[off>>1]
		// An encoding the interpreter faults on, or whose decoded size
		// disagrees with the certificate, invalidates the block.
		if e.fn == nil || e.next != ci.Addr+uint32(ci.Size) {
			return blk, false
		}
		addr = ci.Addr + uint32(ci.Size)
		control := ci.Halt || ci.Ret || ci.Target != 0 || ci.Call != 0
		if control && ii != last {
			return blk, false
		}
		op := ttop{pe: e, addr: ci.Addr, tgt: e.tgt, imm: e.imm,
			cond: e.cond, rd: e.rd, rn: e.rn, rm: e.rm}
		op.cls = certRegion(ci)
		fast := false
		switch {
		case ci.Halt:
			if e.kind == kGeneric && ci.CostBase == 1 && ci.CostWS == 1 &&
				ci.FlashReads == 1 && ci.SRAMReads == 0 && ci.SRAMWrites == 0 {
				op.kind = tBkpt
				op.cB, op.cW, op.cFR, op.cN = 1, 1, 1, 1
				blk.term = tmHalt
				fast = true
			}
		case e.kind == kGeneric:
			// No inline fast path (SP-relative, push/pop, hi-reg, BL, ...).
		default:
			base, wsCo, fr, sr, sw, ok := fastFacts(e.kind, op.cls, ci.Store, refill, mulCyc)
			// The certified facts must equal the re-derived ones; a
			// disagreement means the proof and the cycle model diverged,
			// and the instruction executes through its handler instead
			// of trusting either.
			if ok && ci.Exact && ci.CostBase == base && ci.CostWS == wsCo &&
				ci.FlashReads == fr && ci.SRAMReads == sr && ci.SRAMWrites == sw {
				if e.kind == kBCond && ci.TakenExtra != refill {
					break
				}
				op.kind = e.kind
				op.cB, op.cW, op.cFR, op.cSR, op.cSW, op.cN = base, wsCo, fr, sr, sw, 1
				fast = true
				switch e.kind {
				case kB:
					blk.term = tmB
					blk.btgt = e.tgt
				case kBCond:
					blk.term = tmCond
					blk.btgt = e.tgt
					blk.takenExtra = ci.TakenExtra // == refill, verified above
				}
			}
		}
		if !fast {
			op.kind = tDelegate
			op.cls = RegionNone
			if ii == last && control {
				blk.term = tmDyn
			}
		}
		blk.ops = append(blk.ops, op)
	}
	if addr != cb.End {
		return blk, false
	}
	// A non-control final instruction falls through; a delegated
	// non-control final instruction still does (the handler advances
	// the PC to blk.next itself, term stays tmFall).
	fuseBlock(&blk)
	// Prefix sums and totals over the fused op sequence.
	var b, w, fr, sr, sw, n uint64
	for i := range blk.ops {
		op := &blk.ops[i]
		op.preB, op.preW, op.preFR, op.preSR, op.preSW, op.preN = b, w, fr, sr, sw, n
		b += op.cB
		w += op.cW
		fr += op.cFR
		sr += op.cSR
		sw += op.cSW
		n += op.cN
	}
	blk.totB, blk.totW, blk.totFR, blk.totSR, blk.totSW, blk.totN = b, w, fr, sr, sw, n
	if cb.SelfLoop && blk.term == tmCond && blk.btgt == blk.start && cb.Bound > 0 {
		blk.selfLoop = true
		blk.bound = cb.Bound
		switch {
		case detectMacLoop(&blk):
			blk.loop = loopMac
		case detectGatherLoop(&blk):
			blk.loop = loopGather
		}
	}
	return blk, true
}

// detectMacLoop recognizes the whole-loop fusion target: a certified
// self-loop whose entire body is one MAC group and one counted-loop
// latch over the same index register,
//
//	ldrsb d1,[b1,i]; ldrsb d2,[b2,i]; muls; adds acc
//	adds i,#imm; cmp i,lim; b<cond> (to the header)
//
// with the dataflow pinned so every register can live in a host local
// across iterations: the multiply combines exactly the two loaded
// values, the accumulate folds the product in place, the bases, limit,
// and accumulator are loop-invariant or written only by their own
// role, and deviation replay from the group head stays idempotent.
// Such a loop executes in execMacLoop with no per-op dispatch at all.
func detectMacLoop(blk *tblock) bool {
	if len(blk.ops) != 2 || blk.ops[0].kind != tMac || blk.ops[1].kind != tIncCmpB {
		return false
	}
	o0, o1 := &blk.ops[0], &blk.ops[1]
	d1, d2, acc, i := o0.rd, o0.rd2, o0.rd4, o0.rm
	b1, b2, lim := o0.rn, o0.rn2, o1.rm2
	if o0.rm2 != i || o1.rd != i || o1.rd2 != i {
		return false
	}
	if !((o0.rd3 == d1 && o0.rm3 == d2) || (o0.rd3 == d2 && o0.rm3 == d1)) {
		return false
	}
	if o0.rd4 != o0.rn4 || o0.rm4 != o0.rd3 {
		return false
	}
	// Pairwise-distinct written registers; invariants never written.
	if d1 == d2 || d1 == acc || d1 == i || d2 == acc || d2 == i || acc == i {
		return false
	}
	for _, inv := range [3]uint8{b1, b2, lim} {
		if inv == d1 || inv == d2 || inv == acc || inv == i {
			return false
		}
	}
	return true
}

// detectGatherLoop recognizes the ternary gather loop, the inner loop of
// the block, mixed and delta kernels: a certified self-loop whose fused
// ops are exactly
//
//	ldrb|ldrh X,[P,#0]; adds P,#s         index load, cursor advance
//	ldrsb V,[B,X]                         gather
//	adds B,B,X                            optional moving base (delta)
//	adds|subs A,A,V                       accumulate
//	subs N,#d; b<cond> (to the header)    countdown latch
//
// P, B, A and N are pairwise distinct and distinct from X and V, so each
// lives in a host local written only by its own role. X == V (the block
// kernel's reuse of one register) is allowed only without the moving
// base, which reads X after the gather. Deviation replay stays exact at
// both loads: the index load is the block head, and the gather's
// operands are live in registers when it is abandoned.
func detectGatherLoop(blk *tblock) bool {
	ops := blk.ops
	n := len(ops)
	if n != 5 && n != 6 {
		return false
	}
	ld, adv, g, acc, latch := &ops[0], &ops[1], &ops[2], &ops[n-2], &ops[n-1]
	if (ld.kind != kLdrbImm && ld.kind != kLdrhImm) || ld.imm != 0 ||
		adv.kind != kAddsImm8 || g.kind != kLdrsbReg ||
		(acc.kind != kAddsReg && acc.kind != kSubsReg) || latch.kind != tDecB {
		return false
	}
	x, p, v, b, a, cnt := ld.rd, ld.rn, g.rd, g.rn, acc.rd, latch.rd
	if adv.rd != p || g.rm != x || acc.rn != a || acc.rm != v {
		return false
	}
	if n == 6 {
		m := &ops[3]
		if m.kind != kAddsReg || m.rd != b || m.rn != b || m.rm != x || x == v {
			return false
		}
	}
	roles := [4]uint8{p, b, a, cnt}
	for i, r := range roles {
		if r == x || r == v {
			return false
		}
		for _, q := range roles[i+1:] {
			if r == q {
				return false
			}
		}
	}
	return true
}

// certRegion maps a certified instruction's proven region to the
// translator's enum; unproven and non-exact accesses stay RegionNone.
func certRegion(ci *CertInstr) uint8 {
	if !ci.Exact {
		return RegionNone
	}
	return ci.Region
}

// fuseBlock runs the peephole pass over a lowered block, replacing the
// hot kernel sequences with single multi-instruction ops:
//
//	ldrsb Ra,[..]; ldrsb Rb,[..]; muls; adds  ->  tMac
//	adds Rd,#imm8; cmp Ra,Rb; b<cond>         ->  tIncCmpB
//	subs Rd,#imm8; b<cond>                    ->  tDecB
//
// Fusion never changes architectural semantics: the MAC's intermediate
// flag writes are dead (muls and adds rewrite NZ / NZCV), and the latch
// patterns' final flags come from their last flag-setting member. A
// fused group can only deviate at one of its loads; replay safety
// (re-executing from the group's first instruction) requires the first
// load's destination to be distinct from its own address operands.
// A self-loop whose fused ops form a MAC loop or a gather loop then runs
// whole in its executor (detectMacLoop, detectGatherLoop); the gather
// loop itself needs no new fused op — it is the unfused loads and
// accumulate ahead of a tDecB latch.
func fuseBlock(blk *tblock) {
	ops := blk.ops
	var out []ttop
	for i := 0; i < len(ops); i++ {
		// The absorbed adds is never a branch, so a tMac can end a
		// fall-through block but can never swallow a fast terminator.
		if i+3 < len(ops) &&
			ops[i].kind == kLdrsbReg && ops[i+1].kind == kLdrsbReg &&
			ops[i+2].kind == kMuls && ops[i+3].kind == kAddsReg &&
			ops[i].cls != RegionNone && ops[i+1].cls != RegionNone &&
			ops[i].rd != ops[i].rn && ops[i].rd != ops[i].rm {
			f := ops[i]
			f.kind = tMac
			f.cls2 = ops[i+1].cls
			f.rd2, f.rn2, f.rm2 = ops[i+1].rd, ops[i+1].rn, ops[i+1].rm
			f.rd3, f.rm3 = ops[i+2].rd, ops[i+2].rm
			f.rd4, f.rn4, f.rm4 = ops[i+3].rd, ops[i+3].rn, ops[i+3].rm
			sumInto(&f, &ops[i+1], &ops[i+2], &ops[i+3])
			out = append(out, f)
			blk.fused += 3
			i += 3
			continue
		}
		if blk.term == tmCond && i+2 == len(ops)-1 &&
			ops[i].kind == kAddsImm8 && ops[i+1].kind == kCmpReg && ops[i+2].kind == kBCond {
			f := ops[i]
			f.kind = tIncCmpB
			f.rd2, f.rm2 = ops[i+1].rd, ops[i+1].rm
			f.cond, f.tgt = ops[i+2].cond, ops[i+2].tgt
			sumInto(&f, &ops[i+1], &ops[i+2])
			out = append(out, f)
			blk.fused += 2
			i += 2
			continue
		}
		if blk.term == tmCond && i+1 == len(ops)-1 &&
			ops[i].kind == kSubsImm8 && ops[i+1].kind == kBCond {
			f := ops[i]
			f.kind = tDecB
			f.cond, f.tgt = ops[i+1].cond, ops[i+1].tgt
			sumInto(&f, &ops[i+1])
			out = append(out, f)
			blk.fused++
			i++
			continue
		}
		out = append(out, ops[i])
	}
	blk.ops = out
}

// sumInto folds the certified constants of the absorbed ops into the
// fused op.
func sumInto(f *ttop, rest ...*ttop) {
	for _, o := range rest {
		f.cB += o.cB
		f.cW += o.cW
		f.cFR += o.cFR
		f.cSR += o.cSR
		f.cSW += o.cSW
		f.cN += o.cN
	}
}

// runTranslated is Run's superblock loop. Preconditions that hold for
// the whole run (trace already excluded by Run) are checked once; any
// failure falls back to the predecoded tier for the entire run.
// Mid-run, any PC without a translated block — uncertified code, a
// deviation replay point, a dropped block — takes interpreted Steps
// until dispatch lands on a translated block again, and a block whose
// full pass would overrun the budget is likewise stepped, so budget
// exhaustion cuts exactly where the per-instruction tiers cut.
func (c *CPU) runTranslated(maxInstructions uint64) error {
	tt := c.ttab
	if tt == nil || c.ttabGen != c.Bus.flashGen ||
		c.SysTick.Reload > 0 || c.pendingIRQ ||
		tt.profile != c.Profile.Name || tt.refill != c.Profile.PipelineRefill ||
		tt.mulCycles != c.MulCycles ||
		c.Bus.SRAMBase < uint32(len(c.Bus.Flash)) {
		return c.runPredecoded(maxInstructions)
	}
	if c.Halted && maxInstructions > 0 {
		return nil
	}
	var x tctx
	x.init(c)
	for n := uint64(0); n < maxInstructions; {
		pc := c.R[PC]
		bi := int32(-1)
		if off := pc - tt.base; off&1 == 0 && off>>1 < uint32(len(tt.bidx)) {
			bi = tt.bidx[off>>1]
		}
		if bi < 0 || n+tt.blocks[bi].nInstr > maxInstructions {
			err := c.Step()
			if err == nil {
				n++
				if c.Halted {
					return nil
				}
				continue
			}
			if err == ErrHalted {
				return nil
			}
			return err
		}
		retired, err := c.execTBlock(&x, &tt.blocks[bi], maxInstructions-n)
		n += retired
		if err != nil {
			return err
		}
		if c.Halted {
			return nil
		}
		if retired == 0 && c.R[PC] == pc {
			// The block deviated at its first instruction (its very
			// first access left the certified region), so the PC is
			// back on the block head: execute that instruction through
			// the interpreter to make progress before re-dispatching.
			if err := c.Step(); err != nil {
				if err == ErrHalted {
					return nil
				}
				return err
			}
			n++
			if c.Halted {
				return nil
			}
		}
	}
	return &BudgetError{Instructions: maxInstructions, PC: c.R[PC]}
}

// tctx is the per-run bus context hoisted out of the block executor,
// mirroring runPredecoded's loop invariants.
type tctx struct {
	ws                         uint64
	sram, flash                []byte
	sramBase, flashBase        uint32
	sramLen, flashLen          uint32
	sramWordLim, sramHalfLim   uint32
	flashWordLim, flashHalfLim uint32
	tmr                        *Timer
}

func (x *tctx) init(c *CPU) {
	bus := c.Bus
	x.ws = uint64(bus.FlashWaitStates)
	x.sram, x.flash = bus.SRAM, bus.Flash
	x.sramBase, x.flashBase = bus.SRAMBase, bus.FlashBase
	x.sramLen, x.flashLen = uint32(len(bus.SRAM)), uint32(len(bus.Flash))
	if x.sramLen >= 4 {
		x.sramWordLim, x.sramHalfLim = x.sramLen-3, x.sramLen-1
	}
	if x.flashLen >= 4 {
		x.flashWordLim, x.flashHalfLim = x.flashLen-3, x.flashLen-1
	}
	x.tmr = bus.Timer
}

// execTBlock executes one translated superblock (iterating in place
// when it is a certified self-loop) and returns the number of
// instructions retired. Architectural counters are touched only at
// delegation points, deviations, and block exits, where the certified
// constants flush in sums that commute exactly with per-instruction
// accounting. On return the architectural PC and flags are live:
// either at the next block boundary, or on the instruction the block
// abandoned (deviation), or at the fault point (error).
func (c *CPU) execTBlock(x *tctx, blk *tblock, budget uint64) (uint64, error) {
	switch blk.loop {
	case loopMac:
		return c.execMacLoop(x, blk, budget), nil
	case loopGather:
		return c.execGatherLoop(x, blk, budget), nil
	}
	sram, flash := x.sram, x.flash
	ws := x.ws
	fN, fZ, fC, fV := c.N, c.Z, c.C, c.V
	var retired uint64
	var flB, flW, flFR, flSR, flSW, flN uint64
	var pend uint64 // deferred pure self-loop passes, each via the taken edge
	var impure bool // this iteration flushed counters at a delegation
	var op *ttop
	maxIter := uint64(1)
	if blk.selfLoop {
		maxIter = loopIters(blk, budget)
	}
	ops := blk.ops
	for it := uint64(0); it < maxIter; it++ {
		flB, flW, flFR, flSR, flSW, flN = 0, 0, 0, 0, 0, 0
		impure = false
		taken := false
		for i := 0; i < len(ops); i++ {
			op = &ops[i]
			switch op.kind {
			case kMovsImm8:
				v := op.imm
				c.R[op.rd&15] = v
				fN, fZ = v&0x8000_0000 != 0, v == 0
			case kCmpImm8:
				a, b := c.R[op.rn&15], op.imm
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAddsImm8:
				a, b := c.R[op.rd&15], op.imm
				res := a + b
				fC = res < a
				fV = (^(a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kSubsImm8:
				a, b := c.R[op.rd&15], op.imm
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAddsReg:
				a, b := c.R[op.rn&15], c.R[op.rm&15]
				res := a + b
				fC = res < a
				fV = (^(a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kSubsReg:
				a, b := c.R[op.rn&15], c.R[op.rm&15]
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAddsImm3:
				a, b := c.R[op.rn&15], op.imm
				res := a + b
				fC = res < a
				fV = (^(a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kSubsImm3:
				a, b := c.R[op.rn&15], op.imm
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kMuls:
				res := c.R[op.rd&15] * c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAnds:
				res := c.R[op.rd&15] & c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kEors:
				res := c.R[op.rd&15] ^ c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kOrrs:
				res := c.R[op.rd&15] | c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kBics:
				res := c.R[op.rd&15] &^ c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kMvns:
				res := ^c.R[op.rm&15]
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kCmpReg:
				a, b := c.R[op.rd&15], c.R[op.rm&15]
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kLslsImm:
				val := c.R[op.rm&15]
				fC = val&(1<<(32-op.imm)) != 0
				res := val << op.imm
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kLsrsImm:
				val := c.R[op.rm&15]
				fC = val&(1<<(op.imm-1)) != 0
				res := val >> op.imm
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAsrsImm:
				val := c.R[op.rm&15]
				fC = val&(1<<(op.imm-1)) != 0
				res := uint32(int32(val) >> op.imm)
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kLslsReg:
				c.C = fC
				res := c.shiftReg(c.R[op.rd&15], c.R[op.rm&15], shiftLSL)
				fC = c.C
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kLsrsReg:
				c.C = fC
				res := c.shiftReg(c.R[op.rd&15], c.R[op.rm&15], shiftLSR)
				fC = c.C
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kAsrsReg:
				c.C = fC
				res := c.shiftReg(c.R[op.rd&15], c.R[op.rm&15], shiftASR)
				fC = c.C
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case kMovHi:
				c.R[op.rd&15] = c.R[op.rm&15]
			case kSxth:
				c.R[op.rd&15] = uint32(int32(int16(c.R[op.rm&15])))
			case kSxtb:
				c.R[op.rd&15] = uint32(int32(int8(c.R[op.rm&15])))
			case kUxth:
				c.R[op.rd&15] = c.R[op.rm&15] & 0xffff
			case kUxtb:
				c.R[op.rd&15] = c.R[op.rm&15] & 0xff
			case kB:
				// Fully charged in the block constants; PC set at exit.
			case kBCond:
				taken = condFlags(op.cond, fN, fZ, fC, fV)
			case kLdrLit:
				if o := op.tgt - x.flashBase; op.cls == RegionFlash && o < x.flashWordLim {
					c.R[op.rd&15] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
						uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				} else {
					goto deviate
				}
			case kLdrImm:
				addr := c.R[op.rn&15] + op.imm
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; addr&3 == 0 && o < x.sramWordLim {
						c.R[op.rd&15] = uint32(sram[o]) | uint32(sram[o+1])<<8 |
							uint32(sram[o+2])<<16 | uint32(sram[o+3])<<24
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; addr&3 == 0 && o < x.flashWordLim {
					c.R[op.rd&15] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
						uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				} else {
					goto deviate
				}
			case kStrImm:
				addr := c.R[op.rn&15] + op.imm
				if o := addr - x.sramBase; addr&3 == 0 && o < x.sramWordLim {
					v := c.R[op.rd&15]
					sram[o], sram[o+1], sram[o+2], sram[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				} else {
					goto deviate
				}
			case kLdrbImm:
				addr := c.R[op.rn&15] + op.imm
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; o < x.sramLen {
						c.R[op.rd&15] = uint32(sram[o])
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; o < x.flashLen {
					c.R[op.rd&15] = uint32(flash[o])
				} else {
					goto deviate
				}
			case kStrbImm:
				addr := c.R[op.rn&15] + op.imm
				if o := addr - x.sramBase; o < x.sramLen {
					sram[o] = byte(c.R[op.rd&15])
				} else {
					goto deviate
				}
			case kLdrhImm:
				addr := c.R[op.rn&15] + op.imm
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; addr&1 == 0 && o < x.sramHalfLim {
						c.R[op.rd&15] = uint32(sram[o]) | uint32(sram[o+1])<<8
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; addr&1 == 0 && o < x.flashHalfLim {
					c.R[op.rd&15] = uint32(flash[o]) | uint32(flash[o+1])<<8
				} else {
					goto deviate
				}
			case kStrhImm:
				addr := c.R[op.rn&15] + op.imm
				if o := addr - x.sramBase; addr&1 == 0 && o < x.sramHalfLim {
					v := c.R[op.rd&15]
					sram[o], sram[o+1] = byte(v), byte(v>>8)
				} else {
					goto deviate
				}
			case kLdrReg:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; addr&3 == 0 && o < x.sramWordLim {
						c.R[op.rd&15] = uint32(sram[o]) | uint32(sram[o+1])<<8 |
							uint32(sram[o+2])<<16 | uint32(sram[o+3])<<24
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; addr&3 == 0 && o < x.flashWordLim {
					c.R[op.rd&15] = uint32(flash[o]) | uint32(flash[o+1])<<8 |
						uint32(flash[o+2])<<16 | uint32(flash[o+3])<<24
				} else {
					goto deviate
				}
			case kStrReg:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if o := addr - x.sramBase; addr&3 == 0 && o < x.sramWordLim {
					v := c.R[op.rd&15]
					sram[o], sram[o+1], sram[o+2], sram[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				} else {
					goto deviate
				}
			case kLdrbReg:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; o < x.sramLen {
						c.R[op.rd&15] = uint32(sram[o])
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; o < x.flashLen {
					c.R[op.rd&15] = uint32(flash[o])
				} else {
					goto deviate
				}
			case kStrbReg:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if o := addr - x.sramBase; o < x.sramLen {
					sram[o] = byte(c.R[op.rd&15])
				} else {
					goto deviate
				}
			case kLdrsbReg:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; o < x.sramLen {
						c.R[op.rd&15] = uint32(int32(int8(sram[o])))
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; o < x.flashLen {
					c.R[op.rd&15] = uint32(int32(int8(flash[o])))
				} else {
					goto deviate
				}
			case tMac:
				addr := c.R[op.rn&15] + c.R[op.rm&15]
				if op.cls == RegionSRAM {
					if o := addr - x.sramBase; o < x.sramLen {
						c.R[op.rd&15] = uint32(int32(int8(sram[o])))
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; o < x.flashLen {
					c.R[op.rd&15] = uint32(int32(int8(flash[o])))
				} else {
					goto deviate
				}
				addr = c.R[op.rn2&15] + c.R[op.rm2&15]
				if op.cls2 == RegionSRAM {
					if o := addr - x.sramBase; o < x.sramLen {
						c.R[op.rd2&15] = uint32(int32(int8(sram[o])))
					} else {
						goto deviate
					}
				} else if o := addr - x.flashBase; o < x.flashLen {
					c.R[op.rd2&15] = uint32(int32(int8(flash[o])))
				} else {
					goto deviate
				}
				res := c.R[op.rd3&15] * c.R[op.rm3&15]
				c.R[op.rd3&15] = res
				a, b := c.R[op.rn4&15], c.R[op.rm4&15]
				res = a + b
				fC = res < a
				fV = (^(a^b)&(a^res))>>31 != 0
				c.R[op.rd4&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
			case tIncCmpB:
				c.R[op.rd&15] += op.imm
				a, b := c.R[op.rd2&15], c.R[op.rm2&15]
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				fN, fZ = res&0x8000_0000 != 0, res == 0
				taken = condFlags(op.cond, fN, fZ, fC, fV)
			case tDecB:
				a, b := c.R[op.rd&15], op.imm
				res := a - b
				fC = a >= b
				fV = ((a^b)&(a^res))>>31 != 0
				c.R[op.rd&15] = res
				fN, fZ = res&0x8000_0000 != 0, res == 0
				taken = condFlags(op.cond, fN, fZ, fC, fV)
			case tBkpt:
				c.Halted = true
				c.HaltCode = uint8(op.imm)
			default: // tDelegate
				// Flush any deferred full passes, then the prefix
				// constants, so the handler observes the exact
				// per-instruction cycle count (the telemetry CNT register
				// reads through c.Cycles); then account this retire
				// individually, exactly as the predecoded loop's delegate
				// path does.
				impure = true
				if pend != 0 {
					c.Cycles += pend * (blk.totB + blk.totW*ws + blk.takenExtra)
					c.Bus.FlashReads += pend * blk.totFR
					c.Bus.SRAMReads += pend * blk.totSR
					c.Bus.SRAMWrites += pend * blk.totSW
					c.Instructions += pend * blk.totN
					retired += pend * blk.totN
					pend = 0
				}
				c.Cycles += (op.preB - flB) + (op.preW-flW)*ws
				c.Bus.FlashReads += op.preFR - flFR
				c.Bus.SRAMReads += op.preSR - flSR
				c.Bus.SRAMWrites += op.preSW - flSW
				c.Instructions += op.preN - flN
				retired += op.preN - flN
				flB, flW, flFR, flSR, flSW, flN = op.preB, op.preW, op.preFR, op.preSR, op.preSW, op.preN
				c.R[PC] = op.addr
				c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
				c.Cycles += ws
				cycles, err := op.pe.fn(c, op.pe)
				fN, fZ, fC, fV = c.N, c.Z, c.C, c.V
				if err != nil {
					// The failing instruction's fetch was performed and
					// its wait states pre-charged; it did not retire.
					c.Bus.FlashReads++
					return retired, fmt.Errorf("at 0x%08x (op 0x%04x): %w", op.addr, op.pe.op, err)
				}
				c.Cycles += uint64(cycles)
				c.Bus.FlashReads++
				c.Instructions++
				retired++
				if x.tmr != nil && x.tmr.pending() {
					x.tmr.commit(c.Cycles)
				}
			}
		}
		// A continuing self-loop pass that stayed entirely on the fast
		// path defers its constants: consecutive pure passes flush in
		// one multiply at the next sync point (delegation, deviation,
		// or loop exit), keeping the steady-state kernel loop free of
		// architectural counter traffic.
		if !impure && blk.selfLoop && taken && it+1 < maxIter {
			pend++
			continue
		}
		// Block exit: flush deferred passes and the remaining constants
		// in one shot.
		if pend != 0 {
			c.Cycles += pend * (blk.totB + blk.totW*ws + blk.takenExtra)
			c.Bus.FlashReads += pend * blk.totFR
			c.Bus.SRAMReads += pend * blk.totSR
			c.Bus.SRAMWrites += pend * blk.totSW
			c.Instructions += pend * blk.totN
			retired += pend * blk.totN
			pend = 0
		}
		c.Cycles += (blk.totB - flB) + (blk.totW-flW)*ws
		if taken {
			c.Cycles += blk.takenExtra
		}
		c.Bus.FlashReads += blk.totFR - flFR
		c.Bus.SRAMReads += blk.totSR - flSR
		c.Bus.SRAMWrites += blk.totSW - flSW
		c.Instructions += blk.totN - flN
		retired += blk.totN - flN
		switch blk.term {
		case tmFall:
			c.R[PC] = blk.next
		case tmB:
			c.R[PC] = blk.btgt
		case tmCond:
			if taken {
				c.R[PC] = blk.btgt
				if blk.selfLoop && it+1 < maxIter {
					continue
				}
			} else {
				c.R[PC] = blk.next
			}
		case tmHalt:
			c.R[PC] = blk.next
		case tmDyn:
			// The delegated terminator's handler set the PC.
		}
		break
	}
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	return retired, nil

deviate:
	// A fast memory op's address left the certified region (or its
	// bounds): abandon the block before performing the access. The
	// prefix constants flush exactly; the PC lands on the abandoned
	// instruction — for a fused group, its first instruction, whose
	// replayed members are idempotent by the fusion constraints — and
	// the dispatch loop re-executes it through the interpreted path,
	// which performs the real bus access with identical semantics,
	// accounting, and fault text.
	if pend != 0 {
		c.Cycles += pend * (blk.totB + blk.totW*ws + blk.takenExtra)
		c.Bus.FlashReads += pend * blk.totFR
		c.Bus.SRAMReads += pend * blk.totSR
		c.Bus.SRAMWrites += pend * blk.totSW
		c.Instructions += pend * blk.totN
		retired += pend * blk.totN
	}
	c.Cycles += (op.preB - flB) + (op.preW-flW)*ws
	c.Bus.FlashReads += op.preFR - flFR
	c.Bus.SRAMReads += op.preSR - flSR
	c.Bus.SRAMWrites += op.preSW - flSW
	c.Instructions += op.preN - flN
	retired += op.preN - flN
	c.R[PC] = op.addr
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	return retired, nil
}

// loopIters is the pass limit of one self-loop dispatch: the full passes
// the budget covers, at most the certified bound, and at least one (the
// dispatch loop admits a block only when the budget covers a pass).
func loopIters(blk *tblock, budget uint64) uint64 {
	n := budget / blk.nInstr
	if n > blk.bound {
		n = blk.bound
	}
	if n == 0 {
		n = 1
	}
	return n
}

// loopExit ends a whole-loop executor after k completed passes, all but
// possibly the last through the taken edge. On deviation (dev != nil)
// the PC lands on dev's instruction and dev's prefix constants flush on
// top of the passes; otherwise the PC follows the last latch. Returns
// the instructions retired.
func (c *CPU) loopExit(x *tctx, blk *tblock, k uint64, taken bool, dev *ttop) uint64 {
	takenPasses := k
	var b, w, fr, sr, sw, n uint64
	switch {
	case dev != nil:
		c.R[PC] = dev.addr
		b, w, fr, sr, sw, n = dev.preB, dev.preW, dev.preFR, dev.preSR, dev.preSW, dev.preN
	case taken:
		c.R[PC] = blk.btgt
	default:
		takenPasses = k - 1
		c.R[PC] = blk.next
	}
	c.Cycles += k*(blk.totB+blk.totW*x.ws) + takenPasses*blk.takenExtra + b + w*x.ws
	c.Bus.FlashReads += k*blk.totFR + fr
	c.Bus.SRAMReads += k*blk.totSR + sr
	c.Bus.SRAMWrites += k*blk.totSW + sw
	c.Instructions += k*blk.totN + n
	return k*blk.totN + n
}

// execMacLoop executes a whole-loop fused MAC superblock: every
// architectural register of the loop lives in a host local across
// iterations, so the steady-state cost of the certified kernel inner
// loop is a handful of host instructions per emulated instruction,
// with no dispatch and no per-iteration counter traffic. Accounting
// flushes once at exit as iteration-count multiples of the block
// constants (the intermediate MULS/ADDS flag writes are architecturally
// dead: the latch CMP overwrites them before any exit). Deviation — a
// load address leaving its certified region — exits with the completed
// passes flushed, the PC on the group head, and the standard replay
// guarantees; the dispatch loop then retries the instruction through
// the interpreter.
func (c *CPU) execMacLoop(x *tctx, blk *tblock, budget uint64) uint64 {
	o0, o1 := &blk.ops[0], &blk.ops[1]
	maxIter := loopIters(blk, budget)
	sram, flash := x.sram, x.flash
	sBase, sLen := x.sramBase, x.sramLen
	fBase, fLen := x.flashBase, x.flashLen
	s1 := o0.cls == RegionSRAM
	s2 := o0.cls2 == RegionSRAM
	mulD1 := o0.rd3 == o0.rd
	cond := o1.cond
	inc := o1.imm
	b1v, b2v := c.R[o0.rn&15], c.R[o0.rn2&15]
	iv := c.R[o0.rm&15]
	v1, v2 := c.R[o0.rd&15], c.R[o0.rd2&15]
	accv := c.R[o0.rd4&15]
	limv := c.R[o1.rm2&15]
	fN, fZ, fC, fV := c.N, c.Z, c.C, c.V
	var k uint64
	var dev *ttop
	taken := false
	for k < maxIter {
		a := b1v + iv
		var t uint32
		if s1 {
			o := a - sBase
			if o >= sLen {
				dev = o0
				break
			}
			t = uint32(int32(int8(sram[o])))
		} else {
			o := a - fBase
			if o >= fLen {
				dev = o0
				break
			}
			t = uint32(int32(int8(flash[o])))
		}
		v1 = t
		a = b2v + iv
		if s2 {
			o := a - sBase
			if o >= sLen {
				dev = o0
				break
			}
			t = uint32(int32(int8(sram[o])))
		} else {
			o := a - fBase
			if o >= fLen {
				dev = o0
				break
			}
			t = uint32(int32(int8(flash[o])))
		}
		v2 = t
		p := v1 * v2
		if mulD1 {
			v1 = p
		} else {
			v2 = p
		}
		accv += p
		iv += inc
		res := iv - limv
		fC = iv >= limv
		fV = ((iv^limv)&(iv^res))>>31 != 0
		fN, fZ = res&0x8000_0000 != 0, res == 0
		k++
		taken = condFlags(cond, fN, fZ, fC, fV)
		if !taken {
			break
		}
	}
	// Write back the loop registers. On deviation at the second load,
	// v1 already holds the abandoned pass's first load — harmless: the
	// interpreter replays the group from its head, and the fusion
	// constraints make the first load idempotent.
	c.R[o0.rd&15], c.R[o0.rd2&15] = v1, v2
	c.R[o0.rd4&15] = accv
	c.R[o0.rm&15] = iv
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	return c.loopExit(x, blk, k, taken, dev)
}

// execGatherLoop executes a whole ternary gather loop (detectGatherLoop)
// in host locals: per connection one index load, one cursor advance,
// one sign-extending gather, the optional moving-base advance, one
// accumulate and the countdown latch, with no dispatch and no
// per-iteration counter traffic. Each load re-checks its address
// against its certified region (and ldrh its alignment). Only the
// latch's flags are live at a pass boundary, so the other flag writes
// are not computed in the loop. A deviation exits before the access:
// at the index load with the PC on the block head, at the gather with
// the PC on the gather, that op's prefix flushed, and the flags of the
// cursor advance; the dispatch loop then retries the instruction
// through the interpreter.
func (c *CPU) execGatherLoop(x *tctx, blk *tblock, budget uint64) uint64 {
	ops := blk.ops
	last := len(ops) - 1
	ld, g, acc, latch := &ops[0], &ops[2], &ops[last-1], &ops[last]
	maxIter := loopIters(blk, budget)
	half := ld.kind == kLdrhImm
	moving := len(ops) == 6
	sub := acc.kind == kSubsReg
	step, dec, cond := ops[1].imm, latch.imm, latch.cond
	// Each load reads one region, chosen here: its bytes, base address,
	// and the exclusive offset limit of an in-bounds access.
	iMem, iBase, iLim := x.flash, x.flashBase, x.flashLen
	if ld.cls == RegionSRAM {
		iMem, iBase, iLim = x.sram, x.sramBase, x.sramLen
	}
	if half {
		iLim--
	}
	gMem, gBase, gLim := x.flash, x.flashBase, x.flashLen
	if g.cls == RegionSRAM {
		gMem, gBase, gLim = x.sram, x.sramBase, x.sramLen
	}
	rx, rp, rv, rb, ra, rn := ld.rd&15, ld.rn&15, g.rd&15, g.rn&15, acc.rd&15, latch.rd&15
	xv, pv, vv, bv, av, nv := c.R[rx], c.R[rp], c.R[rv], c.R[rb], c.R[ra], c.R[rn]
	fN, fZ, fC, fV := c.N, c.Z, c.C, c.V
	var k uint64
	var dev *ttop
	taken := false
	for k < maxIter {
		o := pv - iBase
		if o >= iLim || (half && pv&1 != 0) {
			dev = ld
			break
		}
		if half {
			xv = uint32(iMem[o]) | uint32(iMem[o+1])<<8
		} else {
			xv = uint32(iMem[o])
		}
		pv += step
		o = bv + xv - gBase
		if o >= gLim {
			// The architectural flags are those of adds P,#s.
			a := pv - step
			fC = pv < a
			fV = (^(a^step)&(a^pv))>>31 != 0
			fN, fZ = pv&0x8000_0000 != 0, pv == 0
			dev = g
			break
		}
		vv = uint32(int32(int8(gMem[o])))
		if moving {
			bv += xv
		}
		if sub {
			av -= vv
		} else {
			av += vv
		}
		res := nv - dec
		fC = nv >= dec
		fV = ((nv^dec)&(nv^res))>>31 != 0
		fN, fZ = res&0x8000_0000 != 0, res == 0
		nv = res
		k++
		taken = condFlags(cond, fN, fZ, fC, fV)
		if !taken {
			break
		}
	}
	// With X == V the register holds the gather unless the pass was
	// abandoned at the gather, where it holds the fresh index.
	if dev == g {
		c.R[rv], c.R[rx] = vv, xv
	} else {
		c.R[rx], c.R[rv] = xv, vv
	}
	c.R[rp], c.R[rb], c.R[ra], c.R[rn] = pv, bv, av, nv
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	return c.loopExit(x, blk, k, taken, dev)
}

// condFlags is condPassed over local flag copies; conds 0xe/0xf never
// reach a translated branch (they do not predecode as kBCond).
func condFlags(cond uint8, fN, fZ, fC, fV bool) bool {
	switch cond {
	case 0x0:
		return fZ
	case 0x1:
		return !fZ
	case 0x2:
		return fC
	case 0x3:
		return !fC
	case 0x4:
		return fN
	case 0x5:
		return !fN
	case 0x6:
		return fV
	case 0x7:
		return !fV
	case 0x8:
		return fC && !fZ
	case 0x9:
		return !fC || fZ
	case 0xa:
		return fN == fV
	case 0xb:
		return fN != fV
	case 0xc:
		return !fZ && fN == fV
	default:
		return fZ || fN != fV
	}
}
