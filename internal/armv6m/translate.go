package armv6m

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// The certified-loop fast path. When an image carries a neuroc-cert/v1
// certificate, Translate lowers its certified self-loops (single-block
// natural loops with a proven trip bound) and keeps those of two known
// shapes, which run whole in host locals with no per-instruction
// dispatch: the dense kernel's MAC loop (execMacLoop) and the ternary
// kernels' gather loop — one index load, one gather, one adds/subs per
// connection, optionally advancing a moving base (execGatherLoop; the
// block, mixed and delta inner loops). It also lowers, from the
// predecode entries alone, the unrolled kernels' straight-line
// gather-accumulate runs — ldrb; sxtb; then one adds/subs/mov/rsbs per
// nonzero weight, with window moves between gathers — into a third
// executor (execRun) that retires a whole run in one branch-free host
// loop. The predecoded dispatcher (runPredecoded) runs over the table's
// copy of the predecode entries, where each kept loop's or run's head
// carries the kind kLoop, so at a head the whole loop or run executes
// in its executor and the steady-state cost of a kernel's accumulate
// stage is a few Go statements per emulated instruction. Every other
// instruction executes exactly as on the predecoded tier.
//
// The contract is bit-for-bit parity with the fetch/decode test oracle
// (oracle_test.go), which the predecoded and on-demand tiers hold too,
// enforced by the differential tests and FuzzTranslateParity:
//
//   - The translator never trusts a certified fact it cannot check.
//     At build time every loop instruction's certified cost formula and
//     bus-counter deltas are re-derived from the decoded encoding and
//     the proven memory region. A loop with any mismatch, a structural
//     problem (non-contiguous instrs, a control transfer before the
//     latch, an encoding the core would fault on), or a shape no
//     executor knows is not kept; its PCs run on the predecoded path.
//     A run's costs are derived from the same formulas (fastFacts) at
//     the SRAM region its range check guarantees.
//   - At run time every loop load re-checks that its address falls in
//     the certified region. A miss ends the loop before the access: the
//     completed passes and the abandoned pass's prefix flush exactly
//     (their constants commute with per-instruction accounting), the
//     PC is left on the offending instruction, and the dispatcher
//     executes it on the predecoded path — which performs the real bus
//     access and reports the same fault text, cycle charge, or
//     cross-region access. A miss at the head makes no progress, so the
//     dispatcher then executes the head through its handler. A run's
//     loads are all static offsets from its window base, so it checks
//     their whole interval against SRAM once, at its head: it either
//     runs whole or makes no progress.
//   - Tracing, checked execution, armed SysTick/pending IRQs, profile
//     or multiplier mismatches, flash mutation, and the boot-alias
//     overlap disable the fast path for the whole run. A loop head
//     whose full pass, or a run head whose whole run, the remaining
//     budget does not cover executes through its handler, so budget
//     exhaustion cuts exactly where the per-instruction tiers cut.
//
// The table also carries marks: watched instruction addresses (a
// deployed image's layer boundaries) re-kinded kMark, each keeping the
// entry it replaced. The dispatcher runs a mark's instruction through
// that entry's handler and, with a MarkRecorder attached, first records
// the cycle total before the instruction's fetch when the address is
// the recorder's next unhit mark — the running total a trace hook would
// read there, at no per-instruction cost elsewhere. A mark inside a
// kept loop or run would retire inside an executor, unseen, so it is
// not placed (RecordMarks reports it).
//
// The table is immutable after Translate returns and is shared across
// all boards of a farm exactly like the predecode table it copies.

// Translated memory regions, the armv6m-side mirror of the
// certificate's proven classes. Only flash and SRAM loads have
// whole-loop fast paths; every other class is RegionNone.
const (
	RegionNone uint8 = iota
	RegionFlash
	RegionSRAM
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

	Region uint8 // RegionNone/Flash/SRAM
	Store  bool
	Exact  bool

	Target uint32
	Call   uint32
	Ret    bool
	Halt   bool
}

// CertBlock is one certified self-loop in translator form: the basic
// block [Start, End), a single-block natural loop whose header is its
// own latch, with proven trip bound Bound. A block with Bound 0 is not
// a certified loop and is skipped.
type CertBlock struct {
	Start, End uint32
	Instrs     []CertInstr
	Bound      uint64
}

// TranslationConfig pins the cycle-model parameters the certificate's
// formulas were derived under; on a core whose configuration disagrees
// the fast path stays off.
type TranslationConfig struct {
	Profile        string
	PipelineRefill int
	MulCycles      int

	// Marks lists the watched instruction addresses, in the order they
	// first retire (see MarkRecorder).
	Marks []uint32
}

// Fused-op kinds, continuing the predecode inline-dispatch kinds. Each
// stands for several architectural instructions of a loop body; the
// loop detectors match on them.
const (
	tMac     uint8 = 200 + iota // ldrsb Ra,[..]; ldrsb Rb,[..]; muls; adds — the kernel MAC
	tIncCmpB                    // adds Rd, #imm8; cmp Ra, Rb; b<cond> — counted-loop latch
	tDecB                       // subs Rd, #imm8; b<cond> — countdown-loop latch
	tRsbs                       // rsbs Rd, Rm (a kGeneric entry) — a run's negating first write
)

// ttop is one lowered loop operation: a run of 1-4 architectural
// instructions. The c* fields are the op's own certified constants; the
// pre* fields are prefix sums of the constants strictly before this op,
// used to flush exact partial totals when a pass is abandoned at this
// op.
type ttop struct {
	addr uint32 // address of its (first) instruction: the replay point on deviation
	imm  uint32

	kind uint8
	cls  uint8 // certified region of the first memory access
	cls2 uint8 // certified region of the second fused load
	cond uint8

	rd, rn, rm    uint8
	rd2, rn2, rm2 uint8
	rd3, rm3      uint8
	rd4, rn4, rm4 uint8

	cB, cW, cFR, cSR, cSW, cN             uint64
	preB, preW, preFR, preSR, preSW, preN uint64
}

// tloop is one kept certified loop, or a straight-line run (kind
// loopRun: one pass, no latch, its constants in the tot* fields).
type tloop struct {
	head  *pentry // predecode entry of the head, run through its handler on fallback
	start uint32  // the head: the taken latch's target
	next  uint32  // the exit: the not-taken latch's successor (== End)

	ops []ttop

	// nInstr is the architectural instruction count of one full pass
	// (of a whole run); the dispatcher admits a loop only when the
	// remaining budget covers a pass.
	nInstr uint64

	// Whole-pass constants, latch at its not-taken cost; takenExtra is
	// added for each pass that leaves through the taken edge.
	totB, totW, totFR, totSR, totSW, totN uint64
	takenExtra                            uint64

	kind  uint8 // loopMac, loopGather or loopRun
	bound uint64

	run *trun // loopRun only
}

// trun is a straight-line gather-accumulate run compiled for execRun.
// Every load is at a static offset from the window base B at entry, so
// the run is one interval check plus one record per gather.
type trun struct {
	x, b uint8    // the gather register X and the window base B
	acc  [4]uint8 // accumulator registers by slot; unused slots repeat slot 0
	nacc int

	// lo is the lowest load offset from B at entry; span is the highest
	// minus the lowest. delta is the net window move over the run.
	lo    int64
	span  uint32
	delta uint32

	// The run ends on a flag-setting accumulate of slot fslot; fop is its
	// kind (kAddsReg, kSubsReg or tRsbs). The exit flags are computed
	// once, from that accumulate's operands.
	fslot uint8
	fop   uint8

	gathers []tgather
}

// tgather is one gather of a run: the load offset from the run's lowest
// load, and per accumulator slot acc = acc&keep + v*sign — keep 0 for a
// first write (mov, rsbs), sign 1/-1/0 for add, subtract, untouched.
type tgather struct {
	off        uint32
	keep, sign [4]uint32
}

// tmark is one watched address: the entry its kMark replaced, or why it
// was not placed.
type tmark struct {
	addr uint32
	e    pentry
	why  string // non-empty: not placed
}

// maxLoopBound caps the trip bound and pass length of a kept loop, so
// that bound·pass never overflows (loopIters). Kernel loop bounds are
// far below it.
const maxLoopBound = 1 << 24

// Whole-loop executors.
const (
	loopMac    uint8 = iota + 1 // detectMacLoop; runs in execMacLoop
	loopGather                  // detectGatherLoop; runs in execGatherLoop
	loopRun                     // lowerRun; a straight-line run, executed in execRun
)

// TranslationTable is the certified-loop table for one certified flash
// image. Immutable after Translate returns; safe to share across any
// number of cores.
type TranslationTable struct {
	// entries is the predecode table's entries (index-aligned, from
	// FlashBase) with each kept loop's head re-kinded kLoop and each
	// placed mark re-kinded kMark, their imm the index into loops or
	// marks; nil when nothing is kept or marked, and the dispatcher
	// then uses the predecode table.
	entries []pentry
	loops   []tloop
	marks   []tmark

	profile   string
	refill    int
	mulCycles int

	build time.Duration
}

// MacLoops is the number of loops that run whole in execMacLoop.
func (t *TranslationTable) MacLoops() int { return t.count(loopMac) }

// GatherLoops is the number of loops that run whole in execGatherLoop.
func (t *TranslationTable) GatherLoops() int { return t.count(loopGather) }

// Runs is the number of straight-line gather-accumulate runs that
// execute whole in execRun.
func (t *TranslationTable) Runs() int { return t.count(loopRun) }

func (t *TranslationTable) count(kind uint8) int {
	n := 0
	for i := range t.loops {
		if t.loops[i].kind == kind {
			n++
		}
	}
	return n
}

// BuildTime is the host time spent translating.
func (t *TranslationTable) BuildTime() time.Duration { return t.build }

// UseTranslation attaches a shared table built by Translate against
// the same flash content this CPU's bus aliases (nil detaches). The
// table is used until flash mutates; it does not rebuild. It detaches
// any mark recorder (RecordMarks), which was sized for the old table.
func (c *CPU) UseTranslation(t *TranslationTable) {
	c.ttab = t
	c.marks = nil
	c.ttabGen = c.Bus.flashGen
}

// TranslationAttached reports whether a translation table is attached
// and still valid against the current flash generation.
func (c *CPU) TranslationAttached() bool {
	return c.ttab != nil && c.ttabGen == c.Bus.flashGen
}

// loopTable returns the attached table when this run may use its loops
// and marks: translation enabled, some loop kept or mark placed, the
// flash generation current, the core's cycle model the certified one,
// and SRAM clear of the flash boot alias (where the loops' region checks
// would misclassify).
func (c *CPU) loopTable() *TranslationTable {
	tt := c.ttab
	if tt == nil || tt.entries == nil || c.DisableTranslation || c.ttabGen != c.Bus.flashGen ||
		tt.profile != c.Profile.Name || tt.refill != c.Profile.PipelineRefill ||
		tt.mulCycles != c.MulCycles || c.Bus.SRAMBase < uint32(len(c.Bus.Flash)) {
		return nil
	}
	return tt
}

// fastFacts re-derives the exact cost formula and bus-counter deltas
// the emulator charges for one retire of a kind the MAC and gather
// loops and the straight-line runs are made of, given the proven memory
// region. ok is false for every other kind, and for a load whose region
// is not flash or SRAM.
func fastFacts(kind uint8, region uint8, mulCyc uint64) (base, wsCo, fr, sr, sw uint64, ok bool) {
	switch kind {
	case kAddsImm8, kSubsImm8, kAddsReg, kSubsReg, kCmpReg, kSxtb, kMovHi, tRsbs:
		return 1, 1, 1, 0, 0, true
	case kMuls:
		return mulCyc, 1, 1, 0, 0, true
	case kBCond:
		return 1, 1, 1, 0, 0, true // + refill on the taken edge (TakenExtra)
	case kLdrbImm, kLdrhImm, kLdrsbReg:
		switch region {
		case RegionFlash:
			return 2, 2, 2, 0, 0, true // fetch ws + data ws
		case RegionSRAM:
			return 2, 1, 1, 1, 0, true
		}
	}
	return 0, 0, 0, 0, 0, false
}

// Translate builds the certified-loop table for a flash image from its
// certified self-loops and its predecode table. Blocks that are not
// certified loops are skipped before lowering; loops that fail
// validation or match no executor are not kept, and their PCs execute
// on the predecoded path. The straight-line runs are then found in the
// predecode entries (lowerRun). Last, each of cfg.Marks is placed. The
// table is returned even when no loop or run is kept; nil only for a
// nil predecode table.
func Translate(pt *PredecodeTable, blocks []CertBlock, cfg TranslationConfig) *TranslationTable {
	start := time.Now() //neurolint:allow nondet (host-side translation build timing; never feeds emulated state)
	if pt == nil {
		return nil
	}
	t := &TranslationTable{
		profile:   cfg.Profile,
		refill:    cfg.PipelineRefill,
		mulCycles: cfg.MulCycles,
	}
	for bi := range blocks {
		cb := &blocks[bi]
		if cb.Bound == 0 {
			continue
		}
		lp, ok := translateLoop(pt, cb, uint64(cfg.PipelineRefill), uint64(cfg.MulCycles))
		if !ok {
			continue
		}
		t.keep(pt, lp)
	}
	for i := 0; i < len(pt.entries); {
		lp, ok := lowerRun(pt, i)
		if !ok || (t.entries != nil && t.entries[i].kind == kLoop) {
			i++
			continue
		}
		t.keep(pt, lp)
		i = int((lp.next - pt.base) >> 1)
	}
	for _, a := range cfg.Marks {
		t.mark(pt, a)
	}
	t.build = time.Since(start) //neurolint:allow nondet (host-side translation build timing; never feeds emulated state)
	return t
}

// keep adds a lowered loop or run to the table and re-kinds its head.
func (t *TranslationTable) keep(pt *PredecodeTable, lp tloop) {
	if t.entries == nil {
		t.entries = append([]pentry(nil), pt.entries...)
	}
	e := &t.entries[(lp.start-pt.base)>>1]
	e.kind, e.imm = kLoop, uint32(len(t.loops))
	t.loops = append(t.loops, lp)
}

// mark adds a watched address and re-kinds its entry kMark, unless the
// address is outside the table or inside a kept loop or run. A repeated
// address shares its first mark's entry.
func (t *TranslationTable) mark(pt *PredecodeTable, addr uint32) {
	m := tmark{addr: addr}
	off := addr - pt.base
	switch {
	case off&1 != 0:
		m.why = "is misaligned"
	case off>>1 >= uint32(len(pt.entries)):
		m.why = "is outside the predecoded image"
	}
	for i := range t.loops {
		if lp := &t.loops[i]; m.why == "" && addr >= lp.start && addr < lp.next {
			m.why = fmt.Sprintf("lands on the certified loop or run at [0x%08x, 0x%08x)", lp.start, lp.next)
			break
		}
	}
	if m.why == "" {
		if t.entries == nil {
			t.entries = append([]pentry(nil), pt.entries...)
		}
		if e := &t.entries[off>>1]; e.kind != kMark {
			m.e = *e
			e.kind, e.imm = kMark, uint32(len(t.marks))
		}
	}
	t.marks = append(t.marks, m)
}

// translateLoop validates one certified self-loop against the decoded
// image and lowers it, keeping it only when every instruction has a
// fast kind whose certified facts equal the re-derived ones, only the
// last transfers control — a conditional branch back to the head — and
// the body is a MAC loop or a gather loop.
func translateLoop(pt *PredecodeTable, cb *CertBlock, refill, mulCyc uint64) (tloop, bool) {
	lp := tloop{start: cb.Start, next: cb.End, bound: cb.Bound, nInstr: uint64(len(cb.Instrs))}
	if cb.Bound > maxLoopBound || lp.nInstr > maxLoopBound {
		return lp, false
	}
	addr := cb.Start
	last := len(cb.Instrs) - 1
	for ii := range cb.Instrs {
		ci := &cb.Instrs[ii]
		if ci.Addr != addr || (ci.Size != 2 && ci.Size != 4) {
			return lp, false
		}
		off := ci.Addr - pt.base
		if off&1 != 0 || off>>1 >= uint32(len(pt.entries)) {
			return lp, false
		}
		e := &pt.entries[off>>1]
		// An encoding the core faults on, or whose decoded size
		// disagrees with the certificate, invalidates the loop.
		if e.kind == kFault || e.next != ci.Addr+uint32(ci.Size) {
			return lp, false
		}
		addr = e.next
		latch := ii == last
		control := ci.Halt || ci.Ret || ci.Target != 0 || ci.Call != 0
		if control != latch || (e.kind == kBCond) != latch || (latch && e.tgt != cb.Start) {
			return lp, false
		}
		// The certified facts must equal the re-derived ones; a
		// disagreement means the proof and the cycle model diverged,
		// and the loop runs on the predecoded path instead of trusting
		// either.
		base, wsCo, fr, sr, sw, ok := fastFacts(e.kind, ci.Region, mulCyc)
		if !ok || ci.Store || !ci.Exact || ci.CostBase != base || ci.CostWS != wsCo ||
			ci.FlashReads != fr || ci.SRAMReads != sr || ci.SRAMWrites != sw ||
			(latch && ci.TakenExtra != refill) {
			return lp, false
		}
		if ii == 0 {
			lp.head = e
		}
		lp.ops = append(lp.ops, ttop{addr: ci.Addr, imm: e.imm, kind: e.kind, cls: ci.Region,
			cond: e.cond, rd: e.rd, rn: e.rn, rm: e.rm,
			cB: base, cW: wsCo, cFR: fr, cSR: sr, cSW: sw, cN: 1})
	}
	if lp.head == nil || addr != cb.End {
		return lp, false
	}
	lp.takenExtra = refill
	fuseLoop(&lp)
	// Prefix sums and totals over the fused op sequence.
	var b, w, fr, sr, sw, n uint64
	for i := range lp.ops {
		op := &lp.ops[i]
		op.preB, op.preW, op.preFR, op.preSR, op.preSW, op.preN = b, w, fr, sr, sw, n
		b += op.cB
		w += op.cW
		fr += op.cFR
		sr += op.cSR
		sw += op.cSW
		n += op.cN
	}
	lp.totB, lp.totW, lp.totFR, lp.totSR, lp.totSW, lp.totN = b, w, fr, sr, sw, n
	switch {
	case detectMacLoop(&lp):
		lp.kind = loopMac
	case detectGatherLoop(&lp):
		lp.kind = loopGather
	default:
		return lp, false
	}
	return lp, true
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
func detectMacLoop(lp *tloop) bool {
	if len(lp.ops) != 2 || lp.ops[0].kind != tMac || lp.ops[1].kind != tIncCmpB {
		return false
	}
	o0, o1 := &lp.ops[0], &lp.ops[1]
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
// both loads: the index load is the loop head, and the gather's
// operands are live in registers when it is abandoned.
func detectGatherLoop(lp *tloop) bool {
	ops := lp.ops
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

// fuseLoop runs the peephole pass over a lowered loop body, replacing
// the kernel sequences the loop detectors match with single
// multi-instruction ops:
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
// load's destination to be distinct from its own address operands. The
// gather loop needs no fused op of its own: it is the unfused loads and
// accumulate ahead of a tDecB latch.
func fuseLoop(lp *tloop) {
	ops := lp.ops
	var out []ttop
	for i := 0; i < len(ops); i++ {
		if i+3 < len(ops) &&
			ops[i].kind == kLdrsbReg && ops[i+1].kind == kLdrsbReg &&
			ops[i+2].kind == kMuls && ops[i+3].kind == kAddsReg &&
			ops[i].rd != ops[i].rn && ops[i].rd != ops[i].rm {
			f := ops[i]
			f.kind = tMac
			f.cls2 = ops[i+1].cls
			f.rd2, f.rn2, f.rm2 = ops[i+1].rd, ops[i+1].rn, ops[i+1].rm
			f.rd3, f.rm3 = ops[i+2].rd, ops[i+2].rm
			f.rd4, f.rn4, f.rm4 = ops[i+3].rd, ops[i+3].rn, ops[i+3].rm
			sumInto(&f, &ops[i+1], &ops[i+2], &ops[i+3])
			out = append(out, f)
			i += 3
			continue
		}
		// The latch is always the last op (translateLoop).
		if i+2 == len(ops)-1 &&
			ops[i].kind == kAddsImm8 && ops[i+1].kind == kCmpReg {
			f := ops[i]
			f.kind = tIncCmpB
			f.rd2, f.rm2 = ops[i+1].rd, ops[i+1].rm
			f.cond = ops[i+2].cond
			sumInto(&f, &ops[i+1], &ops[i+2])
			out = append(out, f)
			i += 2
			continue
		}
		if i+1 == len(ops)-1 && ops[i].kind == kSubsImm8 {
			f := ops[i]
			f.kind = tDecB
			f.cond = ops[i+1].cond
			sumInto(&f, &ops[i+1])
			out = append(out, f)
			i++
			continue
		}
		out = append(out, ops[i])
	}
	lp.ops = out
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

// lowerRun lowers the straight-line gather-accumulate run that starts
// at predecode entry i: the code kernels.Unrolled emits for each group
// of output neurons, one gather per touched input and one accumulate
// per nonzero weight,
//
//	ldrb X,[B,#imm]; sxtb X,X          gather
//	adds A,A,X | subs A,A,X            accumulates, or first writes
//	  | mov A,X | rsbs A,X
//	adds|subs B,#imm8                  window moves between gathers
//
// X and B are fixed for the whole run, with at most four distinct low
// accumulator registers, none of them X or B, each written at most once
// per gather. The stretch ends at the first instruction that breaks
// these rules and is then trimmed to end after the last gather whose
// last accumulate sets the flags, so the exit flags are that
// accumulate's. ok is false when no such gather starts at i. The
// constants come from fastFacts, every load at the SRAM region that
// execRun's interval check guarantees.
func lowerRun(pt *PredecodeTable, i int) (tloop, bool) {
	ents := pt.entries
	gather := func(j int) bool {
		return j+1 < len(ents) && ents[j].kind == kLdrbImm && ents[j+1].kind == kSxtb &&
			ents[j+1].rd == ents[j].rd && ents[j+1].rm == ents[j].rd && ents[j].rd != ents[j].rn
	}
	if !gather(i) {
		return tloop{}, false
	}
	r := &trun{x: ents[i].rd, b: ents[i].rn}
	lp := tloop{head: &ents[i], start: pt.base + uint32(2*i), kind: loopRun, run: r}
	var (
		slot             [16]int8 // accumulator register -> slot + 1
		nacc             int
		cum              int64   // window offset from B at entry
		rel              []int64 // each gather's load offset from B at entry
		b, w, fr, sr, sw uint64  // running constants
		end, ends        int     // the last valid end: entry index, gathers
		endCum           int64
		endNacc          int
	)
	add := func(kind, region uint8) {
		cb, cw, cfr, csr, csw, _ := fastFacts(kind, region, 0)
		b, w, fr, sr, sw = b+cb, w+cw, fr+cfr, sr+csr, sw+csw
	}
	j := i
	for gather(j) && ents[j].rd == r.x && ents[j].rn == r.b {
		g := tgather{keep: [4]uint32{^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)}}
		rel = append(rel, cum+int64(ents[j].imm))
		add(kLdrbImm, RegionSRAM)
		add(kSxtb, RegionNone)
		var wrote [4]bool
		var last, lastSlot uint8 // the gather's last accumulate
		k := j + 2
		for ; k < len(ents); k++ {
			a := &ents[k]
			op := a.kind
			switch {
			case (op == kAddsReg || op == kSubsReg) && a.rn == a.rd && a.rm == r.x:
			case op == kMovHi && a.rm == r.x:
			case op == kGeneric && a.op&0xffc0 == 0x4240 && a.rm == r.x:
				op = tRsbs
			default:
				op = 0
			}
			if op == 0 || a.rd >= 8 || a.rd == r.x || a.rd == r.b {
				break
			}
			s := int(slot[a.rd]) - 1
			if s < 0 {
				if nacc == len(r.acc) {
					break
				}
				s = nacc
				nacc++
				slot[a.rd] = int8(nacc)
				r.acc[s] = a.rd
			}
			if wrote[s] {
				break
			}
			wrote[s] = true
			switch op {
			case kAddsReg:
				g.sign[s] = 1
			case kSubsReg:
				g.sign[s] = ^uint32(0)
			case kMovHi:
				g.keep[s], g.sign[s] = 0, 1
			case tRsbs:
				g.keep[s], g.sign[s] = 0, ^uint32(0)
			}
			add(op, RegionNone)
			last, lastSlot = op, uint8(s)
		}
		r.gathers = append(r.gathers, g)
		if last != 0 && last != kMovHi {
			end, ends, endCum, endNacc = k, len(r.gathers), cum, nacc
			r.fslot, r.fop = lastSlot, last
			lp.totB, lp.totW, lp.totFR, lp.totSR, lp.totSW = b, w, fr, sr, sw
		}
		for ; k < len(ents) && (ents[k].kind == kAddsImm8 || ents[k].kind == kSubsImm8) && ents[k].rd == r.b; k++ {
			if ents[k].kind == kAddsImm8 {
				cum += int64(ents[k].imm)
			} else {
				cum -= int64(ents[k].imm)
			}
			add(ents[k].kind, RegionNone)
		}
		j = k
	}
	if ends == 0 {
		return lp, false
	}
	r.gathers, rel, r.nacc, r.delta = r.gathers[:ends], rel[:ends], endNacc, uint32(endCum)
	for s := r.nacc; s < len(r.acc); s++ {
		r.acc[s] = r.acc[0]
	}
	r.lo = slices.Min(rel)
	r.span = uint32(slices.Max(rel) - r.lo)
	for gi := range r.gathers {
		r.gathers[gi].off = uint32(rel[gi] - r.lo)
	}
	lp.next = pt.base + uint32(2*end)
	lp.nInstr = uint64(end - i)
	lp.totN = lp.nInstr
	return lp, true
}

// runLoop runs the attached table's loop or run i from its head, at the
// PC, when the budget covers a full pass (a run: all of it), and
// returns the instructions retired: 0 when the budget does not cover a
// pass, or when the loop deviated at its head before any progress (the
// PC is then still on the head).
func (c *CPU) runLoop(i uint32, budget uint64) uint64 {
	lp := &c.ttab.loops[i]
	if lp.nInstr > budget {
		return 0
	}
	switch lp.kind {
	case loopMac:
		return c.execMacLoop(lp, budget)
	case loopGather:
		return c.execGatherLoop(lp, budget)
	}
	return c.execRun(lp)
}

// loopIters is the pass limit of one loop run: the full passes the
// budget covers, at most the certified bound, and at least one (runLoop
// admits a loop only when the budget covers a pass). The common case,
// a budget past the bound, costs a multiply rather than a division
// (translateLoop keeps bounds small enough not to overflow).
func loopIters(lp *tloop, budget uint64) uint64 {
	if budget >= lp.bound*lp.nInstr {
		return lp.bound
	}
	return budget / lp.nInstr
}

// loopExit ends a whole-loop executor after k completed passes, all but
// possibly the last through the taken edge. On deviation (dev != nil)
// the PC lands on dev's instruction and dev's prefix constants flush on
// top of the passes; otherwise the PC follows the last latch. Returns
// the instructions retired.
func (c *CPU) loopExit(lp *tloop, k uint64, taken bool, dev *ttop) uint64 {
	ws := uint64(c.Bus.FlashWaitStates)
	takenPasses := k
	var b, w, fr, sr, sw, n uint64
	switch {
	case dev != nil:
		c.R[PC] = dev.addr
		b, w, fr, sr, sw, n = dev.preB, dev.preW, dev.preFR, dev.preSR, dev.preSW, dev.preN
	case taken:
		c.R[PC] = lp.start
	default:
		takenPasses = k - 1
		c.R[PC] = lp.next
	}
	c.Cycles += k*(lp.totB+lp.totW*ws) + takenPasses*lp.takenExtra + b + w*ws
	c.Bus.FlashReads += k*lp.totFR + fr
	c.Bus.SRAMReads += k*lp.totSR + sr
	c.Bus.SRAMWrites += k*lp.totSW + sw
	c.Instructions += k*lp.totN + n
	return k*lp.totN + n
}

// execMacLoop executes a whole MAC loop (detectMacLoop): every
// architectural register of the loop lives in a host local across
// iterations, so the steady-state cost of the certified kernel inner
// loop is a handful of host instructions per emulated instruction,
// with no dispatch and no per-iteration counter traffic. Accounting
// flushes once at exit as iteration-count multiples of the pass
// constants (the intermediate MULS/ADDS flag writes are architecturally
// dead: the latch CMP overwrites them before any exit). Deviation — a
// load address leaving its certified region — exits with the completed
// passes flushed, the PC on the group head, and the standard replay
// guarantees; the dispatcher then executes the instruction on the
// predecoded path.
func (c *CPU) execMacLoop(lp *tloop, budget uint64) uint64 {
	o0, o1 := &lp.ops[0], &lp.ops[1]
	maxIter := loopIters(lp, budget)
	bus := c.Bus
	sram, flash := bus.SRAM, bus.Flash
	sBase, sLen := bus.SRAMBase, uint32(len(sram))
	fBase, fLen := bus.FlashBase, uint32(len(flash))
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
	// dispatcher replays the group from its head on the predecoded
	// path, and the fusion constraints make the first load idempotent.
	c.R[o0.rd&15], c.R[o0.rd2&15] = v1, v2
	c.R[o0.rd4&15] = accv
	c.R[o0.rm&15] = iv
	c.N, c.Z, c.C, c.V = fN, fZ, fC, fV
	return c.loopExit(lp, k, taken, dev)
}

// execGatherLoop executes a whole ternary gather loop (detectGatherLoop)
// in host locals: per connection one index load, one cursor advance,
// one sign-extending gather, the optional moving-base advance, one
// accumulate and the countdown latch, with no dispatch and no
// per-iteration counter traffic. Each load re-checks its address
// against its certified region (and ldrh its alignment). Only the
// latch's flags are live at a pass boundary, so the other flag writes
// are not computed in the loop. A deviation exits before the access:
// at the index load with the PC on the loop head, at the gather with
// the PC on the gather, that op's prefix flushed, and the flags of the
// cursor advance; the dispatcher then executes the instruction on the
// predecoded path.
func (c *CPU) execGatherLoop(lp *tloop, budget uint64) uint64 {
	ops := lp.ops
	last := len(ops) - 1
	ld, g, acc, latch := &ops[0], &ops[2], &ops[last-1], &ops[last]
	maxIter := loopIters(lp, budget)
	half := ld.kind == kLdrhImm
	moving := len(ops) == 6
	sub := acc.kind == kSubsReg
	step, dec, cond := ops[1].imm, latch.imm, latch.cond
	// Each load reads one region, chosen here: its bytes, base address,
	// and the exclusive offset limit of an in-bounds access.
	bus := c.Bus
	iMem, iBase := bus.Flash, bus.FlashBase
	if ld.cls == RegionSRAM {
		iMem, iBase = bus.SRAM, bus.SRAMBase
	}
	iLim := uint32(len(iMem))
	if half {
		iLim--
	}
	gMem, gBase := bus.Flash, bus.FlashBase
	if g.cls == RegionSRAM {
		gMem, gBase = bus.SRAM, bus.SRAMBase
	}
	gLim := uint32(len(gMem))
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
	return c.loopExit(lp, k, taken, dev)
}

// execRun executes a whole straight-line gather-accumulate run
// (lowerRun) in host locals: one record per gather, each accumulator
// slot updated as acc = acc&keep + v*sign with no per-op branch. Every
// load is at a static offset from the window base at entry, so the
// whole load interval is checked against SRAM once, up front; when it
// leaves SRAM (or wraps) the run makes no progress and the dispatcher
// executes the head through its handler, which performs the real bus
// access. The intermediate flag writes are dead: the exit flags are
// those of the run's last accumulate, recomputed from its operands.
func (c *CPU) execRun(lp *tloop) uint64 {
	r := lp.run
	bus := c.Bus
	b0 := c.R[r.b]
	lo := int64(b0) + r.lo - int64(bus.SRAMBase)
	if lo < 0 || lo+int64(r.span) >= int64(len(bus.SRAM)) {
		return 0
	}
	win := bus.SRAM[lo : lo+int64(r.span)+1]
	a0, a1, a2, a3 := c.R[r.acc[0]], c.R[r.acc[1]], c.R[r.acc[2]], c.R[r.acc[3]]
	var v uint32
	for i := range r.gathers {
		g := &r.gathers[i]
		v = uint32(int32(int8(win[g.off])))
		a0 = a0&g.keep[0] + v*g.sign[0]
		a1 = a1&g.keep[1] + v*g.sign[1]
		a2 = a2&g.keep[2] + v*g.sign[2]
		a3 = a3&g.keep[3] + v*g.sign[3]
	}
	acc := [4]uint32{a0, a1, a2, a3}
	for s := 0; s < r.nacc; s++ {
		c.R[r.acc[s]] = acc[s]
	}
	c.R[r.x] = v
	c.R[r.b] = b0 + r.delta
	var res uint32
	a := acc[r.fslot]
	switch r.fop {
	case kAddsReg: // a = old + v
		res, c.C, c.V = addWithCarry(a-v, v, false)
	case kSubsReg: // a = old - v
		res, c.C, c.V = addWithCarry(a+v, ^v, true)
	default: // rsbs: a = 0 - v
		res, c.C, c.V = addWithCarry(^v, 0, true)
	}
	c.N, c.Z = res&0x8000_0000 != 0, res == 0
	return c.loopExit(lp, 1, false, nil)
}

// condFlags is condPassed over local flag copies; conds 0xe/0xf never
// reach a loop latch (they do not predecode as kBCond).
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

// MarkRecorder receives the cycle totals at an attached translation
// table's marks (TranslationConfig.Marks) during untraced runs. The
// marks are matched in order, as a trace hook watching the same
// addresses would: an instruction records only when its address is the
// next unhit mark's, so each mark records at its first retirement after
// its predecessor's. A mark listed out of retirement order, or one that
// never retires, stays unhit.
type MarkRecorder struct {
	// Before[i] is the cycle total before mark i's instruction was
	// fetched, for i < Hit: the count a Trace's running sum of
	// per-instruction cycles reads there on an exception-free run.
	Before []uint64
	// Hit is the number of marks recorded; mark Hit is the next one
	// watched.
	Hit int
}

// MarkError reports a watched address the translation table could not
// mark: misaligned, outside the predecoded image, or inside a kept loop
// or run, whose executor would retire it unseen.
type MarkError struct {
	Index int
	Addr  uint32
	Why   string
}

func (e *MarkError) Error() string {
	return fmt.Sprintf("armv6m: mark %d at 0x%08x %s", e.Index, e.Addr, e.Why)
}

// RecordMarks attaches r to record the attached translation table's
// marks on the following runs (nil detaches), resizing r.Before to the
// table's mark count and clearing r.Hit. It refuses, naming the reason,
// when those runs would not dispatch every mark: no mark in the table,
// a mark it could not place (*MarkError), a trace attached (traced runs
// retire through Step), the on-demand tier, an armed SysTick or pending
// interrupt (those runs take runPredecodedIRQ), or a table this core
// may not use (translation disabled, flash rewritten, a different cycle
// model, SRAM over the boot alias).
func (c *CPU) RecordMarks(r *MarkRecorder) error {
	c.marks = nil
	if r == nil {
		return nil
	}
	tt := c.ttab
	switch {
	case tt == nil || len(tt.marks) == 0:
		return errors.New("armv6m: no marks to record: the attached translation table watches no address")
	case c.Trace != nil:
		return errors.New("armv6m: marks are not recorded on a traced run (it retires through Step)")
	case c.DisablePredecode:
		return errors.New("armv6m: marks are not recorded with predecode disabled (every fetch decodes on demand)")
	case c.SysTick.Reload > 0 || c.pendingIRQ:
		return errors.New("armv6m: marks are not recorded with SysTick armed (interrupt-live runs dispatch no marks)")
	case c.loopTable() == nil:
		return errors.New("armv6m: marks are not recorded: the translation table is not in use (translation disabled, flash rewritten, or a different cycle model)")
	}
	for i := range tt.marks {
		if m := &tt.marks[i]; m.why != "" {
			return &MarkError{Index: i, Addr: m.addr, Why: m.why}
		}
	}
	r.Before = slices.Grow(r.Before[:0], len(tt.marks))[:len(tt.marks)]
	clear(r.Before)
	r.Hit = 0
	c.marks = r
	return nil
}
