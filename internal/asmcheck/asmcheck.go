// Package asmcheck statically verifies assembled Thumb-1 programs
// against this repository's hardware and calling-convention contracts.
// It recovers a control-flow graph from the instruction stream (via
// armv6m.Decode), abstractly interprets register and stack state to
// check AAPCS callee-saved contracts (r4-r7 and lr), push/pop balance on
// every path, classifies every load/store against the flash/SRAM memory
// map, and bounds worst-case stack depth per entry symbol. Its per-
// instruction cycle formulas (the emulator's published cycle model) and
// the "asmcheck: loop N" annotations on loop back edges are exported as
// a neuroc-cert/v1 certificate, whose evaluator gives the worst-case
// cycle bound.
//
// The analysis is context-sensitive in r0: a kernel BL'd with distinct
// descriptor constants is analyzed once per constant, so descriptor
// field loads resolve to the actual pointers baked into the image and
// memory accesses become provable. See docs/ASMCHECK.md for the
// violation catalogue and soundness caveats.
package asmcheck

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// Code identifies a violation class. Each deliberately-broken fixture in
// the test suite maps to exactly one of these.
type Code string

// Violation codes.
const (
	CodeDecodeUnknown  Code = "DECODE_UNKNOWN"  // reachable halfword does not decode
	CodeCFGFallthrough Code = "CFG_FALLTHROUGH" // control flow runs past a function or the code region
	CodeCFGIndirect    Code = "CFG_INDIRECT"    // unanalyzable indirect branch (BLX, BX non-lr, PC writes)
	CodeCFGRecursion   Code = "CFG_RECURSION"   // cycle in the call graph
	CodeCFGTrap        Code = "CFG_TRAP"        // reachable UDF/SVC
	CodeAAPCSClobber   Code = "AAPCS_CLOBBER"   // callee-saved r4-r7 not preserved at return
	CodeAAPCSLR        Code = "AAPCS_LR"        // return address is not the entry lr
	CodeStackImbalance Code = "STACK_IMBALANCE" // push/pop depth mismatch on some path
	CodeStackOverflow  Code = "STACK_OVERFLOW"  // worst-case stack depth exceeds the budget
	CodeStackSP        Code = "STACK_SP"        // SP written outside push/pop/add sp
	CodeMemWriteFlash  Code = "MEM_WRITE_FLASH" // store targets the flash region
	CodeMemUnmapped    Code = "MEM_UNMAPPED"    // access provably outside flash and SRAM
	CodeMemUnaligned   Code = "MEM_UNALIGNED"   // access provably misaligned for its width
	CodeMemUnproven    Code = "MEM_UNPROVEN"    // strict mode: store address could not be proven safe
	CodeCycleUnbounded Code = "CYCLE_UNBOUNDED" // loop back edge without an iteration bound
)

// Violation is one check failure, carrying enough source context to
// point at the offending kernel line.
type Violation struct {
	Code Code   `json:"code"`
	Func string `json:"func"`
	Addr uint32 `json:"addr"`
	Line int    `json:"line,omitempty"` // 1-based assembler source line, 0 if unknown
	Msg  string `json:"msg"`
}

func (v Violation) String() string {
	if v.Line > 0 {
		return fmt.Sprintf("%s at 0x%08x (%s, line %d): %s", v.Code, v.Addr, v.Func, v.Line, v.Msg)
	}
	return fmt.Sprintf("%s at 0x%08x (%s): %s", v.Code, v.Addr, v.Func, v.Msg)
}

// Unbounded is the cycle-bound sentinel for paths whose worst case could
// not be bounded (a CYCLE_UNBOUNDED or CFG_RECURSION violation
// accompanies it).
const Unbounded = ^uint64(0)

// Config parameterizes a check run. The zero value of every field has a
// usable default (the STM32F072 memory map, the Cortex-M0 profile); see
// DefaultConfig.
type Config struct {
	FlashBase, FlashSize uint32
	SRAMBase, SRAMSize   uint32

	// PeriphBase/PeriphSize map a memory-mapped peripheral window (the
	// telemetry timer at armv6m.TimerBase) as a proven-safe word-access
	// target, so instrumented images pass the strict store check.
	// PeriphSize 0 — the default — leaves the window unmapped.
	PeriphBase, PeriphSize uint32

	// StackBudget is the byte budget for worst-case stack depth
	// (including the 32-byte hardware exception frame plus the deepest
	// ISR chain when ISRRoots are present). 0 disables the check.
	StackBudget uint32

	// CodeLimit is the first address past checkable code (typically the
	// start of the data section); control flow reaching it is a
	// violation. 0 means the end of the program.
	CodeLimit uint32

	// Roots are the entry symbols to analyze (default: "entry").
	// ISRRoots are exception handlers: analyzed like roots, but their
	// stack depth is charged on top of the deepest main-thread point
	// plus the 32-byte hardware-stacked frame.
	Roots    []string
	ISRRoots []string

	// Strict requires every store address to be proven safe; without it
	// only provable violations are reported (the right mode for checking
	// a kernel in isolation, where the descriptor pointer is unknown).
	Strict bool

	// Cycle-model parameters, matching the emulator's defaults.
	Profile         armv6m.Profile
	MulCycles       int
	FlashWaitStates int
}

// DefaultConfig is the STM32F072 deployment target: the armv6m memory
// map, Cortex-M0 pipeline, single-cycle multiplier, zero wait states.
func DefaultConfig() Config {
	return Config{
		FlashBase: armv6m.FlashBase, FlashSize: armv6m.FlashSize,
		SRAMBase: armv6m.SRAMBase, SRAMSize: armv6m.SRAMSize,
		Profile: armv6m.ProfileM0, MulCycles: 1,
	}
}

// FuncReport is the per-function analysis summary.
type FuncReport struct {
	Name string `json:"name"`
	Addr uint32 `json:"addr"`
	// LocalStack is the deepest frame this function itself creates;
	// TotalStack includes its deepest callee chain.
	LocalStack uint32 `json:"local_stack"`
	TotalStack uint32 `json:"total_stack"`
	// CycleBound is the worst-case execution cycles including callees,
	// as the certificate evaluator (cert.Certificate.Bounds) prices the
	// exported facts. Unbounded when a loop bound or the call graph
	// defeated the analysis.
	CycleBound uint64 `json:"cycle_bound"`
	// Contexts is the number of distinct r0 contexts analyzed.
	Contexts int `json:"contexts"`
}

// Report is the result of Check.
type Report struct {
	Funcs      []*FuncReport `json:"funcs"`
	Violations []Violation   `json:"violations"`
	// StackBound is the worst-case stack depth over all roots, including
	// the hardware exception frame and deepest ISR when ISRs are
	// configured. CycleBound is the worst case over the (non-ISR) roots.
	StackBound uint32 `json:"stack_bound"`
	CycleBound uint64 `json:"cycle_bound"`
	// UnprovenLoads counts loads whose address the analysis could not
	// resolve (informational: loads cannot corrupt state, and the
	// emulator's bus faults catch strays dynamically).
	UnprovenLoads int `json:"unproven_loads"`
}

// OK reports whether the program passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// JSON renders the report for tooling.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Func returns the report for the named function, or nil.
func (r *Report) Func(name string) *FuncReport {
	for _, f := range r.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Check analyzes the assembled program under cfg. Analysis always runs
// to completion, accumulating violations; the error return is reserved
// for programs that cannot be analyzed at all (no resolvable roots).
func Check(p *thumb.Program, cfg Config) (*Report, error) {
	ck, rootAddrs, isrAddrs, err := run(p, cfg)
	if err != nil {
		return nil, err
	}
	rep, _ := ck.report(rootAddrs, isrAddrs)
	return rep, nil
}

// run is the shared analysis pipeline behind Check and Certify:
// config defaulting, root resolution, CFG discovery, and the
// context-sensitive abstract interpretation.
func run(p *thumb.Program, cfg Config) (*checker, []uint32, []uint32, error) {
	if cfg.FlashSize == 0 && cfg.SRAMSize == 0 {
		d := DefaultConfig()
		cfg.FlashBase, cfg.FlashSize = d.FlashBase, d.FlashSize
		cfg.SRAMBase, cfg.SRAMSize = d.SRAMBase, d.SRAMSize
	}
	if cfg.Profile.PipelineRefill == 0 && cfg.Profile.Name == "" {
		cfg.Profile = armv6m.ProfileM0
	}
	if cfg.MulCycles == 0 {
		cfg.MulCycles = 1
	}
	if cfg.CodeLimit == 0 {
		cfg.CodeLimit = p.Base + uint32(len(p.Code))
	}
	if len(cfg.Roots) == 0 {
		if _, ok := p.Symbols["entry"]; ok {
			cfg.Roots = []string{"entry"}
		} else {
			return nil, nil, nil, fmt.Errorf("asmcheck: no roots given and no \"entry\" symbol")
		}
	}
	ck := &checker{
		p:     p,
		cfg:   cfg,
		funcs: make(map[uint32]*fn),
		vseen: make(map[string]bool),
		ctxs:  make(map[ctxKey]*ctxInfo),
		mems:  make(map[uint32]*memFact),
	}
	var rootAddrs, isrAddrs []uint32
	for _, name := range cfg.Roots {
		a, err := p.Symbol(name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("asmcheck: root %q: %w", name, err)
		}
		rootAddrs = append(rootAddrs, a)
	}
	for _, name := range cfg.ISRRoots {
		a, err := p.Symbol(name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("asmcheck: isr root %q: %w", name, err)
		}
		isrAddrs = append(isrAddrs, a)
	}
	ck.discover(append(append([]uint32{}, rootAddrs...), isrAddrs...))
	ck.crossFunctionEdges()
	ck.analyzeContexts(rootAddrs, isrAddrs)
	return ck, rootAddrs, isrAddrs, nil
}

// checker carries the whole-program analysis state.
type checker struct {
	p   *thumb.Program
	cfg Config

	funcs     map[uint32]*fn
	funcOrder []uint32

	violations []Violation
	vseen      map[string]bool

	ctxs     map[ctxKey]*ctxInfo
	ctxOrder []ctxKey

	unprovenLoads int

	// mems accumulates per-instruction memory classification across all
	// analyzed contexts (the certificate's per-access facts).
	mems map[uint32]*memFact
}

// memFact is the joined memory classification of one load/store site
// over every context that reached it.
type memFact struct {
	region   regionID
	store    bool
	seen     bool // at least one context classified the site
	unproven bool // some context failed to prove the region, or regions conflict
}

// noteMem joins one context's classification of a load/store site into
// the whole-program fact.
func (ck *checker) noteMem(addr uint32, r regionID, store bool) {
	m := ck.mems[addr]
	if m == nil {
		m = &memFact{}
		ck.mems[addr] = m
	}
	if store {
		m.store = true
	}
	if r == regionNone {
		m.unproven = true
		return
	}
	if m.seen && m.region != r {
		m.unproven = true
		return
	}
	m.region = r
	m.seen = true
}

// funcName resolves a function start address to a symbol name. When
// several symbols alias the address, the lexicographically smallest
// wins, so the choice is deterministic across runs (Symbols is a map).
func (ck *checker) funcName(addr uint32) string {
	best := ""
	for name, a := range ck.p.Symbols { //neurolint:allow maporder (lexicographic min is order-insensitive)
		if a == addr && (best == "" || name < best) {
			best = name
		}
	}
	if best != "" {
		return best
	}
	return fmt.Sprintf("func_0x%08x", addr)
}

// violate records a violation, deduplicating by (code, address) so each
// defect is reported once even when reached in several contexts.
func (ck *checker) violate(code Code, f *fn, addr uint32, format string, args ...interface{}) {
	key := string(code) + fmt.Sprintf("@%08x", addr)
	if ck.vseen[key] {
		return
	}
	ck.vseen[key] = true
	name := ""
	if f != nil {
		name = f.name
	}
	ck.violations = append(ck.violations, Violation{
		Code: code, Func: name, Addr: addr,
		Line: ck.p.LineFor(addr),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// region classifies an absolute address against the memory map. The
// flash alias at address 0 mirrors the armv6m bus.
func (ck *checker) region(addr uint32) regionID {
	c := &ck.cfg
	if addr >= c.FlashBase && addr < c.FlashBase+c.FlashSize {
		return regionFlash
	}
	if addr < c.FlashSize { // boot alias of flash at 0
		return regionFlash
	}
	if addr >= c.SRAMBase && addr < c.SRAMBase+c.SRAMSize {
		return regionSRAM
	}
	if c.PeriphSize > 0 && addr >= c.PeriphBase && addr-c.PeriphBase < c.PeriphSize {
		return regionPeriph
	}
	return regionNone
}

// readMem reads width bytes at a const address out of the program image
// (flash outside the image reads as zero, matching the zero-filled
// emulated flash). ok is false for non-flash addresses, whose contents
// are runtime state.
func (ck *checker) readMem(addr uint32, width int, signed bool) (uint32, bool) {
	if ck.region(addr) != regionFlash {
		return 0, false
	}
	a := addr
	if a < ck.cfg.FlashSize {
		a += ck.cfg.FlashBase // normalize the boot alias
	}
	var v uint32
	for i := 0; i < width; i++ {
		off := int64(a) + int64(i) - int64(ck.p.Base)
		var b byte
		if off >= 0 && off < int64(len(ck.p.Code)) {
			b = ck.p.Code[off]
		}
		v |= uint32(b) << (8 * uint(i))
	}
	if signed {
		switch width {
		case 1:
			v = uint32(int32(int8(v)))
		case 2:
			v = uint32(int32(int16(v)))
		}
	}
	return v, true
}

// report assembles the final Report after all contexts are analyzed,
// together with the certificate its cycle bounds are read off.
func (ck *checker) report(rootAddrs, isrAddrs []uint32) (*Report, *cert.Certificate) {
	rep := &Report{UnprovenLoads: ck.unprovenLoads}
	c := ck.certificate(rootAddrs, isrAddrs)

	// Aggregate per-function stack bounds over contexts. Cycle bounds
	// need no aggregation: instruction costs never depend on the r0
	// context.
	type agg struct {
		local, total uint32
		contexts     int
	}
	aggs := make(map[uint32]*agg)
	for _, k := range ck.ctxOrder {
		ci := ck.ctxs[k]
		a := aggs[k.addr]
		if a == nil {
			a = &agg{}
			aggs[k.addr] = a
		}
		a.contexts++
		if uint32(ci.maxDepth) > a.local {
			a.local = uint32(ci.maxDepth)
		}
		if t := ck.stackTotal(k); uint32(t) > a.total {
			a.total = uint32(t)
		}
	}
	// A function missing from bounds has an unbounded loop, recursion
	// (each already reported as a violation) or a bound past 64 bits.
	bounds := c.Bounds(ck.cfg.FlashWaitStates)
	cycleBound := func(addr uint32) uint64 {
		if b, ok := bounds[addr]; ok {
			return b
		}
		return Unbounded
	}
	for _, addr := range ck.funcOrder {
		f := ck.funcs[addr]
		fr := &FuncReport{Name: f.name, Addr: addr}
		if a := aggs[addr]; a != nil {
			fr.LocalStack, fr.TotalStack = a.local, a.total
			fr.Contexts = a.contexts
		}
		if f.entry != nil {
			fr.CycleBound = cycleBound(addr)
		}
		rep.Funcs = append(rep.Funcs, fr)
	}

	maxStack := func(addrs []uint32) uint32 {
		var m uint32
		for _, a := range addrs {
			if ag := aggs[a]; ag != nil && ag.total > m {
				m = ag.total
			}
		}
		return m
	}
	rep.StackBound = maxStack(rootAddrs)
	if len(isrAddrs) > 0 {
		// An exception can fire at the main thread's deepest point: the
		// hardware stacks an 8-word frame, then the handler runs.
		rep.StackBound += 32 + maxStack(isrAddrs)
	}
	for _, a := range rootAddrs {
		if b := cycleBound(a); b > rep.CycleBound {
			rep.CycleBound = b
		}
	}
	c.StackBound, c.WCETCycles = rep.StackBound, rep.CycleBound

	if ck.cfg.StackBudget > 0 && rep.StackBound > ck.cfg.StackBudget {
		addr := uint32(0)
		name := ""
		if len(rootAddrs) > 0 {
			addr = rootAddrs[0]
			name = ck.funcName(addr)
		}
		ck.violations = append(ck.violations, Violation{
			Code: CodeStackOverflow, Func: name, Addr: addr, Line: ck.p.LineFor(addr),
			Msg: fmt.Sprintf("worst-case stack depth %d bytes exceeds budget %d", rep.StackBound, ck.cfg.StackBudget),
		})
	}

	sort.SliceStable(ck.violations, func(i, j int) bool {
		if ck.violations[i].Addr != ck.violations[j].Addr {
			return ck.violations[i].Addr < ck.violations[j].Addr
		}
		return ck.violations[i].Code < ck.violations[j].Code
	})
	rep.Violations = ck.violations
	return rep, c
}
