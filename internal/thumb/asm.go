// Package thumb implements a small two-pass assembler for the ARMv6-M
// Thumb-1 instruction set, sufficient to express the bare-metal inference
// kernels in this repository (and anything else a Cortex-M0 integer
// kernel needs). The syntax follows GNU as conventions:
//
//	loop:                      @ labels end with ':'
//	    ldr   r0, =weights     @ literal-pool load
//	    ldrb  r1, [r0, r2]     @ register and immediate addressing
//	    adds  r3, r3, r1
//	    subs  r2, #1
//	    bne   loop
//	    bkpt  #0
//	    .pool                  @ flush literal pool here
//	    .word 0x12345678       @ data directives
//
// Supported directives: .word .hword .byte .space .align .pool (and the
// ignored housekeeping directives .text .thumb .syntax .global .globl
// .cpu .type .size). Comments start with '@', ';', or '//'. '#' before
// immediates is optional.
//
// Comments of the form "@ asmcheck: loop N" annotate the instruction on
// the same line (or, on a comment-only line, the next instruction) with
// a loop iteration bound consumed by the internal/asmcheck static
// analyzer; "@ asmcheck: load flash|sram|periph" likewise declares the
// memory region a load reads when the abstract interpreter cannot prove
// it (checked execution validates the claim at runtime); see
// docs/ASMCHECK.md.
package thumb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// InstrMeta maps one assembled instruction back to its source: address,
// encoded size, 1-based source line, mnemonic, and any "asmcheck: loop"
// bound annotated on it. This is what lets downstream diagnostics
// (asmcheck violations, deploy failures) point at kernel source lines.
type InstrMeta struct {
	Addr      uint32
	Size      int
	Line      int
	Mn        string
	LoopBound int // 0 when unannotated
	// LoadRegion is the "asmcheck: load" region annotation ("flash",
	// "sram", or "periph"; empty when unannotated). It is a trusted
	// hint for loads whose address the static analysis cannot resolve;
	// certificate-checked execution verifies it on every run.
	LoadRegion string
}

// Program is the output of Assemble: machine code plus the symbol table
// and per-instruction source metadata.
type Program struct {
	Base    uint32            // load address of Code[0]
	Code    []byte            // assembled bytes
	Symbols map[string]uint32 // label -> absolute address
	Instrs  []InstrMeta       // instructions in address order
}

// instrIndex finds the Instrs entry at exactly addr, or -1.
func (p *Program) instrIndex(addr uint32) int {
	i := sort.Search(len(p.Instrs), func(i int) bool { return p.Instrs[i].Addr >= addr })
	if i < len(p.Instrs) && p.Instrs[i].Addr == addr {
		return i
	}
	return -1
}

// InstrAt returns the metadata of the instruction assembled at addr.
func (p *Program) InstrAt(addr uint32) (InstrMeta, bool) {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i], true
	}
	return InstrMeta{}, false
}

// LineFor returns the 1-based source line of the instruction at addr, or
// 0 when addr does not hold an assembled instruction.
func (p *Program) LineFor(addr uint32) int {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i].Line
	}
	return 0
}

// LoopBoundAt returns the "asmcheck: loop N" bound annotated on the
// instruction at addr.
func (p *Program) LoopBoundAt(addr uint32) (int, bool) {
	if i := p.instrIndex(addr); i >= 0 && p.Instrs[i].LoopBound > 0 {
		return p.Instrs[i].LoopBound, true
	}
	return 0, false
}

// LoadRegionAt returns the "asmcheck: load <region>" annotation on the
// instruction at addr, or "" when unannotated.
func (p *Program) LoadRegionAt(addr uint32) string {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i].LoadRegion
	}
	return ""
}

// Symbol returns the address of label, or an error naming it.
func (p *Program) Symbol(label string) (uint32, error) {
	if a, ok := p.Symbols[label]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("thumb: unknown symbol %q", label)
}

// asmError is an assembly diagnostic carrying a line number.
type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

func errf(line int, format string, args ...interface{}) error {
	return &asmError{line: line, msg: fmt.Sprintf(format, args...)}
}

// literal is one pending literal-pool entry.
type literal struct {
	expr string // expression text, resolved in pass 2
	line int
	addr uint32 // assigned when the pool is flushed
}

// item is one assembled unit: an instruction, a data directive, padding,
// or a literal pool.
type item struct {
	line       int
	addr       uint32
	size       int
	mn         string   // instruction mnemonic ("" for data items)
	args       []string // operands
	data       []byte   // raw data for .byte/.hword/.space
	exprs      []string // expressions for .word (resolved pass 2)
	width      int      // element width for exprs (4 for .word, 2 for .hword, 1 for .byte)
	lit        *literal // for "ldr rd, =expr"
	pool       []*literal
	align      int    // alignment request (bytes) for align items and pools
	loopBound  int    // "asmcheck: loop N" annotation (0 = none)
	loadRegion string // "asmcheck: load <region>" annotation ("" = none)
}

type assembler struct {
	base        uint32
	items       []*item
	symbols     map[string]uint32
	labels      map[string]int // label -> line defined (duplicate detection)
	pending     []*literal
	pendingLoop int    // loop annotation from a comment-only line, for the next instruction
	pendingLoad string // load-region annotation carried the same way
}

// Assemble translates src into machine code loaded at base.
func Assemble(src string, base uint32) (*Program, error) {
	if base&1 != 0 {
		return nil, fmt.Errorf("thumb: base address 0x%x is not halfword aligned", base)
	}
	a := &assembler{
		base:    base,
		symbols: make(map[string]uint32),
		labels:  make(map[string]int),
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	// Flush any literals left at the end of the source.
	if len(a.pending) > 0 {
		a.items = append(a.items, &item{line: -1, pool: a.pending, align: 4})
		a.pending = nil
	}
	a.layout()
	code, err := a.encodeAll()
	if err != nil {
		return nil, err
	}
	p := &Program{Base: base, Code: code, Symbols: a.symbols, Instrs: make([]InstrMeta, 0, len(a.items))}
	for _, it := range a.items {
		if it.mn == "" || strings.HasPrefix(it.mn, "label:") {
			continue
		}
		p.Instrs = append(p.Instrs, InstrMeta{
			Addr: it.addr, Size: it.size, Line: it.line, Mn: it.mn,
			LoopBound: it.loopBound, LoadRegion: it.loadRegion,
		})
	}
	return p, nil
}

// stripComment removes '@', ';', and '//' comments outside of brackets.
func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, '@'); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// annotation returns the operand of the leftmost "asmcheck: <kw>
// <operand>" annotation in line: "asmcheck:", optional whitespace, kw,
// at least one whitespace character, then the longest run of bytes
// accepted by operand (at least one). It accepts exactly what the
// regexp `asmcheck:\s*<kw>\s+(<operand>+)` matches, with \s the
// regexp's ASCII class [\t\n\f\r ].
func annotation(line, kw string, operand func(byte) bool) (string, bool) {
	const tag = "asmcheck:"
	for {
		i := strings.Index(line, tag)
		if i < 0 {
			return "", false
		}
		line = line[i+len(tag):]
		rest := skipSpace(line)
		if !strings.HasPrefix(rest, kw) {
			continue
		}
		rest = rest[len(kw):]
		arg := skipSpace(rest)
		if len(arg) == len(rest) {
			continue
		}
		n := 0
		for n < len(arg) && operand(arg[n]) {
			n++
		}
		if n > 0 {
			return arg[:n], true
		}
	}
}

// skipSpace drops leading [\t\n\f\r ] bytes.
func skipSpace(s string) string {
	for len(s) > 0 {
		switch s[0] {
		case ' ', '\t', '\n', '\f', '\r':
			s = s[1:]
		default:
			return s
		}
	}
	return s
}

// isDigit is the regexp class \d.
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isWord is the regexp class \w.
func isWord(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// splitOperands splits an operand string on commas that are not inside
// [] or {} groups.
func splitOperands(s string) []string {
	out := make([]string, 0, strings.Count(s, ",")+1)
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last == "" && len(out) == 0 {
		return nil
	}
	return append(out, last)
}

func (a *assembler) parse(src string) error {
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		ln := lineNo + 1
		if bound, ok := annotation(raw, "loop", isDigit); ok {
			n, err := strconv.Atoi(bound)
			if err != nil || n <= 0 {
				return errf(ln, "bad asmcheck loop bound %q", bound)
			}
			// Attach to the instruction on this line, or carry to the
			// next one when the annotation sits on its own line.
			a.pendingLoop = n
		}
		if region, ok := annotation(raw, "load", isWord); ok {
			switch region {
			case "flash", "sram", "periph":
				a.pendingLoad = region
			default:
				return errf(ln, "bad asmcheck load region %q (want flash, sram, or periph)", region)
			}
		}
		for line != "" {
			// Labels (possibly several) at the start of the line.
			if i := strings.IndexByte(line, ':'); i >= 0 && isLabel(line[:i]) {
				name := line[:i]
				if _, dup := a.labels[name]; dup {
					return errf(ln, "duplicate label %q (first defined at line %d)", name, a.labels[name])
				}
				a.labels[name] = ln
				a.items = append(a.items, &item{line: ln, mn: "label:" + name})
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		mn, rest, _ := strings.Cut(line, " ")
		mn = strings.ToLower(strings.TrimSpace(mn))
		rest = strings.TrimSpace(rest)
		if strings.HasPrefix(mn, ".") {
			if err := a.parseDirective(ln, mn, rest); err != nil {
				return err
			}
			continue
		}
		args := splitOperands(rest)
		it := &item{line: ln, mn: mn, args: args, size: 2, loopBound: a.pendingLoop, loadRegion: a.pendingLoad}
		a.pendingLoop = 0
		a.pendingLoad = ""
		switch mn {
		case "bl":
			it.size = 4
		case "ldr":
			// "ldr rd, =expr" goes through the literal pool.
			if len(args) == 2 && strings.HasPrefix(args[1], "=") {
				lit := &literal{expr: strings.TrimSpace(args[1][1:]), line: ln}
				// Reuse an identical pending literal.
				for _, p := range a.pending {
					if p.expr == lit.expr {
						lit = p
						break
					}
				}
				if lit.addr == 0 && !containsLit(a.pending, lit) {
					a.pending = append(a.pending, lit)
				}
				it.lit = lit
			}
		}
		a.items = append(a.items, it)
	}
	return nil
}

func containsLit(list []*literal, l *literal) bool {
	for _, p := range list {
		if p == l {
			return true
		}
	}
	return false
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) parseDirective(ln int, mn, rest string) error {
	switch mn {
	case ".text", ".thumb", ".thumb_func", ".syntax", ".global", ".globl",
		".cpu", ".type", ".size", ".code", ".arch", ".file", ".section":
		return nil // housekeeping, ignored
	case ".word", ".long", ".int":
		exprs := splitOperands(rest)
		if len(exprs) == 0 {
			return errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, &item{line: ln, exprs: exprs, width: 4, size: 4 * len(exprs)})
		return nil
	case ".hword", ".short", ".2byte":
		exprs := splitOperands(rest)
		if len(exprs) == 0 {
			return errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, &item{line: ln, exprs: exprs, width: 2, size: 2 * len(exprs)})
		return nil
	case ".byte":
		exprs := splitOperands(rest)
		if len(exprs) == 0 {
			return errf(ln, ".byte needs at least one value")
		}
		a.items = append(a.items, &item{line: ln, exprs: exprs, width: 1, size: len(exprs)})
		return nil
	case ".space", ".skip", ".zero":
		n, err := parseNumber(rest)
		if err != nil || n < 0 {
			return errf(ln, "bad .space size %q", rest)
		}
		a.items = append(a.items, &item{line: ln, data: make([]byte, n), size: int(n)})
		return nil
	case ".align", ".balign":
		n, err := parseNumber(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return errf(ln, ".align needs a power-of-two byte alignment, got %q", rest)
		}
		a.items = append(a.items, &item{line: ln, align: int(n)})
		return nil
	case ".pool", ".ltorg":
		if len(a.pending) > 0 {
			a.items = append(a.items, &item{line: ln, pool: a.pending, align: 4})
			a.pending = nil
		}
		return nil
	default:
		return errf(ln, "unknown directive %s", mn)
	}
}

// layout assigns addresses (pass 1). All instruction sizes are fixed, so
// a single forward walk suffices; pool and align items derive their size
// from the current address.
func (a *assembler) layout() {
	addr := a.base
	for _, it := range a.items {
		if strings.HasPrefix(it.mn, "label:") {
			a.symbols[strings.TrimPrefix(it.mn, "label:")] = addr
			continue
		}
		if it.align != 0 && it.pool == nil { // .align
			pad := int(-addr) & (it.align - 1)
			it.size = pad
			it.addr = addr
			addr += uint32(pad)
			continue
		}
		if it.pool != nil {
			pad := int(-addr) & 3
			it.addr = addr + uint32(pad)
			for i, l := range it.pool {
				l.addr = it.addr + uint32(i)*4
			}
			it.size = 4 * len(it.pool)
			addr = it.addr + uint32(it.size)
			continue
		}
		it.addr = addr
		addr += uint32(it.size)
	}
}

// encodeAll is pass 2.
func (a *assembler) encodeAll() ([]byte, error) {
	var end uint32 = a.base
	for _, it := range a.items {
		if e := it.addr + uint32(it.size); e > end {
			end = e
		}
	}
	code := make([]byte, end-a.base)
	put16 := func(addr uint32, v uint16) {
		off := addr - a.base
		code[off] = byte(v)
		code[off+1] = byte(v >> 8)
	}
	for _, it := range a.items {
		switch {
		case strings.HasPrefix(it.mn, "label:"):
			continue
		case it.pool != nil:
			for _, l := range it.pool {
				v, err := a.eval(l.expr, l.line)
				if err != nil {
					return nil, err
				}
				off := l.addr - a.base
				code[off] = byte(v)
				code[off+1] = byte(v >> 8)
				code[off+2] = byte(v >> 16)
				code[off+3] = byte(v >> 24)
			}
		case it.exprs != nil:
			off := it.addr - a.base
			for _, e := range it.exprs {
				v, err := a.eval(e, it.line)
				if err != nil {
					return nil, err
				}
				for b := 0; b < it.width; b++ {
					code[off] = byte(v >> (8 * uint(b)))
					off++
				}
			}
		case it.data != nil:
			copy(code[it.addr-a.base:], it.data)
		case it.mn == "":
			// alignment padding: already zero
		case it.align != 0:
			// .align padding: zero bytes
		default:
			enc, err := a.encodeInstr(it)
			if err != nil {
				return nil, err
			}
			put16(it.addr, uint16(enc&0xffff))
			if it.size == 4 {
				put16(it.addr+2, uint16(enc>>16))
			}
		}
	}
	return code, nil
}

// eval resolves a small expression: number | symbol, optionally combined
// with + and - (left associative).
func (a *assembler) eval(expr string, line int) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, errf(line, "empty expression")
	}
	// Tokenize on +/- while respecting a leading sign.
	var total int64
	sign := int64(1)
	tok := strings.Builder{}
	flush := func() error {
		t := strings.TrimSpace(tok.String())
		tok.Reset()
		if t == "" {
			return errf(line, "malformed expression %q", expr)
		}
		if n, err := parseNumber(t); err == nil {
			total += sign * n
			return nil
		}
		if addr, ok := a.symbols[t]; ok {
			total += sign * int64(addr)
			return nil
		}
		return errf(line, "undefined symbol %q", t)
	}
	for i := 0; i < len(expr); i++ {
		ch := expr[i]
		if (ch == '+' || ch == '-') && tok.Len() > 0 {
			if err := flush(); err != nil {
				return 0, err
			}
			if ch == '+' {
				sign = 1
			} else {
				sign = -1
			}
			continue
		}
		if (ch == '-' || ch == '+') && tok.Len() == 0 {
			if ch == '-' {
				sign = -sign
			}
			continue
		}
		tok.WriteByte(ch)
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return uint32(total), nil
}

// parseNumber parses decimal, 0x hex, 0b binary, and character literals.
func parseNumber(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		_, err = fmt.Sscanf(s[2:], "%x", &v)
		if err == nil && !allHex(s[2:]) {
			err = fmt.Errorf("bad hex")
		}
	case strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B"):
		for _, r := range s[2:] {
			if r != '0' && r != '1' {
				return 0, fmt.Errorf("bad binary digit %q", r)
			}
			v = v<<1 | uint64(r-'0')
		}
	case len(s) == 3 && s[0] == '\'' && s[2] == '\'':
		v = uint64(s[1])
	default:
		for _, r := range s {
			if r < '0' || r > '9' {
				return 0, fmt.Errorf("bad decimal digit %q", r)
			}
			v = v*10 + uint64(r-'0')
		}
	}
	if err != nil {
		return 0, err
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

func allHex(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
		default:
			return false
		}
	}
	return true
}

// Symbol is one named address, as returned by SymbolsInOrder.
type Symbol struct {
	Name string
	Addr uint32
}

// SymbolsInOrder returns the symbol table sorted by address (ties broken
// by name), the form profilers and disassemblers need to resolve an
// address to its nearest preceding label.
func (p *Program) SymbolsInOrder() []Symbol {
	syms := make([]Symbol, 0, len(p.Symbols))
	for n, a := range p.Symbols {
		syms = append(syms, Symbol{Name: n, Addr: a})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Addr != syms[j].Addr {
			return syms[i].Addr < syms[j].Addr
		}
		return syms[i].Name < syms[j].Name
	})
	return syms
}

// NearestSymbol resolves addr to the nearest label at or before it,
// returning the symbol and ok=false when addr precedes every label.
func (p *Program) NearestSymbol(addr uint32) (Symbol, bool) {
	syms := p.SymbolsInOrder()
	i := sort.Search(len(syms), func(i int) bool { return syms[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	return syms[i-1], true
}

// SymbolsSorted returns symbol names in address order, useful for
// disassembly listings and debugging.
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
