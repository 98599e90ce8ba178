package kernels

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The optimizer: peephole passes over generated Thumb-1 kernel text.
// The unrolled generator (unrolled.go) emits deliberately naive code —
// rewind-to-zero window moves, movs-zero accumulator inits, str+adds
// store sequences — and these passes rewrite it into the deployed form:
//
//   - add/sub coalescing: adjacent immediate adds/subs runs on one
//     register (the window rewind+advance pairs) fold into the minimal
//     net move;
//   - dead-flag elimination: a "movs rX, #0" whose only consumer is the
//     first accumulate is deleted, the accumulate rewritten to the
//     flag-neutral "mov rX, r0" (or "rsbs rX, r0" for a leading
//     subtract) — legal exactly because the flags it set are proven
//     dead;
//   - strength reduction: "str rX, [rC]; adds rC, #4" becomes
//     "stmia rC!, {rX}", and adjacent ascending stmia merge into one
//     multi-register store (3 cycles per word down to 1+n for n words).
//
// Every rewrite is semantics-preserving for the registers a kernel may
// legally expose (AAPCS: callee-saved regs and memory; flags are dead at
// the return) and never slower; FuzzOptimizerParity pins bit-for-bit
// output equality and cycle parity (optimized <= unoptimized) across
// all three execution tiers.

// asmLine is one parsed line of kernel text.
type asmLine struct {
	raw   string // original text, kept verbatim for untouched lines
	kind  int    // lineInstr, lineLabel, lineDirective, lineBlank
	norm  string // instr only: comment-stripped, whitespace-normalized body
	mnem  string // instr only: first token of norm
	label string // label only: name, as a branch names it
}

const (
	lineInstr = iota
	lineLabel
	lineDirective
	lineBlank
)

// parseAsm splits kernel text into lines, classifying each.
func parseAsm(src string) []asmLine {
	out := make([]asmLine, 0, strings.Count(src, "\n")+1)
	for _, raw := range strings.Split(src, "\n") {
		l := asmLine{raw: raw}
		body := raw
		if i := strings.IndexByte(body, '@'); i >= 0 {
			body = body[:i]
		}
		body = strings.Join(strings.Fields(body), " ")
		switch {
		case body == "":
			l.kind = lineBlank
		case strings.HasSuffix(body, ":"):
			l.kind = lineLabel
			l.label = strings.TrimSuffix(strings.Join(strings.Fields(raw), ""), ":")
		case strings.HasPrefix(strings.TrimSpace(raw), "."):
			l.kind = lineDirective
		default:
			l.kind = lineInstr
			l.norm = body
			if i := strings.IndexByte(body, ' '); i >= 0 {
				l.mnem = body[:i]
			} else {
				l.mnem = body
			}
		}
		out = append(out, l)
	}
	return out
}

// renderAsm joins lines back into text, dropping deleted entries.
func renderAsm(lines []asmLine) string {
	n := 0
	for _, l := range lines {
		n += len(l.raw) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range lines {
		if l.kind == lineBlank && l.raw == "" && i == len(lines)-1 {
			continue // preserve single trailing newline
		}
		b.WriteString(l.raw)
		b.WriteString("\n")
	}
	return b.String()
}

// instrLine builds a fresh instruction line.
func instrLine(body string) asmLine {
	mnem := body
	if i := strings.IndexByte(body, ' '); i >= 0 {
		mnem = body[:i]
	}
	return asmLine{raw: "\t" + body, kind: lineInstr, norm: body, mnem: mnem}
}

// condBranches are the flag-reading branch mnemonics.
var condBranches = map[string]bool{
	"beq": true, "bne": true, "bcs": true, "bhs": true, "bcc": true, "blo": true,
	"bmi": true, "bpl": true, "bvs": true, "bvc": true, "bhi": true, "bls": true,
	"bge": true, "blt": true, "bgt": true, "ble": true,
}

// flagKillers write all of N, Z, C, V, so any earlier flag definition is
// dead past them. Partial setters (movs, shifts, muls: N and Z only) are
// deliberately excluded.
var flagKillers = map[string]bool{
	"adds": true, "subs": true, "rsbs": true, "cmp": true, "cmn": true,
}

// flagsDeadAfter reports whether the flags defined at line i are
// provably unread on every path from i+1. The scan follows fallthrough
// and unconditional branches, stops dead at full flag writers and
// function exits, and gives up (flags live) at anything it cannot
// rule out — calls, conditional branches, flag-consuming arithmetic.
// In unrolled code every gather is followed by a flag-writing
// accumulate, so the scan is short.
func flagsDeadAfter(lines []asmLine, i int) bool {
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l.kind != lineInstr {
			continue // labels/directives/blanks carry no flag effect
		}
		m := l.mnem
		switch {
		case condBranches[m] || m == "adcs" || m == "sbcs":
			return false // reads flags
		case m == "bl" || m == "blx":
			return false // unknown callee
		case m == "b":
			// Follow the unconditional branch to its (forward) label.
			k := labelIndex(lines, strings.TrimSpace(strings.TrimPrefix(l.norm, "b ")))
			if k <= j {
				return false // unknown target, or a backward edge: loop, give up
			}
			j = k
		case m == "bx" || m == "bkpt":
			return true // function exit: AAPCS makes flags dead
		case m == "pop" && strings.Contains(l.norm, "pc"):
			return true
		case flagKillers[m]:
			return true
		}
	}
	return false
}

// labelIndex is the index of the first definition of label name, or -1.
// An unrolled kernel's one branch skips its literal pool, and flag scans
// meet a flag writer before they reach it, so this search is rare.
func labelIndex(lines []asmLine, name string) int {
	for k, l := range lines {
		if l.kind == lineLabel && l.label == name {
			return k
		}
	}
	return -1
}

// Each regexp runs only on lines whose parsed mnemonic it can match.
var (
	reAddSubImm = regexp.MustCompile(`^(adds|subs) (r\d+), #(\d+)$`)
	reMovsZero  = regexp.MustCompile(`^movs (r\d+), #0$`)
	reAcc3      = regexp.MustCompile(`^(adds|subs) (r\d+), (r\d+), (r\d+)$`)
	reStr       = regexp.MustCompile(`^str (r\d+), \[(r\d+)\]$`)
	reAddImm    = regexp.MustCompile(`^adds (r\d+), #(\d+)$`)
	reStmia     = regexp.MustCompile(`^stmia (r\d+)!, \{(.+)\}$`)
)

// movsZero returns the register of a "movs rX, #0".
func movsZero(l asmLine) (string, bool) {
	if l.mnem != "movs" {
		return "", false
	}
	m := reMovsZero.FindStringSubmatch(l.norm)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// addSubImm returns the register and signed immediate of an
// "adds/subs rX, #imm".
func addSubImm(l asmLine) (string, int, bool) {
	if (l.mnem != "adds" && l.mnem != "subs") || !strings.Contains(l.norm, "#") {
		return "", 0, false
	}
	m := reAddSubImm.FindStringSubmatch(l.norm)
	if m == nil {
		return "", 0, false
	}
	v, _ := strconv.Atoi(m[3])
	if m[1] == "subs" {
		v = -v
	}
	return m[2], v, true
}

// isWordByte is the regexp \w class: [0-9A-Za-z_].
func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// readsReg conservatively reports whether the instruction body reads
// register r (any mention that is not a pure destination is a read; to
// stay safe, any mention at all counts except for "movs r, #imm").
// A mention is r as a whole word, the regexp `\br\b`.
func readsReg(l asmLine, r string) bool {
	mentioned := false
	for off := 0; !mentioned; {
		k := strings.Index(l.norm[off:], r)
		if k < 0 {
			return false
		}
		k += off
		end := k + len(r)
		mentioned = (k == 0 || !isWordByte(l.norm[k-1])) && (end == len(l.norm) || !isWordByte(l.norm[end]))
		off = k + 1
	}
	if reg, ok := movsZero(l); ok && reg == r {
		return false // pure write
	}
	return true
}

// netMoveLen is the number of immediate adds/subs (at most 255 each)
// that coalesceAddSub emits for a net displacement.
func netMoveLen(net int) int {
	if net < 0 {
		net = -net
	}
	return (net + 254) / 255
}

// coalesceAddSub folds maximal runs of >= 2 consecutive immediate
// adds/subs on one register into the minimal instruction sequence for
// their net displacement (deleting the run outright when it cancels).
// Applied to the unrolled generator's rewind-to-zero + advance window
// move pairs. Requires the run's flags to be dead. When folding a whole
// run would not shrink it, the run minus its first line is tried next,
// and so on; when a run cancels, the line after it is kept as is for
// this pass.
func coalesceAddSub(out, lines []asmLine) ([]asmLine, bool) {
	changed := false
	for i := 0; i < len(lines); {
		reg, _, ok := addSubImm(lines[i])
		if !ok {
			out = append(out, lines[i])
			i++
			continue
		}
		net := 0
		j := i
		for ; j < len(lines) && lines[j].kind == lineInstr; j++ {
			r, v, ok := addSubImm(lines[j])
			if !ok || r != reg {
				break
			}
			net += v
		}
		start := -1 // first line of the folded suffix, if any
		if j-i >= 2 && flagsDeadAfter(lines, j-1) {
			for k := i; j-k >= 2; k++ {
				if netMoveLen(net) < j-k {
					start = k
					break
				}
				_, v, _ := addSubImm(lines[k])
				net -= v
			}
		}
		if start < 0 {
			out = append(out, lines[i:j]...)
			i = j
			continue
		}
		out = append(out, lines[i:start]...)
		op, mag := "adds", net
		if net < 0 {
			op, mag = "subs", -net
		}
		for ; mag > 0; mag -= 255 {
			out = append(out, instrLine(fmt.Sprintf("%s %s, #%d", op, reg, min(mag, 255))))
		}
		changed = true
		if net == 0 && j < len(lines) {
			out = append(out, lines[j])
			j++
		}
		i = j
	}
	return out, changed
}

// foldZeroInit deletes a "movs rX, #0" whose first and only use of rX is
// an accumulate, rewriting "adds rX, rX, rS" to the flag-neutral
// "mov rX, rS" and "subs rX, rX, rS" to "rsbs rX, rS" (both compute the
// same value from a zero accumulator). The dead-flag analysis licenses
// the rewrite: the scan aborts at any flag reader, and the mov form
// additionally requires the accumulate's own flags to be dead.
func foldZeroInit(out, lines []asmLine) ([]asmLine, bool) {
	changed := false
	for i := range lines {
		if foldZeroAt(lines, i) {
			changed = true
			continue
		}
		out = append(out, lines[i])
	}
	return out, changed
}

// foldZeroAt reports whether line i is a foldable "movs rX, #0"; if so
// it has rewritten the accumulate that consumes it, ahead of i in
// place.
func foldZeroAt(lines []asmLine, i int) bool {
	reg, ok := movsZero(lines[i])
	if !ok {
		return false
	}
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l.kind == lineLabel || l.kind == lineDirective {
			return false // control may join here; keep the init
		}
		if l.kind != lineInstr {
			continue
		}
		m := l.mnem
		if condBranches[m] || m == "adcs" || m == "sbcs" ||
			m == "b" || m == "bl" || m == "bx" || m == "bkpt" || m == "pop" {
			return false
		}
		if !readsReg(l, reg) {
			continue
		}
		if m != "adds" && m != "subs" {
			return false // some other use: keep the init
		}
		acc := reAcc3.FindStringSubmatch(l.norm)
		if acc == nil || acc[2] != reg || acc[3] != reg || acc[4] == reg {
			return false
		}
		if m == "adds" {
			// adds sets NZCV, mov sets nothing: need the flags dead.
			if !flagsDeadAfter(lines, j) {
				return false
			}
			lines[j] = instrLine(fmt.Sprintf("mov %s, %s", reg, acc[4]))
		} else {
			// rsbs computes 0-rS with the same flags subs did.
			lines[j] = instrLine(fmt.Sprintf("rsbs %s, %s", reg, acc[4]))
		}
		return true
	}
	return false
}

// strengthReduceStores rewrites "str rX, [rC]" + "adds rC, #4" into
// "stmia rC!, {rX}" (3 cycles to 2), then merges adjacent ascending
// stmia on the same cursor into one multi-register store (2n cycles to
// 1+n). The adds' flags must be dead — stmia sets none.
func strengthReduceStores(out, lines []asmLine) ([]asmLine, bool) {
	changed := false
	for i := 0; i < len(lines); i++ {
		if i+1 < len(lines) && lines[i].mnem == "str" && lines[i+1].mnem == "adds" {
			st := reStr.FindStringSubmatch(lines[i].norm)
			ad := reAddImm.FindStringSubmatch(lines[i+1].norm)
			if st != nil && ad != nil && ad[1] == st[2] && ad[2] == "4" && st[1] != st[2] &&
				flagsDeadAfter(lines, i+1) {
				out = append(out, instrLine(fmt.Sprintf("stmia %s!, {%s}", st[2], st[1])))
				changed = true
				i++
				continue
			}
		}
		out = append(out, lines[i])
	}
	merged := out[:0] // merging only ever shrinks: reuse the slice
	for _, l := range out {
		if n := len(merged); n > 0 {
			if m, ok := mergeStmia(merged[n-1], l); ok {
				merged[n-1] = m
				changed = true
				continue
			}
		}
		merged = append(merged, l)
	}
	return merged, changed
}

// mergeStmia merges two adjacent stmia on the same cursor into one,
// when the register lists stay ascending and exclude the cursor.
func mergeStmia(x, y asmLine) (asmLine, bool) {
	if x.mnem != "stmia" || y.mnem != "stmia" {
		return asmLine{}, false
	}
	a := reStmia.FindStringSubmatch(x.norm)
	b := reStmia.FindStringSubmatch(y.norm)
	if a == nil || b == nil || a[1] != b[1] {
		return asmLine{}, false
	}
	// Register lists must stay ascending for the merged STMIA.
	lastA := strings.TrimSpace(a[2][strings.LastIndex(a[2], ",")+1:])
	firstB := strings.TrimSpace(b[2])
	if i := strings.IndexByte(firstB, ','); i >= 0 {
		firstB = firstB[:i]
	}
	na, _ := strconv.Atoi(strings.TrimPrefix(lastA, "r"))
	nb, _ := strconv.Atoi(strings.TrimPrefix(firstB, "r"))
	cursor, _ := strconv.Atoi(strings.TrimPrefix(a[1], "r"))
	if nb <= na || na == cursor || nb == cursor {
		return asmLine{}, false
	}
	return instrLine(fmt.Sprintf("stmia %s!, {%s, %s}", a[1], a[2], b[2])), true
}

// Optimize applies the peephole passes to one generated kernel's text
// until a fixed point. It is only ever applied to straight-line
// (unrolled) kernels by the image builder, but is safe on any generated
// kernel: every pass proves its flag and register conditions before
// rewriting. The text is parsed once, and each pass is one sweep that
// reads its input front to back and appends what it keeps to the other
// of two buffers, so deleting a line costs nothing and a round is
// linear in kernel length. A pass may rewrite a line ahead of its
// cursor in place, but never inserts or deletes there, and never
// touches a label.
func Optimize(src string) string {
	lines := parseAsm(src)
	spare := make([]asmLine, 0, len(lines))
	passes := []func(out, in []asmLine) ([]asmLine, bool){foldZeroInit, coalesceAddSub, strengthReduceStores}
	for round := 0; round < 8; round++ {
		changed := false
		for _, pass := range passes {
			var c bool
			spare, c = pass(spare[:0], lines)
			lines, spare = spare, lines
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	return renderAsm(lines)
}

// OptimizeEntry deletes dead descriptor loads from generated entry
// code: an unrolled kernel embeds its buffer addresses as literals and
// ignores r0, so the "ldr r0, =descN" feeding its BL is dead — the
// cross-layer register reallocation that saves 2+2ws cycles per
// unrolled layer per inference. selfContained names the kernels that
// take no descriptor.
func OptimizeEntry(entry string, selfContained map[string]bool) string {
	lines := parseAsm(entry)
	for i := 1; i < len(lines); i++ {
		if lines[i].kind != lineInstr || lines[i].mnem != "bl" {
			continue
		}
		callee := strings.TrimSpace(strings.TrimPrefix(lines[i].norm, "bl "))
		if !selfContained[callee] {
			continue
		}
		if lines[i-1].kind == lineInstr && strings.HasPrefix(lines[i-1].norm, "ldr r0, =") {
			lines = append(lines[:i-1], lines[i:]...)
			i--
		}
	}
	return renderAsm(lines)
}
