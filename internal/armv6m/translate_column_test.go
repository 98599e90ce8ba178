package armv6m_test

// Differential tests for the column-loop executor (execColumn): the
// block and mixed kernels' per-column code around a gather loop must
// execute bit-identically on the translated, predecoded and on-demand
// tiers as on the fetch/decode oracle, column by column, whatever the
// counts, widths and register choices, at every budget cut, and when a
// column leaves its regions at any of its loads or at its accumulator
// word.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// columnCase is one column-loop harness (columnSrc). The registers are
// those of the block kernel — N r6, Cc r3, A r7, P r2, H r11, I r4,
// B r1 — except the index X, the gathered value V and the countdown
// temporary T.
type columnCase struct {
	name    string
	counts  []int // per column
	cw, iw  int   // count and index widths in bytes
	op      string
	x, v, t string
	// idx are the indices, one per connection; nil draws them from a
	// seeded generator, below 256 (ldrb) or 0x3f00 (ldrh).
	idx []int
	// scenario names how the run leaves the column's regions: "" for
	// none, or count-in-sram, count-misaligned, acc-leaves-sram,
	// acc-misaligned, gather-leaves-sram, index-in-sram.
	scenario string
	columns  int // column loops the table must keep
}

// columnIndices returns the case's indices.
func (cc *columnCase) columnIndices() []int {
	if cc.idx != nil {
		return cc.idx
	}
	n := 0
	for _, c := range cc.counts {
		n += c
	}
	lim := 256
	if cc.iw == 2 {
		lim = 0x3f00
	}
	r := rng.New(uint64(n*31 + cc.iw))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(lim)
	}
	return idx
}

// joinInts renders vals as an assembler operand list.
func joinInts(vals []int) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = fmt.Sprint(v)
	}
	return strings.Join(s, ", ")
}

// columnSrc renders a harness that runs the block kernel's column loop
// once over the case's count and index tables, accumulating into words
// at 0x20000200 from a gather base at SRAM's start, and halts. A
// pointer the checker must not see reaches its register through an
// SRAM slot, and a table a deviation reads from SRAM is first copied
// there by proven stores.
func columnSrc(cc columnCase) string {
	idx := cc.columnIndices()
	widths := map[int][3]string{1: {"ldrb", "strb", ".byte"}, 2: {"ldrh", "strh", ".hword"}}
	cld, cst, cdir := widths[cc.cw][0], widths[cc.cw][1], widths[cc.cw][2]
	ild, ist, idir := widths[cc.iw][0], widths[cc.iw][1], widths[cc.iw][2]
	maxc := 1
	for _, c := range cc.counts {
		maxc = max(maxc, c)
	}
	var b strings.Builder
	b.WriteString("entry:\n")
	copyTo := func(base string, st string, w int, vals []int) {
		fmt.Fprintf(&b, "\tldr r5, =%s\n", base)
		for i, v := range vals {
			fmt.Fprintf(&b, "\tldr r0, =%d\n\t%s r0, [r5, #%d]\n", v, st, i*w)
		}
	}
	hide := func(reg, val string) {
		fmt.Fprintf(&b, "\tldr r0, =0x20000380\n\tldr r5, =%s\n\tstr r5, [r0]\n\tldr %s, [r0]\n", val, reg)
	}
	regs := map[string]string{"r3": "ctbl", "r4": "itbl", "r1": "0x20000000", "r2": "0x20000200"}
	cstep, pstep := cc.cw, 4
	switch cc.scenario {
	case "count-in-sram": // the count cursor in SRAM, off the flash the executor requires
		copyTo("0x20000300", cst, cc.cw, cc.counts)
		hide("r3", "0x20000300")
		delete(regs, "r3")
	case "count-misaligned": // an odd stride misaligns the second ldrh count
		cstep = 3
	case "acc-leaves-sram": // the third accumulator word is past SRAM's end
		hide("r2", "0x20003ff8")
		delete(regs, "r2")
	case "acc-misaligned": // a 6-byte stride misaligns the second word
		hide("r2", "0x20000200")
		delete(regs, "r2")
		pstep = 6
	case "gather-leaves-sram": // an index past the last 64 SRAM bytes
		regs["r1"] = "0x20003fc0"
	case "index-in-sram": // the index cursor in SRAM, certified as flash
		copyTo("0x20000300", ist, cc.iw, idx)
		hide("r4", "0x20000300")
		delete(regs, "r4")
	}
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		if v, ok := regs[r]; ok {
			fmt.Fprintf(&b, "\tldr %s, =%s\n", r, v)
		}
	}
	fmt.Fprintf(&b, "\tldr r0, =%d\n\tmov r11, r0\n", len(cc.counts))
	fmt.Fprintf(&b, `col:
	%s r6, [r3]            @ asmcheck: load flash
	adds r3, #%d
	ldr r7, [r2]
	cmp r6, #0
	beq cs
ck:
	%s %s, [r4]            @ asmcheck: load flash
	adds r4, #%d
	ldrsb %s, [r1, %s]     @ asmcheck: load sram
	%s r7, r7, %s
	subs r6, #1
	bne ck                 @ asmcheck: loop %d
cs:
	str r7, [r2]
	adds r2, #%d
	mov %s, r11
	subs %s, #1
	mov r11, %s
	bne col                @ asmcheck: loop %d
	bkpt #0
	.pool
	.align 4
ctbl:
	%s %s
	.align 4
itbl:
	%s %s
`, cld, cstep, ild, cc.x, cc.iw, cc.v, cc.x, cc.op, cc.v, maxc,
		pstep, cc.t, cc.t, cc.t, len(cc.counts),
		cdir, joinInts(cc.counts), idir, joinInts(append(idx, 0)))
	return b.String()
}

// certifyColumn certifies a column harness. A harness whose accumulator
// pointer is hidden cannot have its stores proven, so it is certified
// without the strict store check; its loops are certified all the same.
func certifyColumn(t testing.TB, cc columnCase) (*thumb.Program, *cert.Certificate) {
	t.Helper()
	src := columnSrc(cc)
	if !strings.HasPrefix(cc.scenario, "acc-") {
		return certifySrc(t, src, false)
	}
	prog, err := thumb.Assemble(src, certBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.StackBudget = 1024
	c, rep, err := asmcheck.Certify(prog, cfg)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	return prog, c
}

// requireColumnParity runs prog for budget instructions on the oracle
// and every tier at ws, over the same seeded SRAM, and requires equal
// errors and equal state.
func requireColumnParity(t *testing.T, name string, prog *thumb.Program, c *cert.Certificate, ws int, budget uint64) string {
	t.Helper()
	cores := make(map[string]*armv6m.CPU, len(tierNames))
	errs := make(map[string]string, len(tierNames))
	for _, tier := range tierNames {
		cpu := bootTier(t, prog, c, ws, tier, false)
		fillInputs(cpu, uint64(ws)+7, 0x400)
		errs[tier] = fmt.Sprint(runTier(cpu, tier, budget))
		cores[tier] = cpu
	}
	for _, tier := range tierNames[1:] {
		if errs[tier] != errs["oracle"] {
			t.Errorf("%s %s: error %q, want %q", name, tier, errs[tier], errs["oracle"])
		}
		requireSameState(t, name+" "+tier, cores["oracle"], cores[tier])
	}
	return errs["oracle"]
}

// columnCases are the harnesses TestTranslateColumnParity runs whole.
func columnCases() []columnCase {
	base := columnCase{counts: []int{2, 0, 3, 1, 0, 4}, cw: 1, iw: 1, op: "adds", x: "r5", v: "r5", t: "r5", columns: 1}
	var cases []columnCase
	add := func(name string, edit func(*columnCase)) {
		cc := base
		cc.name = name
		edit(&cc)
		cases = append(cases, cc)
	}
	for _, cw := range []int{1, 2} {
		for _, iw := range []int{1, 2} {
			for _, op := range []string{"adds", "subs"} {
				for _, r := range [][3]string{{"r5", "r5", "r5"}, {"r5", "r0", "r5"}, {"r5", "r0", "r0"}, {"r0", "r5", "r5"}} {
					add(fmt.Sprintf("c%d/i%d/%s/x=%s,v=%s,t=%s", cw, iw, op, r[0], r[1], r[2]), func(cc *columnCase) {
						cc.cw, cc.iw, cc.op = cw, iw, op
						cc.x, cc.v, cc.t = r[0], r[1], r[2]
					})
				}
			}
		}
	}
	add("all-empty", func(cc *columnCase) { cc.counts = []int{0, 0, 0, 0} })
	add("one-empty", func(cc *columnCase) { cc.counts = []int{0} })
	add("one-full", func(cc *columnCase) { cc.counts = []int{5} })
	add("empty-last", func(cc *columnCase) { cc.counts = []int{1, 2, 0} })
	add("wide-counts", func(cc *columnCase) { cc.cw, cc.counts = 2, []int{300, 0, 257} })
	// T on the count register: the shape is not lowered, and the loop
	// runs per instruction and in the gather executor.
	add("t-is-n", func(cc *columnCase) { cc.t, cc.columns = "r6", 0 })
	return cases
}

// TestTranslateColumnParity runs column-loop harnesses on the oracle
// and all three tiers at ws 0-2: ldrb and ldrh counts and indices, adds
// and subs, X == V == T and the other register sharings, empty columns
// and all-empty passes, and the generated block kernel over a seeded
// layer; then cuts a 6-column harness at every budget up to its end,
// with ldrb and with ldrh tables; then drives columns off their regions
// at the count, the accumulator word, the gather and the index, on the
// first column and after completed ones. Every case must lower to the
// number of column loops it names.
func TestTranslateColumnParity(t *testing.T) {
	for _, cc := range columnCases() {
		t.Run(cc.name, func(t *testing.T) {
			prog, c := certifyColumn(t, cc)
			if n := translateProg(t, prog, c).Columns(); n != cc.columns {
				t.Fatalf("harness lowers to %d column loops, want %d", n, cc.columns)
			}
			for ws := 0; ws <= 2; ws++ {
				if err := requireColumnParity(t, fmt.Sprintf("ws=%d", ws), prog, c, ws, 1_000_000); err != "<nil>" {
					t.Fatalf("ws=%d: oracle run: %s", ws, err)
				}
			}
		})
	}
	// The generated block kernel over a seeded layer: uneven counts,
	// empty columns, four blocks, two column loops.
	t.Run("block-kernel", func(t *testing.T) {
		prog, c := certifySrc(t, blockKernelHarness(randTernary(3, 784, 24, 0.03)), false)
		if n := translateProg(t, prog, c).Columns(); n != 2 {
			t.Fatalf("block kernel lowers to %d column loops, want 2", n)
		}
		for ws := 0; ws <= 2; ws++ {
			if err := requireColumnParity(t, fmt.Sprintf("ws=%d", ws), prog, c, ws, 1_000_000); err != "<nil>" {
				t.Fatalf("ws=%d: oracle run: %s", ws, err)
			}
		}
	})
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("budget/w%d", w), func(t *testing.T) {
			cc := columnCase{counts: []int{2, 0, 3, 1, 0, 4}, cw: w, iw: w, op: "subs", x: "r5", v: "r0", t: "r5"}
			prog, c := certifyColumn(t, cc)
			if n := translateProg(t, prog, c).Columns(); n != 1 {
				t.Fatalf("harness lowers to %d column loops, want 1", n)
			}
			ref := bootTier(t, prog, c, 0, "oracle", false)
			if err := armv6m.OracleRun(ref, 1_000_000); err != nil {
				t.Fatalf("oracle run: %v", err)
			}
			for ws := 0; ws <= 2; ws++ {
				for k := uint64(0); k <= ref.Instructions+1; k++ {
					requireColumnParity(t, fmt.Sprintf("ws=%d budget=%d", ws, k), prog, c, ws, k)
				}
			}
		})
	}
	deviations := []struct {
		scenario string
		cw, iw   int
		counts   []int
		idx      []int
		fault    bool
	}{
		{"count-in-sram", 1, 1, []int{2, 0, 3}, nil, false},
		{"count-in-sram", 2, 2, []int{0, 2, 1}, nil, false},
		{"count-misaligned", 2, 1, []int{2, 1, 3}, nil, true},
		{"acc-leaves-sram", 1, 1, []int{1, 0, 2, 1}, nil, true},
		{"acc-misaligned", 1, 2, []int{2, 1, 3}, nil, true},
		{"gather-leaves-sram", 1, 1, []int{2, 3, 1}, []int{1, 2, 3, 250, 4, 5}, true},
		{"gather-leaves-sram", 2, 2, []int{0, 3, 2}, []int{9, 10, 250, 11, 12}, true},
		{"index-in-sram", 1, 1, []int{2, 0, 3}, nil, false},
		{"index-in-sram", 1, 2, []int{1, 2, 2}, []int{7, 300, 5, 9, 60}, false},
	}
	for _, d := range deviations {
		for _, r := range [][3]string{{"r5", "r5", "r5"}, {"r5", "r0", "r0"}} {
			for _, op := range []string{"adds", "subs"} {
				cc := columnCase{counts: d.counts, cw: d.cw, iw: d.iw, op: op, x: r[0], v: r[1], t: r[2], idx: d.idx, scenario: d.scenario}
				t.Run(fmt.Sprintf("%s/c%d/i%d/v=%s/%s", d.scenario, d.cw, d.iw, r[1], op), func(t *testing.T) {
					prog, c := certifyColumn(t, cc)
					if n := translateProg(t, prog, c).Columns(); n != 1 {
						t.Fatalf("harness lowers to %d column loops, want 1", n)
					}
					for ws := 0; ws <= 2; ws++ {
						err := requireColumnParity(t, fmt.Sprintf("ws=%d", ws), prog, c, ws, 100_000)
						if (err != "<nil>") != d.fault {
							t.Errorf("ws=%d: oracle run ended with %q, want a fault: %v", ws, err, d.fault)
						}
					}
				})
			}
		}
	}
}
