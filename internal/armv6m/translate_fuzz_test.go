package armv6m_test

// FuzzTranslateParity: randomly generated certified Thumb-1 images must
// execute bit-identically — registers, memory, cycles, bus counters —
// on the translated, predecoded, and legacy tiers as on the
// fetch/decode oracle, including holed certificates (some loops run per
// instruction) and budget cuts that land inside loops. The generator is
// structured: fuzz bytes choose loop bounds, body instructions from a
// certifiable menu, and the wait-state/budget settings, so most inputs
// survive strict certification instead of dying in the assembler.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// fuzzMenu is the body-instruction menu: flag-setting ALU ops and
// memory ops whose addresses the checker can bound through the counted
// loop (r3 = flash base, r4 = SRAM base, r2 = loop index < trip).
var fuzzMenu = []string{
	"adds r1, r1, r6",
	"subs r1, r1, r6",
	"muls r6, r0, r6",
	"ldrsb r6, [r3, r2]",
	"ldrsb r0, [r4, r2]",
	"ldrb r6, [r3, r2]",
	"strb r1, [r4, r2]",
	"lsls r1, r1, #1",
	"mvns r6, r1",
	"uxtb r1, r1",
	"movs r6, #255",
	"ands r1, r6",
}

// genFuzzProgram renders a certifiable harness from fuzz bytes: a
// counted inner loop with a byte-chosen body, an optional countdown
// loop, an optional gather loop (genGatherLoop), an optional call to an
// unrolled kernel (genUnrolledCall), and a BKPT exit.
func genFuzzProgram(data []byte) string {
	rd := func(i int) int { return int(data[i%len(data)]) }
	trip := rd(1)%15 + 1
	nops := rd(2) % 8
	var b strings.Builder
	b.WriteString("entry:\n")
	b.WriteString("\tldr r3, =0x08000000\n")
	b.WriteString("\tldr r4, =0x20000000\n")
	fmt.Fprintf(&b, "\tmovs r5, #%d\n", trip)
	b.WriteString("\tmovs r0, #0\n\tmovs r1, #0\n\tmovs r2, #0\n\tmovs r6, #0\n")
	b.WriteString("loop:\n")
	for i := 0; i < nops; i++ {
		b.WriteString("\t" + fuzzMenu[rd(3+i)%len(fuzzMenu)] + "\n")
	}
	b.WriteString("\tadds r2, #1\n")
	b.WriteString("\tcmp r2, r5\n")
	fmt.Fprintf(&b, "\tblo loop               @ asmcheck: loop %d\n", trip)
	if rd(0)&1 == 1 {
		down := rd(11)%13 + 1
		fmt.Fprintf(&b, "\tmovs r7, #%d\n", down)
		b.WriteString("loop2:\n")
		b.WriteString("\tsubs r7, #1\n")
		fmt.Fprintf(&b, "\tbne loop2              @ asmcheck: loop %d\n", down)
	}
	var tables, kern string
	if rd(0)&2 != 0 {
		tables = genGatherLoop(&b, rd)
	}
	if rd(0)&4 != 0 {
		kern = genUnrolledCall(&b, rd)
	}
	b.WriteString("\tbkpt #0\n\t.pool\n")
	b.WriteString(kern)
	b.WriteString(tables)
	return b.String()
}

// genUnrolledCall appends a call to a deployed unrolled kernel — the
// straight-line runs the translated tier executes whole in execRun —
// for a random ternary matrix, after proven stores of its input bytes,
// and returns the kernel's source. Fuzz bytes choose the shape (up to
// 70 inputs, so window moves appear), the unroll factor, the density,
// the matrix seed and the inputs.
func genUnrolledCall(b *strings.Builder, rd func(int) int) string {
	const in0, acc0 = 0x20000300, 0x20000600
	in, out := rd(27)%70+1, rd(28)%9+1
	factor := kernels.UnrollFactors[rd(29)%len(kernels.UnrollFactors)]
	m := randTernary(uint64(rd(30))<<8|uint64(rd(31)), in, out, float64(rd(32)%10+1)/10)
	fmt.Fprintf(b, "\tldr r4, =0x%08x\n", in0)
	for i := 0; i < in; i++ {
		if i > 0 && i%32 == 0 {
			b.WriteString("\tadds r4, #32\n")
		}
		fmt.Fprintf(b, "\tmovs r0, #%d\n\tstrb r0, [r4, #%d]\n", rd(33+i), i%32)
	}
	b.WriteString("\tbl k_fuzz_unr\n")
	return kernels.Unrolled("k_fuzz_unr", m, factor, in0, acc0)
}

// genGatherLoop appends the ternary kernels' gather loop (the shape the
// translated tier runs whole in execGatherLoop) and returns the flash
// tables it reads. Fuzz bytes choose the index width (ldrb/ldrh), the
// index table's region (flash, or SRAM filled by proven stores), the
// optional moving base, adds/subs, X == V, the trip count, and the
// indices. The gather base is SRAM's start, a point near SRAM's end
// (large indices then fault), or a flash table reached through an SRAM
// slot and certified as SRAM by annotation (every gather deviates); an
// odd ldrh stride misaligns the second index load. So some loops run
// clean, and others leave their certified facts at either load.
func genGatherLoop(b *strings.Builder, rd func(int) int) string {
	mode := rd(12)
	width := 1 + mode&1
	moving := mode&4 != 0
	op := "adds"
	if mode&8 != 0 {
		op = "subs"
	}
	x, v := "r5", "r0"
	if !moving && mode&16 != 0 {
		v = "r5"
	}
	count := rd(13)%6 + 1
	idx := make([]string, count)
	for i := range idx {
		n := rd(14 + i)
		if width == 2 {
			n |= rd(20+i) << 8 & 0x7fff
		}
		idx[i] = fmt.Sprint(n)
	}
	ld, dir, step := "ldrb", ".byte", width
	if width == 2 {
		ld, dir = "ldrh", ".hword"
		if mode&32 != 0 {
			step = 3
		}
	}
	tables := "\t.align 4\ngtbl:\n\t" + dir + " " + strings.Join(idx, ", ") + "\n"
	region := "flash"
	if mode&2 != 0 {
		// The index table in SRAM, written by proven stores.
		region = "sram"
		b.WriteString("\tldr r4, =0x20000100\n")
		st := "strb"
		if width == 2 {
			st = "strh"
		}
		for i, n := range idx {
			fmt.Fprintf(b, "\tldr r0, =%s\n\t%s r0, [r4, #%d]\n", n, st, i*width)
		}
	} else {
		b.WriteString("\tldr r4, =gtbl\n")
	}
	switch rd(26) % 3 {
	case 0:
		b.WriteString("\tldr r1, =0x20000000\n")
	case 1:
		b.WriteString("\tldr r1, =0x20003f80\n")
	default:
		b.WriteString("\tldr r2, =0x20000200\n\tldr r3, =gtbl\n\tstr r3, [r2]\n\tldr r1, [r2]\n")
	}
	fmt.Fprintf(b, "\tmovs r6, #%d\n", count)
	b.WriteString("gloop:\n")
	fmt.Fprintf(b, "\t%s %s, [r4]           @ asmcheck: load %s\n", ld, x, region)
	fmt.Fprintf(b, "\tadds r4, #%d\n", step)
	fmt.Fprintf(b, "\tldrsb %s, [r1, %s]       @ asmcheck: load sram\n", v, x)
	if moving {
		fmt.Fprintf(b, "\tadds r1, r1, %s\n", x)
	}
	fmt.Fprintf(b, "\t%s r7, r7, %s\n", op, v)
	b.WriteString("\tsubs r6, #1\n")
	fmt.Fprintf(b, "\tbne gloop              @ asmcheck: loop %d\n", count)
	return tables
}

func FuzzTranslateParity(f *testing.F) {
	// Seeds: MAC-loop body, store-heavy body, ALU-only body, both-loops,
	// and a degenerate single-iteration case.
	f.Add([]byte{1, 64, 4, 3, 4, 2, 0, 9})
	f.Add([]byte{0, 8, 5, 6, 6, 6, 1, 7, 11, 2})
	f.Add([]byte{1, 3, 3, 0, 7, 8, 10})
	f.Add([]byte{255, 200, 7, 3, 4, 2, 0, 6, 5, 1, 150})
	f.Add([]byte{0, 0, 0})
	// Unrolled kernels on random matrices (bit 2 of the first byte),
	// alone and after a gather loop, at every wait-state setting.
	for i, first := range []byte{4, 5, 6, 7, 12, 6, 14} {
		r := rng.New(uint64(100 + i))
		data := make([]byte, 104)
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		data[0] = first
		f.Add(data)
	}
	// Marks ascending (even hash) and in random order (odd), over a
	// gather loop and an unrolled kernel.
	f.Add([]byte{6, 9, 2, 4, 3, 1, 0, 5, 7, 8, 11, 2, 1, 6, 3, 4})
	f.Add([]byte{7, 9, 2, 4, 3, 1, 0, 5, 7, 8, 11, 2, 1, 6, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip("empty input")
		}
		src := genFuzzProgram(data)
		prog, err := thumb.Assemble(src, certBase)
		if err != nil {
			t.Skipf("assemble: %v", err)
		}
		cfg := asmcheck.DefaultConfig()
		cfg.Strict = true
		cfg.StackBudget = 1024
		c, rep, err := asmcheck.Certify(prog, cfg)
		if err != nil || !rep.OK() {
			t.Skip("not certifiable")
		}
		ws := int(data[0]) % 3

		// Full-run parity of all three tiers with the oracle. A gather
		// loop may fault (an index sends it off the bus); every tier
		// must then report the oracle's fault.
		ref := bootTier(t, prog, c, ws, "oracle", false)
		refErr := fmt.Sprint(armv6m.OracleRun(ref, 500_000))
		for _, tier := range tierNames[1:] {
			cpu := bootTier(t, prog, c, ws, tier, false)
			if err := fmt.Sprint(cpu.Run(500_000)); err != refErr {
				t.Fatalf("%s run: %s, want %s", tier, err, refErr)
			}
			requireSameState(t, tier, ref, cpu)
		}

		// Translated tier under a holed certificate.
		// Every second block removed: the loops among them run per
		// instruction on the predecoded path.
		holed := dropBlocks(t, c, func(bi int, _ *cert.Block) bool { return bi%2 == 0 })
		cpu := bootTier(t, prog, holed, ws, "translated", false)
		if err := fmt.Sprint(cpu.Run(500_000)); err != refErr {
			t.Fatalf("holed translated run: %s, want %s", err, refErr)
		}
		requireSameState(t, "holed", ref, cpu)

		// Marks at random instruction addresses, ascending or in random
		// order: placing and recording them changes no observable, and
		// each placed mark records the oracle's running total at its
		// first in-order retire (out-of-order marks stay unhit on both).
		var h uint64
		for _, b := range data {
			h = h*131 + uint64(b)
		}
		r := rng.New(h)
		addrs := make([]uint32, r.Intn(6)+1)
		for i := range addrs {
			addrs[i] = prog.Base + uint32(r.Intn(len(prog.Code)))&^1
		}
		if h&1 == 0 {
			slices.Sort(addrs)
		}
		if placed := placedMarks(t, prog, c, addrs); len(placed) > 0 {
			checkMarks(t, "marks", prog, c, ws, placed, 500_000)
		}

		// Budget cut landing anywhere, including inside a loop pass:
		// identical truncation state and error classification.
		budget := uint64(data[len(data)-1])*4 + 1
		p := bootTier(t, prog, c, ws, "predecoded", false)
		x := bootTier(t, prog, c, ws, "translated", false)
		perr, xerr := p.Run(budget), x.Run(budget)
		var pb, xb *armv6m.BudgetError
		if errors.As(perr, &pb) != errors.As(xerr, &xb) || fmt.Sprint(perr) != fmt.Sprint(xerr) {
			t.Fatalf("budget %d: error mismatch: predecoded %v, translated %v", budget, perr, xerr)
		}
		requireSameState(t, fmt.Sprintf("budget=%d", budget), p, x)
	})
}

// TestTranslateFirstOpDeviation pins the dispatcher's progress guard:
// a gather loop whose index load is certified as flash but reads SRAM
// deviates at its head on every pass, the first included, so the
// executor returns with no progress and the PC on the head. The
// dispatcher must then execute the head through its handler rather
// than re-enter the executor forever, and the run must stay
// bit-identical to the predecoded tier at ws 0-2.
func TestTranslateFirstOpDeviation(t *testing.T) {
	prog, c := certifySrc(t, gatherDeviationSrc("cursor-in-sram", 1, "r5", "r0", "adds", false), false)
	if tt := translateProg(t, prog, c); tt == nil || tt.GatherLoops() != 1 {
		t.Fatal("harness loop does not lower to a gather loop")
	}
	for ws := 0; ws <= 2; ws++ {
		ref := bootTier(t, prog, c, ws, "predecoded", false)
		if err := ref.Run(1000); err != nil {
			t.Fatalf("predecoded run: %v", err)
		}
		x := bootTier(t, prog, c, ws, "translated", false)
		if err := x.Run(1000); err != nil {
			t.Fatalf("translated run: %v", err)
		}
		requireSameState(t, fmt.Sprintf("ws=%d", ws), ref, x)
		if !x.Halted {
			t.Fatal("translated run never reached BKPT")
		}
	}
}
