package armv6m_test

// FuzzTranslateParity: randomly generated certified Thumb-1 images must
// execute bit-identically — registers, memory, cycles, bus counters —
// on the translated, predecoded, and legacy tiers, including mid-run
// fallback at uncertified PCs (holed certificates) and budget cuts that
// land inside superblocks. The generator is structured: fuzz bytes
// choose loop bounds, body instructions from a certifiable menu, and
// the wait-state/budget settings, so most inputs survive strict
// certification instead of dying in the assembler.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
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
// loop, an optional gather loop (genGatherLoop), and a BKPT exit.
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
	var tables string
	if rd(0)&2 != 0 {
		tables = genGatherLoop(&b, rd)
	}
	b.WriteString("\tbkpt #0\n\t.pool\n")
	b.WriteString(tables)
	return b.String()
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

// holeCert returns a JSON-round-tripped copy of the certificate with
// every second block removed, forcing the translated tier through
// interpreted Steps at the dropped PCs.
func holeCert(t *testing.T, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	data, err := c.JSON()
	if err != nil {
		t.Fatalf("cert JSON: %v", err)
	}
	holed, err := cert.Parse(data)
	if err != nil {
		t.Fatalf("cert parse: %v", err)
	}
	for fi := range holed.Funcs {
		f := &holed.Funcs[fi]
		kept := f.Blocks[:0]
		for bi := range f.Blocks {
			if bi%2 == 0 {
				continue
			}
			kept = append(kept, f.Blocks[bi])
		}
		f.Blocks = kept
	}
	return holed
}

func FuzzTranslateParity(f *testing.F) {
	// Seeds: MAC-loop body, store-heavy body, ALU-only body, both-loops,
	// and a degenerate single-iteration case.
	f.Add([]byte{1, 64, 4, 3, 4, 2, 0, 9})
	f.Add([]byte{0, 8, 5, 6, 6, 6, 1, 7, 11, 2})
	f.Add([]byte{1, 3, 3, 0, 7, 8, 10})
	f.Add([]byte{255, 200, 7, 3, 4, 2, 0, 6, 5, 1, 150})
	f.Add([]byte{0, 0, 0})
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

		// Full-run parity across all three tiers. A gather loop may
		// fault (an index sends it off the bus); every tier must then
		// report the same fault.
		ref := bootTier(t, prog, c, ws, "legacy", false)
		refErr := fmt.Sprint(ref.Run(500_000))
		for _, tier := range []string{"predecoded", "translated"} {
			cpu := bootTier(t, prog, c, ws, tier, false)
			if err := fmt.Sprint(cpu.Run(500_000)); err != refErr {
				t.Fatalf("%s run: %s, want %s", tier, err, refErr)
			}
			requireSameState(t, tier, ref, cpu)
		}

		// Mid-run fallback: translated tier under a holed certificate.
		holed := holeCert(t, c)
		if tt := translateProg(t, prog, holed); tt != nil {
			cpu := bootTier(t, prog, holed, ws, "translated", false)
			if err := fmt.Sprint(cpu.Run(500_000)); err != refErr {
				t.Fatalf("holed translated run: %s, want %s", err, refErr)
			}
			requireSameState(t, "holed", ref, cpu)
		}

		// Budget cut landing anywhere, including inside a superblock
		// pass: identical truncation state and error classification.
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

// TestTranslateFirstOpDeviation pins the dispatch loop's progress
// guard: a block whose FIRST instruction deviates (its certified region
// is wrong, so the runtime address check always fails) leaves the PC on
// the block head — the dispatcher must execute that instruction through
// the interpreter rather than re-dispatching the block forever, and the
// run must stay bit-identical to the predecoded tier.
func TestTranslateFirstOpDeviation(t *testing.T) {
	src := `
entry:
	ldr r3, =0x08000000
	movs r2, #0
	ldrsb r6, [r3, r2]
	bkpt #0
	.pool
`
	prog, err := thumb.Assemble(src, certBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	boot := func() *armv6m.CPU {
		cpu := armv6m.New()
		vec := make([]byte, 16)
		sp := uint32(armv6m.SRAMBase + armv6m.SRAMSize)
		entry := prog.Base | 1
		vec[0], vec[1], vec[2], vec[3] = byte(sp), byte(sp>>8), byte(sp>>16), byte(sp>>24)
		vec[4], vec[5], vec[6], vec[7] = byte(entry), byte(entry>>8), byte(entry>>16), byte(entry>>24)
		if err := cpu.Bus.LoadFlash(0, vec); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Reset(); err != nil {
			t.Fatal(err)
		}
		cpu.Cycles, cpu.Instructions = 0, 0
		return cpu
	}
	ref := boot()
	ref.DisableTranslation = true
	if err := ref.Run(1000); err != nil {
		t.Fatalf("predecoded run: %v", err)
	}

	// A block starting at the ldrsb, with the region deliberately
	// certified as SRAM: the facts are internally consistent (so the
	// translator accepts the block) but the address is flash, so the
	// runtime region check deviates on the first op of the block.
	x := boot()
	ldrsbAddr := uint32(certBase + 4)
	blocks := []armv6m.CertBlock{{
		Start: ldrsbAddr,
		End:   ldrsbAddr + 2,
		Instrs: []armv6m.CertInstr{{
			Addr: ldrsbAddr, Size: 2,
			CostBase: 2, CostWS: 1,
			FlashReads: 1, SRAMReads: 1,
			Region: armv6m.RegionSRAM, Exact: true,
		}},
	}}
	tt := armv6m.Translate(x.PredecodeNow(), blocks, armv6m.TranslationConfig{
		Profile:        x.Profile.Name,
		PipelineRefill: x.Profile.PipelineRefill,
		MulCycles:      x.MulCycles,
	})
	if tt == nil {
		t.Fatal("block with consistent (but wrong-region) facts did not translate")
	}
	x.UseTranslation(tt)
	if err := x.Run(1000); err != nil {
		t.Fatalf("translated run: %v", err)
	}
	requireSameState(t, "first-op deviation", ref, x)
	if !x.Halted {
		t.Fatal("translated run never reached BKPT")
	}
}
