package asmcheck

import (
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// FuzzCheck feeds arbitrary byte programs to the analyzer: whatever the
// bytes decode to — truncated instructions, branches into the middle of
// nowhere, unbounded loops, stores through garbage — Check and Certify
// must return a report or an error, never panic, and the recovered CFG
// must equal the oracle builder's. The fuzzer drives the raw code path
// (not the assembler) because that is what a hostile or corrupted image
// looks like.
func FuzzCheck(f *testing.F) {
	for _, code := range fuzzSeeds(f) {
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		p, cfg := rawProgram(code)
		// The dense CFG builder must recover exactly the oracle's
		// graphs, overlapping and truncated instructions included.
		if err := cfgParity(p, cfg); err != nil {
			t.Fatalf("CFG differs from the oracle: %v", err)
		}
		if _, err := Check(p, cfg); err != nil {
			t.Skip() // unanalyzable input is a reported error, not a crash
		}
		// Certify must be equally panic-free, clean program or not.
		_, _, _ = Certify(p, cfg)
	})
}

// fuzzSeeds are FuzzCheck's seed inputs. They are fragments that
// exercise the interesting paths: a clean leaf, a call, a loop, a
// load/store mix, a loop back to the entry, raw garbage, and
// overlapping instructions.
func fuzzSeeds(tb testing.TB) [][]byte {
	seeds := []string{
		"entry: bkpt #0\n",
		"entry: push {lr}\n\tbl leaf\n\tpop {pc}\nleaf:\n\tbx lr\n",
		"entry: movs r0, #4\nl:\tsubs r0, #1\n\tbne l @ asmcheck: loop 4\n\tbkpt #0\n",
		"entry: ldr r0, =0x20000000\n\tldr r1, [r0]\n\tstr r1, [r0, #4]\n\tbkpt #0\n",
		"entry: subs r0, #1\n\tbne entry @ asmcheck: loop 4\n\tbkpt #0\n",
	}
	var codes [][]byte
	for _, src := range seeds {
		p, err := thumb.Assemble(src, armv6m.FlashBase)
		if err != nil {
			tb.Fatal(err)
		}
		codes = append(codes, p.Code)
	}
	return append(codes,
		[]byte{0xff, 0xff, 0x00, 0x00, 0xde, 0xad},
		// beq to 4; BL at 2 whose second halfword starts another BL at 4
		// (the branch target), then a lone BL suffix and bkpt: the
		// two BLs' fallthroughs (6 and 8) interleave.
		[]byte{0x00, 0xd0, 0x00, 0xf0, 0x00, 0xf0, 0x00, 0xf8, 0x00, 0xbe})
}

// rawProgram presents code the way FuzzCheck does: at the flash base
// with "entry" on its first byte, checked strictly under a 1 KiB stack
// budget.
func rawProgram(code []byte) (*thumb.Program, Config) {
	p := &thumb.Program{
		Base:    armv6m.FlashBase,
		Code:    code,
		Symbols: map[string]uint32{"entry": armv6m.FlashBase},
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = 1024
	return p, cfg
}
