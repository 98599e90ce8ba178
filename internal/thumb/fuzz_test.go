package thumb

import (
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// FuzzAssemble checks three properties over arbitrary source text:
// every line's annotation scan equals the regexps', Assemble never
// panics, and every instruction it does emit round-trips
// through the armv6m decoder — an assembled opcode that disassembles as
// raw data (".hword") means the assembler emitted an encoding the
// decoder does not recognize, a contract violation between the two
// packages that asmcheck relies on.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"",
		"entry:\n\tbx lr\n",
		"entry:\n\tpush {r4-r7, lr}\n\tmovs r0, #1\n\tpop {r4-r7, pc}\n",
		"\tldr r0, =label\n\tbl label\n\tbkpt #0\n\t.pool\nlabel:\n\tnop\n",
		"loop:\n\tsubs r0, #1\n\tbne loop               @ asmcheck: loop 8\n",
		"\tadds r1, r2, r3\n\tsub sp, #16\n\tadd sp, #16\n",
		"\tldrh r1, [r2, #4]\n\tstrb r3, [r4, r5]\n\tldrsh r6, [r7, r0]\n",
		"\tstmia r1!, {r2, r3}\n\tldmia r4!, {r5}\n",
		"\tmov r8, r1\n\tcmp r9, r2\n\tadd r10, r3\n",
		"\tlsls r1, r2, #3\n\tasrs r3, r4\n\trev r5, r6\n\tsxth r7, r0\n",
		"\tcpsid i\n\tcpsie i\n\twfi\n\tsev\n",
		"\tbeq skip\nskip:\n\tmuls r0, r1, r0\n",
		"x: .word 1, x\n .hword 2\n .byte 3\n .space 5\n .align 4\n",
		"\tadr r0, tbl\n\t.align 4\ntbl:\n\t.word 0\n",
		"\trsbs r0, r1\n\tmvns r2, r3\n\tbics r4, r5\n",
		"bad:\n\tldr r0, [r1, #129]\n",
		"\tb 1f\n",
		"@ comment only\n; semicolon comment\n",
		"l:\t@asmcheck:\tloop 4 asmcheck: load sram\n\tldr r0, [r1]\n\tbne l @ asmcheck: loops 2 asmcheck:loop 3\n",
		"\tldr r0, [r1] @ asmcheck: load flashy\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, line := range strings.Split(src, "\n") {
			if err := annotationsMatchOracle(line); err != nil {
				t.Fatal(err)
			}
		}
		const base = 0x0800_0000
		p, err := Assemble(src, base) // must not panic on any input
		if err != nil {
			return
		}
		for _, m := range p.Instrs {
			off := int64(m.Addr) - base
			if off < 0 || off+int64(m.Size) > int64(len(p.Code)) {
				t.Fatalf("instruction meta at 0x%08x (size %d) outside code [0..%d)", m.Addr, m.Size, len(p.Code))
			}
			op := uint16(p.Code[off]) | uint16(p.Code[off+1])<<8
			var lo uint16
			if off+4 <= int64(len(p.Code)) {
				lo = uint16(p.Code[off+2]) | uint16(p.Code[off+3])<<8
			}
			text, size := armv6m.Disassemble(m.Addr, op, lo)
			if strings.HasPrefix(text, ".hword") {
				t.Errorf("%q (line %d) assembled to 0x%04x, which does not disassemble", m.Mn, m.Line, op)
			}
			if size != m.Size {
				t.Errorf("%q at 0x%08x: assembled size %d but decoder consumed %d", m.Mn, m.Addr, m.Size, size)
			}
		}
	})
}
