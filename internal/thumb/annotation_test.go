package thumb

import (
	"fmt"
	"regexp"
	"testing"
)

// The regexps the annotation scanner replaced, kept as its oracle.
var (
	loopAnnRe = regexp.MustCompile(`asmcheck:\s*loop\s+(\d+)`)
	loadAnnRe = regexp.MustCompile(`asmcheck:\s*load\s+(\w+)`)
)

// annotationsMatchOracle compares both annotation scans of line with
// the regexps' leftmost submatch.
func annotationsMatchOracle(line string) error {
	for _, c := range []struct {
		kw      string
		operand func(byte) bool
		re      *regexp.Regexp
	}{{"loop", isDigit, loopAnnRe}, {"load", isWord, loadAnnRe}} {
		got, ok := annotation(line, c.kw, c.operand)
		m := c.re.FindStringSubmatch(line)
		if ok != (m != nil) || ok && got != m[1] {
			return fmt.Errorf("%s annotation of %q: scanner %q (%v), regexp %q", c.kw, line, got, ok, m)
		}
	}
	return nil
}

// TestAnnotationScanner pins the scanner's operands on the edge cases
// of the annotation syntax and checks each against the regexps.
func TestAnnotationScanner(t *testing.T) {
	cases := []struct {
		line       string
		loop, load string // "" when absent
	}{
		{"\tbne l\t@\tasmcheck:\tloop\t8", "8", ""},
		{"\tbne l @asmcheck:loop 3", "3", ""},
		{"\tldr r1, [r0] @ asmcheck:load\tsram,", "", "sram"},
		{"@ asmcheck: loops 4", "", ""},
		{"@ asmcheck: load flashy", "", "flashy"},
		{"@ asmcheck: loadsram", "", ""},
		{"@ asmcheck: loop 4 asmcheck: load sram", "4", "sram"},
		{"@ asmcheck: load periph @ asmcheck: loop 12", "12", "periph"},
		{"@ asmcheck: loop 4 @ asmcheck: loop 9", "4", ""},
		{"@ asmcheck: loops 4 asmcheck: loop 9", "9", ""},
		{"@ asmcheck:asmcheck: loop 5", "5", ""},
		{"@ asmcheck: loop 12abc", "12", ""},
		{"@ asmcheck: load sram_2+", "", "sram_2"},
		{"@ asmcheck: loop x", "", ""},
		{"@ asmcheck: loop", "", ""},
		{"@ asmcheck: loop\v5", "", ""},
		{"@ asmcheck: loop \r\f5", "5", ""},
		{"@ asmcheck:", "", ""},
		{"asmcheck:", "", ""},
		{"@ asmcheck loop 4", "", ""},
		{"@ asmcheck: loop 99999999999999999999", "99999999999999999999", ""},
		{"", "", ""},
	}
	for _, c := range cases {
		loop, _ := annotation(c.line, "loop", isDigit)
		load, _ := annotation(c.line, "load", isWord)
		if loop != c.loop || load != c.load {
			t.Errorf("%q: loop %q load %q, want %q %q", c.line, loop, load, c.loop, c.load)
		}
		if err := annotationsMatchOracle(c.line); err != nil {
			t.Error(err)
		}
	}
}

// TestAnnotationAssemble checks where the assembler attaches
// annotations and that bad ones keep their error text.
func TestAnnotationAssemble(t *testing.T) {
	p := mustAssemble(t, `entry:
l:	@ asmcheck: loop 7
	subs r0, #1
	bne l
	ldr r1, [r0]	@asmcheck:loop 3 asmcheck:	load sram
	ldr r2, [r0]
	@ asmcheck: load flash
	ldr r3, [r0]
	bx lr
`)
	want := []struct {
		mn     string
		loop   int
		region string
	}{{"subs", 7, ""}, {"bne", 0, ""}, {"ldr", 3, "sram"}, {"ldr", 0, ""}, {"ldr", 0, "flash"}, {"bx", 0, ""}}
	if len(p.Instrs) != len(want) {
		t.Fatalf("%d instructions, want %d", len(p.Instrs), len(want))
	}
	for i, w := range want {
		m := p.Instrs[i]
		if m.Mn != w.mn || m.LoopBound != w.loop || m.LoadRegion != w.region {
			t.Errorf("instruction %d: %s loop %d region %q, want %s %d %q", i, m.Mn, m.LoopBound, m.LoadRegion, w.mn, w.loop, w.region)
		}
	}

	for _, c := range []struct{ src, err string }{
		{"l: subs r0, #1\n\tbne l @ asmcheck: loop 0\n", `line 2: bad asmcheck loop bound "0"`},
		{"\tnop @ asmcheck: loop 99999999999999999999\n", `line 1: bad asmcheck loop bound "99999999999999999999"`},
		{"\n\tldr r0, [r1] @ asmcheck: load flashy\n", `line 2: bad asmcheck load region "flashy" (want flash, sram, or periph)`},
		{"\tldr r0, [r1] @ asmcheck: load sram asmcheck: loop 0\n", `line 1: bad asmcheck loop bound "0"`},
	} {
		_, err := Assemble(c.src, base)
		if err == nil || err.Error() != c.err {
			t.Errorf("%q: error %v, want %s", c.src, err, c.err)
		}
	}
}
