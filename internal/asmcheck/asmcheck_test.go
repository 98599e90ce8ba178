package asmcheck

import (
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/thumb"
)

func check(t *testing.T, src string, mut func(*Config)) *Report {
	t.Helper()
	p, err := thumb.Assemble(src, armv6m.FlashBase)
	if err != nil {
		t.Fatalf("fixture does not assemble: %v\n%s", err, src)
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	if mut != nil {
		mut(&cfg)
	}
	rep, err := Check(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func codes(rep *Report) []Code {
	var cs []Code
	seen := map[Code]bool{}
	for _, v := range rep.Violations {
		if !seen[v.Code] {
			seen[v.Code] = true
			cs = append(cs, v.Code)
		}
	}
	return cs
}

// TestBrokenKernels feeds deliberately defective kernels through the
// checker; each must be rejected with exactly its distinct code.
func TestBrokenKernels(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		want   Code
		mut    func(*Config)
		noLine bool // raw data has no assembler instruction metadata
	}{
		{
			name: "clobbered r4 without save",
			want: CodeAAPCSClobber,
			src: `entry:
	push {lr}
	movs r4, #1
	pop {pc}
`,
		},
		{
			name: "unbalanced push across a join",
			want: CodeStackImbalance,
			src: `entry:
	push {r4, lr}
	cmp r0, #0
	beq skip
	push {r5}
skip:
	pop {r4, pc}
`,
		},
		{
			name: "return address is not the entry lr",
			want: CodeAAPCSLR,
			src: `entry:
	push {r4, lr}
	movs r1, #1
	str r1, [sp, #4]
	pop {r4, pc}
`,
		},
		{
			name: "store to flash",
			want: CodeMemWriteFlash,
			src: `entry:
	push {r4, lr}
	ldr r1, =tbl
	movs r2, #7
	str r2, [r1]
	pop {r4, pc}
	.pool
	.align 4
tbl:
	.word 0
`,
			mut: func(c *Config) { c.CodeLimit = armv6m.FlashBase + 12 },
		},
		{
			name: "loop without iteration bound",
			want: CodeCycleUnbounded,
			src: `entry:
	push {r4, lr}
	movs r2, #8
spin:
	subs r2, #1
	bne spin
	pop {r4, pc}
`,
		},
		{
			name: "stack overrun",
			want: CodeStackOverflow,
			src: `entry:
	push {r4-r7, lr}
	sub sp, #128
	add sp, #128
	pop {r4-r7, pc}
`,
			mut: func(c *Config) { c.StackBudget = 64 },
		},
		{
			name: "missing return falls past the code",
			want: CodeCFGFallthrough,
			src: `entry:
	push {r4, lr}
	movs r0, #0
`,
		},
		{
			name: "indirect branch through a scratch register",
			want: CodeCFGIndirect,
			src: `entry:
	bx r3
`,
		},
		{
			name:   "reachable trap",
			want:   CodeCFGTrap,
			noLine: true,
			src: `entry:
	.hword 0xde00
`,
		},
		{
			name:   "data in the instruction stream",
			want:   CodeDecodeUnknown,
			noLine: true,
			src: `entry:
	push {r4, lr}
	.hword 0xb100
	pop {r4, pc}
`,
		},
		{
			name: "store outside the memory map",
			want: CodeMemUnmapped,
			src: `entry:
	push {r4, lr}
	ldr r1, =0x40000000
	movs r2, #1
	str r2, [r1]
	pop {r4, pc}
	.pool
`,
		},
		{
			name: "misaligned word access",
			want: CodeMemUnaligned,
			src: `entry:
	push {r4, lr}
	ldr r1, =0x20000002
	ldr r2, [r1]
	pop {r4, pc}
	.pool
`,
		},
		{
			name: "strict mode rejects an unproven store",
			want: CodeMemUnproven,
			src: `entry:
	push {r4, lr}
	movs r2, #1
	str r2, [r0]
	pop {r4, pc}
`,
		},
		{
			name: "recursive call",
			want: CodeCFGRecursion,
			src: `entry:
	push {r4, lr}
	bl entry
	pop {r4, pc}
`,
		},
		{
			name: "raw SP write",
			want: CodeStackSP,
			src: `entry:
	mov sp, r1
	bx lr
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := check(t, tc.src, tc.mut)
			got := codes(rep)
			if len(got) != 1 || got[0] != tc.want {
				t.Fatalf("violations = %v, want exactly [%s]\nreport: %+v", got, tc.want, rep.Violations)
			}
			if !tc.noLine && rep.Violations[0].Line == 0 {
				t.Errorf("violation carries no source line: %s", rep.Violations[0])
			}
			if tc.want == CodeCycleUnbounded && rep.CycleBound != Unbounded {
				t.Errorf("CycleBound = %d for an unannotated loop, want Unbounded", rep.CycleBound)
			}
		})
	}
}

// TestCleanKernelPasses verifies the checker accepts a well-formed
// kernel and produces finite, plausible bounds.
func TestCleanKernelPasses(t *testing.T) {
	src := `entry:
	push {r4-r7, lr}
	ldr r1, =0x20000000
	movs r2, #8
	movs r4, #0
fill:
	strb r4, [r1]
	adds r1, #1
	subs r2, #1
	bne fill               @ asmcheck: loop 8
	pop {r4-r7, pc}
	.pool
`
	rep := check(t, src, func(c *Config) { c.StackBudget = 1024 })
	if !rep.OK() {
		t.Fatalf("clean kernel rejected: %v", rep.Violations)
	}
	if rep.StackBound != 20 {
		t.Errorf("StackBound = %d, want 20 (push {r4-r7, lr})", rep.StackBound)
	}
	if rep.CycleBound == 0 || rep.CycleBound == Unbounded {
		t.Errorf("CycleBound = %d, want finite nonzero", rep.CycleBound)
	}
	// The loop body (4 instructions, worst case 2+1+1+3 cycles) runs 8
	// times; the bound must cover it.
	if rep.CycleBound < 8*7 {
		t.Errorf("CycleBound = %d, impossibly small for an 8-iteration loop", rep.CycleBound)
	}

	// A load through an unknown pointer is unproven but clean. Its
	// target may be flash, so the bound charges it the data wait state:
	// at ws=1 the ldr pays fetch + data and the bx its fetch.
	unproven := "entry:\n\tldr r1, [r0]\n\tbx lr\n"
	ws0 := check(t, unproven, nil)
	ws1 := check(t, unproven, func(c *Config) { c.FlashWaitStates = 1 })
	if !ws0.OK() || !ws1.OK() || ws0.UnprovenLoads != 1 {
		t.Fatalf("unproven load: violations %v %v, %d unproven loads", ws0.Violations, ws1.Violations, ws0.UnprovenLoads)
	}
	if got := ws1.CycleBound - ws0.CycleBound; got != 3 {
		t.Errorf("unproven load at ws=1 adds %d wait-state cycles, want 3 (two fetches + the data access)", got)
	}
}

// TestLoopBoundScalesCycles: doubling the annotated bound must grow the
// cycle bound.
func TestLoopBoundScalesCycles(t *testing.T) {
	prog := func(n string) string {
		return strings.ReplaceAll(`entry:
	push {r4, lr}
	movs r2, #0
spin:
	subs r2, #1
	bne spin               @ asmcheck: loop BOUND
	pop {r4, pc}
`, "BOUND", n)
	}
	a := check(t, prog("8"), nil)
	b := check(t, prog("16"), nil)
	if !a.OK() || !b.OK() {
		t.Fatalf("unexpected violations: %v %v", a.Violations, b.Violations)
	}
	if b.CycleBound <= a.CycleBound {
		t.Errorf("loop 16 bound %d not larger than loop 8 bound %d", b.CycleBound, a.CycleBound)
	}
}

// TestHugeLoopBoundIsUnbounded: an annotation whose cycle product
// passes 64 bits must give Unbounded, not a wrapped small number. The
// loop costs 4 cycles an iteration at ws=0 (subs 1 + taken bne 3), so
// 2^62+1 iterations charge 2^62·4 = 2^64 cycles for the repeats.
func TestHugeLoopBoundIsUnbounded(t *testing.T) {
	src := "entry:\n\tmovs r0, #1\nspin:\n\tsubs r0, #1\n\tbne spin @ asmcheck: loop 4611686018427387905\n\tbx lr\n"
	p, err := thumb.Assemble(src, armv6m.FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := Certify(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CycleBound != Unbounded || c.WCETCycles != Unbounded {
		t.Errorf("CycleBound = %d, wcet_cycles = %d, want Unbounded for an overflowing loop bound", rep.CycleBound, c.WCETCycles)
	}
	if w, err := c.WCET("entry", 0); err == nil {
		t.Errorf("WCET = %d, want an overflow error", w)
	}
}

// TestNestedLoopsMultiply: a 4x4 nest must cost at least 16 inner
// bodies.
func TestNestedLoopsMultiply(t *testing.T) {
	src := `entry:
	push {r4, lr}
	movs r3, #4
outer:
	movs r2, #4
inner:
	subs r2, #1
	bne inner              @ asmcheck: loop 4
	subs r3, #1
	bne outer              @ asmcheck: loop 4
	pop {r4, pc}
`
	rep := check(t, src, nil)
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	// Inner body is subs (1) + taken bne (3): 16 iterations minimum.
	if rep.CycleBound < 16*4 {
		t.Errorf("CycleBound = %d, want >= %d for a 4x4 nest", rep.CycleBound, 16*4)
	}
}

// TestInterproceduralStack: callee frames add up.
func TestInterproceduralStack(t *testing.T) {
	src := `entry:
	push {r4-r7, lr}
	bl helper
	pop {r4-r7, pc}
helper:
	push {r4, r5, lr}
	pop {r4, r5, pc}
`
	rep := check(t, src, nil)
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if rep.StackBound != 20+12 {
		t.Errorf("StackBound = %d, want 32 (20 entry + 12 helper)", rep.StackBound)
	}
	fr := rep.Func("helper")
	if fr == nil || fr.LocalStack != 12 {
		t.Errorf("helper local stack = %+v, want 12", fr)
	}
}

// TestISRStackCharged: handlers add the hardware frame plus their own
// depth on top of the main thread.
func TestISRStackCharged(t *testing.T) {
	src := `entry:
	push {r4-r7, lr}
	pop {r4-r7, pc}
systick_handler:
	push {r4, lr}
	pop {r4, pc}
`
	rep := check(t, src, func(c *Config) { c.ISRRoots = []string{"systick_handler"} })
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if rep.StackBound != 20+32+8 {
		t.Errorf("StackBound = %d, want 60 (20 main + 32 HW frame + 8 ISR)", rep.StackBound)
	}
}

// TestContextSensitivity: a kernel called with two descriptor constants
// is analyzed per context and reported once with the max bound.
func TestContextSensitivity(t *testing.T) {
	src := `entry:
	push {r4, lr}
	ldr r0, =d1
	bl kern
	ldr r0, =d2
	bl kern
	pop {r4, pc}
	.pool
kern:
	push {r4, lr}
	ldr r1, [r0]
	movs r2, #5
	str r2, [r1]
	pop {r4, pc}
	.align 4
d1:
	.word 0x20000000
d2:
	.word 0x20000100
`
	p, err := thumb.Assemble(src, armv6m.FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	d1, _ := p.Symbol("d1")
	cfg.CodeLimit = d1
	rep, err := Check(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	fr := rep.Func("kern")
	if fr == nil {
		t.Fatal("no report for kern")
	}
	if fr.Contexts != 2 {
		t.Errorf("kern analyzed in %d contexts, want 2", fr.Contexts)
	}
}

// TestStoreThroughFlashDescriptor: the same shape as above, but one
// descriptor points the store at flash — the context-sensitive analysis
// must catch it.
func TestStoreThroughFlashDescriptor(t *testing.T) {
	src := `entry:
	push {r4, lr}
	ldr r0, =d1
	bl kern
	pop {r4, pc}
	.pool
kern:
	push {r4, lr}
	ldr r1, [r0]
	movs r2, #5
	str r2, [r1]
	pop {r4, pc}
	.align 4
d1:
	.word d1
`
	p, err := thumb.Assemble(src, armv6m.FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	d1, _ := p.Symbol("d1")
	cfg.CodeLimit = d1
	rep, err := Check(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := codes(rep)
	if len(got) != 1 || got[0] != CodeMemWriteFlash {
		t.Fatalf("violations = %v, want [MEM_WRITE_FLASH]", got)
	}
}

// TestPeriphWindow: the telemetry peripheral window verifies word
// stores once mapped, and rejects sub-word accesses into it.
func TestPeriphWindow(t *testing.T) {
	periph := func(cfg *Config) {
		cfg.PeriphBase, cfg.PeriphSize = armv6m.TimerBase, armv6m.TimerSize
	}
	word := `entry:
	ldr r1, =0x40000040
	movs r0, #3
	str r0, [r1]
	bkpt #0
	.pool
`
	if rep := check(t, word, periph); !rep.OK() {
		t.Errorf("word store into mapped periph window rejected: %v", codes(rep))
	}
	if rep := check(t, word, nil); rep.OK() {
		t.Error("store into unmapped periph window accepted in strict mode")
	}
	sub := `entry:
	ldr r1, =0x40000040
	movs r0, #3
	strb r0, [r1]
	bkpt #0
	.pool
`
	rep := check(t, sub, periph)
	got := codes(rep)
	if len(got) != 1 || got[0] != CodeMemUnaligned {
		t.Errorf("byte store into periph window: violations = %v, want [MEM_UNALIGNED]", got)
	}
}

// TestReportJSON: the report serializes for tooling.
func TestReportJSON(t *testing.T) {
	rep := check(t, "entry:\n\tbx lr\n", nil)
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"funcs"`, `"stack_bound"`, `"cycle_bound"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON report missing %s:\n%s", want, out)
		}
	}
}
