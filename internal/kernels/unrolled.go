package kernels

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"github.com/neuro-c/neuroc/internal/encoding"
)

// The unrolled encoding (ROADMAP item 2, after "Unrolling Ternary
// Neural Networks"): the layer's ternary adjacency matrix is baked
// directly into the instruction stream as straight-line Thumb-1 — one
// adds/subs per nonzero weight, no index tables, no inner loops. Every
// zero weight vanishes at codegen time, and every index load with it,
// so the per-connection cost drops from ~10 cycles (block encoding:
// index load, register-offset gather, accumulate, loop bookkeeping) to
// ~1 cycle per weight plus a shared ~3-cycle gather per touched input.
// The trade is flash: weights become instructions (~2 bytes per
// nonzero plus gathers) instead of packed table entries.
//
// Unlike the table-driven kernels, an unrolled kernel is specialized to
// ONE layer: the input and accumulator buffer addresses are literal
// constants, and the descriptor argument in r0 is ignored (the image
// builder's entry code loads none before calling it). Being straight
// line, every block certifies Exact trivially, which is what lets the
// cert-based WCET (cert.Certificate.WCET) price it exactly for the
// per-layer encoding search.
//
// The generator emits the deployed form itself. The naive form it once
// printed for a peephole optimizer to rewrite is kept in the tests as
// the text oracle (optimizer_oracle_test.go), and Unrolled must equal
// the optimizer's output on it byte for byte.

// UnrollFactors are the supported unroll factors: how many output
// neurons share one sweep over the union of their input supports (and
// therefore one ldrb+sxtb gather per touched input). The accumulators
// live in r3/r5/r6/r7, hence the cap of 4.
var UnrollFactors = []int{1, 2, 4}

// unrollAccRegs are the accumulator registers for a group, in store
// order.
var unrollAccRegs = [4]string{"r3", "r5", "r6", "r7"}

// unrollPoolSlack triggers the literal-pool flush: the two prologue
// "ldr =" literals must be materialized within 1020 bytes of their
// loads, so once the function body crosses this size the generator
// branches over an inline pool — the row-chunking that keeps
// arbitrarily large unrolled layers assemblable. The size compared is
// that of the pre-fold form (see Unrolled), which is never smaller than
// the emitted one, so the literals stay in range.
const unrollPoolSlack = 900

// Unrolled generates the weight-specialized straight-line accumulate
// kernel for one ternary layer. name must be unique per layer (the
// kernel is not shareable); factor is one of UnrollFactors; inAddr and
// accAddr are the layer's SRAM input and int32 accumulator buffers.
//
// The text is the deployed form (docs/KERNELS.md, "The deployed form"):
//
//   - each window move is the net move, at most 255 per adds|subs r4;
//   - an accumulator's first write is "mov rX, r0" (weight +1) or
//     "rsbs rX, r0" (weight -1), with no zero init ahead of it. rsbs
//     sets the flags the subs from zero would; mov sets none, which is
//     legal because every accumulate is followed by another flag writer
//     or the return. An output with no weight in the group, or whose
//     first write follows the inline pool, keeps "movs rX, #0" and
//     plain adds|subs: the branch over the pool ends the straight line
//     the fold is reasoned over;
//   - each group's accumulators are stored by one "stmia r2!, {…}".
func Unrolled(name string, a *encoding.Matrix, factor int, inAddr, accAddr uint32) string {
	ok := false
	for _, f := range UnrollFactors {
		if factor == f {
			ok = true
		}
	}
	if !ok || a == nil || a.Out < 1 || a.In < 1 {
		//neurolint:allow panics (builder invariant: factor and matrix shape come from the deployment planner)
		panic(fmt.Sprintf("kernels: bad unrolled spec (factor %d)", factor))
	}

	var b strings.Builder
	var body bytes.Buffer // one group's gathers, written after its inits
	// naive counts the code bytes since the function label of the
	// pre-fold form: a movs-zero init per accumulator, every window move
	// as a rewind to zero plus an advance, and a str+adds pair per
	// store. The pool trigger compares this count, not the emitted size,
	// with unrollPoolSlack: it fixes where the pool lands in kernels
	// wider than about 900 bytes, and TestOptimizerGolden and
	// TestBuildGolden pin those positions.
	naive := 6 // push and the two prologue loads
	poolPending := true
	poolSeq := 0
	// flushPool branches over an inline literal pool once the prologue
	// literals risk drifting out of "ldr =" range. One flush suffices:
	// the kernel has exactly two literals.
	flushPool := func(w io.Writer) bool {
		if !poolPending || naive < unrollPoolSlack {
			return false
		}
		poolSeq++
		fmt.Fprintf(w, "\tb %s_p%d\n\t.pool\n%s_p%d:\n", name, poolSeq, name, poolSeq)
		naive += 12 // branch + alignment + two literal words
		poolPending = false
		return true
	}

	fmt.Fprintf(&b, "%s:\n", name)
	b.WriteString("\tpush {r4-r7, lr}\n")
	fmt.Fprintf(&b, "\tldr r4, =0x%08x      @ input window base\n", inAddr)
	fmt.Fprintf(&b, "\tldr r2, =0x%08x      @ acc cursor\n", accAddr)

	base := 0 // r4 = inAddr + base
	// moveWindow repositions r4 so input i is reachable with a 5-bit
	// ldrb offset and returns that offset. Forward moves advance the
	// base to within 31 of i; backward moves land where an advance from
	// zero would. Either way one net move is emitted.
	moveWindow := func(i int) int {
		from := base
		if i < base {
			naive += 2 * ((base + 254) / 255) // the rewind to zero
			base = 0
		}
		for i-base > 31 {
			base += min(i-base, 255)
			naive += 2
		}
		op, net := "adds", base-from
		if net < 0 {
			op, net = "subs", -net
		}
		for ; net > 0; net -= 255 {
			fmt.Fprintf(&body, "\t%s r4, #%d\n", op, min(net, 255))
		}
		return i - base
	}

	for g0 := 0; g0 < a.Out; g0 += factor {
		n := min(factor, a.Out-g0)
		naive += 2 * n // the movs-zero inits
		body.Reset()
		var written, folded [4]bool
		flushed := false
		// Ascending sweep over the union support of the group's outputs:
		// one gather per touched input, shared by every output in the
		// group with a nonzero weight there.
		for i := 0; i < a.In; i++ {
			used := false
			for j := 0; j < n; j++ {
				if a.At(g0+j, i) != 0 {
					used = true
				}
			}
			if !used {
				continue
			}
			flushed = flushPool(&body) || flushed
			off := moveWindow(i)
			fmt.Fprintf(&body, "\tldrb r0, [r4, #%d]   @ asmcheck: load sram\n", off)
			body.WriteString("\tsxtb r0, r0\n")
			naive += 4
			for j := 0; j < n; j++ {
				w := a.At(g0+j, i)
				if w == 0 {
					continue
				}
				r := unrollAccRegs[j]
				switch {
				case !written[j] && !flushed && w > 0:
					fmt.Fprintf(&body, "\tmov %s, r0\n", r)
					folded[j] = true
				case !written[j] && !flushed:
					fmt.Fprintf(&body, "\trsbs %s, r0\n", r)
					folded[j] = true
				case w > 0:
					fmt.Fprintf(&body, "\tadds %s, %s, r0\n", r, r)
				default:
					fmt.Fprintf(&body, "\tsubs %s, %s, r0\n", r, r)
				}
				written[j] = true
				naive += 2
			}
		}
		for j := 0; j < n; j++ {
			if !folded[j] {
				fmt.Fprintf(&b, "\tmovs %s, #0\n", unrollAccRegs[j])
			}
		}
		b.Write(body.Bytes())
		fmt.Fprintf(&b, "\tstmia r2!, {%s}\n", strings.Join(unrollAccRegs[:n], ", "))
		naive += 4 * n // str + adds per accumulator
		flushPool(&b)
	}
	b.WriteString("\tpop {r4-r7, pc}\n")
	if poolPending {
		b.WriteString("\t.pool\n")
	}
	return b.String()
}

// UnrolledName is the per-layer kernel symbol for layer idx at the
// given unroll factor.
func UnrolledName(idx, factor int) string {
	return fmt.Sprintf("l%d_unr%d", idx, factor)
}
