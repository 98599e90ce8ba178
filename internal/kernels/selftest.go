package kernels

import (
	"fmt"
	"strings"

	"github.com/neuro-c/neuroc/internal/encoding"
)

// Self-check harnesses: every kernel variant paired with a standalone
// program that places its descriptor and structure tables in flash and
// its activations/accumulators in SRAM, exactly like a built model
// image. internal/asmcheck runs its strict analysis over these programs
// (see kernels_test.go and cmd/asmcheck -kernels), which is what lets
// the checker prove memory safety: the descriptor pointer is a flash
// constant, so field loads resolve to the real buffer addresses.
//
// The tables hold REAL structure data for one fixed ternary matrix (not
// zero placeholders), with a uniform two-connections-per-column shape in
// both polarities. That uniformity is deliberate: every loop executes
// exactly its annotated bound, so the certificate-derived WCET
// (cert.Certificate.WCET) must equal the emulator's measured cycle
// count — the exactness property wcet_test.go pins for every variant.

// SRAM placement used by the self-check descriptors.
const (
	selfIn  = 0x2000_0000 // input activations
	selfOut = 0x2000_0100 // output activations
	selfAcc = 0x2000_0200 // int32 accumulators
	selfBuf = 0x2000_0400 // im2col / GEMM scratch matrix
)

// The self-check layer: 8 inputs, 4 outputs, and per output neuron o two
// positive connections {o, o+4} and two negative ones {3-o, 7-o}. Every
// column therefore has count 2 in each polarity — the uniform shape the
// exactness tests rely on — and the supports are disjoint per column.
const (
	selfInDim  = 8
	selfOutDim = 4
	selfConns  = 16 // total nonzeros (8 per polarity); also the im2col element count
)

// SelfMatrix returns the fixed ternary adjacency matrix behind the
// self-check tables below (shared by the dense weight table, the
// unrolled variants, and the unrolled parity tests).
func SelfMatrix() *encoding.Matrix {
	m := encoding.NewMatrix(selfInDim, selfOutDim)
	for o := 0; o < selfOutDim; o++ {
		m.Set(o, o, 1)
		m.Set(o, o+4, 1)
		m.Set(o, 3-o, -1)
		m.Set(o, 7-o, -1)
	}
	return m
}

// The encodings of SelfMatrix, column-major per polarity.
var (
	selfCounts   = []int{2, 2, 2, 2}    // per-column counts, both polarities
	selfPtrs     = []int{0, 2, 4, 6, 8} // cumulative counts incl. the leading 0
	selfPosIdx   = []int{0, 4, 1, 5, 2, 6, 3, 7}
	selfNegIdx   = []int{3, 7, 2, 6, 1, 5, 0, 4}
	selfPosFirst = []int{0, 1, 2, 3}
	selfNegFirst = []int{3, 2, 1, 0}
	selfDeltas   = []int{4, 4, 4, 4} // one delta per column: second index - first
)

// Variant is one generated kernel plus its self-check harness.
type Variant struct {
	Name    string // kernel entry symbol
	Src     string // kernel source alone
	Harness string // entry + kernel + descriptor + tables, assembles standalone

	// TelemetryHarness is Harness with the kernel call bracketed by
	// layer-0 enter/exit mailbox markers (see telemetry.go), used by the
	// cross-interpreter attribution tests and the telemetry decoder's
	// per-variant exactness checks.
	TelemetryHarness string
}

// selfDesc is the 16-word descriptor as assembler expressions, all
// fields zero except the common buffer pointers and dimensions.
func selfDesc(inDim, outDim int) [16]string {
	var d [16]string
	for i := range d {
		d[i] = "0"
	}
	d[DescIn/4] = fmt.Sprintf("0x%08x", selfIn)
	d[DescOut/4] = fmt.Sprintf("0x%08x", selfOut)
	d[DescAcc/4] = fmt.Sprintf("0x%08x", selfAcc)
	d[DescInDim/4] = fmt.Sprintf("%d", inDim)
	d[DescOutDim/4] = fmt.Sprintf("%d", outDim)
	return d
}

// selfHarness wraps a kernel in an entry stub plus its data section.
// Every table below is padded to a word multiple so labels stay
// word-aligned regardless of order.
func selfHarness(kname, ksrc string, desc [16]string, tables string) string {
	var b strings.Builder
	b.WriteString("entry:\n")
	b.WriteString("\tldr r0, =desc\n")
	fmt.Fprintf(&b, "\tbl %s\n", kname)
	b.WriteString("\tbkpt #0\n")
	b.WriteString("\t.pool\n")
	b.WriteString(ksrc)
	b.WriteString("\t.align 4\n")
	b.WriteString("desc:\n")
	for _, w := range desc {
		fmt.Fprintf(&b, "\t.word %s\n", w)
	}
	b.WriteString(tables)
	return b.String()
}

// dataTable emits one labeled table of width-1 or width-2 elements,
// padded to a word boundary.
func dataTable(label string, width int, vals []int) string {
	dir := ".byte"
	if width == 2 {
		dir = ".hword"
	}
	strs := make([]string, len(vals))
	for i, v := range vals {
		strs[i] = fmt.Sprintf("%d", v)
	}
	s := fmt.Sprintf("%s:\n\t%s %s\n", label, dir, strings.Join(strs, ", "))
	if r := (width * len(vals)) % 4; r != 0 {
		s += fmt.Sprintf("\t.space %d\n", 4-r)
	}
	return s
}

// denseWeights flattens SelfMatrix row-major (out x in), the dense
// kernel's weight layout.
func denseWeights() []int {
	m := SelfMatrix()
	w := make([]int, 0, m.In*m.Out)
	for o := 0; o < m.Out; o++ {
		for i := 0; i < m.In; i++ {
			w = append(w, int(m.At(o, i)))
		}
	}
	return w
}

// Variants enumerates every kernel the generators can emit — all
// encodings at all element widths plus the unrolled forms, mirroring the
// deployment search space — each with a harness program for static
// verification and exact-WCET measurement. Loop bounds are the tight
// per-layer values (the *B generator forms), not MaxLoopBound.
func Variants() []Variant {
	var vs []Variant
	add := func(name, src string, desc [16]string, tables string) {
		vs = append(vs, Variant{
			Name:             name,
			Src:              src,
			Harness:          selfHarness(name, src, desc, tables),
			TelemetryHarness: telemetryHarness(name, src, desc, tables),
		})
	}
	const inDim, outDim = selfInDim, selfOutDim

	{
		name, src := RequantB(outDim)
		d := selfDesc(inDim, outDim)
		d[DescMult/4], d[DescBias/4] = "mtbl", "btbl"
		d[DescPre/4], d[DescPost/4] = "1", "2"
		d[DescFlags/4] = fmt.Sprintf("%d", FlagReLU|FlagPerNeuron)
		add(name, src, d,
			dataTable("mtbl", 2, []int{3, 5, 7, 9})+
				dataTable("btbl", 2, []int{1, -2, 3, -4}))
	}
	{
		name, src := DenseB(inDim, outDim)
		d := selfDesc(inDim, outDim)
		d[DescK0/4] = "wtbl"
		add(name, src, d, dataTable("wtbl", 1, denseWeights()))
	}
	{
		name, src := Im2ColB(selfConns)
		d := selfDesc(inDim, outDim)
		d[DescK0/4] = "otbl"
		d[DescK1/4] = fmt.Sprintf("0x%08x", selfBuf)
		d[DescK2/4] = fmt.Sprintf("%d", selfConns)
		offs := []int{0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0}
		add(name, src, d, dataTable("otbl", 2, offs))
	}
	{
		name, src := ConvGEMMB(4, 2, 4) // S² = 4, K = 2, M² = 4
		d := selfDesc(4, 2)             // in_dim = S², out_dim = K
		d[DescK0/4] = "ftbl"
		d[DescK1/4] = fmt.Sprintf("0x%08x", selfBuf)
		d[DescK2/4] = "4" // M²
		add(name, src, d, dataTable("ftbl", 1, []int{1, -1, 2, -2, -1, 2, 0, 1}))
	}
	for _, cw := range []int{1, 2} {
		{
			name, src := BlockB(cw, outDim, 2, 1)
			d := selfDesc(inDim, outDim)
			d[DescK0/4] = "1" // one block
			d[DescK1/4] = "brec"
			tables := "brec:\n\t.word 0, bpc, bpi, bnc, bni\n" +
				dataTable("bpc", cw, selfCounts) + dataTable("bpi", 1, selfPosIdx) +
				dataTable("bnc", cw, selfCounts) + dataTable("bni", 1, selfNegIdx)
			add(name, src, d, tables)
		}
		for _, iw := range []int{1, 2} {
			{
				name, src := MixedB(cw, iw, outDim, 2)
				d := selfDesc(inDim, outDim)
				d[DescK0/4], d[DescK1/4] = "pcnt", "pidx"
				d[DescK2/4], d[DescK3/4] = "ncnt", "nidx"
				tables := dataTable("pcnt", cw, selfCounts) + dataTable("pidx", iw, selfPosIdx) +
					dataTable("ncnt", cw, selfCounts) + dataTable("nidx", iw, selfNegIdx)
				add(name, src, d, tables)
			}
			{
				// The CSC inner loop is a while-form: its header runs
				// count+1 times per column, hence colB = 3.
				name, src := CSCB(cw, iw, outDim, 3)
				d := selfDesc(inDim, outDim)
				d[DescK0/4], d[DescK1/4] = "pptr", "pidx"
				d[DescK2/4], d[DescK3/4] = "nptr", "nidx"
				tables := dataTable("pptr", cw, selfPtrs) + dataTable("pidx", iw, selfPosIdx) +
					dataTable("nptr", cw, selfPtrs) + dataTable("nidx", iw, selfNegIdx)
				add(name, src, d, tables)
			}
			for _, dw := range []int{1, 2} {
				// The delta inner loop runs count-1 times (the first
				// connection is peeled), hence colB = 1.
				name, src := DeltaB(cw, iw, dw, outDim, 1)
				d := selfDesc(inDim, outDim)
				d[DescK0/4], d[DescK1/4], d[DescK2/4] = "pcnt", "pfst", "pdlt"
				d[DescK3/4], d[DescK4/4], d[DescK5/4] = "ncnt", "nfst", "ndlt"
				tables := dataTable("pcnt", cw, selfCounts) + dataTable("pfst", iw, selfPosFirst) +
					dataTable("pdlt", dw, selfDeltas) +
					dataTable("ncnt", cw, selfCounts) + dataTable("nfst", iw, selfNegFirst) +
					dataTable("ndlt", dw, selfDeltas)
				add(name, src, d, tables)
			}
		}
	}
	// Unrolled variants, one per factor, in their deployed form, plus the
	// pre-fold form of the factor-4 kernel.
	for _, f := range UnrollFactors {
		name := fmt.Sprintf("k_unr%d", f)
		add(name, Unrolled(name, SelfMatrix(), f, selfIn, selfAcc), selfDesc(inDim, outDim), "")
	}
	add("k_unr4_raw", unr4Raw, selfDesc(inDim, outDim), "")
	return vs
}

// unr4Raw is k_unr4 in its pre-fold form: movs-zero inits, plain
// adds|subs first writes and str+adds stores, which a deployed kernel
// reaches only after a mid-group literal pool. The strict checks, the
// certificate exactness tests and the translation and telemetry parity
// tests that run every variant run these forms too. It is fixed text,
// not generated; TestRawVariantIsNaiveForm pins it to the text oracle's
// naive generator.
const unr4Raw = `k_unr4_raw:
	push {r4-r7, lr}
	ldr r4, =0x20000000      @ input window base
	ldr r2, =0x20000200      @ acc cursor
	movs r3, #0
	movs r5, #0
	movs r6, #0
	movs r7, #0
	ldrb r0, [r4, #0]   @ asmcheck: load sram
	sxtb r0, r0
	adds r3, r3, r0
	subs r7, r7, r0
	ldrb r0, [r4, #1]   @ asmcheck: load sram
	sxtb r0, r0
	adds r5, r5, r0
	subs r6, r6, r0
	ldrb r0, [r4, #2]   @ asmcheck: load sram
	sxtb r0, r0
	subs r5, r5, r0
	adds r6, r6, r0
	ldrb r0, [r4, #3]   @ asmcheck: load sram
	sxtb r0, r0
	subs r3, r3, r0
	adds r7, r7, r0
	ldrb r0, [r4, #4]   @ asmcheck: load sram
	sxtb r0, r0
	adds r3, r3, r0
	subs r7, r7, r0
	ldrb r0, [r4, #5]   @ asmcheck: load sram
	sxtb r0, r0
	adds r5, r5, r0
	subs r6, r6, r0
	ldrb r0, [r4, #6]   @ asmcheck: load sram
	sxtb r0, r0
	subs r5, r5, r0
	adds r6, r6, r0
	ldrb r0, [r4, #7]   @ asmcheck: load sram
	sxtb r0, r0
	subs r3, r3, r0
	adds r7, r7, r0
	str r3, [r2]
	adds r2, #4
	str r5, [r2]
	adds r2, #4
	str r6, [r2]
	adds r2, #4
	str r7, [r2]
	adds r2, #4
	pop {r4-r7, pc}
	.pool
`
