// Package modelimg builds complete flash images for the emulated
// Cortex-M0: a vector table, generated entry code that runs each layer
// (accumulate kernel then requant kernel) and halts with BKPT, the
// specialized kernel subroutines, and the model's descriptor and
// parameter tables. The image is emitted as one assembly program and
// assembled with the thumb package, so the reported program-memory
// footprint is the exact byte size of the image — the same "statically
// linked sections containing weights and inference code" metric the
// paper reports.
//
// Encodings are chosen PER LAYER: a single uniform choice (the classic
// Build path), an explicit per-layer mix (BuildOptions.PerLayer), or
// the certificate-driven search (UseAuto, see search.go) that prices
// every candidate with the cert WCET bound and picks the deployable mix
// with the smallest one. Loop-bound annotations are tight — each shared
// kernel is generated with the maximum dimensions of the layers that
// call it, not the device-capacity ceiling — so the bound is as small
// as the annotations allow.
//
// SRAM layout: two ping-pong int8 activation buffers sized to the
// widest layer, one int32 accumulator buffer sized to the widest output,
// and the stack at the top of SRAM. The host writes the quantized input
// into the first activation buffer before running.
package modelimg

import (
	"fmt"
	"strings"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// StackReserve is the byte budget reserved for the stack at the top of
// SRAM. The static checker verifies every image's worst-case stack
// depth (main thread + hardware exception frame + deepest ISR) fits.
const StackReserve = 1024

// EncodingChoice selects the adjacency encoding used for ternary layers.
type EncodingChoice int

// Encoding choices. The first four match the paper's schemes (the paper
// deploys Block, Sec. 4.3; the others exist for the Fig. 5 comparison).
// UseUnrolled is the weight-specialized straight-line form (ROADMAP
// item 2): the matrix is baked into the instruction stream, trading
// flash for cycles. UseAuto runs the per-layer encoding search.
const (
	UseBlock EncodingChoice = iota
	UseCSC
	UseDelta
	UseMixed
	UseUnrolled
	UseAuto
)

// String names the choice.
func (e EncodingChoice) String() string {
	switch e {
	case UseBlock:
		return "block"
	case UseCSC:
		return "csc"
	case UseDelta:
		return "delta"
	case UseMixed:
		return "mixed"
	case UseUnrolled:
		return "unrolled"
	case UseAuto:
		return "auto"
	default:
		return fmt.Sprintf("encoding(%d)", int(e))
	}
}

// ParseEncoding maps a CLI name to its choice, rejecting anything else.
func ParseEncoding(s string) (EncodingChoice, error) {
	for _, e := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed, UseUnrolled, UseAuto} {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown encoding %q (valid: block, csc, delta, mixed, unrolled, auto)", s)
}

// DefaultUnrollFactor is the unroll factor used when UseUnrolled is
// requested without an explicit per-layer factor.
const DefaultUnrollFactor = 4

// LayerEncoding is one layer's resolved encoding: the choice plus the
// unroll factor when the choice is UseUnrolled.
type LayerEncoding struct {
	Choice EncodingChoice `json:"choice"`
	Factor int            `json:"factor,omitempty"`
}

// String renders the resolved form ("block", "unrolled/4").
func (le LayerEncoding) String() string {
	if le.Choice == UseUnrolled {
		return fmt.Sprintf("unrolled/%d", le.Factor)
	}
	return le.Choice.String()
}

// ErrNotDeployable is returned when the image exceeds the device flash
// or the buffers exceed SRAM — the paper's "non-deployable" condition.
type ErrNotDeployable struct {
	What string
	Need int
	Have int
}

func (e *ErrNotDeployable) Error() string {
	return fmt.Sprintf("modelimg: not deployable: %s needs %d bytes, device has %d", e.What, e.Need, e.Have)
}

// Image is a built flash image ready to load.
type Image struct {
	Prog *thumb.Program

	// InAddr is the SRAM address of the input activation buffer and
	// OutAddr the address of the final layer's output buffer.
	InAddr, OutAddr uint32
	InDim, OutDim   int

	// CodeBytes is the size of vector table, entry, and kernel code;
	// DataBytes the size of descriptors and parameter tables. Their sum
	// is the program-memory footprint.
	CodeBytes, DataBytes int

	// RAMBytes is the SRAM footprint: activation/accumulator buffers
	// plus the reserved stack.
	RAMBytes int

	// Asm is the generated source, kept for debugging and listings.
	Asm string

	// Check is the static-verification report for the image: every build
	// is gated on it passing, so a non-nil Image carries a violation-free
	// report with the proven worst-case stack and cycle bounds.
	Check *asmcheck.Report

	// Cert is the proof-carrying neuroc-cert/v1 certificate exported
	// from the same analysis: per-block cycle formulas, memory classes,
	// and loop bounds that checked execution (device.Options.Checked,
	// m0run -checked) validates at retire time.
	Cert *cert.Certificate

	// Layers lists the emitted layers in call order; each layer i also
	// gets an "l<i>_call" label in the symbol table (and "entry_end"
	// after the last), so host-side profiles can segment cycles by layer
	// with or without on-device markers.
	Layers []LayerInfo

	// Encodings records the resolved per-layer encoding (meaningful for
	// ternary layers; dense layers always use the dense kernel). Passing
	// it back through BuildOptions.PerLayer reproduces this image's
	// layer mix exactly — how telemetry twin builds stay faithful to
	// searched images.
	Encodings []LayerEncoding

	// Telemetry records whether the image carries layer markers (see
	// BuildOptions.Telemetry); device.New attaches a timer when set.
	Telemetry bool
}

// TotalBytes is the program-memory footprint (flash bytes).
func (img *Image) TotalBytes() int { return len(img.Prog.Code) }

// builder accumulates the assembly program.
type builder struct {
	code  strings.Builder // entry + kernels
	data  strings.Builder // descriptors + tables
	seen  map[string]bool // emitted kernel names
	order []string        // kernel emission order, for flash attribution
}

func (b *builder) kernel(name, src string) string {
	if !b.seen[name] {
		b.seen[name] = true
		b.order = append(b.order, name)
		b.code.WriteString(src)
	}
	return name
}

// BuildOptions extends Build with deployment details beyond the
// encoding choice.
type BuildOptions struct {
	Encoding EncodingChoice
	// PerLayer fixes the encoding of each layer individually (length
	// must match the model; entries for dense layers are ignored). When
	// set it takes precedence over Encoding. UseAuto is not a valid
	// per-layer entry — the search produces a concrete mix.
	PerLayer []LayerEncoding
	// ISRWorkLoops, when positive, installs a SysTick handler that
	// burns the given number of loop iterations (simulated sensor-ISR
	// work) before returning — used by the preemption experiments. The
	// handler only runs if the host arms the emulated SysTick.
	ISRWorkLoops int
	// MaskIRQDuringInference wraps the inference sequence in
	// CPSID i / CPSIE i, the paper's "defer interrupts predictably"
	// strategy: latency stays undisturbed, interrupts run afterwards.
	MaskIRQDuringInference bool
	// Telemetry brackets every layer call with enter/exit marker stores
	// to the telemetry peripheral mailbox (armv6m.TimerMBOX), the
	// paper's firmware-side TIM2 measurement. The board must attach a
	// timer (device does this automatically for telemetry images). Off —
	// the default — emits no instrumentation bytes, so the image and its
	// cycle counts are bit-identical to an uninstrumented build.
	Telemetry bool
}

// LayerInfo describes one emitted layer, in call order — the host-side
// key for decoding per-layer telemetry back to kernels.
type LayerInfo struct {
	Index  int    `json:"index"`
	Kernel string `json:"kernel"` // accumulate kernel symbol
	In     int    `json:"in"`
	Out    int    `json:"out"`

	// Encoding is the resolved encoding name ("block", "unrolled/4",
	// "dense" for dense layers).
	Encoding string `json:"encoding"`
	// FlashBytes is the layer's program-memory footprint: its parameter
	// tables and descriptor, plus every kernel first used by this layer
	// (shared kernels — requant included — are attributed to their first
	// user).
	FlashBytes int `json:"flash_bytes"`
}

// Build generates and assembles the flash image for model using enc for
// every ternary layer. Dense layers always use the int8 dense kernel.
func Build(model *quant.Model, enc EncodingChoice) (*Image, error) {
	return BuildOpts(model, BuildOptions{Encoding: enc})
}

// BuildOpts is Build with full options.
func BuildOpts(model *quant.Model, opts BuildOptions) (*Image, error) {
	if len(model.Layers) == 0 {
		return nil, fmt.Errorf("modelimg: empty model")
	}
	if opts.PerLayer == nil && opts.Encoding == UseAuto {
		return searchEncodings(model, opts)
	}
	encs, err := resolveLayerEncodings(model, opts)
	if err != nil {
		return nil, err
	}
	return buildResolved(model, opts, encs)
}

// resolveLayerEncodings expands the options into one concrete
// LayerEncoding per layer.
func resolveLayerEncodings(model *quant.Model, opts BuildOptions) ([]LayerEncoding, error) {
	encs := make([]LayerEncoding, len(model.Layers))
	if opts.PerLayer != nil {
		if len(opts.PerLayer) != len(model.Layers) {
			return nil, fmt.Errorf("modelimg: PerLayer has %d entries for a %d-layer model",
				len(opts.PerLayer), len(model.Layers))
		}
		copy(encs, opts.PerLayer)
	} else {
		for i := range encs {
			encs[i] = LayerEncoding{Choice: opts.Encoding}
		}
	}
	for i := range encs {
		if model.Layers[i].Kind != quant.Ternary {
			continue
		}
		switch encs[i].Choice {
		case UseAuto:
			return nil, fmt.Errorf("modelimg: layer %d: auto is a search directive, not a per-layer encoding", i)
		case UseUnrolled:
			if encs[i].Factor == 0 {
				encs[i].Factor = DefaultUnrollFactor
			}
			ok := false
			for _, f := range kernels.UnrollFactors {
				if encs[i].Factor == f {
					ok = true
				}
			}
			if !ok {
				return nil, fmt.Errorf("modelimg: layer %d: unsupported unroll factor %d (valid: %v)",
					i, encs[i].Factor, kernels.UnrollFactors)
			}
		}
	}
	return encs, nil
}

// kernelBounds are the tight loop-bound parameters a kernel is
// generated with. Kernels are shared across layers by name, so the
// bounds of every user are max-merged before generation.
type kernelBounds struct {
	out int // output-neuron (column) loops
	col int // inner per-column loop (semantics vary per kernel)
	blk int // block loop (block encoding only)
	in  int // inner element loop (dense only)
}

func (kb *kernelBounds) merge(o kernelBounds) {
	if o.out > kb.out {
		kb.out = o.out
	}
	if o.col > kb.col {
		kb.col = o.col
	}
	if o.blk > kb.blk {
		kb.blk = o.blk
	}
	if o.in > kb.in {
		kb.in = o.in
	}
}

// layerPlan is the deferred emission plan for one layer: what kernel it
// calls (and how to generate it once bounds are merged), and how to
// emit its parameter tables.
type layerPlan struct {
	enc    LayerEncoding
	encStr string // display/metrics name ("dense" for dense layers)
	kname  string
	bounds kernelBounds
	// gen regenerates the kernel source from the merged bounds of all
	// its users. nil for layer-specialized kernels (unrolled), whose
	// fixed source is in src.
	gen func(kernelBounds) string
	src string
	// selfContained marks kernels that embed their buffer addresses and
	// ignore the descriptor argument; the entry optimizer deletes their
	// dead descriptor loads.
	selfContained bool
	// emit writes the layer's structure tables and returns the
	// descriptor's k0..k5 expressions.
	emit func(b *builder, p string) [6]string
}

// maxColumnCount returns the largest per-output connection count of
// either polarity — the quantity the per-column inner loops are
// bounded by.
func maxColumnCount(a *encoding.Matrix) int {
	m := 0
	for o := 0; o < a.Out; o++ {
		p, n := 0, 0
		for i := 0; i < a.In; i++ {
			switch w := a.At(o, i); {
			case w > 0:
				p++
			case w < 0:
				n++
			}
		}
		if p > m {
			m = p
		}
		if n > m {
			m = n
		}
	}
	return m
}

// planLayer computes the emission plan for one layer. in and acc are
// the layer's SRAM input and accumulator buffer addresses (needed at
// plan time by the unrolled generator, which bakes them into the code).
func planLayer(l *quant.Layer, le LayerEncoding, idx int, in, acc uint32) (*layerPlan, error) {
	switch l.Kind {
	case quant.DenseK:
		name, _ := kernels.DenseB(1, 1)
		return &layerPlan{
			enc:    le,
			encStr: "dense",
			kname:  name,
			bounds: kernelBounds{in: l.In, out: l.Out},
			gen: func(kb kernelBounds) string {
				_, src := kernels.DenseB(kb.in, kb.out)
				return src
			},
			emit: func(b *builder, p string) [6]string {
				b.emitInt8s(p+"_w", l.W)
				return [6]string{p + "_w"}
			},
		}, nil

	case quant.Ternary:
		switch le.Choice {
		case UseBlock:
			e := encoding.EncodeBlock(l.A, 0)
			col := 0
			for bi := range e.Blocks {
				blk := e.Block(bi)
				for _, c := range blk.PosCounts {
					if c > col {
						col = c
					}
				}
				for _, c := range blk.NegCounts {
					if c > col {
						col = c
					}
				}
			}
			name, _ := kernels.BlockB(e.CountWidth, 1, 1, 1)
			return &layerPlan{
				enc: le, encStr: le.String(), kname: name,
				bounds: kernelBounds{out: l.Out, col: col, blk: len(e.Blocks)},
				gen: func(kb kernelBounds) string {
					_, src := kernels.BlockB(e.CountWidth, kb.out, kb.col, kb.blk)
					return src
				},
				emit: func(b *builder, p string) [6]string {
					var recs strings.Builder
					for bi := range e.Blocks {
						blk := e.Block(bi)
						pc := fmt.Sprintf("%s_b%d_pc", p, bi)
						pi := fmt.Sprintf("%s_b%d_pi", p, bi)
						nc := fmt.Sprintf("%s_b%d_nc", p, bi)
						ni := fmt.Sprintf("%s_b%d_ni", p, bi)
						b.emitUints(pc, blk.PosCounts, e.CountWidth)
						b.emitUints(pi, blk.PosIndices, 1)
						b.emitUints(nc, blk.NegCounts, e.CountWidth)
						b.emitUints(ni, blk.NegIndices, 1)
						fmt.Fprintf(&recs, "\t.word %d, %s, %s, %s, %s\n", bi*e.BlockSize, pc, pi, nc, ni)
					}
					tbl := p + "_blocks"
					b.data.WriteString("\t.align 4\n" + tbl + ":\n" + recs.String())
					return [6]string{fmt.Sprintf("%d", len(e.Blocks)), tbl}
				},
			}, nil

		case UseCSC:
			e := encoding.EncodeCSC(l.A)
			name, _ := kernels.CSCB(e.PtrWidth, e.IdxWidth, 1, 1)
			return &layerPlan{
				enc: le, encStr: le.String(), kname: name,
				// The CSC inner loop is a while-form; its header runs
				// count+1 times per column.
				bounds: kernelBounds{out: l.Out, col: maxColumnCount(l.A) + 1},
				gen: func(kb kernelBounds) string {
					_, src := kernels.CSCB(e.PtrWidth, e.IdxWidth, kb.out, kb.col)
					return src
				},
				emit: func(b *builder, p string) [6]string {
					b.emitUints(p+"_pp", e.Pos.Pointers, e.PtrWidth)
					b.emitUints(p+"_pi", e.Pos.Indices, e.IdxWidth)
					b.emitUints(p+"_np", e.Neg.Pointers, e.PtrWidth)
					b.emitUints(p+"_ni", e.Neg.Indices, e.IdxWidth)
					return [6]string{p + "_pp", p + "_pi", p + "_np", p + "_ni"}
				},
			}, nil

		case UseDelta:
			e := encoding.EncodeDelta(l.A)
			name, _ := kernels.DeltaB(e.CountWidth, e.FirstWidth, e.DeltaWidth, 1, 1)
			col := maxColumnCount(l.A) - 1 // first connection is peeled
			if col < 1 {
				col = 1
			}
			return &layerPlan{
				enc: le, encStr: le.String(), kname: name,
				bounds: kernelBounds{out: l.Out, col: col},
				gen: func(kb kernelBounds) string {
					_, src := kernels.DeltaB(e.CountWidth, e.FirstWidth, e.DeltaWidth, kb.out, kb.col)
					return src
				},
				emit: func(b *builder, p string) [6]string {
					b.emitUints(p+"_pc", e.Pos.Counts, e.CountWidth)
					b.emitUints(p+"_pf", e.Pos.Firsts, e.FirstWidth)
					b.emitUints(p+"_pd", e.Pos.Deltas, e.DeltaWidth)
					b.emitUints(p+"_nc", e.Neg.Counts, e.CountWidth)
					b.emitUints(p+"_nf", e.Neg.Firsts, e.FirstWidth)
					b.emitUints(p+"_nd", e.Neg.Deltas, e.DeltaWidth)
					return [6]string{p + "_pc", p + "_pf", p + "_pd", p + "_nc", p + "_nf", p + "_nd"}
				},
			}, nil

		case UseMixed:
			e := encoding.EncodeMixed(l.A)
			name, _ := kernels.MixedB(e.CountWidth, e.IdxWidth, 1, 1)
			return &layerPlan{
				enc: le, encStr: le.String(), kname: name,
				bounds: kernelBounds{out: l.Out, col: maxColumnCount(l.A)},
				gen: func(kb kernelBounds) string {
					_, src := kernels.MixedB(e.CountWidth, e.IdxWidth, kb.out, kb.col)
					return src
				},
				emit: func(b *builder, p string) [6]string {
					b.emitUints(p+"_pc", e.Pos.Counts, e.CountWidth)
					b.emitUints(p+"_pi", e.Pos.Indices, e.IdxWidth)
					b.emitUints(p+"_nc", e.Neg.Counts, e.CountWidth)
					b.emitUints(p+"_ni", e.Neg.Indices, e.IdxWidth)
					return [6]string{p + "_pc", p + "_pi", p + "_nc", p + "_ni"}
				},
			}, nil

		case UseUnrolled:
			name := kernels.UnrolledName(idx, le.Factor)
			src := kernels.Optimize(kernels.Unrolled(name, l.A, le.Factor, in, acc))
			return &layerPlan{
				enc: le, encStr: le.String(), kname: name,
				src:           src,
				selfContained: true,
				emit:          func(b *builder, p string) [6]string { return [6]string{} },
			}, nil

		default:
			return nil, fmt.Errorf("modelimg: unknown encoding %v", le.Choice)
		}
	default:
		return nil, fmt.Errorf("modelimg: unknown layer kind %v", l.Kind)
	}
}

// buildResolved generates and assembles the image for one concrete
// per-layer encoding assignment.
func buildResolved(model *quant.Model, opts BuildOptions, encs []LayerEncoding) (*Image, error) {
	// SRAM layout.
	maxDim := 0
	maxOut := 0
	for _, l := range model.Layers {
		if l.In > maxDim {
			maxDim = l.In
		}
		if l.Out > maxDim {
			maxDim = l.Out
		}
		if l.Out > maxOut {
			maxOut = l.Out
		}
	}
	align4 := func(v int) int { return (v + 3) &^ 3 }
	bufA := int(armv6m.SRAMBase)
	bufB := bufA + align4(maxDim)
	accBuf := bufB + align4(maxDim)
	heapEnd := accBuf + 4*maxOut
	if heapEnd+StackReserve > int(armv6m.SRAMBase)+armv6m.SRAMSize {
		return nil, &ErrNotDeployable{
			What: "SRAM buffers",
			Need: heapEnd - int(armv6m.SRAMBase) + StackReserve,
			Have: armv6m.SRAMSize,
		}
	}

	// Plan every layer, then max-merge the loop bounds of layers that
	// share a kernel so each kernel is generated once, tight for all of
	// its users.
	plans := make([]*layerPlan, len(model.Layers))
	inAddrs := make([]int, len(model.Layers))
	inAddr := bufA
	for i, l := range model.Layers {
		outAddr := bufB
		if inAddr == bufB {
			outAddr = bufA
		}
		p, err := planLayer(l, encs[i], i, uint32(inAddr), uint32(accBuf))
		if err != nil {
			return nil, err
		}
		plans[i] = p
		inAddrs[i] = inAddr
		inAddr = outAddr
	}
	merged := make(map[string]kernelBounds)
	for _, p := range plans {
		if p.gen == nil {
			continue
		}
		kb := merged[p.kname]
		kb.merge(p.bounds)
		merged[p.kname] = kb
	}

	b := &builder{seen: make(map[string]bool)}
	requantName, requantSrc := kernels.RequantB(maxOut)
	b.kernel(requantName, requantSrc)

	// Entry code: one accumulate + requant call per layer, then halt.
	var entry strings.Builder
	entry.WriteString("entry:\n")
	if opts.MaskIRQDuringInference {
		entry.WriteString("\tcpsid i\n")
	}
	if opts.Telemetry {
		if n := len(model.Layers); n > kernels.MaxMarkerLayers {
			return nil, fmt.Errorf("modelimg: telemetry markers support at most %d layers, model has %d",
				kernels.MaxMarkerLayers, n)
		}
		// Mailbox pointer in r4: callee-saved, so every kernel call
		// preserves it (asmcheck proves the AAPCS contract below).
		entry.WriteString(kernels.MailboxLoad("r4"))
	}
	selfContained := make(map[string]bool)
	var layers []LayerInfo
	for i, l := range model.Layers {
		p := plans[i]
		src := p.src
		if p.gen != nil {
			src = p.gen(merged[p.kname])
		}
		b.kernel(p.kname, src)
		if p.selfContained {
			selfContained[p.kname] = true
		}

		outAddr := bufB
		if inAddrs[i] == bufB {
			outAddr = bufA
		}
		descLabel := fmt.Sprintf("desc%d", i)
		// The l<i>_data label emits no bytes but delimits the layer's
		// table span for per-layer flash attribution.
		fmt.Fprintf(&b.data, "l%d_data:\n", i)
		k := p.emit(b, fmt.Sprintf("l%d", i))
		emitDesc(b, descLabel, l, k, uint32(inAddrs[i]), uint32(outAddr), uint32(accBuf), i)

		// The l<i>_call label emits no bytes: uninstrumented images stay
		// bit-identical while host profiles gain layer boundaries.
		fmt.Fprintf(&entry, "l%d_call:\n", i)
		if opts.Telemetry {
			entry.WriteString(kernels.MarkerStore("r4", kernels.MarkerEnter(i)))
		}
		fmt.Fprintf(&entry, "\tldr r0, =%s\n\tbl %s\n", descLabel, p.kname)
		fmt.Fprintf(&entry, "\tldr r0, =%s\n\tbl %s\n", descLabel, requantName)
		if opts.Telemetry {
			entry.WriteString(kernels.MarkerStore("r4", kernels.MarkerExit(i)))
		}
		layers = append(layers, LayerInfo{
			Index: i, Kernel: p.kname, In: l.In, Out: l.Out, Encoding: p.encStr,
		})
	}
	entry.WriteString("entry_end:\n")
	if opts.MaskIRQDuringInference {
		// Unmask and give a deferred interrupt a chance to run before
		// the measurement stops.
		entry.WriteString("\tcpsie i\n\tnop\n\tnop\n")
	}
	entry.WriteString("\tbkpt #0\n\t.pool\n")
	entryStr := entry.String()
	if len(selfContained) > 0 {
		// Unrolled kernels ignore their descriptor argument; delete the
		// dead loads feeding their BLs (2+2ws cycles per layer).
		entryStr = kernels.OptimizeEntry(entryStr, selfContained)
	}

	// Vector table: SP, reset, 13 reserved slots, SysTick (slot 15).
	systickVec := "0"
	isr := ""
	if opts.ISRWorkLoops > 0 {
		systickVec = "systick_handler + 1"
		loops := opts.ISRWorkLoops
		shift := 0
		for loops > 255 {
			loops = (loops + 1) / 2
			shift++
		}
		isr = fmt.Sprintf(`systick_handler:
	movs r0, #%d
`, loops)
		if shift > 0 {
			isr += fmt.Sprintf("\tlsls r0, r0, #%d\n", shift)
		}
		isr += fmt.Sprintf(`sth_loop:
	subs r0, #1
	bne sth_loop           @ asmcheck: loop %d
	bx lr
`, loops<<shift)
	}

	last := model.Layers[len(model.Layers)-1]
	asm := fmt.Sprintf(`	.word 0x%08x          @ initial SP
	.word entry + 1        @ reset vector
	.word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
	.word %s               @ SysTick (slot 15)
%s%s%s	.align 4
data_start:
%s`, armv6m.SRAMBase+armv6m.SRAMSize, systickVec, entryStr, isr, b.code.String(), b.data.String())

	prog, err := thumb.Assemble(asm, armv6m.FlashBase)
	if err != nil {
		return nil, fmt.Errorf("modelimg: assembling image: %w", err)
	}
	if len(prog.Code) > armv6m.FlashSize {
		return nil, &ErrNotDeployable{What: "flash image", Need: len(prog.Code), Have: armv6m.FlashSize}
	}
	dataStart, err := prog.Symbol("data_start")
	if err != nil {
		return nil, err
	}

	// Gate deployment on the static checks: CFG well-formed, AAPCS
	// contracts hold, every store proven safe, stack and cycles bounded.
	vcfg := asmcheck.DefaultConfig()
	vcfg.Strict = true
	vcfg.StackBudget = StackReserve
	vcfg.CodeLimit = dataStart
	vcfg.Roots = []string{"entry"}
	if isr != "" {
		vcfg.ISRRoots = []string{"systick_handler"}
	}
	if opts.Telemetry {
		// Marker stores target the telemetry mailbox; map the peripheral
		// window so the checker can prove them safe.
		vcfg.PeriphBase, vcfg.PeriphSize = armv6m.TimerBase, armv6m.TimerSize
	}
	crt, report, err := asmcheck.Certify(prog, vcfg)
	if err != nil {
		if report != nil && !report.OK() {
			var msgs []string
			for _, v := range report.Violations {
				msgs = append(msgs, v.String())
			}
			return nil, fmt.Errorf("modelimg: image fails static verification:\n  %s",
				strings.Join(msgs, "\n  "))
		}
		return nil, fmt.Errorf("modelimg: static check: %w", err)
	}

	if err := attributeFlash(prog, b.order, layers, plans, dataStart); err != nil {
		return nil, err
	}

	img := &Image{
		Prog:      prog,
		InAddr:    uint32(bufA),
		OutAddr:   0,
		InDim:     model.Layers[0].In,
		OutDim:    last.Out,
		CodeBytes: int(dataStart - armv6m.FlashBase),
		DataBytes: len(prog.Code) - int(dataStart-armv6m.FlashBase),
		RAMBytes:  heapEnd - int(armv6m.SRAMBase) + StackReserve,
		Asm:       asm,
		Check:     report,
		Cert:      crt,
		Layers:    layers,
		Encodings: encs,
		Telemetry: opts.Telemetry,
	}
	// Output buffer of the final layer: ping-pong parity.
	out := bufB
	if len(model.Layers)%2 == 0 {
		out = bufA
	}
	img.OutAddr = uint32(out)
	return img, nil
}

// attributeFlash fills LayerInfo.FlashBytes: each layer owns its table
// span (l<i>_data to the next layer's) plus every kernel it is the
// first user of. The requant kernel, shared by all layers, goes to
// layer 0.
func attributeFlash(prog *thumb.Program, kernelOrder []string, layers []LayerInfo, plans []*layerPlan, dataStart uint32) error {
	progEnd := prog.Base + uint32(len(prog.Code))
	// Table spans: layer data is emitted in layer order, contiguously.
	for i := range layers {
		start, err := prog.Symbol(fmt.Sprintf("l%d_data", i))
		if err != nil {
			return err
		}
		end := progEnd
		if i+1 < len(layers) {
			if end, err = prog.Symbol(fmt.Sprintf("l%d_data", i+1)); err != nil {
				return err
			}
		}
		layers[i].FlashBytes = int(end - start)
	}
	// Kernel spans, attributed to the first layer that uses each.
	owner := make(map[string]int)
	for i, p := range plans {
		if _, ok := owner[p.kname]; !ok {
			owner[p.kname] = i
		}
	}
	for j, name := range kernelOrder {
		start, err := prog.Symbol(name)
		if err != nil {
			return err
		}
		end := dataStart
		if j+1 < len(kernelOrder) {
			if end, err = prog.Symbol(kernelOrder[j+1]); err != nil {
				return err
			}
		}
		o, ok := owner[name]
		if !ok {
			o = 0 // shared support kernels (requant) go to the first layer
		}
		layers[o].FlashBytes += int(end - start)
	}
	return nil
}

// emitDesc writes the layer's multiplier/bias tables and its 16-word
// descriptor.
func emitDesc(b *builder, descLabel string, l *quant.Layer, k [6]string, in, out, acc uint32, idx int) {
	p := fmt.Sprintf("l%d", idx)
	flags := 0
	if l.ReLU {
		flags |= kernels.FlagReLU
	}
	if l.PerNeuron {
		flags |= kernels.FlagPerNeuron
	}
	b.emitInt16s(p+"_mult", l.Mults)
	b.emitInt16s(p+"_bias", l.Bias)
	for i, v := range k {
		if v == "" {
			k[i] = "0"
		}
	}
	fmt.Fprintf(&b.data, `	.align 4
%s:
	.word 0x%08x, 0x%08x, 0x%08x, %d, %d
	.word %s, %s, %s, %s, %s, %s
	.word %s, %s, %d, %d, %d
`, descLabel, in, out, acc, l.In, l.Out,
		k[0], k[1], k[2], k[3], k[4], k[5],
		p+"_mult", p+"_bias", l.PreShift, l.PostShift, flags)
}

// emitInt8s writes a labeled .byte table of signed bytes.
func (b *builder) emitInt8s(label string, vals []int8) {
	fmt.Fprintf(&b.data, "%s:\n", label)
	writeList(&b.data, ".byte", len(vals), func(i int) int64 { return int64(uint8(vals[i])) })
}

// emitInt16s writes a labeled 2-aligned .hword table of signed values.
func (b *builder) emitInt16s(label string, vals []int32) {
	fmt.Fprintf(&b.data, "\t.align 2\n%s:\n", label)
	writeList(&b.data, ".hword", len(vals), func(i int) int64 { return int64(uint16(int16(vals[i]))) })
}

// emitUints writes a labeled table of unsigned values at the given
// element width.
func (b *builder) emitUints(label string, vals []int, width int) {
	dir := ".byte"
	if width == 2 {
		dir = ".hword"
		fmt.Fprintf(&b.data, "\t.align 2\n")
	}
	fmt.Fprintf(&b.data, "%s:\n", label)
	writeList(&b.data, dir, len(vals), func(i int) int64 { return int64(vals[i]) })
}

// writeList emits a directive list 16 values per line; empty tables
// emit nothing (label still present, harmlessly aliasing what follows).
func writeList(sb *strings.Builder, dir string, n int, at func(int) int64) {
	for i := 0; i < n; i += 16 {
		sb.WriteString("\t" + dir + " ")
		for j := i; j < n && j < i+16; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%d", at(j))
		}
		sb.WriteString("\n")
	}
}

// Listing disassembles the image's code section (vector table skipped,
// stops at the data tables) for debugging and documentation.
func (img *Image) Listing() string {
	var sb strings.Builder
	code := img.Prog.Code
	end := img.CodeBytes
	if end > len(code) {
		end = len(code)
	}
	const vectorBytes = 64
	for off := vectorBytes; off < end; {
		op := uint16(code[off])
		if off+1 < len(code) {
			op |= uint16(code[off+1]) << 8
		}
		var lo uint16
		if off+4 <= len(code) {
			lo = uint16(code[off+2]) | uint16(code[off+3])<<8
		}
		text, size := armv6m.Disassemble(armv6m.FlashBase+uint32(off), op, lo)
		fmt.Fprintf(&sb, "%08x: %s\n", armv6m.FlashBase+uint32(off), text)
		off += size
	}
	return sb.String()
}
