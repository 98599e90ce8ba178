package kernels

import (
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// Unrolled parity: for random weight matrices, unroll factors, and
// SRAM inputs, the deployed unrolled kernel must be byte for byte what
// the text oracle (Optimize over naiveUnrolled, optimizer_oracle_test.go)
// prints, produce bit-for-bit the accumulators of the naive form, never
// cost more cycles, keep exact cycle parity across all three execution
// tiers at every wait-state setting, and, like the naive form, certify
// Exact under the strict checker with WCET == measured. `go test` runs
// the seed corpus; `go test -fuzz=FuzzOptimizerParity` explores further.

const parityBase = 0x08000100

// parityKernel is one assembled+certified harness around a kernel body.
type parityKernel struct {
	prog *thumb.Program
	cert *cert.Certificate
}

// buildParityKernel wraps kernel symbol kname (body src) in the
// self-check harness; label only tags test failures.
func buildParityKernel(t *testing.T, label, kname, src string, in, out int) *parityKernel {
	t.Helper()
	name := label
	harness := selfHarness(kname, src, selfDesc(in, out), "")
	prog, err := thumb.Assemble(harness, parityBase)
	if err != nil {
		t.Fatalf("%s: assemble: %v\nsource:\n%s", name, err, src)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = 1024
	if desc, err := prog.Symbol("desc"); err == nil {
		cfg.CodeLimit = desc
	}
	c, rep, err := asmcheck.Certify(prog, cfg)
	if err != nil {
		t.Fatalf("%s: certify: %v", name, err)
	}
	if !rep.OK() {
		t.Fatalf("%s: violations: %v", name, rep.Violations)
	}
	for i := range c.Funcs {
		for j := range c.Funcs[i].Blocks {
			if !c.Funcs[i].Blocks[j].Exact {
				t.Fatalf("%s: block 0x%08x of %s is not exact",
					name, c.Funcs[i].Blocks[j].Start, c.Funcs[i].Name)
			}
		}
	}
	return &parityKernel{prog: prog, cert: c}
}

// runParity executes the harness on one tier, returning the accumulator
// bytes and the cycle count.
func (pk *parityKernel) run(t *testing.T, tier string, ws, out int, inputs []int8) ([]byte, uint64) {
	t.Helper()
	cpu := armv6m.New()
	vec := make([]byte, 16)
	put32 := func(off int, v uint32) {
		vec[off] = byte(v)
		vec[off+1] = byte(v >> 8)
		vec[off+2] = byte(v >> 16)
		vec[off+3] = byte(v >> 24)
	}
	put32(0, armv6m.SRAMBase+armv6m.SRAMSize)
	put32(4, pk.prog.Base|1)
	if err := cpu.Bus.LoadFlash(0, vec); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Bus.LoadFlash(int(pk.prog.Base-armv6m.FlashBase), pk.prog.Code); err != nil {
		t.Fatal(err)
	}
	cpu.Bus.FlashWaitStates = ws
	switch tier {
	case "legacy":
		cpu.DisablePredecode = true
	case "predecoded":
		cpu.DisableTranslation = true
	case "translated":
		tt := cert.Translate(pk.cert, cpu.PredecodeNow())
		if tt == nil {
			t.Fatal("certificate yielded no translation table")
		}
		cpu.UseTranslation(tt)
	}
	for i, v := range inputs {
		if err := cpu.Bus.Write8(uint32(selfIn+i), uint32(uint8(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	cpu.Cycles, cpu.Instructions = 0, 0
	if err := cpu.Run(3_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("harness never halted")
	}
	acc := make([]byte, 4*out)
	for i := range acc {
		v, err := cpu.Bus.Read8(uint32(selfAcc + i))
		if err != nil {
			t.Fatal(err)
		}
		acc[i] = byte(v)
	}
	return acc, cpu.Cycles
}

var parityTiers = []string{"legacy", "predecoded", "translated"}

// checkOptimizerParity drives one (matrix, factor, inputs) case: "raw"
// is the naive form, "opt" the deployed one.
func checkOptimizerParity(t *testing.T, m *encoding.Matrix, factor int, inputs []int8) {
	t.Helper()
	const name = "k_fz"
	rawSrc := naiveUnrolled(name, m, factor, selfIn, selfAcc)
	optSrc := Unrolled(name, m, factor, selfIn, selfAcc)
	if want := Optimize(rawSrc); optSrc != want {
		t.Fatalf("Unrolled differs from the text oracle\ngot:\n%s\nwant:\n%s", optSrc, want)
	}
	raw := buildParityKernel(t, "raw", name, rawSrc, m.In, m.Out)
	opt := buildParityKernel(t, "opt", name, optSrc, m.In, m.Out)
	for ws := 0; ws <= 2; ws++ {
		var rawAcc, optAcc []byte
		var rawCycles, optCycles uint64
		for ti, tier := range parityTiers {
			ra, rc := raw.run(t, tier, ws, m.Out, inputs)
			oa, oc := opt.run(t, tier, ws, m.Out, inputs)
			if ti == 0 {
				rawAcc, rawCycles = ra, rc
				optAcc, optCycles = oa, oc
			} else {
				// Exact cycle (and state) parity across tiers.
				if rc != rawCycles || string(ra) != string(rawAcc) {
					t.Fatalf("ws=%d: raw kernel diverges on %s tier (%d vs %d cycles)", ws, tier, rc, rawCycles)
				}
				if oc != optCycles || string(oa) != string(optAcc) {
					t.Fatalf("ws=%d: optimized kernel diverges on %s tier (%d vs %d cycles)", ws, tier, oc, optCycles)
				}
			}
		}
		if string(optAcc) != string(rawAcc) {
			t.Fatalf("ws=%d: optimized accumulators differ from unoptimized\nraw: %x\nopt: %x", ws, rawAcc, optAcc)
		}
		if optCycles > rawCycles {
			t.Fatalf("ws=%d: optimizer made the kernel slower: %d > %d cycles", ws, optCycles, rawCycles)
		}
		// Straight-line kernels have no data-dependent branches, so the
		// certificate WCET is exact for ANY input, not just uniform ones.
		for which, pk := range map[string]*parityKernel{"raw": raw, "opt": opt} {
			wcet, err := pk.cert.WCET("entry", ws)
			if err != nil {
				t.Fatalf("ws=%d: %s WCET: %v", ws, which, err)
			}
			measured := rawCycles
			if which == "opt" {
				measured = optCycles
			}
			if wcet != measured {
				t.Fatalf("ws=%d: %s WCET %d != measured %d", ws, which, wcet, measured)
			}
		}
	}
}

// parityCase decodes a fuzz byte string into a matrix, factor, and
// input vector. Every byte string decodes to a valid case.
func parityCase(data []byte) (*encoding.Matrix, int, []int8) {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	in := 1 + int(at(0))%24
	out := 1 + int(at(1))%8
	factor := UnrollFactors[int(at(2))%len(UnrollFactors)]
	m := encoding.NewMatrix(in, out)
	p := 3
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			m.Set(o, i, int8(at(p)%3)-1)
			p++
		}
	}
	inputs := make([]int8, in)
	for i := range inputs {
		inputs[i] = int8(at(p))
		p++
	}
	return m, factor, inputs
}

func FuzzOptimizerParity(f *testing.F) {
	f.Add([]byte{8, 4, 2, 0xA5, 0x3C, 0x77, 0x01, 0xFE, 0x10, 0x42, 0x99, 0x08})
	f.Add([]byte{24, 8, 3, 0x00})      // widest shape, factor 4, all-zero weights
	f.Add([]byte{1, 1, 0, 0x02, 0x7F}) // minimal shape, factor 1
	f.Add([]byte{13, 5, 1, 0xDE, 0xAD, 0xBE, 0xEF, 0x55, 0xAA, 0x0F, 0xF0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, factor, inputs := parityCase(data)
		checkOptimizerParity(t, m, factor, inputs)
	})
}

// TestOptimizerParityDense pins parity on a dense all-connected matrix
// (every output written at every input, and every group's full store)
// without relying on the fuzz corpus.
func TestOptimizerParityDense(t *testing.T) {
	for _, factor := range UnrollFactors {
		t.Run(fmt.Sprintf("factor%d", factor), func(t *testing.T) {
			m := encoding.NewMatrix(12, 6)
			for o := 0; o < m.Out; o++ {
				for i := 0; i < m.In; i++ {
					w := int8(1)
					if (o+i)%3 == 0 {
						w = -1
					}
					m.Set(o, i, w)
				}
			}
			inputs := make([]int8, m.In)
			for i := range inputs {
				inputs[i] = int8(i*17 - 90)
			}
			checkOptimizerParity(t, m, factor, inputs)
		})
	}
}

// TestUnrolledParityWide runs the window moves and the inline pool,
// which parityCase's 24 inputs never reach: 400 inputs (below the 512
// bytes between selfIn and selfAcc), 10 outputs, half dense. Outputs
// 4-7 start at input 40, so every factor's groups over them open with
// a rewind folded into an advance; the others open with a bare rewind.
// Output 1 starts at input 350, after the pool the first group flushes,
// so at factors 2 and 4 its init is kept; output 9 has no weight.
func TestUnrolledParityWide(t *testing.T) {
	r := rng.New(27)
	m := encoding.NewMatrix(400, 10)
	for o := 0; o < m.Out-1; o++ {
		first := 0
		switch {
		case o == 1:
			first = 350
		case o >= 4 && o < 8:
			first = 40
		}
		for i := first; i < m.In; i++ {
			if r.Bool(0.5) {
				m.Set(o, i, int8(2*r.Intn(2)-1))
			}
		}
	}
	inputs := make([]int8, m.In)
	for i := range inputs {
		inputs[i] = int8(r.Intn(256) - 128)
	}
	for _, factor := range UnrollFactors {
		t.Run(fmt.Sprintf("factor%d", factor), func(t *testing.T) {
			f := unrolledFeaturesOf(naiveUnrolled("k_fz", m, factor, selfIn, selfAcc))
			if !f.foldedMove || !f.bareRewind || !f.midGroupPool || f.keptInit != (factor > 1) {
				t.Fatalf("case misses a generator path: %+v", f)
			}
			checkOptimizerParity(t, m, factor, inputs)
		})
	}
}
