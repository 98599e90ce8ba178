package armv6m_test

// Differential tests for the straight-line run executor (execRun): the
// unrolled kernels' gather-accumulate code must execute bit-identically
// on the translated, predecoded and legacy tiers as on the fetch/decode
// oracle, its static totals
// must equal the certificate's, and a run whose loads leave SRAM must
// not be admitted.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// SRAM placement of the random unrolled harnesses.
const (
	sweepIn  = 0x2000_0000
	sweepAcc = 0x2000_0400
)

// unrolledKernel reports whether a kernel variant is an unrolled one.
func unrolledKernel(name string) bool { return strings.HasPrefix(name, "k_unr") }

// randTernary returns an out×in ternary matrix with the given density.
func randTernary(seed uint64, in, out int, density float64) *encoding.Matrix {
	r := rng.New(seed)
	m := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Float64() < density {
				m.Set(o, i, int8(2*r.Intn(2)-1))
			}
		}
	}
	return m
}

// unrolledHarness renders a standalone harness that calls the deployed
// unrolled kernel for m once and halts.
func unrolledHarness(m *encoding.Matrix, factor int) string {
	return "entry:\n\tbl k_sweep\n\tbkpt #0\n\t.pool\n" +
		kernels.Unrolled("k_sweep", m, factor, sweepIn, sweepAcc)
}

// fillInputs writes n seeded random bytes to the start of SRAM, the
// input buffer of every harness here.
func fillInputs(cpu *armv6m.CPU, seed uint64, n int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		cpu.Bus.SRAM[i] = byte(r.Intn(256))
	}
}

// requireSweepParity runs prog on the oracle and all three tiers at ws
// 0-2 over the same inputs, seeded from seed and ws, and requires every
// tier's final state and error to equal the oracle's.
func requireSweepParity(t *testing.T, prog *thumb.Program, c *cert.Certificate, seed uint64, inputs int, budget uint64) {
	t.Helper()
	for ws := 0; ws <= 2; ws++ {
		cores := make(map[string]*armv6m.CPU, len(tierNames))
		errs := make(map[string]string, len(tierNames))
		for _, tier := range tierNames {
			cpu := bootTier(t, prog, c, ws, tier, false)
			fillInputs(cpu, 3*seed+uint64(ws), inputs)
			errs[tier] = fmt.Sprint(runTier(cpu, tier, budget))
			cores[tier] = cpu
		}
		for _, tier := range tierNames[1:] {
			if errs[tier] != errs["oracle"] {
				t.Errorf("ws=%d %s: error %q, want %q", ws, tier, errs[tier], errs["oracle"])
			}
			requireSameState(t, fmt.Sprintf("ws=%d %s vs oracle", ws, tier), cores["oracle"], cores[tier])
		}
	}
}

// TestTranslateSweepParityVariants runs every unrolled kernel variant on
// random inputs on the oracle and all three tiers at ws 0-2: registers,
// flags, memory, cycles, instructions and bus counters must match, and
// each variant must lower to at least one run.
func TestTranslateSweepParityVariants(t *testing.T) {
	n := 0
	for _, v := range kernels.Variants() {
		if !unrolledKernel(v.Name) {
			continue
		}
		n++
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.Harness, false)
			if tt := translateProg(t, prog, c); tt.Runs() == 0 {
				t.Fatal("no straight-line run lowered")
			}
			requireSweepParity(t, prog, c, 1, 64, 3_000_000)
		})
	}
	if n == 0 {
		t.Fatal("no unrolled variant")
	}
}

// TestTranslateSweepParityRandom repeats the parity gate on deployed
// unrolled kernels for random matrices: every unroll factor, partial
// groups, window moves past the 5-bit ldrb reach and, at 300 inputs,
// the literal-pool branch that splits a group's sweep into two runs.
func TestTranslateSweepParityRandom(t *testing.T) {
	for _, tc := range []struct {
		in, out int
		density float64
	}{
		{8, 4, 0.5}, {40, 3, 0.3}, {100, 7, 0.2}, {300, 9, 0.6}, {70, 5, 0.9},
	} {
		for _, f := range kernels.UnrollFactors {
			name := fmt.Sprintf("%dx%d@%.1f/f%d", tc.in, tc.out, tc.density, f)
			t.Run(name, func(t *testing.T) {
				m := randTernary(uint64(tc.in*tc.out+f), tc.in, tc.out, tc.density)
				prog, c := certifySrc(t, unrolledHarness(m, f), false)
				if tt := translateProg(t, prog, c); tt.Runs() == 0 {
					t.Fatal("no straight-line run lowered")
				}
				requireSweepParity(t, prog, c, 1, tc.in, 3_000_000)
			})
		}
	}
}

// runLeaveSrc is a certified harness around one run with window moves
// both ways: loads at offsets 0, 45 and -19 from the window base r4 at
// entry, and first writes by mov and rsbs. The base reaches r4 through
// an SRAM slot, so the "load sram" annotations certify whatever base
// the scenario hides there.
func runLeaveSrc(base string) string {
	return "entry:\n" +
		"\tldr r2, =0x20000200\n\tldr r3, =" + base + "\n\tstr r3, [r2]\n\tldr r4, [r2]\n" +
		"\tmovs r3, #7\n\tmovs r5, #9\n" +
		"\tldrb r0, [r4, #0]   @ asmcheck: load sram\n\tsxtb r0, r0\n" +
		"\tadds r3, r3, r0\n\tsubs r5, r5, r0\n" +
		"\tadds r4, #40\n" +
		"\tldrb r0, [r4, #5]   @ asmcheck: load sram\n\tsxtb r0, r0\n" +
		"\trsbs r6, r0\n\tmov r7, r0\n\tadds r3, r3, r0\n" +
		"\tsubs r4, #60\n" +
		"\tldrb r0, [r4, #1]   @ asmcheck: load sram\n\tsxtb r0, r0\n" +
		"\tsubs r5, r5, r0\n\tadds r7, r7, r0\n" +
		"\tbkpt #0\n\t.pool\n"
}

// TestTranslateSweepLeavesSRAM drives a run's load interval off SRAM —
// past its end, below its start, and into a flash table — and requires
// that the run is not admitted: the translated, predecoded and legacy
// tiers match the oracle in fault text, cycles, bus counters, registers
// and flags at ws 0-2. An in-SRAM base is the
// control case that the harness lowers to a run.
func TestTranslateSweepLeavesSRAM(t *testing.T) {
	for _, sc := range []struct {
		name, base string
		fault      bool
	}{
		{"in-sram", "0x20000100", false},
		{"past-end", "0x20003fd3", true},    // the offset-45 load is one byte past SRAM
		{"below-start", "0x20000012", true}, // the offset -19 load is one byte below it
		{"flash", "0x08000200", false},      // every load reads flash
	} {
		t.Run(sc.name, func(t *testing.T) {
			prog, c := certifySrc(t, runLeaveSrc(sc.base), false)
			if tt := translateProg(t, prog, c); tt.Runs() != 1 {
				t.Fatalf("harness lowers to %d runs, want 1", tt.Runs())
			}
			requireSweepParity(t, prog, c, 1, 0x180, 10_000)
			ref := bootTier(t, prog, c, 0, "oracle", false)
			if err := armv6m.OracleRun(ref, 10_000); (err != nil) != sc.fault {
				t.Errorf("oracle run ended with %v, want a fault: %v", err, sc.fault)
			}
		})
	}
}

// TestTranslateSweepCertificate pins the run executor to the proof: for
// every unrolled variant at ws 0-2, each run's static totals (cycles,
// flash reads, SRAM reads and writes, instructions) equal the sums of
// the certificate's per-instruction facts over the run's addresses, and
// every load in a run is certified SRAM and exact. If the cost model
// and the certificate diverge, this fails.
func TestTranslateSweepCertificate(t *testing.T) {
	for _, v := range kernels.Variants() {
		if !unrolledKernel(v.Name) {
			continue
		}
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifySrc(t, v.Harness, false)
			instrs := map[uint32]*cert.Instr{}
			for fi := range c.Funcs {
				for bi := range c.Funcs[fi].Blocks {
					b := &c.Funcs[fi].Blocks[bi]
					for ii := range b.Instrs {
						instrs[b.Instrs[ii].Addr] = &b.Instrs[ii]
					}
				}
			}
			spans := translateProg(t, prog, c).RunSpans()
			if len(spans) == 0 {
				t.Fatal("no straight-line run lowered")
			}
			for _, sp := range spans {
				var n, base, wsCo, fr, sr, sw uint64
				loads := 0
				for a := sp.Start; a < sp.End; {
					in, ok := instrs[a]
					if !ok {
						t.Fatalf("run [0x%x,0x%x): 0x%x is not a certified instruction", sp.Start, sp.End, a)
					}
					if in.Mem != cert.ClassNone || in.SRAMReads != 0 {
						loads++
						if in.Mem != cert.ClassSRAM || !in.Exact || in.Store {
							t.Errorf("run load at 0x%x certified %q exact=%v store=%v, want an exact SRAM load",
								a, in.Mem, in.Exact, in.Store)
						}
					}
					n++
					base += in.Cost.Base
					wsCo += in.Cost.WS
					fr += in.FlashReads
					sr += in.SRAMReads
					sw += in.SRAMWrites
					a += uint32(in.Size)
				}
				for ws := uint64(0); ws <= 2; ws++ {
					if got, want := sp.CostBase+sp.CostWS*ws, base+wsCo*ws; got != want {
						t.Errorf("run [0x%x,0x%x) ws=%d: %d cycles, certificate %d", sp.Start, sp.End, ws, got, want)
					}
				}
				if sp.Instrs != n || sp.FlashReads != fr || sp.SRAMReads != sr || sp.SRAMWrites != sw {
					t.Errorf("run [0x%x,0x%x): instrs/flash/SRAM reads/writes %d/%d/%d/%d, certificate %d/%d/%d/%d",
						sp.Start, sp.End, sp.Instrs, sp.FlashReads, sp.SRAMReads, sp.SRAMWrites, n, fr, sr, sw)
				}
				if loads != sp.Gathers {
					t.Errorf("run [0x%x,0x%x): %d certified loads, %d gathers", sp.Start, sp.End, loads, sp.Gathers)
				}
			}
		})
	}
}

// exitFlagsSrc is a certified harness around one run whose last
// accumulate is last, followed by a gather whose only accumulate is a
// flag-neutral mov, which the run must leave out. The accumulators
// start near the signed limits, so the exit flags vary with the inputs.
func exitFlagsSrc(last string) string {
	return "entry:\n\tldr r4, =0x20000010\n\tldr r3, =0x7fffffa0\n\tldr r5, =0x80000060\n\tmovs r6, #0\n" +
		"\tldrb r0, [r4, #0]   @ asmcheck: load sram\n\tsxtb r0, r0\n\tadds r3, r3, r0\n\tsubs r5, r5, r0\n" +
		"\tldrb r0, [r4, #1]   @ asmcheck: load sram\n\tsxtb r0, r0\n\t" + last + "\n" +
		"\tldrb r0, [r4, #2]   @ asmcheck: load sram\n\tsxtb r0, r0\n\tmov r7, r0\n" +
		"\tbkpt #0\n\t.pool\n"
}

// TestTranslateSweepExitFlags pins the exit flags, computed once from
// the run's last accumulate, for each flag-setting kind, and the trim
// that ends a run before a gather whose last accumulate is a mov.
func TestTranslateSweepExitFlags(t *testing.T) {
	for _, last := range []string{"adds r3, r3, r0", "subs r5, r5, r0", "rsbs r6, r0"} {
		t.Run(last, func(t *testing.T) {
			prog, c := certifySrc(t, exitFlagsSrc(last), false)
			spans := translateProg(t, prog, c).RunSpans()
			if len(spans) != 1 || spans[0].Gathers != 2 {
				t.Fatalf("runs %+v, want one run of two gathers", spans)
			}
			for seed := uint64(0); seed < 16; seed++ {
				requireSweepParity(t, prog, c, seed, 0x20, 100)
			}
		})
	}
}
