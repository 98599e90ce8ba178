package cert_test

import (
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/kernels"
)

// TestWCETEqualsMeasuredCycles is the exactness gate for the
// certificate-driven WCET evaluator: for EVERY generated kernel variant
// — every encoding at every element width, the conv pair, requant, and
// the unrolled forms — the WCET computed purely from the certificate
// must equal the emulator's measured cycle count, on both interpreters,
// at every wait-state setting. This is only possible because the
// self-check harness tables hold uniform real data (each loop runs
// exactly its annotated bound) and the kernels have no data-dependent
// branches; on real layers, where loops run short of their bounds, the
// same figure is an upper bound. The evaluator is also the only cycle
// engine: asmcheck's report bound and the certificate's wcet_cycles,
// certified at the same wait-state setting, must be the same number.
func TestWCETEqualsMeasuredCycles(t *testing.T) {
	for _, v := range kernels.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			for ws := 0; ws <= 2; ws++ {
				prog, c, rep := certifyHarnessAt(t, v.Harness, ws)
				wcet, err := c.WCET("entry", ws)
				if err != nil {
					t.Fatalf("WCET: %v", err)
				}
				if rep.CycleBound != wcet || c.WCETCycles != wcet {
					t.Fatalf("ws=%d: report bound %d, wcet_cycles %d, WCET %d: want one number",
						ws, rep.CycleBound, c.WCETCycles, wcet)
				}
				for _, legacy := range []bool{false, true} {
					name := fmt.Sprintf("predecoded/ws=%d", ws)
					if legacy {
						name = fmt.Sprintf("legacy/ws=%d", ws)
					}
					t.Run(name, func(t *testing.T) {
						cpu := bootHarness(t, prog, ws, legacy)
						if err := cpu.Run(3_000_000); err != nil {
							t.Fatalf("run: %v", err)
						}
						if !cpu.Halted {
							t.Fatal("harness never halted")
						}
						if wcet != cpu.Cycles {
							t.Fatalf("WCET %d != measured %d cycles (ws=%d)", wcet, cpu.Cycles, ws)
						}
					})
				}
			}
		})
	}
}

// The evaluator must refuse to price what the certificate does not
// cover.
func TestWCETUnknownFunction(t *testing.T) {
	v := kernels.Variants()[0]
	_, c := certifyHarness(t, v.Harness)
	if _, err := c.WCET("no_such_kernel", 0); err == nil {
		t.Fatal("expected an error for an uncertified function name")
	}
}
