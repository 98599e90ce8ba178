package cert_test

import (
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/thumb"
)

const codeBase = 0x08000100

// certifyHarness assembles a kernel self-check harness, certifies it
// under the strict kernel configuration, and round-trips the
// certificate through its JSON encoding — the checker below validates
// the PARSED artifact, so the serialization is part of what the
// emulator cross-checks.
func certifyHarness(t *testing.T, src string) (*thumb.Program, *cert.Certificate) {
	t.Helper()
	prog, c, _ := certifyHarnessAt(t, src, 0)
	return prog, c
}

// certifyHarnessAt certifies at a flash wait-state setting, also
// returning asmcheck's report.
func certifyHarnessAt(t *testing.T, src string, ws int) (*thumb.Program, *cert.Certificate, *asmcheck.Report) {
	t.Helper()
	prog, err := thumb.Assemble(src, codeBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = 1024
	cfg.FlashWaitStates = ws
	if desc, err := prog.Symbol("desc"); err == nil {
		cfg.CodeLimit = desc
	}
	c, rep, err := asmcheck.Certify(prog, cfg)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	data, err := c.JSON()
	if err != nil {
		t.Fatalf("cert JSON: %v", err)
	}
	parsed, err := cert.Parse(data)
	if err != nil {
		t.Fatalf("cert parse: %v", err)
	}
	return prog, parsed, rep
}

// bootHarness loads prog behind a minimal vector table on a fresh core.
func bootHarness(t *testing.T, prog *thumb.Program, ws int, legacy bool) *armv6m.CPU {
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
	put32(4, prog.Base|1)
	if err := cpu.Bus.LoadFlash(0, vec); err != nil {
		t.Fatalf("load vectors: %v", err)
	}
	if err := cpu.Bus.LoadFlash(int(prog.Base-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatalf("load code: %v", err)
	}
	cpu.Bus.FlashWaitStates = ws
	cpu.DisablePredecode = legacy
	if err := cpu.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	cpu.Cycles, cpu.Instructions = 0, 0
	return cpu
}

// TestVariantCertExactness is the acceptance gate for the certificate
// format: for every generated kernel variant, on both interpreters and
// across wait-state settings, (1) checked execution observes zero
// mismatches, (2) every certified block is exact, (3) the per-block
// cycle formulas evaluated at the run's wait-state setting — weighted
// by the observed execution counts — sum EXACTLY to the emulator's
// measured cycles, and (4) the checked run is bit-identical to an
// unchecked one.
func TestVariantCertExactness(t *testing.T) {
	for _, v := range kernels.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			prog, c := certifyHarness(t, v.Harness)
			for _, b := range allBlocks(c) {
				if !b.Exact {
					t.Fatalf("block 0x%08x is not exact: the kernel cert must prove every access region", b.Start)
				}
			}
			for _, legacy := range []bool{false, true} {
				for ws := 0; ws <= 2; ws++ {
					name := fmt.Sprintf("predecoded/ws=%d", ws)
					if legacy {
						name = fmt.Sprintf("legacy/ws=%d", ws)
					}
					t.Run(name, func(t *testing.T) {
						// Reference: unchecked, untraced run.
						ref := bootHarness(t, prog, ws, legacy)
						if err := ref.Run(3_000_000); err != nil {
							t.Fatalf("unchecked run: %v", err)
						}

						cpu := bootHarness(t, prog, ws, legacy)
						trace := cpu.EnableTrace()
						chk, err := cert.NewChecker(c, cpu)
						if err != nil {
							t.Fatalf("checker: %v", err)
						}
						chk.Attach(trace)
						if err := cpu.Run(3_000_000); err != nil {
							t.Fatalf("checked run: %v (checker: %v)", err, chk.Err())
						}
						if err := chk.Finish(); err != nil {
							t.Fatalf("certificate mismatch: %v", err)
						}
						if !cpu.Halted {
							t.Fatal("harness never halted")
						}
						if cpu.Cycles != ref.Cycles || cpu.Instructions != ref.Instructions {
							t.Fatalf("checked run diverged: %d/%d cycles, unchecked %d/%d",
								cpu.Cycles, cpu.Instructions, ref.Cycles, ref.Instructions)
						}
						if cpu.R != ref.R {
							t.Fatalf("checked run left different registers")
						}

						// The formula sum, recomputed from the parsed artifact
						// and the observed block counts, must equal the
						// measured cycles exactly.
						execs, takens := chk.BlockExecutions(), chk.TakenExits()
						var sum uint64
						for _, b := range allBlocks(c) {
							sum += b.Cost.Eval(uint64(ws)) * execs[b.Start]
							sum += b.TakenExtra * takens[b.Start]
						}
						if sum != cpu.Cycles {
							t.Fatalf("formula sum %d != measured cycles %d (ws=%d)", sum, cpu.Cycles, ws)
						}
						if chk.ExemptCycles() != 0 {
							t.Fatalf("%d cycles were exempt from checking; kernel certs must be fully exact", chk.ExemptCycles())
						}
						if chk.CertifiedCycles() != cpu.Cycles {
							t.Fatalf("certified cycles %d != measured %d", chk.CertifiedCycles(), cpu.Cycles)
						}
					})
				}
			}
		})
	}
}

func allBlocks(c *cert.Certificate) []cert.Block {
	var out []cert.Block
	for _, f := range c.Funcs {
		out = append(out, f.Blocks...)
	}
	return out
}

// tinyModel is a deterministic 4->2 ternary model.
func tinyModel() *quant.Model {
	a := encoding.NewMatrix(4, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, -1)
	a.Set(1, 2, 1)
	a.Set(1, 3, 1)
	return &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{{
			Kind: quant.Ternary, In: 4, Out: 2, A: a,
			PerNeuron: true, Mults: []int32{128, 64},
			Bias: []int32{0, 1}, PreShift: 0, PostShift: 7,
		}},
	}
}

// TestModelCheckedExecution runs full model images under checked mode
// on both interpreters across wait-state settings: zero mismatches and
// bit-identical results vs the unchecked run. The telemetry build
// additionally exercises the peripheral memory class.
func TestModelCheckedExecution(t *testing.T) {
	cases := []struct {
		name string
		opts modelimg.BuildOptions
	}{
		{"block", modelimg.BuildOptions{Encoding: modelimg.UseBlock}},
		{"csc-telemetry", modelimg.BuildOptions{Encoding: modelimg.UseCSC, Telemetry: true}},
	}
	in := []int8{10, 3, -5, 20}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			img, err := modelimg.BuildOpts(tinyModel(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if img.Cert == nil {
				t.Fatal("built image carries no certificate")
			}
			for _, legacy := range []bool{false, true} {
				for ws := 0; ws <= 2; ws++ {
					name := fmt.Sprintf("predecoded/ws=%d", ws)
					if legacy {
						name = fmt.Sprintf("legacy/ws=%d", ws)
					}
					t.Run(name, func(t *testing.T) {
						ref, err := device.New(img)
						if err != nil {
							t.Fatal(err)
						}
						ref.CPU.Bus.FlashWaitStates = ws
						ref.CPU.DisablePredecode = legacy
						want, err := ref.Run(in)
						if err != nil {
							t.Fatal(err)
						}

						dev, err := device.New(img)
						if err != nil {
							t.Fatal(err)
						}
						dev.CPU.Bus.FlashWaitStates = ws
						dev.CPU.DisablePredecode = legacy
						dev.Checked = true
						got, err := dev.Run(in)
						if err != nil {
							t.Fatalf("checked run: %v", err)
						}
						if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
							t.Fatalf("checked run diverged: %d/%d cycles, unchecked %d/%d",
								got.Cycles, got.Instructions, want.Cycles, want.Instructions)
						}
						for i := range want.Output {
							if got.Output[i] != want.Output[i] {
								t.Fatalf("output[%d] = %d, unchecked %d", i, got.Output[i], want.Output[i])
							}
						}
					})
				}
			}
		})
	}
}

// TestModelCheckedWithISR arms the SysTick against an ISR-carrying
// image in checked mode: exception entries and returns must be
// recognized as certified control transfers, with their hardware
// overhead exempted rather than misattributed.
func TestModelCheckedWithISR(t *testing.T) {
	img, err := modelimg.BuildOpts(tinyModel(), modelimg.BuildOptions{
		Encoding: modelimg.UseBlock, ISRWorkLoops: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := []int8{10, 3, -5, 20}
	for _, legacy := range []bool{false, true} {
		for ws := 0; ws <= 2; ws++ {
			name := fmt.Sprintf("predecoded/ws=%d", ws)
			if legacy {
				name = fmt.Sprintf("legacy/ws=%d", ws)
			}
			t.Run(name, func(t *testing.T) {
				ref, err := device.New(img)
				if err != nil {
					t.Fatal(err)
				}
				ref.CPU.Bus.FlashWaitStates = ws
				ref.CPU.DisablePredecode = legacy
				ref.ArmSysTick(151)
				want, err := ref.Run(in)
				if err != nil {
					t.Fatal(err)
				}

				dev, err := device.New(img)
				if err != nil {
					t.Fatal(err)
				}
				dev.CPU.Bus.FlashWaitStates = ws
				dev.CPU.DisablePredecode = legacy
				dev.ArmSysTick(151)
				dev.Checked = true
				got, err := dev.Run(in)
				if err != nil {
					t.Fatalf("checked run: %v", err)
				}
				if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
					t.Fatalf("checked run diverged: %d/%d cycles, unchecked %d/%d",
						got.Cycles, got.Instructions, want.Cycles, want.Instructions)
				}
				if dev.CPU.SysTick.Fires == 0 {
					t.Fatal("SysTick never fired: the ISR coverage was vacuous")
				}
			})
		}
	}
}

// TestCheckerRejectsTamperedCert corrupts individual certificate facts
// and requires the checker to fail loudly with the right mismatch kind
// — the dynamic-validation contract.
func TestCheckerRejectsTamperedCert(t *testing.T) {
	v := kernels.Variants()[0]
	prog, pristine := certifyHarness(t, v.Harness)

	runWith := func(c *cert.Certificate) error {
		cpu := bootHarness(t, prog, 1, false)
		trace := cpu.EnableTrace()
		chk, err := cert.NewChecker(c, cpu)
		if err != nil {
			return err
		}
		chk.Attach(trace)
		if err := cpu.Run(3_000_000); err != nil && chk.Err() == nil {
			t.Fatalf("run failed without a checker error: %v", err)
		}
		return chk.Finish()
	}
	if err := runWith(pristine); err != nil {
		t.Fatalf("pristine cert: %v", err)
	}

	reparse := func() *cert.Certificate {
		data, err := pristine.JSON()
		if err != nil {
			t.Fatal(err)
		}
		c, err := cert.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	tampers := []struct {
		name   string
		kind   cert.MismatchKind
		mutate func(c *cert.Certificate)
	}{
		{"block-cost", cert.MismatchBlockCycles, func(c *cert.Certificate) {
			b := hottestBlock(c)
			b.Cost.Base++
			b.Instrs[0].Cost.Base++
		}},
		{"instr-cost", cert.MismatchInstrCycles, func(c *cert.Certificate) {
			b := hottestBlock(c)
			b.Instrs[0].Cost.WS++
		}},
		{"memory-class", cert.MismatchMemory, func(c *cert.Certificate) {
			for _, f := range c.Funcs {
				for i := range f.Blocks {
					for j := range f.Blocks[i].Instrs {
						in := &f.Blocks[i].Instrs[j]
						if in.Mem == cert.ClassSRAM && !in.Store {
							in.SRAMReads++
							return
						}
					}
				}
			}
			t.Fatal("no SRAM load to tamper with")
		}},
		{"loop-bound", cert.MismatchLoopBound, func(c *cert.Certificate) {
			for fi := range c.Funcs {
				if len(c.Funcs[fi].Loops) > 0 {
					c.Funcs[fi].Loops[0].Bound = 1
					return
				}
			}
			t.Skip("variant has no loops")
		}},
	}
	for _, tm := range tampers {
		tm := tm
		t.Run(tm.name, func(t *testing.T) {
			c := reparse()
			tm.mutate(c)
			err := runWith(c)
			if err == nil {
				t.Fatal("tampered certificate validated cleanly")
			}
			ce, ok := err.(*cert.CheckError)
			if !ok {
				t.Fatalf("want *cert.CheckError, got %T: %v", err, err)
			}
			if tm.name == "block-cost" {
				// Bumping both the instr and block base can legitimately
				// surface as either kind; both are loud and located.
				if ce.Kind != cert.MismatchBlockCycles && ce.Kind != cert.MismatchInstrCycles {
					t.Fatalf("kind = %s, want block- or instr-cycles: %v", ce.Kind, ce)
				}
			} else if ce.Kind != tm.kind {
				t.Fatalf("kind = %s, want %s: %v", ce.Kind, tm.kind, ce)
			}
			if ce.Func == "" {
				t.Fatalf("mismatch does not name a function: %v", ce)
			}
		})
	}
}

// hottestBlock returns a pointer to the entry function's first block
// (always executed).
func hottestBlock(c *cert.Certificate) *cert.Block {
	return &c.Funcs[0].Blocks[0]
}

// TestParseRejectsUnknownVersion enforces the append-only versioning
// contract.
func TestParseRejectsUnknownVersion(t *testing.T) {
	if _, err := cert.Parse([]byte(`{"version":"neuroc-cert/v999"}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestCompatibleWithRefusesWrongCore pins the checker to the certified
// cycle-model parameters.
func TestCompatibleWithRefusesWrongCore(t *testing.T) {
	_, c := certifyHarness(t, kernels.Variants()[0].Harness)
	cpu := armv6m.New()
	cpu.MulCycles = 32
	if _, err := cert.NewChecker(c, cpu); err == nil {
		t.Fatal("checker accepted a core with a different multiplier cost")
	}
}
