package telemetry

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// bootHarness assembles a kernel self-check harness behind a minimal
// vector table and boots it with the telemetry peripheral attached.
func bootHarness(t *testing.T, src string, ws int) (*armv6m.CPU, *thumb.Program) {
	t.Helper()
	asm := fmt.Sprintf("\t.word 0x%08x\n\t.word entry + 1\n%s",
		armv6m.SRAMBase+armv6m.SRAMSize, src)
	prog, err := thumb.Assemble(asm, armv6m.FlashBase)
	if err != nil {
		t.Fatalf("harness does not assemble: %v", err)
	}
	cpu := armv6m.New()
	if err := cpu.Bus.LoadFlash(0, prog.Code); err != nil {
		t.Fatal(err)
	}
	cpu.Bus.FlashWaitStates = ws
	cpu.EnableTimer()
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	cpu.Cycles, cpu.Instructions = 0, 0
	return cpu, prog
}

// runHarness executes to the BKPT halt on the requested interpreter
// path: "fast" (predecoded), "legacy" (Step loop), "traced" (legacy
// with the given trace attached).
func runHarness(t *testing.T, cpu *armv6m.CPU, path string, tr *armv6m.Trace) {
	t.Helper()
	switch path {
	case "fast":
		cpu.PredecodeNow()
	case "legacy":
		cpu.DisablePredecode = true
	case "traced":
		cpu.DisablePredecode = true
		cpu.Trace = tr
	default:
		t.Fatalf("unknown path %q", path)
	}
	if err := cpu.Run(2_000_000); err != nil {
		t.Fatalf("%s run: %v", path, err)
	}
}

// Offsets of the two marker str instructions inside telemetryHarness's
// entry stub (all 16-bit instructions except the 32-bit bl):
//
//	entry+0  ldr r4, =MBOX
//	entry+2  movs r0, #enter
//	entry+4  str r0, [r4]      <- enter marker store
//	entry+6  ldr r0, =desc
//	entry+8  bl kernel         (4 bytes)
//	entry+12 movs r0, #exit
//	entry+14 str r0, [r4]      <- exit marker store
//	entry+16 bkpt #0
//
// If the harness layout changes these tests fail loudly (the segmenter
// marks never retire), not silently.
const (
	enterStrOff = 4
	exitStrOff  = 14
)

// The core acceptance test: for every kernel variant the generators can
// emit, on both interpreter paths and at multiple wait-state settings,
// the on-device marker stream must agree with host-side trace-hook
// attribution cycle for cycle, and the decoded (corrected) layer cost
// must equal the uninstrumented harness's kernel cost exactly.
func TestVariantAttributionExact(t *testing.T) {
	for _, v := range kernels.Variants() {
		for _, ws := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/ws%d", v.Name, ws), func(t *testing.T) {
				// Uninstrumented reference: total cycles minus the final
				// BKPT (1+ws) is the cost of "ldr r0,=desc; bl kernel".
				ref, _ := bootHarness(t, v.Harness, ws)
				runHarness(t, ref, "fast", nil)
				kernelCost := ref.Cycles - uint64(1+ws)

				// Instrumented run on the fast path.
				fast, _ := bootHarness(t, v.TelemetryHarness, ws)
				runHarness(t, fast, "fast", nil)
				fastEvents := fast.Bus.Timer.Events

				// Same program on the legacy path: bit-identical counters
				// and event stream required.
				leg, _ := bootHarness(t, v.TelemetryHarness, ws)
				runHarness(t, leg, "legacy", nil)
				if leg.Cycles != fast.Cycles || leg.Instructions != fast.Instructions {
					t.Fatalf("legacy %d cyc / %d instr, fast %d cyc / %d instr",
						leg.Cycles, leg.Instructions, fast.Cycles, fast.Instructions)
				}
				if len(leg.Bus.Timer.Events) != len(fastEvents) {
					t.Fatalf("legacy %d events, fast %d", len(leg.Bus.Timer.Events), len(fastEvents))
				}
				for i, e := range leg.Bus.Timer.Events {
					if e != fastEvents[i] {
						t.Fatalf("event %d: legacy %+v, fast %+v", i, e, fastEvents[i])
					}
				}

				// Host-side cross-check: a trace-hook segmenter watching
				// the two marker stores must reproduce the peripheral's
				// timestamps exactly.
				tra, prog := bootHarness(t, v.TelemetryHarness, ws)
				entry := prog.Symbols["entry"]
				seg := NewHostSegmenter([]uint32{entry + enterStrOff, entry + exitStrOff})
				tr := armv6m.NewTrace()
				seg.Attach(tr)
				runHarness(t, tra, "traced", tr)
				if tra.Cycles != fast.Cycles {
					t.Fatalf("traced %d cycles, fast %d", tra.Cycles, fast.Cycles)
				}
				if len(fastEvents) != 2 {
					t.Fatalf("got %d events, want 2", len(fastEvents))
				}
				for i, m := range seg.Marks {
					if !m.Hit {
						t.Fatalf("marker store %d never retired (harness layout changed?)", i)
					}
					if m.After != fastEvents[i].Cycles {
						t.Errorf("event %d: host-attributed %d cycles, peripheral stamped %d",
							i, m.After, fastEvents[i].Cycles)
					}
				}

				// Decode and verify the closed-form corrections.
				spans, err := Decode(fastEvents, ws)
				if err != nil {
					t.Fatal(err)
				}
				if len(spans) != 1 || spans[0].Layer != 0 {
					t.Fatalf("spans = %+v", spans)
				}
				if spans[0].Cycles != kernelCost {
					t.Errorf("corrected span %d cycles, uninstrumented kernel cost %d",
						spans[0].Cycles, kernelCost)
				}
				if got, want := fast.Cycles-ref.Cycles, Overhead(1, ws); got != want {
					t.Errorf("instrumentation added %d cycles, closed form says %d", got, want)
				}
			})
		}
	}
}

func TestDecodeRejectsMalformedStreams(t *testing.T) {
	ev := func(marker uint32, cyc uint64) armv6m.TimerEvent {
		return armv6m.TimerEvent{Marker: marker, Cycles: cyc}
	}
	cases := []struct {
		name   string
		events []armv6m.TimerEvent
	}{
		{"odd count", []armv6m.TimerEvent{ev(0, 10)}},
		{"exit first", []armv6m.TimerEvent{ev(1, 10), ev(0, 20)}},
		{"wrong layer order", []armv6m.TimerEvent{ev(2, 10), ev(3, 20), ev(0, 30), ev(1, 40)}},
		{"mismatched pair", []armv6m.TimerEvent{ev(0, 10), ev(3, 20)}},
		{"non-causal", []armv6m.TimerEvent{ev(0, 10), ev(1, 11)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(c.events, 0); err == nil {
				t.Error("malformed stream decoded without error")
			}
		})
	}
	good := []armv6m.TimerEvent{ev(0, 10), ev(1, 100), ev(2, 110), ev(3, 300)}
	spans, err := Decode(good, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Cycles != 87 || spans[1].Cycles != 187 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestOverheadFormula(t *testing.T) {
	if MarkerCost(0) != 3 || MarkerCost(1) != 5 {
		t.Errorf("MarkerCost: %d, %d", MarkerCost(0), MarkerCost(1))
	}
	if PrologueCost(0) != 2 || PrologueCost(1) != 4 {
		t.Errorf("PrologueCost: %d, %d", PrologueCost(0), PrologueCost(1))
	}
	if Overhead(3, 0) != 2+3*2*3 {
		t.Errorf("Overhead(3,0) = %d", Overhead(3, 0))
	}
}

func TestReportTableRenders(t *testing.T) {
	r := &Report{
		Schema: Schema, ClockHz: device.ClockHz,
		TotalCycles: 1000, LayerCycles: 900, OtherCycles: 100,
		Layers: []LayerRecord{
			{Index: 0, Kernel: "k_block_c1", Cycles: 600, Share: 0.6},
			{Index: 1, Kernel: "k_csc_c1_i1", Cycles: 300, Share: 0.3},
		},
	}
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"k_block_c1", "k_csc_c1_i1", "[layers]", "[other]", "[total]"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("[markers]")) {
		t.Errorf("deployed-image table has a markers row:\n%s", out)
	}
}
