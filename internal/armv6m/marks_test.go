package armv6m_test

// Tests of the translation table's marks: the cycle totals a
// MarkRecorder reads on the untraced fast path must equal the fetch/decode
// oracle's running totals at the same addresses, placing and recording
// marks must change no observable, and every core state that cannot
// dispatch the marks must be refused by name.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// oracleMarks runs cpu on the fetch/decode oracle, watching addrs as a
// MarkRecorder does: before each instruction whose address is the next
// unhit mark's, it records the cycle total (the running sum of
// per-instruction costs on an exception-free run).
func oracleMarks(cpu *armv6m.CPU, addrs []uint32, budget uint64) ([]uint64, error) {
	var before []uint64
	for i := uint64(0); i < budget; i++ {
		if len(before) < len(addrs) && cpu.R[armv6m.PC] == addrs[len(before)] {
			before = append(before, cpu.Cycles)
		}
		err := armv6m.OracleStep(cpu)
		if err == armv6m.ErrHalted {
			return before, nil
		}
		if err != nil {
			return before, err
		}
	}
	return before, &armv6m.BudgetError{Instructions: budget, PC: cpu.R[armv6m.PC]}
}

// bootMarked boots prog on the translated tier with addrs marked, and
// returns the core and its table.
func bootMarked(t testing.TB, prog *thumb.Program, c *cert.Certificate, ws int, addrs []uint32) (*armv6m.CPU, *armv6m.TranslationTable) {
	t.Helper()
	cpu := bootTier(t, prog, c, ws, "predecoded", false)
	cpu.DisableTranslation = false
	tt := cert.Translate(c, cpu.PredecodeNow(), addrs...)
	cpu.UseTranslation(tt)
	return cpu, tt
}

// placedMarks drops from addrs the marks the table cannot place (inside
// a kept loop or run, misaligned, outside the image).
func placedMarks(t testing.TB, prog *thumb.Program, c *cert.Certificate, addrs []uint32) []uint32 {
	t.Helper()
	_, tt := bootMarked(t, prog, c, 0, addrs)
	var out []uint32
	for i, ok := range tt.MarksPlaced() {
		if ok {
			out = append(out, addrs[i])
		}
	}
	return out
}

// checkMarks runs prog on the oracle and on the translated tier with
// addrs marked and a recorder attached, and requires identical state,
// identical run errors, and the oracle's totals at every mark.
func checkMarks(t *testing.T, name string, prog *thumb.Program, c *cert.Certificate, ws int, addrs []uint32, budget uint64) {
	t.Helper()
	ref := bootTier(t, prog, c, ws, "oracle", false)
	want, refErr := oracleMarks(ref, addrs, budget)
	cpu, _ := bootMarked(t, prog, c, ws, addrs)
	var rec armv6m.MarkRecorder
	if err := cpu.RecordMarks(&rec); err != nil {
		t.Fatalf("%s: RecordMarks: %v", name, err)
	}
	if got, w := fmt.Sprint(cpu.Run(budget)), fmt.Sprint(refErr); got != w {
		t.Fatalf("%s: run: %s, want %s", name, got, w)
	}
	requireSameState(t, name, ref, cpu)
	if got := rec.Before[:rec.Hit]; !slices.Equal(got, want) {
		t.Fatalf("%s: marks %v recorded %v, oracle %v", name, addrs, got, want)
	}
}

// retireOrder lists the distinct instruction addresses the oracle
// retires, in the order each first retires.
func retireOrder(t *testing.T, prog *thumb.Program, c *cert.Certificate) []uint32 {
	t.Helper()
	cpu := bootTier(t, prog, c, 0, "oracle", false)
	seen := map[uint32]bool{}
	var out []uint32
	for i := 0; i < 3_000_000 && !cpu.Halted; i++ {
		pc := cpu.R[armv6m.PC]
		if !seen[pc] {
			seen[pc] = true
			out = append(out, pc)
		}
		if err := armv6m.OracleStep(cpu); err != nil {
			break
		}
	}
	return out
}

// TestTranslateMarks marks the instructions of each certified kernel
// harness that a mark can take — everything outside the kept loops and
// runs — in first-retire order, every one and every third (so inline
// cycles accumulate between marks), and requires each mark's recorded
// total to equal the oracle's running total there, with the whole run
// bit-identical to the oracle, at ws 0-2.
func TestTranslateMarks(t *testing.T) {
	for _, v := range kernels.Variants() {
		prog, c := certifySrc(t, v.Harness, false)
		all := placedMarks(t, prog, c, retireOrder(t, prog, c))
		if len(all) < 4 {
			t.Fatalf("%s: only %d marks placed", v.Name, len(all))
		}
		for _, stride := range []int{1, 3} {
			var addrs []uint32
			for i := 0; i < len(all); i += stride {
				addrs = append(addrs, all[i])
			}
			for ws := 0; ws <= 2; ws++ {
				checkMarks(t, fmt.Sprintf("%s/every%d/ws%d", v.Name, stride, ws), prog, c, ws, addrs, 3_000_000)
			}
		}
	}
}

// TestTranslateMarksRefuse: every core state in which a run would not
// dispatch the marks is refused by RecordMarks with an error naming the
// reason, and so is a mark on a kept loop's head.
func TestTranslateMarksRefuse(t *testing.T) {
	prog, c := certifySrc(t, gatherDeviationSrc("misaligned-cursor", 1, "r5", "r0", "adds", false), false)
	head, ok := prog.Symbols["loop"]
	if !ok {
		t.Fatal("harness has no loop label")
	}
	entry := prog.Symbols["entry"]
	for _, tc := range []struct {
		name  string
		marks []uint32
		setup func(*armv6m.CPU)
		want  string
	}{
		{"no-marks", nil, nil, "watches no address"},
		{"traced", []uint32{entry}, func(c *armv6m.CPU) { c.Trace = armv6m.NewTrace() }, "traced"},
		{"on-demand", []uint32{entry}, func(c *armv6m.CPU) { c.DisablePredecode = true }, "predecode disabled"},
		{"predecoded", []uint32{entry}, func(c *armv6m.CPU) { c.DisableTranslation = true }, "not in use"},
		{"systick", []uint32{entry}, func(c *armv6m.CPU) { c.SysTick.Configure(4800) }, "SysTick armed"},
		{"loop-head", []uint32{entry, head}, nil, "lands on the certified loop"},
		{"misaligned", []uint32{entry + 1}, nil, "misaligned"},
		{"outside", []uint32{armv6m.FlashBase + armv6m.FlashSize}, nil, "outside the predecoded image"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, tt := bootMarked(t, prog, c, 0, tc.marks)
			if tt.GatherLoops() != 1 {
				t.Fatal("harness loop does not lower to a gather loop")
			}
			if tc.setup != nil {
				tc.setup(cpu)
			}
			rec := armv6m.MarkRecorder{Hit: 7}
			err := cpu.RecordMarks(&rec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RecordMarks: %v, want an error naming %q", err, tc.want)
			}
			var me *armv6m.MarkError
			if isMark := errors.As(err, &me); isMark != (tc.name == "loop-head" || tc.name == "misaligned" || tc.name == "outside") {
				t.Fatalf("RecordMarks: %v: *MarkError %v", err, isMark)
			}
			if rec.Hit != 7 {
				t.Fatal("a refused recorder was modified")
			}
		})
	}
}
