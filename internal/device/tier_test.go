package device_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// TestCheckedKeepsCallerTraceIntact is the regression test for the
// checker/trace attachment seam: a caller-supplied trace hook under
// Checked execution must still fire on every retired instruction, see
// the exact same event stream an unchecked run produces, and get its
// OnInstr restored (not left chained to checker state) when the run
// returns.
func TestCheckedKeepsCallerTraceIntact(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	in := []int8{10, 3, -5, 20}

	record := func(checked bool) ([]armv6m.InstrInfo, *armv6m.Trace, func(armv6m.InstrInfo)) {
		dev, err := device.New(img)
		if err != nil {
			t.Fatal(err)
		}
		dev.Checked = checked
		var events []armv6m.InstrInfo
		hook := func(ii armv6m.InstrInfo) { events = append(events, ii) }
		tr := armv6m.NewTrace()
		tr.OnInstr = hook
		if _, err := dev.RunTraced(in, tr); err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		return events, tr, hook
	}

	plain, _, _ := record(false)
	checked, tr, hook := record(true)

	if len(checked) == 0 {
		t.Fatal("user hook never fired under checked execution")
	}
	if len(plain) != len(checked) {
		t.Fatalf("user hook saw %d events under checked execution, %d unchecked", len(checked), len(plain))
	}
	for i := range plain {
		if plain[i] != checked[i] {
			t.Fatalf("event %d differs under checked execution:\nchecked:   %+v\nunchecked: %+v", i, checked[i], plain[i])
		}
	}
	if got, want := reflect.ValueOf(tr.OnInstr).Pointer(), reflect.ValueOf(hook).Pointer(); got != want {
		t.Error("trace.OnInstr was not restored to the caller's hook after the checked run")
	}
}

// cpuSnapshot captures every architectural observable of a core.
type cpuSnapshot struct {
	R            [16]uint32
	N, Z, C, V   bool
	Cycles       uint64
	Instructions uint64
	Halted       bool
	FlashReads   uint64
	SRAMReads    uint64
	SRAMWrites   uint64
	SRAM         []byte
}

func snapshot(cpu *armv6m.CPU) cpuSnapshot {
	return cpuSnapshot{
		R: cpu.R, N: cpu.N, Z: cpu.Z, C: cpu.C, V: cpu.V,
		Cycles: cpu.Cycles, Instructions: cpu.Instructions, Halted: cpu.Halted,
		FlashReads: cpu.Bus.FlashReads, SRAMReads: cpu.Bus.SRAMReads, SRAMWrites: cpu.Bus.SRAMWrites,
		SRAM: append([]byte(nil), cpu.Bus.SRAM...),
	}
}

// TestCheckedWithoutCertLeavesBoardUntouched is the regression test for
// the validation order: a checked run refused for lack of a certificate
// must fail before CPU.Reset() (or anything else) mutates the board.
func TestCheckedWithoutCertLeavesBoardUntouched(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	stripped := *img
	stripped.Cert = nil
	dev, err := device.New(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	dev.Checked = true
	before := snapshot(dev.CPU)
	_, err = dev.Run([]int8{10, 3, -5, 20})
	if err == nil || !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("expected certificate error, got %v", err)
	}
	after := snapshot(dev.CPU)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("failed checked run mutated the board:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// Same guarantee for an explicitly requested translated tier on a
	// certificate-less image.
	dev.Checked = false
	dev.Tier = device.TierTranslated
	if _, err := dev.Run([]int8{10, 3, -5, 20}); err == nil {
		t.Fatal("translated tier on a certificate-less image did not error")
	}
	if after2 := snapshot(dev.CPU); !reflect.DeepEqual(before, after2) {
		t.Error("refused translated-tier run mutated the board")
	}
}

// TestTierParityAndSelection runs the same inference on every explicit
// tier and requires identical outputs, cycles, instructions, and bus
// counters; it also pins the translated tier's rejection rules.
func TestTierParityAndSelection(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	in := []int8{10, 3, -5, 20}

	results := map[device.Tier]*device.Result{}
	for _, tier := range []device.Tier{device.TierLegacy, device.TierPredecoded, device.TierTranslated, device.TierAuto} {
		dev, err := device.New(img)
		if err != nil {
			t.Fatal(err)
		}
		if tier == device.TierTranslated && !dev.CPU.TranslationAttached() {
			t.Fatal("certified model image has no certified-loop table attached")
		}
		dev.Tier = tier
		res, err := dev.Run(in)
		if err != nil {
			t.Fatalf("tier %q: %v", tier, err)
		}
		results[tier] = res
	}
	ref := results[device.TierLegacy]
	for tier, res := range results {
		if !reflect.DeepEqual(res.Output, ref.Output) {
			t.Errorf("tier %q: output %v, want %v", tier, res.Output, ref.Output)
		}
		if res.Cycles != ref.Cycles || res.Instructions != ref.Instructions {
			t.Errorf("tier %q: cycles/instrs %d/%d, want %d/%d",
				tier, res.Cycles, res.Instructions, ref.Cycles, ref.Instructions)
		}
	}

	// Meaningless combinations are rejected rather than silently run on
	// a different tier.
	dev, _ := device.New(img)
	dev.Tier = device.TierTranslated
	dev.Checked = true
	if _, err := dev.Run(in); err == nil || !strings.Contains(err.Error(), "translated tier") {
		t.Errorf("translated+checked: want rejection, got %v", err)
	}
	dev.Checked = false
	if _, err := dev.RunProfiled(in); err == nil || !strings.Contains(err.Error(), "translated tier") {
		t.Errorf("translated+profiled: want rejection, got %v", err)
	}
	if _, err := dev.Run(in); err != nil {
		t.Errorf("translated tier after rejected combos: %v", err)
	}
}

// TestSharedTranslationTable pins that FlashImage boards share one
// certified-loop table, that device.New boots from a FlashImage of its own,
// and that translated boards agree with a legacy-tier board.
func TestSharedTranslationTable(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := device.NewFlashImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Trans == nil {
		t.Fatal("FlashImage built no certified-loop table for a certified image")
	}
	in := []int8{10, 3, -5, 20}
	b1, b2 := fi.NewBoard(), fi.NewBoard()
	b1.Tier, b2.Tier = device.TierTranslated, device.TierTranslated
	r1, err := b1.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Flash != fi || b2.Flash != fi {
		t.Error("boards do not record the FlashImage they booted from")
	}
	legacy, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Flash == nil || legacy.Flash == fi || legacy.Flash.Trans == nil {
		t.Error("device.New did not boot from a translated FlashImage of its own")
	}
	legacy.Tier = device.TierLegacy
	r3, err := legacy.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*device.Result{r2, r3} {
		if !reflect.DeepEqual(r.Output, r1.Output) || r.Cycles != r1.Cycles || r.Instructions != r1.Instructions {
			t.Errorf("boards disagree: %+v vs %+v", r, r1)
		}
	}
}

func TestParseTier(t *testing.T) {
	for _, s := range []string{"", "auto", "legacy", "predecoded", "translated"} {
		if _, err := device.ParseTier(s); err != nil {
			t.Errorf("ParseTier(%q): %v", s, err)
		}
	}
	if _, err := device.ParseTier("jit"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}
