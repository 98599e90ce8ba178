package device_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// TestRunBoundariesMatchesRun: the boundary totals come from the same
// untraced run Run takes — same outputs and counters — and climb from
// the first boundary to the last, within the inference's cycles.
func TestRunBoundariesMatchesRun(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}
	in := []int8{10, 3, -5, 20}
	want, err := dev.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	res, before, err := dev.RunBoundaries(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != want.Cycles || res.Instructions != want.Instructions || !slices.Equal(res.Output, want.Output) {
		t.Fatalf("RunBoundaries %+v, Run %+v", res, want)
	}
	if len(before) != len(img.Layers)+1 {
		t.Fatalf("%d boundary totals, want %d", len(before), len(img.Layers)+1)
	}
	for i := 1; i < len(before); i++ {
		if before[i] <= before[i-1] {
			t.Errorf("boundary %d at %d cycles, not after boundary %d at %d", i, before[i], i-1, before[i-1])
		}
	}
	if before[len(before)-1] >= res.Cycles {
		t.Errorf("boundaries %v past the inference's %d cycles", before, res.Cycles)
	}
}

// TestRunBoundariesRefuses: every board state that cannot record the
// boundary marks, and a boundary that never retires in order, fails
// with an error naming why — never spans measured some other way, and
// never a traced run in its place.
func TestRunBoundariesRefuses(t *testing.T) {
	img, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	withSymbol := func(name string, addr uint32) *modelimg.Image {
		bad := *img
		prog := *img.Prog
		prog.Symbols = maps.Clone(img.Prog.Symbols)
		if addr == 0 {
			delete(prog.Symbols, name)
		} else {
			prog.Symbols[name] = addr
		}
		bad.Prog = &prog
		return &bad
	}
	noCert := *img
	noCert.Cert = nil
	// The block kernel's gather loops run whole in the translated tier;
	// the image's other self-loops do not, and take marks.
	var onLoop *modelimg.Image
	for _, l := range img.Cert.SelfLoops() {
		cand := withSymbol("l0_call", l.Start)
		dev, err := device.New(cand)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dev.RunBoundaries([]int8{10, 3, -5, 20}); err != nil && strings.Contains(err.Error(), "lands on the certified loop") {
			onLoop = cand
			break
		}
	}
	if onLoop == nil {
		t.Fatal("no certified self-loop of the block image refuses a mark")
	}
	for _, c := range []struct {
		name  string
		img   *modelimg.Image
		setup func(*device.Device)
		want  string
	}{
		{"checked", img, func(d *device.Device) { d.Checked = true }, "unchecked run"},
		{"legacy", img, func(d *device.Device) { d.Tier = device.TierLegacy }, `tier "legacy"`},
		{"predecoded", img, func(d *device.Device) { d.Tier = device.TierPredecoded }, `tier "predecoded"`},
		{"systick", img, func(d *device.Device) { d.ArmSysTick(4800) }, "SysTick armed"},
		{"no-certificate", &noCert, nil, "image certificate"},
		{"no-label", withSymbol("entry_end", 0), nil, `no "entry_end" symbol`},
		{"loop-head", onLoop, nil, "boundary l0_call cannot be marked"},
		// Both boundaries on entry_end: the second is matched only after
		// the first has recorded, and never retires again.
		{"never-retires", withSymbol("l0_call", img.Prog.Symbols["entry_end"]), nil, "boundary entry_end never retired in order"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, err := device.New(c.img)
			if err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				c.setup(dev)
			}
			res, before, err := dev.RunBoundaries([]int8{10, 3, -5, 20})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want an error naming %q", err, c.want)
			}
			if res != nil || before != nil {
				t.Fatalf("refused run returned %+v, %v", res, before)
			}
			if dev.CPU.Trace != nil {
				t.Fatal("refused run left a trace attached")
			}
		})
	}
}
