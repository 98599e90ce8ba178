package farm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// testImage builds a small two-layer ternary model image.
func testImage(t testing.TB) *modelimg.Image {
	t.Helper()
	r := rng.New(42)
	mkLayer := func(in, out int, relu bool) *quant.Layer {
		a := encoding.NewMatrix(in, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				if r.Bool(0.2) {
					if r.Bool(0.5) {
						a.Set(o, i, 1)
					} else {
						a.Set(o, i, -1)
					}
				}
			}
		}
		l := &quant.Layer{
			Kind: quant.Ternary, In: in, Out: out, A: a,
			PerNeuron: true, ReLU: relu,
			PreShift: 0, PostShift: 7,
			Bias:  make([]int32, out),
			Mults: make([]int32, out),
		}
		for o := 0; o < out; o++ {
			l.Mults[o] = int32(r.Intn(100)) + 60
			l.Bias[o] = int32(r.Intn(21)) - 10
		}
		return l
	}
	m := &quant.Model{
		Layers:     []*quant.Layer{mkLayer(32, 24, true), mkLayer(24, 10, false)},
		InputScale: 127,
	}
	img, err := modelimg.Build(m, modelimg.UseBlock)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

func testInputs(n, dim int) [][]int8 {
	r := rng.New(7)
	inputs := make([][]int8, n)
	for i := range inputs {
		in := make([]int8, dim)
		for j := range in {
			in[j] = int8(r.Intn(255) - 127)
		}
		inputs[i] = in
	}
	return inputs
}

// TestDeterminismAcrossWorkerCounts is the farm's core contract: the
// same batch through -j 1 and -j 8 produces bit-identical outputs and
// per-input cycle counts, and both match the serial device path.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(50, img.InDim)

	serialDev, err := device.New(img)
	if err != nil {
		t.Fatal(err)
	}

	r1, s1, err := farm.Map(img, inputs, farm.Options{Workers: 1})
	if err != nil {
		t.Fatalf("-j 1: %v", err)
	}
	r8, s8, err := farm.Map(img, inputs, farm.Options{Workers: 8})
	if err != nil {
		t.Fatalf("-j 8: %v", err)
	}
	if s1.Workers != 1 || s8.Workers != 8 {
		t.Fatalf("worker counts %d/%d, want 1/8", s1.Workers, s8.Workers)
	}
	for i := range inputs {
		serial, err := serialDev.Run(inputs[i])
		if err != nil {
			t.Fatalf("serial input %d: %v", i, err)
		}
		for _, got := range []farm.Result{r1[i], r8[i]} {
			if got.Err != nil {
				t.Fatalf("input %d: %v", i, got.Err)
			}
			if fmt.Sprint(got.Output) != fmt.Sprint(serial.Output) {
				t.Errorf("input %d: farm output %v, serial %v", i, got.Output, serial.Output)
			}
			if got.Cycles != serial.Cycles || got.Instructions != serial.Instructions {
				t.Errorf("input %d: farm %d cycles / %d instrs, serial %d / %d",
					i, got.Cycles, got.Instructions, serial.Cycles, serial.Instructions)
			}
		}
	}
	if s1.TotalCycles != s8.TotalCycles || s1.MinCycles != s8.MinCycles || s1.MaxCycles != s8.MaxCycles {
		t.Errorf("aggregate cycles differ across -j: %+v vs %+v", s1, s8)
	}
	if s1.Instructions != s8.Instructions || s1.Instructions == 0 {
		t.Errorf("instruction totals %d/%d, want equal and non-zero", s1.Instructions, s8.Instructions)
	}
	if s8.HostMIPS() <= 0 || s8.PredecodeBuild <= 0 {
		t.Errorf("throughput stats not populated: MIPS %v, predecode %v", s8.HostMIPS(), s8.PredecodeBuild)
	}
}

// TestRaceStressSharedImage hammers one shared image from many workers
// over several rounds; run under -race (scripts/verify.sh does) this
// proves the shared-flash design has no data races.
func TestRaceStressSharedImage(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(120, img.InDim)
	want, _, err := farm.Map(img, inputs, farm.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		got, _, err := farm.Map(img, inputs, farm.Options{Workers: 16})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got {
			if fmt.Sprint(got[i].Output) != fmt.Sprint(want[i].Output) || got[i].Cycles != want[i].Cycles {
				t.Fatalf("round %d input %d diverged", round, i)
			}
		}
	}
}

// TestSharedPredecodeTableRace exercises the one-table-many-cores
// design directly: a single FlashImage (one flash array, one predecoded
// execution table) is handed to many goroutines that each boot private
// boards and run inferences concurrently. Under -race (scripts/verify.sh
// runs this package with it) any write to the shared table or flash
// during execution is a hard failure; the result check proves the
// sharing is also semantically inert.
func TestSharedPredecodeTableRace(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(16, img.InDim)
	fi, err := device.NewFlashImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Table.BuildTime() <= 0 {
		t.Error("shared image has no predecode build time")
	}

	serial := fi.NewBoard()
	want := make([]string, len(inputs))
	for i := range inputs {
		res, err := serial.Run(inputs[i])
		if err != nil {
			t.Fatalf("serial input %d: %v", i, err)
		}
		want[i] = fmt.Sprint(res.Output, res.Cycles)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine boots a fresh board per round, so board
			// construction (which binds the shared table) races with
			// other goroutines' execution.
			for round := 0; round < 3; round++ {
				board := fi.NewBoard()
				for i := range inputs {
					res, err := board.Run(inputs[i])
					if err != nil {
						errs <- fmt.Errorf("input %d: %w", i, err)
						return
					}
					if got := fmt.Sprint(res.Output, res.Cycles); got != want[i] {
						errs <- fmt.Errorf("input %d: %s, want %s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkFarmMap measures batch throughput through the full farm
// path — shared predecode table, worker pool, per-input core reset —
// and reports the aggregate emulation rate in emulated MIPS.
func BenchmarkFarmMap(b *testing.B) {
	img := testImage(b)
	inputs := testInputs(256, img.InDim)
	var instructions uint64
	var wall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := farm.Map(img, inputs, farm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instructions += stats.Instructions
		wall += stats.Wall
	}
	b.StopTimer()
	if wall > 0 {
		b.ReportMetric(float64(instructions)/wall.Seconds()/1e6, "MIPS")
	}
	b.ReportMetric(float64(len(inputs)*b.N)/b.Elapsed().Seconds(), "inf/s")
}

// spinImage hand-assembles an image that never reaches BKPT, for
// exercising the instruction-budget error path.
func spinImage(t *testing.T) *modelimg.Image {
	t.Helper()
	src := fmt.Sprintf(`	.word 0x%08x
	.word entry + 1
entry:
	b entry
	bkpt #0
`, armv6m.SRAMBase+armv6m.SRAMSize)
	prog, err := thumb.Assemble(src, armv6m.FlashBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return &modelimg.Image{
		Prog:   prog,
		InAddr: armv6m.SRAMBase, OutAddr: armv6m.SRAMBase + 16,
		InDim: 1, OutDim: 1,
	}
}

// TestBudgetErrorDoesNotWedgePool runs a never-halting image through
// the pool: every item must surface a BudgetError, the pool must drain
// (no deadlock), and the aggregate error must be the lowest-index
// item's, independent of worker count.
func TestBudgetErrorDoesNotWedgePool(t *testing.T) {
	img := spinImage(t)
	inputs := testInputs(12, 1)
	for _, workers := range []int{1, 6} {
		results, stats, err := farm.Map(img, inputs, farm.Options{Workers: workers, Budget: 10_000})
		if err == nil {
			t.Fatalf("-j %d: no error from a never-halting image", workers)
		}
		var be *armv6m.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("-j %d: error %v, want BudgetError", workers, err)
		}
		if want := fmt.Sprintf("farm: input 0:"); err.Error()[:len(want)] != want {
			t.Errorf("-j %d: aggregate error %q not the lowest-index item's", workers, err)
		}
		if stats.Failed != len(inputs) {
			t.Errorf("-j %d: %d failures, want %d", workers, stats.Failed, len(inputs))
		}
		for i, r := range results {
			if r.Err == nil {
				t.Errorf("-j %d: input %d unexpectedly succeeded", workers, i)
			}
			if r.Argmax() != -1 {
				t.Errorf("-j %d: failed input %d has an argmax", workers, i)
			}
		}
	}
}

// TestMixedFailure checks that one bad item (wrong input length) fails
// alone while the rest of the batch completes.
func TestMixedFailure(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(10, img.InDim)
	inputs[3] = make([]int8, img.InDim+1)
	results, stats, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err == nil {
		t.Fatal("no aggregate error for a bad item")
	}
	if stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1", stats.Failed)
	}
	for i, r := range results {
		if (r.Err != nil) != (i == 3) {
			t.Errorf("input %d: err = %v", i, r.Err)
		}
	}
}

// TestRunReusesFlashImage pins the flash-once, run-many contract: batches
// run on one FlashImage match Map's freshly flashed image bit for bit at
// any pool size, and each reports the image's one-time table build costs.
func TestRunReusesFlashImage(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(40, img.InDim)
	ref, _, err := farm.Map(img, inputs, farm.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := device.NewFlashImage(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5} {
		got, stats, err := farm.Run(fi, inputs, farm.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if fmt.Sprint(got[i].Output) != fmt.Sprint(ref[i].Output) || got[i].Cycles != ref[i].Cycles {
				t.Fatalf("-j %d input %d: Run %+v, Map %+v", workers, i, got[i], ref[i])
			}
		}
		if stats.PredecodeBuild != fi.Table.BuildTime() || stats.TranslateBuild != fi.TransBuild {
			t.Errorf("-j %d: build costs %v/%v, want the image's %v/%v", workers,
				stats.PredecodeBuild, stats.TranslateBuild, fi.Table.BuildTime(), fi.TransBuild)
		}
	}
}

// TestConfigureAppliesToEveryBoard verifies per-board configuration
// (here: one flash wait state) reaches all workers — every item must
// report more cycles than the zero-wait-state run.
func TestConfigureAppliesToEveryBoard(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(20, img.InDim)
	base, _, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := farm.Map(img, inputs, farm.Options{
		Workers:   4,
		Configure: func(d *device.Device) { d.CPU.Bus.FlashWaitStates = 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if ws[i].Cycles <= base[i].Cycles {
			t.Fatalf("input %d: wait-state run %d cycles <= base %d", i, ws[i].Cycles, base[i].Cycles)
		}
	}
}

// TestCheckedMapMatchesUnchecked: certificate-checked execution across
// the pool produces bit-identical outputs and cycle counts to the
// plain run, with zero per-item failures.
func TestCheckedMapMatchesUnchecked(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(20, img.InDim)
	plain, _, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checked, _, err := farm.Map(img, inputs, farm.Options{Workers: 4, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if checked[i].Err != nil {
			t.Fatalf("input %d: checked run failed: %v", i, checked[i].Err)
		}
		if checked[i].Cycles != plain[i].Cycles {
			t.Fatalf("input %d: checked %d cycles, plain %d", i, checked[i].Cycles, plain[i].Cycles)
		}
		if fmt.Sprint(checked[i].Output) != fmt.Sprint(plain[i].Output) {
			t.Fatalf("input %d: outputs diverge: %v vs %v", i, checked[i].Output, plain[i].Output)
		}
	}
}

// TestSharedFlashRejectsOversizedImage covers the LoadFlash error path
// end to end: an image larger than flash is a reported failure.
func TestSharedFlashRejectsOversizedImage(t *testing.T) {
	img := spinImage(t)
	img.Prog.Code = make([]byte, armv6m.FlashSize+4)
	if _, _, err := farm.Map(img, testInputs(1, 1), farm.Options{}); err == nil {
		t.Error("oversized image accepted")
	}
	if _, err := device.New(img); err == nil {
		t.Error("device.New accepted an oversized image")
	}
}

// TestTierParityAcrossFarm pins that an explicit execution tier changes
// only host speed: outputs, cycles, and instruction counts per input are
// bit-identical across legacy, predecoded, and translated farms, and an
// unhonorable tier request fails the whole batch up front.
func TestTierParityAcrossFarm(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(20, img.InDim)

	ref, _, err := farm.Map(img, inputs, farm.Options{Workers: 4, Tier: device.TierLegacy})
	if err != nil {
		t.Fatalf("legacy farm: %v", err)
	}
	for _, tier := range []device.Tier{device.TierPredecoded, device.TierTranslated, device.TierAuto} {
		got, _, err := farm.Map(img, inputs, farm.Options{Workers: 4, Tier: tier})
		if err != nil {
			t.Fatalf("tier %q farm: %v", tier, err)
		}
		for i := range ref {
			if fmt.Sprint(got[i].Output) != fmt.Sprint(ref[i].Output) ||
				got[i].Cycles != ref[i].Cycles || got[i].Instructions != ref[i].Instructions {
				t.Fatalf("tier %q input %d diverges: %+v vs %+v", tier, i, got[i], ref[i])
			}
		}
	}

	if _, _, err := farm.Map(img, inputs, farm.Options{Tier: device.TierTranslated, Checked: true}); err == nil {
		t.Error("translated+checked farm did not fail up front")
	}
	stripped := *img
	stripped.Cert = nil
	if _, _, err := farm.Map(&stripped, inputs, farm.Options{Tier: device.TierTranslated}); err == nil {
		t.Error("translated farm on a certificate-less image did not fail up front")
	}
	if _, _, err := farm.Map(img, inputs, farm.Options{Tier: device.Tier("jit")}); err == nil {
		t.Error("unknown tier did not fail up front")
	}
}
