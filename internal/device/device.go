// Package device is the measurement harness: it boots a flash image on
// the emulated STM32F072 (Cortex-M0, 8 MHz, 128 KB flash, 16 KB SRAM),
// feeds quantized inputs, runs inference to the BKPT halt, and reports
// outputs, cycle counts, and latency — the emulated equivalent of the
// paper's TIM2-based measurement loop.
package device

import (
	"errors"
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/energy"
	"github.com/neuro-c/neuroc/internal/modelimg"
)

// ClockHz is the paper's system clock (8 MHz, zero flash wait states).
const ClockHz = 8_000_000

// EnergyModel is the calibrated electrical model of the emulated board
// at its fixed operating point: STM32F072 datasheet currents at ClockHz,
// zero component adders, so it reduces to the paper's P_active·t
// identity. Every harness that prices cycles shares this one model.
func EnergyModel() energy.Model { return energy.STM32F072Model(ClockHz) }

// MaxInstructions is the default per-inference instruction budget,
// bounding a single inference against runaway kernels (the largest
// deployable model is well under this). It is exported so every harness
// that drives a raw CPU — the bench ablations, the farm, the CLI tools —
// shares one budget instead of inventing private caps that silently
// truncate cycle counts.
const MaxInstructions = 200_000_000

// Result is one inference measurement.
type Result struct {
	Output       []int8
	Cycles       uint64
	Instructions uint64

	// SleepCycles is the WFI idle portion of Cycles (zero for ordinary
	// inference images, which never sleep). ActiveCycles() is the
	// complement; energy accounting prices the two at different
	// operating points.
	SleepCycles uint64

	// Trace carries the full cycle-attribution breakdown when the
	// inference ran through RunProfiled; nil for plain Run.
	Trace *armv6m.Trace

	// StackPeakBytes is the deepest stack usage observed below the reset
	// SP (exception stacking included). Only measured when a trace was
	// attached (RunProfiled); zero otherwise.
	StackPeakBytes uint32

	// Telemetry is the on-device event stream captured by the emulated
	// timer peripheral during this inference — the layer markers a
	// telemetry image stores into the mailbox, each stamped with the
	// exact retire-time cycle count. Nil unless the image was built with
	// modelimg.BuildOptions.Telemetry. Decode with internal/telemetry.
	Telemetry []armv6m.TimerEvent

	// TelemetryDropped counts mailbox events lost to the capture cap
	// (armv6m.DefaultTimerMaxEvents); nonzero means Telemetry is
	// incomplete and per-layer attribution must not be trusted.
	TelemetryDropped uint64
}

// ActiveCycles is the non-sleep portion of Cycles.
func (r *Result) ActiveCycles() uint64 { return r.Cycles - r.SleepCycles }

// LatencyMS converts cycles to milliseconds at the device clock. A
// zero-cycle result (nothing executed) reports zero latency.
func (r *Result) LatencyMS() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(ClockHz) * 1000
}

// CPI is cycles per retired instruction, 0 when nothing retired.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// CyclesToMS converts a raw cycle count to milliseconds at ClockHz.
func CyclesToMS(cycles uint64) float64 {
	return float64(cycles) / float64(ClockHz) * 1000
}

// Tier selects the execution tier for a device's runs. Every tier
// executes the same instruction handlers (docs/EMULATOR.md, "Execution
// tiers"); they differ only in how instructions reach them. The zero
// value picks the fastest path available: the predecoded table, with
// the certified-loop fast path when the image carries a certificate.
// The explicit tiers pin a run to one path — for differential testing
// or benchmarking a specific tier. TierTranslated is the predecoded
// table plus the certified-loop fast path; TierPredecoded is the table
// alone; TierLegacy uses no table and decodes every fetch on demand.
type Tier string

// Execution tiers, slowest to fastest.
const (
	TierAuto       Tier = ""
	TierLegacy     Tier = "legacy"
	TierPredecoded Tier = "predecoded"
	TierTranslated Tier = "translated"
)

// Device is a booted board holding a loaded image.
type Device struct {
	CPU *armv6m.CPU
	Img *modelimg.Image

	// Flash is the immutable image the board booted from. Further
	// boards booted from it (a farm's workers) share its flash array
	// and execution tables with this one.
	Flash *FlashImage

	// Tier pins the execution tier for every Run; TierAuto (the zero
	// value) uses the fastest path available. TierTranslated fails the
	// run when the image carries no certificate, and when combined with
	// tracing or checked execution (those retire through the tracing
	// interpreter, which would silently be a different tier).
	Tier Tier

	// Budget overrides the per-inference instruction budget when
	// non-zero; zero uses MaxInstructions. Exposed so harnesses that
	// expect non-terminating images (farm regression tests, fuzzing)
	// can bound a run without waiting out the full default budget.
	Budget uint64

	// Checked enables certificate-checked execution: every retired
	// instruction is validated against the image's neuroc-cert/v1
	// certificate (control-flow edges, memory classes, per-block cycle
	// formulas, loop bounds) and any mismatch fails the run with a
	// *cert.CheckError. Requires an image built with a certificate
	// (modelimg attaches one to every build). Checked runs retire
	// through the tracing step path, so they cost tracing overhead but
	// produce bit-identical architectural results.
	Checked bool
}

// New loads img into a fresh board: NewFlashImage(img).NewBoard(). The
// returned device can run many inferences; each Run resets the core but
// keeps flash contents. The predecode and translation tables are built
// here, once per image, so the first inference is as fast as every later
// one, and Device.Flash hands them on to further boards.
func New(img *modelimg.Image) (*Device, error) {
	fi, err := NewFlashImage(img)
	if err != nil {
		return nil, err
	}
	return fi.NewBoard(), nil
}

// SharedFlash returns a full-size flash array populated with img, the
// array every FlashImage board aliases: the emulated core can never
// write flash, so the array is immutable for the lifetime of every
// board referencing it.
func SharedFlash(img *modelimg.Image) ([]byte, error) {
	if len(img.Prog.Code) > armv6m.FlashSize {
		return nil, fmt.Errorf("device: image (%d bytes) exceeds flash (%d bytes)",
			len(img.Prog.Code), armv6m.FlashSize)
	}
	flash := make([]byte, armv6m.FlashSize)
	copy(flash, img.Prog.Code)
	return flash, nil
}

// FlashImage is a program image prepared for mass deployment: the
// shared flash array plus the predecoded execution table built from it,
// both immutable. Booting a board from it (NewBoard) shares everything
// the boards can share — flash bytes and decoded instructions — leaving
// only SRAM, registers, and counters private, so the per-board setup
// cost is O(SRAM) rather than O(image).
type FlashImage struct {
	Img   *modelimg.Image
	Flash []byte
	Table *armv6m.PredecodeTable

	// Trans is the certified-loop table built from the image's
	// certificate (possibly with no loop), nil only when the image has
	// no certificate. It marks the image's layer boundaries
	// (RunBoundaries). Like Table it is immutable and shared by every
	// board.
	Trans *armv6m.TranslationTable

	// boundErr is why the image's layer boundaries are not marked: an
	// image without the boundary labels.
	boundErr error
}

// NewFlashImage builds the shared flash array, predecodes the image
// text once, and — when the image carries a certificate — builds the
// shared certified-loop table with the image's layer boundaries marked.
func NewFlashImage(img *modelimg.Image) (*FlashImage, error) {
	flash, err := SharedFlash(img)
	if err != nil {
		return nil, err
	}
	table := armv6m.Predecode(flash, len(img.Prog.Code))
	bounds, boundErr := img.LayerBoundaries()
	return &FlashImage{
		Img:      img,
		Flash:    flash,
		Table:    table,
		Trans:    cert.Translate(img.Cert, table, bounds...),
		boundErr: boundErr,
	}, nil
}

// NewBoard boots a fresh board on the shared flash and attaches the
// shared predecode and certified-loop tables. The board has private
// SRAM, registers, and counters; only the read-only image is shared. A
// telemetry image gets the timer peripheral its layer markers store
// into; other boards leave the window unmapped, as a plain image never
// references it.
func (f *FlashImage) NewBoard() *Device {
	d := &Device{CPU: armv6m.NewSharedFlash(f.Flash), Img: f.Img, Flash: f}
	if f.Img.Telemetry {
		d.CPU.EnableTimer()
	}
	d.CPU.UsePredecode(f.Table)
	if f.Trans != nil {
		d.CPU.UseTranslation(f.Trans)
	}
	return d
}

// Run executes one inference on input (length must match the model's
// input dimension) and returns outputs and cycle counts.
func (d *Device) Run(input []int8) (*Result, error) {
	return d.run(input, nil, nil)
}

// RunBoundaries is Run that also returns the cycle totals at the image's
// n+1 layer boundaries (modelimg.Image.LayerBoundaries): before[i] is
// the count retired before boundary i's instruction was fetched, so
// before[i+1]-before[i] is layer i's exact cost. The totals are read off
// the marks NewFlashImage placed in the translation table, on the
// untraced fast path. It fails, naming the reason, whenever the marks
// cannot be recorded — a checked run, a tier pinned off translation, no
// certificate, an armed SysTick, a boundary on a certified loop or run —
// and when a boundary never retires in order; it never runs traced
// instead.
func (d *Device) RunBoundaries(input []int8) (res *Result, before []uint64, err error) {
	switch {
	case d.Checked:
		return nil, nil, errors.New("device: boundary totals need an unchecked run (checked runs retire through the tracing interpreter, which dispatches no marks)")
	case d.Tier == TierLegacy || d.Tier == TierPredecoded:
		return nil, nil, fmt.Errorf("device: boundary totals need the translated fast path; tier %q dispatches no marks", string(d.Tier))
	case d.Img.Cert == nil || d.Flash == nil || d.Flash.Trans == nil:
		return nil, nil, errors.New("device: boundary totals need an image certificate (the marks live in its translation table)")
	case d.Flash.boundErr != nil:
		return nil, nil, fmt.Errorf("device: boundary totals: %w", d.Flash.boundErr)
	}
	rec := &armv6m.MarkRecorder{}
	if res, err = d.run(input, nil, rec); err != nil {
		var me *armv6m.MarkError
		if errors.As(err, &me) {
			err = fmt.Errorf("device: boundary %s cannot be marked: %w", d.Img.BoundaryName(me.Index), me)
		}
		return nil, nil, err
	}
	if rec.Hit < len(rec.Before) {
		return nil, nil, fmt.Errorf("device: boundary %s never retired in order", d.Img.BoundaryName(rec.Hit))
	}
	return res, rec.Before, nil
}

// RunProfiled is Run with the emulator's tracing hook attached for the
// duration of the inference: the returned Result carries a Trace whose
// per-PC, per-class, and per-bus-region cycle attribution sums exactly
// to Result.Cycles. Symbolize it with profile.New(res.Trace,
// dev.Img.Prog.Symbols). The cycle and instruction counts are identical
// to an unprofiled Run of the same input.
func (d *Device) RunProfiled(input []int8) (*Result, error) {
	return d.run(input, armv6m.NewTrace(), nil)
}

// RunTraced is RunProfiled with a caller-supplied trace, for callers
// that need hooks (Trace.OnInstr) attached before execution starts —
// the trace-hook layer segmenter internal/telemetry tests RunBoundaries
// against is one.
func (d *Device) RunTraced(input []int8, trace *armv6m.Trace) (*Result, error) {
	return d.run(input, trace, nil)
}

// run runs one inference, traced when trace is non-nil, recording the
// translation table's marks into marks when it is non-nil.
func (d *Device) run(input []int8, trace *armv6m.Trace, marks *armv6m.MarkRecorder) (*Result, error) {
	if len(input) != d.Img.InDim {
		return nil, fmt.Errorf("device: input length %d, want %d", len(input), d.Img.InDim)
	}
	// Validate the whole configuration — tier, certificate, checker —
	// before touching the core, so a refused run leaves the board
	// exactly as it was.
	switch d.Tier {
	case TierAuto:
		d.CPU.DisablePredecode = false
		d.CPU.DisableTranslation = false
	case TierLegacy:
		d.CPU.DisablePredecode = true
	case TierPredecoded:
		d.CPU.DisablePredecode = false
		d.CPU.DisableTranslation = true
	case TierTranslated:
		if d.Img.Cert == nil || !d.CPU.TranslationAttached() {
			return nil, fmt.Errorf("device: translated tier requires an image certificate")
		}
		if d.Checked || trace != nil {
			return nil, fmt.Errorf("device: translated tier cannot run traced or checked (those retire through the tracing interpreter); use TierAuto")
		}
		d.CPU.DisablePredecode = false
		d.CPU.DisableTranslation = false
	default:
		return nil, fmt.Errorf("device: unknown tier %q", string(d.Tier))
	}
	var chk *cert.Checker
	if d.Checked {
		if d.Img.Cert == nil {
			return nil, fmt.Errorf("device: checked execution requires an image certificate")
		}
		var err error
		chk, err = cert.NewChecker(d.Img.Cert, d.CPU)
		if err != nil {
			return nil, fmt.Errorf("device: checked execution: %w", err)
		}
		if trace == nil {
			trace = armv6m.NewTrace()
		}
		// The checker chains behind any caller-supplied hook and is
		// detached afterwards, so the caller's trace comes back with
		// its own hook intact and its events unmodified.
		detach := chk.Attach(trace)
		defer detach()
	}
	if err := d.CPU.Reset(); err != nil {
		return nil, err
	}
	initialSP := d.CPU.R[armv6m.SP]
	d.CPU.Cycles = 0
	d.CPU.Instructions = 0
	d.CPU.SleepCycles = 0
	d.CPU.Trace = trace
	defer func() { d.CPU.Trace = nil }()
	if marks != nil {
		if err := d.CPU.RecordMarks(marks); err != nil {
			return nil, fmt.Errorf("device: %w", err)
		}
		defer d.CPU.RecordMarks(nil)
	}
	if t := d.CPU.Bus.Timer; t != nil {
		t.Reset()
	}
	// Write quantized input into the SRAM input buffer.
	for i, v := range input {
		if err := d.CPU.Bus.Write8(d.Img.InAddr+uint32(i), uint32(uint8(v))); err != nil {
			return nil, fmt.Errorf("device: writing input: %w", err)
		}
	}
	budget := d.Budget
	if budget == 0 {
		budget = MaxInstructions
	}
	if err := d.CPU.Run(budget); err != nil {
		// A certificate mismatch explains most checked-mode failures
		// better than the downstream fault it can cause; prefer it.
		if chk != nil && chk.Err() != nil {
			return nil, fmt.Errorf("device: checked execution: %w", chk.Err())
		}
		return nil, fmt.Errorf("device: inference: %w", err)
	}
	if chk != nil {
		if err := chk.Finish(); err != nil {
			return nil, fmt.Errorf("device: checked execution: %w", err)
		}
	}
	out := make([]int8, d.Img.OutDim)
	for i := range out {
		v, err := d.CPU.Bus.Read8(d.Img.OutAddr + uint32(i))
		if err != nil {
			return nil, fmt.Errorf("device: reading output: %w", err)
		}
		out[i] = int8(uint8(v))
	}
	res := &Result{Output: out, Cycles: d.CPU.Cycles, Instructions: d.CPU.Instructions, SleepCycles: d.CPU.SleepCycles, Trace: trace}
	if trace != nil {
		res.StackPeakBytes = trace.StackPeak(initialSP)
	}
	if t := d.CPU.Bus.Timer; t != nil {
		// Copy: the device reuses its timer (and Reset clears Events)
		// across inferences, but results outlive both.
		res.Telemetry = append([]armv6m.TimerEvent(nil), t.Events...)
		res.TelemetryDropped = t.Dropped
	}
	return res, nil
}

// ArmSysTick arms the emulated periodic interrupt with the given period
// in cycles (0 disables). The loaded image must have been built with an
// ISR (modelimg.BuildOptions.ISRWorkLoops) or the first fire faults.
func (d *Device) ArmSysTick(periodCycles int64) {
	d.CPU.SysTick.Configure(periodCycles)
}

// Predict runs inference and returns the argmax class.
func (d *Device) Predict(input []int8) (int, *Result, error) {
	res, err := d.Run(input)
	if err != nil {
		return 0, nil, err
	}
	best := 0
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i] > res.Output[best] {
			best = i
		}
	}
	return best, res, nil
}
