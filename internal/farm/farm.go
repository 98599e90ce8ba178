// Package farm runs a pool of independent emulated boards over a batch
// of inputs: the emulated equivalent of a board farm, where one
// immutable program image is flashed onto many devices and a test set
// is split across them. Each worker owns a full Cortex-M0 core with
// private SRAM and counters; all workers alias one read-only flash
// array (the core cannot write flash, so sharing is race-free by
// construction — see armv6m.NewBusSharedFlash).
//
// Results are deterministic and bit-identical to the serial path: every
// inference starts from an architectural core reset with its input
// buffer fully rewritten, so an input's output vector and cycle count
// depend only on the image and the input, never on which worker ran it,
// in what order, or how many workers exist. Run and Map preserve input
// order.
package farm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
)

// Options configures a Run (or Map) batch.
type Options struct {
	// Workers is the number of emulated boards; <= 0 uses
	// runtime.GOMAXPROCS(0). Determinism does not depend on it.
	Workers int

	// Budget overrides the per-inference instruction budget when
	// non-zero (0 uses device.MaxInstructions). A budget-exhausted
	// inference surfaces as that item's Result.Err; it never wedges the
	// pool or affects other items.
	Budget uint64

	// Configure, when non-nil, is applied to each worker's board after
	// boot — the hook for cycle-model variations (wait states, slow
	// multiplier, core profile). It must apply the same configuration
	// to every board, or results stop being worker-independent.
	Configure func(*device.Device)

	// Checked runs every inference in certificate-checked mode
	// (device.Device.Checked): each board validates every retired
	// instruction against the image's neuroc-cert/v1 certificate, and a
	// mismatch surfaces as that item's Err. Slower (tracing path) but
	// architecturally bit-identical.
	Checked bool

	// Tier pins the execution tier on every board (device.Device.Tier).
	// The zero value (TierAuto) keeps the fastest available tier; an
	// explicit tier that cannot be honored — TierTranslated without a
	// certificate, or combined with Checked — fails the whole batch up
	// front rather than per item, since no input could ever succeed.
	// TierTranslated is the predecoded interpreter plus the
	// certified-loop fast path, honoured for every certified image.
	Tier device.Tier

	// Observe, when non-nil, is called once per completed item, from
	// the worker that ran it, right after results[i] is written — the
	// live-metrics hook (obs.FarmCollector). It runs concurrently from
	// every worker and must be safe for that; the pointee is fully
	// written and never touched again by the farm. The time spent
	// inside Observe calls is accounted in Stats.ObserveOverhead. A nil
	// Observe adds nothing to the per-inference hot path.
	Observe func(i int, r *Result)
}

// Result is the measurement for one input, at the same index Run
// received it.
type Result struct {
	Output       []int8
	Cycles       uint64
	Instructions uint64
	// SleepCycles is the WFI idle portion of Cycles (see
	// device.Result.SleepCycles); zero for ordinary inference images.
	SleepCycles uint64
	// Telemetry is the on-device layer-marker stream for this inference
	// (telemetry images only, see device.Result.Telemetry). Each board
	// owns a private timer peripheral, so capture stays race-free under
	// any worker count.
	Telemetry []armv6m.TimerEvent
	// TelemetryDropped counts mailbox events lost to the capture cap.
	TelemetryDropped uint64
	// Err is the per-item failure (bus fault, budget exhaustion).
	// Items with Err != nil have no Output.
	Err error

	// Worker is the pool index of the board that ran this item — a
	// wall-domain fact (which worker got which item depends on host
	// scheduling); the cycle-domain fields above never depend on it.
	Worker int
	// HostStartNS and HostDurNS place this item on the host wall
	// clock, relative to the batch start (obs wall-domain spans).
	// Banded, never gated: they vary run to run by nature.
	HostStartNS int64
	HostDurNS   int64
}

// Argmax returns the index of the largest output, the class decision
// for classifier images; -1 when the item failed.
func (r *Result) Argmax() int {
	if r.Err != nil || len(r.Output) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(r.Output); i++ {
		if r.Output[i] > r.Output[best] {
			best = i
		}
	}
	return best
}

// Stats aggregates a Run batch.
type Stats struct {
	Items   int           // inputs processed
	Failed  int           // items with Err != nil
	Workers int           // pool size actually used
	Wall    time.Duration // host wall-clock for the whole batch

	// Cycle statistics over successful items (all zero when none).
	TotalCycles, MinCycles, MaxCycles, MeanCycles uint64

	// Instructions is the total retired over successful items, the
	// numerator of the host-throughput figure (HostMIPS).
	Instructions uint64

	// PredecodeBuild is the one-time host cost of decoding the image
	// into the execution table shared by every worker: the FlashImage's
	// Table.BuildTime(), paid when the image was flashed, not per batch.
	PredecodeBuild time.Duration

	// TranslateBuild is the one-time host cost of building the shared
	// certified-loop table from the image's certificate (zero when the
	// image carries none): the FlashImage's Trans.BuildTime().
	TranslateBuild time.Duration

	// WallHist is the per-inference host wall-nanosecond distribution
	// over successful items (wall domain, banded; see internal/obs).
	// Cycle counts need no distribution: the kernels are branch-free,
	// so MinCycles == MaxCycles on every batch.
	WallHist *obs.Hist

	// ObserveOverhead is the total host time spent inside
	// Options.Observe callbacks, summed across workers; zero when no
	// observer is installed. It bounds what live metrics cost the run.
	ObserveOverhead time.Duration
}

// LatencyMS is the mean emulated latency per successful inference.
func (s *Stats) LatencyMS() float64 { return device.CyclesToMS(s.MeanCycles) }

// Throughput is successful inferences per host second.
func (s *Stats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Items-s.Failed) / s.Wall.Seconds()
}

// HostMIPS is the emulation rate: millions of emulated instructions
// retired per host second, summed across workers.
func (s *Stats) HostMIPS() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Instructions) / s.Wall.Seconds() / 1e6
}

// Map flashes img (device.NewFlashImage) and runs the inputs on it; see
// Run. Callers that evaluate one image repeatedly build the FlashImage
// once and call Run instead.
func Map(img *modelimg.Image, inputs [][]int8, opts Options) ([]Result, *Stats, error) {
	fi, err := device.NewFlashImage(img)
	if err != nil {
		return nil, nil, err
	}
	return Run(fi, inputs, opts)
}

// Run runs every input through the flash image on a pool of emulated
// boards and returns one Result per input, in input order. All items are
// always attempted — a failing item is recorded and the pool moves on —
// and the returned error, non-nil if any item failed, is the
// lowest-index item's error (deterministic regardless of worker count
// or scheduling). The caller can therefore either treat the batch as
// all-or-nothing via the error, or inspect per-item Errs.
func Run(fi *device.FlashImage, inputs [][]int8, opts Options) ([]Result, *Stats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) && len(inputs) > 0 {
		workers = len(inputs)
	}
	// No input could succeed under an unknown or unhonorable tier, so
	// fail the whole batch before spawning workers.
	switch opts.Tier {
	case device.TierAuto, device.TierLegacy, device.TierPredecoded:
	case device.TierTranslated:
		if opts.Checked {
			return nil, nil, fmt.Errorf("farm: translated tier cannot run checked")
		}
		if fi.Trans == nil {
			return nil, nil, fmt.Errorf("farm: translated tier requires an image certificate")
		}
	default:
		return nil, nil, fmt.Errorf("farm: unknown tier %q", string(opts.Tier))
	}
	start := time.Now()
	results := make([]Result, len(inputs))
	// Per-worker histograms: each worker records its own items without
	// synchronization, and the merge after the barrier is exact bucket
	// addition (tested: obs.TestHistMergeProperty).
	wallHists := make([]obs.Hist, workers)
	var observeNS atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			board := fi.NewBoard()
			board.Budget = opts.Budget
			board.Checked = opts.Checked
			board.Tier = opts.Tier
			if opts.Configure != nil {
				opts.Configure(board)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				itemStart := time.Now()
				res, err := board.Run(inputs[i])
				dur := time.Since(itemStart)
				if err != nil {
					results[i] = Result{Err: fmt.Errorf("farm: input %d: %w", i, err)}
				} else {
					results[i] = Result{
						Output:           res.Output,
						Cycles:           res.Cycles,
						Instructions:     res.Instructions,
						SleepCycles:      res.SleepCycles,
						Telemetry:        res.Telemetry,
						TelemetryDropped: res.TelemetryDropped,
					}
					wallHists[w].Record(uint64(dur.Nanoseconds()))
				}
				results[i].Worker = w
				results[i].HostStartNS = itemStart.Sub(start).Nanoseconds()
				results[i].HostDurNS = dur.Nanoseconds()
				if opts.Observe != nil {
					obsStart := time.Now()
					opts.Observe(i, &results[i])
					observeNS.Add(time.Since(obsStart).Nanoseconds())
				}
			}
		}(w)
	}
	wg.Wait()

	stats := &Stats{
		Items: len(inputs), Workers: workers, Wall: time.Since(start),
		PredecodeBuild:  fi.Table.BuildTime(),
		WallHist:        &obs.Hist{},
		ObserveOverhead: time.Duration(observeNS.Load()),
	}
	if fi.Trans != nil {
		stats.TranslateBuild = fi.Trans.BuildTime()
	}
	for w := range wallHists {
		stats.WallHist.Merge(&wallHists[w])
	}
	var firstErr error
	for i := range results {
		if results[i].Err != nil {
			stats.Failed++
			if firstErr == nil {
				firstErr = results[i].Err
			}
			continue
		}
		stats.Instructions += results[i].Instructions
		c := results[i].Cycles
		stats.TotalCycles += c
		if stats.MinCycles == 0 || c < stats.MinCycles {
			stats.MinCycles = c
		}
		if c > stats.MaxCycles {
			stats.MaxCycles = c
		}
	}
	if ok := stats.Items - stats.Failed; ok > 0 {
		stats.MeanCycles = stats.TotalCycles / uint64(ok)
	}
	return results, stats, firstErr
}
