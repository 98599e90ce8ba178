package telemetry

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/energy"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
)

// Run-timeline construction: the bridge from the exact substrates (farm
// results, the deployed image's measured layer spans) to the obs span
// model. The cycle-domain tree is the virtual serial execution —
// inferences concatenated in input order — so its serialized form is
// byte-identical at any worker count and on any execution tier. Every
// inference nests the same layer spans, measured once on the deployed
// image (HostLayerSpans) and laid out from the inference's cycle start;
// they sum, with the entry glue, to the inference total, cycle for
// cycle.

// TimelineConfig configures BuildTimeline.
type TimelineConfig struct {
	// FlashWaitStates is the ws the batch ran at.
	FlashWaitStates int
	// Tier labels the batch span ("auto", "legacy", ...). Informational.
	Tier string
	// Energy, when non-nil, prices every span's cycles into its UJ arg.
	Energy *energy.Model
	// IncludeWall adds the host wall-clock domain (per-worker tracks).
	// Leave off for byte-compared or golden-pinned timelines.
	IncludeWall bool
}

// BuildBatchSpans folds a farm run of img into a batch span tree whose
// inferences nest img's layer spans, measured once (HostLayerSpans,
// measured total cycles). Failed items carry no cycles and are skipped;
// a successful item of any other cost than measured is an error naming
// it.
func BuildBatchSpans(img *modelimg.Image, spans []Span, measured uint64, results []farm.Result, cfg TimelineConfig) (*obs.Span, error) {
	root := &obs.Span{Name: "batch", Cat: obs.CatBatch, Args: obs.SpanArgs{Tier: cfg.Tier}}
	var cursor uint64
	for i := range results {
		res := &results[i]
		if res.Err != nil {
			continue
		}
		inf := &obs.Span{
			Name: fmt.Sprintf("inference %d", i),
			Cat:  obs.CatInference,
			Args: obs.SpanArgs{StartCycles: cursor, Cycles: res.Cycles},

			WallStartNS: res.HostStartNS,
			WallDurNS:   res.HostDurNS,
			Worker:      res.Worker,
		}
		if err := checkRow(fmt.Sprintf("item %d", i), res.Cycles, measured); err != nil {
			return nil, err
		}
		for _, s := range spans {
			layer := &obs.Span{
				Name: fmt.Sprintf("layer %d %s", s.Layer, s.Kernel),
				Cat:  obs.CatLayer,
				Args: obs.SpanArgs{StartCycles: cursor + s.Enter, Cycles: s.Cycles, Kernel: s.Kernel},
			}
			if s.Layer < len(img.Encodings) {
				layer.Args.Encoding = img.Encodings[s.Layer].String()
			}
			inf.Args.LayerCycles += s.Cycles
			inf.Children = append(inf.Children, layer)
		}
		inf.Args.OtherCycles = res.Cycles - inf.Args.LayerCycles
		cursor += res.Cycles
		root.Children = append(root.Children, inf)
	}
	if len(root.Children) == 0 {
		return nil, fmt.Errorf("timeline: no successful inferences to place on the timeline")
	}
	root.Args.Cycles = cursor
	if cfg.Energy != nil {
		priceSpans(root, cfg.Energy)
	}
	return root, nil
}

// priceSpans annotates every span with its active energy.
func priceSpans(s *obs.Span, m *energy.Model) {
	s.Args.UJ = m.ActiveUJ(s.Args.Cycles)
	for _, c := range s.Children {
		priceSpans(c, m)
	}
}

// BuildTimeline is BuildBatchSpans plus serialization to the
// neuroc-timeline/v1 document.
func BuildTimeline(img *modelimg.Image, spans []Span, measured uint64, results []farm.Result, cfg TimelineConfig) (*obs.Timeline, error) {
	root, err := BuildBatchSpans(img, spans, measured, results, cfg)
	if err != nil {
		return nil, err
	}
	meta := obs.TimelineMeta{
		ClockHz:         device.ClockHz,
		FlashWaitStates: cfg.FlashWaitStates,
		Tier:            cfg.Tier,
		Items:           len(root.Children),
	}
	if cfg.IncludeWall {
		maxWorker := 0
		for _, inf := range root.Children {
			if inf.Worker > maxWorker {
				maxWorker = inf.Worker
			}
		}
		meta.Workers = maxWorker + 1
	}
	return obs.NewTimeline(root, obs.TimelineOptions{
		ClockHz:     device.ClockHz,
		IncludeWall: cfg.IncludeWall,
		Meta:        meta,
	})
}
