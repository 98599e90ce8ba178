package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Run-timeline spans and their Chrome trace-event serialization
// (neuroc-timeline/v1), loadable in Perfetto or chrome://tracing.
//
// A span tree is batch -> inference -> layer. Every span carries the
// two domains:
//
//   - Cycle domain: StartCycles/Cycles, exact device cycles. The cycle
//     timeline is the *virtual serial* execution — inferences
//     concatenated in input order on one track — so its bytes are
//     identical at any worker count and on any execution tier, and the
//     layer attribution (sum of layer spans + other == inference, sum
//     of inferences == batch) holds to the cycle.
//   - Wall domain: WallStartNS/WallDurNS/Worker, host wall-clock with
//     one track per worker. Included only when requested (the CLI
//     default); never golden-pinned or gated.
//
// Trace-event mapping: one "X" (complete) event per span; ts/dur are
// microseconds (cycles scaled by the device clock for the cycle
// domain), pid 1 is the cycle domain, pid 2 the wall domain, and "M"
// metadata events name the tracks. Exact cycle counts ride in args, so
// validation never depends on the float timestamps.

// TimelineSchema identifies the document format.
const TimelineSchema = "neuroc-timeline/v1"

// Span cat values.
const (
	CatBatch     = "batch"
	CatInference = "inference"
	CatLayer     = "layer"
)

// SpanArgs is the per-span annotation block: exact cycle accounting,
// energy, and codegen identity.
type SpanArgs struct {
	StartCycles uint64 `json:"start_cycles"`
	Cycles      uint64 `json:"cycles"`

	// Inference spans: the layer attribution split (layer_cycles +
	// other_cycles == cycles, exactly). Zero-valued (omitted) on
	// batches without layer spans.
	LayerCycles uint64 `json:"layer_cycles,omitempty"`
	OtherCycles uint64 `json:"other_cycles,omitempty"`

	Kernel   string  `json:"kernel,omitempty"`   // layer spans: accumulate kernel symbol
	Encoding string  `json:"encoding,omitempty"` // resolved adjacency encoding
	Tier     string  `json:"tier,omitempty"`     // batch span: execution tier
	Worker   int     `json:"worker,omitempty"`   // wall-domain events: owning board
	UJ       float64 `json:"uj,omitempty"`       // active energy priced from Cycles
}

// Span is one node of the run-timeline tree.
type Span struct {
	Name     string
	Cat      string // CatBatch, CatInference, CatLayer
	Args     SpanArgs
	Children []*Span

	// Wall domain (inference spans; zero when not captured).
	WallStartNS int64
	WallDurNS   int64
	Worker      int
}

// TraceEvent is one Chrome trace event. Args is *SpanArgs for span
// events and metaArgs for "M" metadata events.
type TraceEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args interface{} `json:"args,omitempty"`
}

type metaArgs struct {
	Name string `json:"name"`
}

// TimelineMeta is the document's self-description block.
type TimelineMeta struct {
	ClockHz         int    `json:"clock_hz"`
	FlashWaitStates int    `json:"flash_ws"`
	Tier            string `json:"tier,omitempty"`
	Items           int    `json:"items"`
	Workers         int    `json:"workers,omitempty"` // wall domain only
}

// Timeline is the neuroc-timeline/v1 document: standard Chrome trace
// JSON plus a schema tag and a meta block (viewers ignore unknown
// keys).
type Timeline struct {
	Schema          string       `json:"schema"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Meta            TimelineMeta `json:"otherData"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// TimelineOptions configures serialization.
type TimelineOptions struct {
	// ClockHz converts cycle-domain spans to trace microseconds;
	// required (> 0).
	ClockHz int
	// IncludeWall adds the wall-domain process (pid 2). Off for
	// golden-pinned or byte-compared timelines: wall data varies run to
	// run by nature.
	IncludeWall bool
	Meta        TimelineMeta
}

const (
	pidCycles = 1
	pidWall   = 2
)

// NewTimeline serializes a batch span tree. The cycle-domain events are
// a pure function of the tree's cycle fields — deterministic and
// byte-stable; wall-domain events (when enabled) append after them.
func NewTimeline(root *Span, opts TimelineOptions) (*Timeline, error) {
	if opts.ClockHz <= 0 {
		return nil, fmt.Errorf("obs: timeline needs a positive ClockHz, got %d", opts.ClockHz)
	}
	if root == nil || root.Cat != CatBatch {
		return nil, fmt.Errorf("obs: timeline root must be a batch span")
	}
	us := func(cycles uint64) float64 {
		return float64(cycles) * 1e6 / float64(opts.ClockHz)
	}
	t := &Timeline{Schema: TimelineSchema, DisplayTimeUnit: "ms", Meta: opts.Meta}
	t.TraceEvents = append(t.TraceEvents,
		TraceEvent{Name: "process_name", Ph: "M", Pid: pidCycles, Args: metaArgs{"device (cycle domain, virtual serial)"}},
		TraceEvent{Name: "thread_name", Ph: "M", Pid: pidCycles, Tid: 1, Args: metaArgs{"board (input order)"}},
	)
	var emit func(s *Span) error
	emit = func(s *Span) error {
		args := s.Args
		t.TraceEvents = append(t.TraceEvents, TraceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: us(args.StartCycles), Dur: us(args.Cycles),
			Pid: pidCycles, Tid: 1, Args: &args,
		})
		for _, c := range s.Children {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(root); err != nil {
		return nil, err
	}
	if opts.IncludeWall {
		t.TraceEvents = append(t.TraceEvents,
			TraceEvent{Name: "process_name", Ph: "M", Pid: pidWall, Args: metaArgs{"host (wall domain)"}})
		named := map[int]bool{}
		for _, inf := range root.Children {
			if inf.WallDurNS <= 0 && inf.WallStartNS == 0 {
				continue
			}
			tid := inf.Worker + 1
			if !named[tid] {
				named[tid] = true
				t.TraceEvents = append(t.TraceEvents, TraceEvent{
					Name: "thread_name", Ph: "M", Pid: pidWall, Tid: tid,
					Args: metaArgs{fmt.Sprintf("worker %d", inf.Worker)},
				})
			}
			args := inf.Args
			args.Worker = inf.Worker
			t.TraceEvents = append(t.TraceEvents, TraceEvent{
				Name: inf.Name, Cat: inf.Cat, Ph: "X",
				Ts:  float64(inf.WallStartNS) / 1e3,
				Dur: float64(inf.WallDurNS) / 1e3,
				Pid: pidWall, Tid: tid, Args: &args,
			})
		}
	}
	return t, nil
}

// WriteJSON emits the document as indented JSON. For a given span tree
// and options the bytes are fully deterministic (fixed field order, no
// map iteration, shortest-form floats).
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ValidateTimelineJSON checks a serialized timeline's shape and its
// cycle-domain span-tree invariants:
//
//   - schema tag and a positive clock
//   - exactly one batch span; inference spans contained in it,
//     contiguous, in input order, summing exactly to the batch cycles
//   - layer spans contained in their inference; per inference the
//     attribution is exact: sum of layer-span cycles == layer_cycles and
//     layer_cycles + other_cycles == cycles
//
// Wall-domain events (pid 2) are shape-checked only (they are host
// measurements, not invariants).
func ValidateTimelineJSON(data []byte) error {
	var doc struct {
		Schema      string       `json:"schema"`
		Meta        TimelineMeta `json:"otherData"`
		TraceEvents []struct {
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("timeline: not valid JSON: %w", err)
	}
	if doc.Schema != TimelineSchema {
		return fmt.Errorf("timeline: schema %q, want %q", doc.Schema, TimelineSchema)
	}
	if doc.Meta.ClockHz <= 0 {
		return fmt.Errorf("timeline: otherData.clock_hz %d not positive", doc.Meta.ClockHz)
	}
	var batch *SpanArgs
	var infs []SpanArgs
	var layersByInf [][]SpanArgs
	for i, e := range doc.TraceEvents {
		if e.Pid != pidCycles || e.Ph != "X" {
			continue
		}
		var a SpanArgs
		if err := json.Unmarshal(e.Args, &a); err != nil {
			return fmt.Errorf("timeline: event %d (%s): args: %w", i, e.Name, err)
		}
		switch e.Cat {
		case CatBatch:
			if batch != nil {
				return fmt.Errorf("timeline: more than one batch span")
			}
			batch = &a
		case CatInference:
			if batch == nil {
				return fmt.Errorf("timeline: inference span %q before the batch span", e.Name)
			}
			infs = append(infs, a)
			layersByInf = append(layersByInf, nil)
		case CatLayer:
			if len(infs) == 0 {
				return fmt.Errorf("timeline: layer span %q before any inference span", e.Name)
			}
			layersByInf[len(infs)-1] = append(layersByInf[len(infs)-1], a)
		default:
			return fmt.Errorf("timeline: event %d (%s): unknown cat %q", i, e.Name, e.Cat)
		}
	}
	if batch == nil {
		return fmt.Errorf("timeline: no batch span")
	}
	if len(infs) == 0 {
		return fmt.Errorf("timeline: no inference spans")
	}
	if doc.Meta.Items != len(infs) {
		return fmt.Errorf("timeline: otherData.items %d but %d inference spans", doc.Meta.Items, len(infs))
	}
	var cursor, total uint64
	for i, inf := range infs {
		if inf.StartCycles != cursor {
			return fmt.Errorf("timeline: inference %d starts at cycle %d, want %d (virtual serial concatenation)",
				i, inf.StartCycles, cursor)
		}
		cursor += inf.Cycles
		total += inf.Cycles
		var layerSum uint64
		for j, l := range layersByInf[i] {
			if l.StartCycles < inf.StartCycles || l.StartCycles+l.Cycles > inf.StartCycles+inf.Cycles {
				return fmt.Errorf("timeline: inference %d layer %d [%d,+%d) escapes its inference [%d,+%d)",
					i, j, l.StartCycles, l.Cycles, inf.StartCycles, inf.Cycles)
			}
			layerSum += l.Cycles
		}
		if len(layersByInf[i]) > 0 || inf.LayerCycles != 0 {
			if layerSum != inf.LayerCycles {
				return fmt.Errorf("timeline: inference %d layer spans sum to %d cycles, args say layer_cycles=%d",
					i, layerSum, inf.LayerCycles)
			}
			if got := inf.LayerCycles + inf.OtherCycles; got != inf.Cycles {
				return fmt.Errorf("timeline: inference %d: layer+other = %d, want exactly cycles %d",
					i, got, inf.Cycles)
			}
		}
	}
	if total != batch.Cycles {
		return fmt.Errorf("timeline: inference spans sum to %d cycles, batch span says %d", total, batch.Cycles)
	}
	return nil
}
