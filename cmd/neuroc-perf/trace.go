package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/neuro-c/neuroc/internal/obs"
)

// span is one traced call from the benchmark into a repository package.
type span struct {
	name   string // package-qualified call, e.g. "modelimg.BuildOpts"
	label  string // variant of the call: encoding, tier, or ""
	items  int    // work items the call processed (inputs, samples), 0 if not counted
	parent int    // index of the enclosing span, -1 at top level
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records a span around every call the benchmark makes, kept in
// memory and written out when the run ends. The benchmark calls into
// the repository from one goroutine, so spans nest strictly. A nil
// *tracer records nothing; untraced runs pass nil.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// span runs f inside a span named name/label.
func (t *tracer) span(name, label string, items int, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, label: label, items: items, parent: parent, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	err := f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.origin)
	return err
}

// matching returns the spans named name, restricted to label unless
// label is "*".
func (t *tracer) matching(name, label string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name && (label == "*" || s.label == label) {
			out = append(out, s)
		}
	}
	return out
}

// has reports whether any span named name was recorded.
func (t *tracer) has(name string) bool { return len(t.matching(name, "*")) > 0 }

// p50 is the median duration of the matching spans, in the given unit
// (time.Second, time.Millisecond, ...); 0 when none matched.
func (t *tracer) p50(name, label string, unit time.Duration) float64 {
	var ds []float64
	for _, s := range t.matching(name, label) {
		ds = append(ds, float64(s.dur())/float64(unit))
	}
	return median(ds)
}

// perItem is the matching spans' total duration divided by their total
// items, in unit per item; 0 when no items were counted.
func (t *tracer) perItem(name string, unit time.Duration) float64 {
	var total time.Duration
	items := 0
	for _, s := range t.matching(name, "*") {
		total += s.dur()
		items += s.items
	}
	if items == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(items)
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children never overlap (calls are sequential), so the
// covered time is the sum of their durations.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// writeSelfSummary prints total self time per call name, largest first.
func (t *tracer) writeSelfSummary(w io.Writer, top int) {
	totals := map[string]time.Duration{}
	calls := map[string]int{}
	for i, d := range t.selfTimes() {
		totals[t.spans[i].name] += d
		calls[t.spans[i].name]++
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]] != totals[names[j]] {
			return totals[names[i]] > totals[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > top {
		names = names[:top]
	}
	fmt.Fprintln(w, "self time by call:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %10.1f ms  %6d calls\n", n, float64(totals[n])/float64(time.Millisecond), calls[n])
	}
}

// writeChrome writes every span as a complete ("X") event of the Chrome
// trace-event format, which Perfetto and chrome://tracing load. Times
// are microseconds from the start of the run.
func (t *tracer) writeChrome(w io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []obs.TraceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "neuroc-perf " + t.workload},
	}}
	self := t.selfTimes()
	for i, s := range t.spans {
		name := s.name
		if s.label != "" {
			name += " " + s.label
		}
		args := map[string]any{"workload": t.workload, "self_us": us(self[i])}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		if s.items > 0 {
			args["items"] = s.items
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, obs.TraceEvent{
			Name: name, Cat: cat, Ph: "X", Ts: us(s.start), Dur: us(s.dur()),
			Pid: 1, Tid: 1, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []obs.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}{events, "ms"})
}
