package obs

import (
	"bytes"
	"strings"
	"testing"
)

// buildTestTree assembles a small valid batch tree by hand: two
// inferences, the first with two layer spans satisfying the exactness
// contract.
func buildTestTree() *Span {
	return &Span{
		Name: "batch", Cat: CatBatch,
		Args: SpanArgs{Cycles: 300, Tier: "auto"},
		Children: []*Span{
			{
				Name: "inference 0", Cat: CatInference,
				Args: SpanArgs{StartCycles: 0, Cycles: 100, LayerCycles: 80, OtherCycles: 20},
				Children: []*Span{
					{Name: "layer 0 k_a", Cat: CatLayer, Args: SpanArgs{StartCycles: 10, Cycles: 50, Kernel: "k_a"}},
					{Name: "layer 1 k_b", Cat: CatLayer, Args: SpanArgs{StartCycles: 65, Cycles: 30, Kernel: "k_b"}},
				},
				WallStartNS: 1000, WallDurNS: 5000, Worker: 1,
			},
			{
				Name: "inference 1", Cat: CatInference,
				Args:        SpanArgs{StartCycles: 100, Cycles: 200},
				WallStartNS: 2000, WallDurNS: 7000, Worker: 0,
			},
		},
	}
}

func serialize(t *testing.T, root *Span, opts TimelineOptions) []byte {
	t.Helper()
	tl, err := NewTimeline(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func testOpts(includeWall bool) TimelineOptions {
	return TimelineOptions{
		ClockHz:     8_000_000,
		IncludeWall: includeWall,
		Meta:        TimelineMeta{ClockHz: 8_000_000, Items: 2, Tier: "auto"},
	}
}

// TestValidateTimelineAccepts: a well-formed document passes, with and
// without the wall domain.
func TestValidateTimelineAccepts(t *testing.T) {
	for _, wall := range []bool{false, true} {
		data := serialize(t, buildTestTree(), testOpts(wall))
		if err := ValidateTimelineJSON(data); err != nil {
			t.Fatalf("wall=%v: %v", wall, err)
		}
	}
}

// TestValidateTimelineRejects mutates one invariant at a time and
// demands a rejection naming it — the validator is a CI gate, so a
// silently-passing broken document is the failure mode to pin against.
func TestValidateTimelineRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(root *Span)
		errPart string
	}{
		{"gap between inferences", func(r *Span) {
			r.Children[1].Args.StartCycles = 150
		}, "virtual serial"},
		{"batch sum broken", func(r *Span) {
			r.Args.Cycles = 999
		}, "batch span says"},
		{"layer escapes inference", func(r *Span) {
			r.Children[0].Children[1].Args.StartCycles = 95
		}, "escapes"},
		{"layer sum mismatch", func(r *Span) {
			r.Children[0].Children[0].Args.Cycles = 49
			r.Children[0].Args.Cycles = 99 // keep containment; break layer_cycles sum
		}, "layer"},
		{"exactness contract broken", func(r *Span) {
			r.Children[0].Args.OtherCycles = 6
		}, "want exactly"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := buildTestTree()
			c.mutate(root)
			err := ValidateTimelineJSON(serialize(t, root, testOpts(false)))
			if err == nil {
				t.Fatalf("mutation %q validated", c.name)
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("mutation %q: error %q does not mention %q", c.name, err, c.errPart)
			}
		})
	}

	if err := ValidateTimelineJSON([]byte(`{"schema":"bogus"}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("bad schema: %v", err)
	}
	if err := ValidateTimelineJSON([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON validated")
	}
}

// TestNewTimelineShape pins the serialization policy: cycle-domain
// events always present on pid 1 in DFS pre-order, wall events only on
// request, metadata names the tracks.
func TestNewTimelineShape(t *testing.T) {
	tl, err := NewTimeline(buildTestTree(), testOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range tl.TraceEvents {
		if e.Ph == "X" {
			if e.Pid != 1 {
				t.Fatalf("cycle-only timeline has pid %d event", e.Pid)
			}
			names = append(names, e.Name)
		}
	}
	want := []string{"batch", "inference 0", "layer 0 k_a", "layer 1 k_b", "inference 1"}
	if len(names) != len(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (DFS pre-order)", i, names[i], want[i])
		}
	}
	// Cycle->µs conversion: 100 cycles at 8 MHz is 12.5 µs.
	for _, e := range tl.TraceEvents {
		if e.Name == "inference 0" {
			if e.Dur != 12.5 {
				t.Fatalf("inference 0 dur %v µs, want 12.5", e.Dur)
			}
		}
	}

	wallTL, err := NewTimeline(buildTestTree(), testOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	var wallEvents, wallThreads int
	for _, e := range wallTL.TraceEvents {
		if e.Pid == 2 && e.Ph == "X" {
			wallEvents++
		}
		if e.Pid == 2 && e.Name == "thread_name" {
			wallThreads++
		}
	}
	if wallEvents != 2 || wallThreads != 2 {
		t.Fatalf("wall domain: %d events on %d worker tracks, want 2 on 2", wallEvents, wallThreads)
	}

	// Errors: no clock, wrong root.
	if _, err := NewTimeline(buildTestTree(), TimelineOptions{}); err == nil {
		t.Fatal("zero ClockHz accepted")
	}
	if _, err := NewTimeline(&Span{Cat: CatInference}, testOpts(false)); err == nil {
		t.Fatal("non-batch root accepted")
	}
}

// TestTimelineBytesDeterministic: same tree, same options, same bytes.
func TestTimelineBytesDeterministic(t *testing.T) {
	a := serialize(t, buildTestTree(), testOpts(false))
	b := serialize(t, buildTestTree(), testOpts(false))
	if !bytes.Equal(a, b) {
		t.Fatal("two serializations of the same tree differ")
	}
}

// TestFarmCollectorLayers: lazily-created layer series accumulate and
// price correctly, concurrently.
func TestFarmCollectorLayers(t *testing.T) {
	reg := NewRegistry()
	c := NewFarmCollector(reg, 0.5)
	c.StartBatch(4, 2, "auto")
	for i := 0; i < 4; i++ {
		c.Observe(100, 50, false)
		c.ObserveLayer(0, "k_a", 60)
		c.ObserveLayer(1, "k_b", 30)
	}
	c.Observe(0, 10, true)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"neuroc_inferences_total 4",
		"neuroc_inference_failures_total 1",
		"neuroc_energy_uj_total 200",
		"neuroc_batch_done 5",
		`neuroc_tier_info{tier="auto"} 1`,
		`neuroc_layer_cycles_count{kernel="k_a",layer="0"} 4`,
		`neuroc_layer_uj_total{kernel="k_b",layer="1"} 60`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "neuroc_telemetry_dropped_total") {
		t.Errorf("retired dropped-events family still registered:\n%s", out)
	}
}
