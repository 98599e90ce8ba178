package bench

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/obs"
)

// withDuplicate returns the committed baseline with a second
// farm-digits-j1 record, one cycle long, prepended: the original record
// moves to index 1.
func withDuplicate(t testing.TB, baseline []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(baseline, &doc); err != nil {
		t.Fatal(err)
	}
	exps := doc["experiments"].([]any)
	for _, e := range exps {
		if rec := e.(map[string]any); rec["name"] == "farm-digits-j1" {
			dup := maps.Clone(rec)
			dup["cycles"] = 1
			doc["experiments"] = append([]any{dup}, exps...)
			data, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	t.Fatal("baseline has no farm-digits-j1 record")
	return nil
}

// TestMetricsGateRejectsDuplicateNames: a repeated experiment name must
// fail both the validator and the comparison, on either side, rather
// than let one record shadow the other.
func TestMetricsGateRejectsDuplicateNames(t *testing.T) {
	base, err := os.ReadFile("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetricsJSON(base); err != nil {
		t.Fatalf("committed baseline rejected: %v", err)
	}
	dup := withDuplicate(t, base)
	const want = `experiments 0 and 1 are both named "farm-digits-j1"`
	if err := ValidateMetricsJSON(dup); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ValidateMetricsJSON: error = %v, want substring %q", err, want)
	}
	if err := CompareMetricsJSON(base, dup); err == nil || !strings.Contains(err.Error(), "candidate: "+want) {
		t.Errorf("CompareMetricsJSON(baseline, duplicate): error = %v, want substring %q", err, "candidate: "+want)
	}
	if err := CompareMetricsJSON(dup, base); err == nil || !strings.Contains(err.Error(), "baseline: "+want) {
		t.Errorf("CompareMetricsJSON(duplicate, baseline): error = %v, want substring %q", err, "baseline: "+want)
	}
}

// FuzzValidateMetricsJSON feeds arbitrary bytes to the readers behind
// metricscheck. ValidateMetricsJSON, CompareMetricsJSON and
// obs.ValidateTimelineJSON must return rather than panic, and a
// document that validates must compare equal to itself. The seeds are the committed baseline, a
// minimal document, the baseline with a duplicated name, and a small
// timeline.
func FuzzValidateMetricsJSON(f *testing.F) {
	base, err := os.ReadFile("../../BENCH_BASELINE.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	f.Add([]byte(validExp(`"params":1`)))
	f.Add(withDuplicate(f, base))
	tl, err := obs.NewTimeline(&obs.Span{
		Name: "batch", Cat: obs.CatBatch, Args: obs.SpanArgs{Cycles: 100},
		Children: []*obs.Span{{
			Name: "inference 0", Cat: obs.CatInference,
			Args: obs.SpanArgs{Cycles: 100, LayerCycles: 80, OtherCycles: 20},
			Children: []*obs.Span{
				{Name: "layer 0 k_a", Cat: obs.CatLayer, Args: obs.SpanArgs{StartCycles: 10, Cycles: 80, Kernel: "k_a"}},
			},
		}},
	}, obs.TimelineOptions{ClockHz: 8_000_000, Meta: obs.TimelineMeta{ClockHz: 8_000_000, Items: 1}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	if err := obs.ValidateTimelineJSON(buf.Bytes()); err != nil {
		f.Fatalf("timeline seed rejected: %v", err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = obs.ValidateTimelineJSON(data)
		valid := ValidateMetricsJSON(data) == nil
		if err := CompareMetricsJSON(data, data); valid && err != nil {
			t.Fatalf("a valid document differs from itself: %v", err)
		}
	})
}
