package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"github.com/neuro-c/neuroc/internal/obs"
)

// spec is the part of the repository's BENCHMARK.json the program must
// agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinySizes shrinks every workload to well under a second.
func tinySizes() sizes {
	return sizes{
		SetupReps: 1, MinRounds: 1,
		EvalHidden: []int{16, 8}, EvalDensity: []float64{0.08, 0.15, 0.30},
		DenseHidden: []int{8}, EvalBatch: 24, EvalWarmup: 8,
		SweepOuts: []int{16}, SweepDensity: 0.10, SweepRows: 4, SweepProbeOut: 16,
		PipeHidden: []int{16, 8}, PipeTrain: 200, PipePool: 100, PipeTest: 50, PipeEpochs: 1,
		ProbeReps: 1, ProbeWall: 40, ProbeMIPSSeconds: 0.002,
	}
}

func runTiny(t *testing.T, w workload, seed uint64, trace bool) (*record, *tracer) {
	t.Helper()
	rec, tr, err := runWorkload(w, config{Seed: seed, Trace: trace, Sizes: tinySizes()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.FailedFrac != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d operations failed (failed_frac %v), problems %q",
			w.name, rec.Correct, rec.Failed, rec.Attempted, rec.FailedFrac, rec.Problems)
	}
	return rec, tr
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, s.Workloads[i].Name, w.name)
		}
	}
}

// Every run emits exactly the metrics BENCHMARK.json names, with their
// units: the end-to-end ones untraced, the per-layer ones traced.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, tr := runTiny(t, w, 1, trace)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if trace {
				checkChromeTrace(t, w.name, tr)
			}
		}
	}
}

// checkChromeTrace decodes the trace a traced run writes and checks
// that every span became a complete event whose self time fits inside
// its duration.
func checkChromeTrace(t *testing.T, name string, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: trace is not JSON: %v", name, err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		complete++
		args, _ := e.Args.(map[string]any)
		if self, _ := args["self_us"].(float64); self < 0 || self > e.Dur+1e-3 {
			t.Errorf("%s: %s has self time %v of %v µs", name, e.Name, self, e.Dur)
		}
	}
	if complete != len(tr.spans) || complete == 0 {
		t.Errorf("%s: %d complete events for %d spans", name, complete, len(tr.spans))
	}
}

// The models are fixed and the seed only draws the inputs: the same seed
// repeats every exact metric, another seed changes the inputs but keeps
// the device figures and the metric names.
func TestSeedDrawsInputsOnly(t *testing.T) {
	for _, w := range workloads {
		a, _ := runTiny(t, w, 1, false)
		b, _ := runTiny(t, w, 1, false)
		c, _ := runTiny(t, w, 2, false)
		for _, name := range []string{"device_cycles", "flash_bytes", "accuracy_device"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s %v then %v on the same seed", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.InputsDigest != b.InputsDigest {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if a.InputsDigest == c.InputsDigest {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w.name)
		}
		for _, name := range []string{"device_cycles", "flash_bytes"} {
			if a.Metrics[name] != c.Metrics[name] {
				t.Errorf("%s: %s %v on seed 1, %v on seed 2", w.name, name, a.Metrics[name].Value, c.Metrics[name].Value)
			}
		}
		for name := range a.Metrics {
			if _, ok := c.Metrics[name]; !ok {
				t.Errorf("%s: seed 2 does not emit %s", w.name, name)
			}
		}
	}
}

// A step is scaled by the mean of the reference samples beside it, and
// the clock records one step per lap with the samples in order.
func TestRefClockSteps(t *testing.T) {
	s := step{Wall: 3, Ref0: refNominal, Ref1: 3 * refNominal}
	if got := s.scaled(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("scaled %v, want 1.5", got)
	}
	var rc refClock
	rc.begin()
	rc.lap()
	rc.lap()
	steps := rc.take()
	if len(steps) != 2 || len(rc.take()) != 0 {
		t.Fatalf("%d steps, want 2 and then none", len(steps))
	}
	if steps[1].Ref0 != steps[0].Ref1 {
		t.Errorf("second step starts from sample %v, first ended on %v", steps[1].Ref0, steps[0].Ref1)
	}
	for _, s := range steps {
		if s.Wall < 0 || s.Ref0 <= 0 || s.Ref1 <= 0 {
			t.Errorf("step %+v", s)
		}
	}
	var none *refClock
	none.begin() // a nil clock times nothing
	none.lap()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "eval-dense", "-trace", "2"},
		{"-workload", "eval-dense", "-seconds", "-1"},
		{"-workload", "eval-dense", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
