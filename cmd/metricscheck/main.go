// Command metricscheck validates and compares metrics JSON files
// emitted by `neuroc-bench -metrics` (neuroc-metrics/v1).
//
// Validate one file — it must parse, carry the schema, define no key
// the schema does not, and every experiment record must contain the
// required keys. Energy keys (uj_per_inference, the energy calibration
// block, per-layer uj) are optional but type-checked wherever present:
// each must be a finite, non-negative JSON number, so a NaN-as-string or
// negative figure fails validation rather than flowing into downstream
// tooling:
//
//	metricscheck bench_quick.json
//
// Compare a fresh run against a committed baseline — every key is
// deterministic (cycle counts, instructions, accuracy, footprints,
// per-layer cycles, and the energy keys, which are priced from exact
// cycle counts by a fixed model) and must match EXACTLY. Host speed is
// not in the document; cmd/neuroc-perf measures it over repeated runs:
//
//	metricscheck -compare BENCH_BASELINE.json bench_quick.json
//
// Validate a run-timeline document (neuroc-timeline/v1, emitted by
// `neuroc-bench -timeline` / `m0run -timeline`) — schema, the Chrome
// trace-event shape Perfetto loads, and the span-tree invariants: one
// batch span, contiguous inference spans in input order, layer spans
// nested in their inference, and exact cycle accounting (Σ layer +
// overhead + other == inference, Σ inference == batch):
//
//	metricscheck -timeline timeline_quick.json
//
// All are fail-fast CI gates behind the bench-smoke step in
// scripts/verify.sh.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/neuro-c/neuroc/internal/bench"
	"github.com/neuro-c/neuroc/internal/obs"
)

func main() {
	compare := flag.Bool("compare", false, "compare two metrics files: baseline then candidate")
	timeline := flag.Bool("timeline", false, "validate a neuroc-timeline/v1 trace instead of a metrics file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: metricscheck metrics.json")
		fmt.Fprintln(os.Stderr, "       metricscheck -compare baseline.json candidate.json")
		fmt.Fprintln(os.Stderr, "       metricscheck -timeline timeline.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	if *timeline {
		if len(args) != 1 {
			flag.Usage()
			os.Exit(2)
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
		if err := obs.ValidateTimelineJSON(data); err != nil {
			fmt.Fprintf(os.Stderr, "metricscheck: %s: %v\n", args[0], err)
			os.Exit(1)
		}
		fmt.Printf("metricscheck: %s ok (timeline)\n", args[0])
		return
	}
	if *compare {
		if len(args) != 2 {
			flag.Usage()
			os.Exit(2)
		}
		baseline, candidate := mustValidate(args[0]), mustValidate(args[1])
		if err := bench.CompareMetricsJSON(baseline, candidate); err != nil {
			fmt.Fprintf(os.Stderr, "metricscheck: %s vs %s: %v\n", args[0], args[1], err)
			os.Exit(1)
		}
		fmt.Printf("metricscheck: %s matches baseline %s\n", args[1], args[0])
		return
	}
	if len(args) != 1 {
		flag.Usage()
		os.Exit(2)
	}
	mustValidate(args[0])
	fmt.Printf("metricscheck: %s ok\n", args[0])
}

// mustValidate loads and schema-checks one metrics file, exiting on any
// problem, and returns its bytes for comparison.
func mustValidate(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	if err := bench.ValidateMetricsJSON(data); err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	return data
}
