// Command neuroc-perf is the repository's host-performance benchmark. It
// times calls into the repository's packages from outside, on four
// workloads that stress different layers:
//
//	eval-ternary     farm.Map batches on a block-encoded ternary model
//	eval-dense       the same batches on the int8 MLP baseline
//	sweep-encodings  Fig-5 layers deployed and measured under 8 encodings
//	pipeline-mnist   train -> Deploy(auto) -> checked device evaluation
//
// Each run sets the workload up several times (setup_s is the median),
// then runs timed rounds until the time budget is spent, checks every
// output against the host reference, and prints each metric by name and
// unit. Times are scaled by a reference kernel sampled beside every timed
// step (see hostRef). The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run reports the end-to-end metrics. A traced run (-trace 1)
// records a span around every call, reports the per-layer metrics, and
// writes the spans as Chrome trace-event JSON that Perfetto loads.
//
// Usage, from this directory:
//
//	go run . -seed 1                      # every workload, each in a child process
//	go run . -workload eval-ternary -seed 2 -seconds 15 -trace 0 -json out.json
//	go run . -workload sweep-encodings -trace 1 -trace-dir /tmp/traces
//
// The exit status is 0 when every check passed and no operation failed,
// 1 otherwise, and 2 for a usage error. See README.md for the metrics,
// their bounds and the measurement protocol.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is everything one workload run depends on.
type config struct {
	Seed    uint64
	Seconds float64 // time budget of the timed rounds
	Trace   bool
	Sizes   sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON object each run ends its output with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// host fingerprints the machine and build a run measured.
type host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Workers     int    `json:"workers"`
	Seed        uint64 `json:"seed"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
}

func fingerprint(seed uint64) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Workers: workers, Seed: seed, VCSRevision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	return h
}

// record is one workload run: its result plus what produced it.
type record struct {
	Workload     string    `json:"workload"`
	Host         host      `json:"host"`
	Seconds      float64   `json:"seconds"`
	Trace        bool      `json:"trace"`
	Rounds       int       `json:"rounds"`
	InputsDigest string    `json:"inputs_digest"` // FNV-64a of the evaluated inputs
	FailedFrac   float64   `json:"failed_frac"`
	Problems     []string  `json:"problems,omitempty"`
	Inferences   int       `json:"inferences_per_round"`
	RoundWalls   []float64 `json:"round_walls_s"`  // every timed round, in order
	RoundScaled  []float64 `json:"round_scaled_s"` // the same rounds, scaled
	Steps        [][]step  `json:"round_steps"`    // the steps of every round
	SetupSteps   []step    `json:"setup_steps"`    // one step per set-up
	result
}

// runWorkload sets w up, runs its timed rounds and returns the record
// with the end-to-end metrics, or, when cfg.Trace, the per-layer ones.
// The tracer it returns is nil for an untraced run.
//
// Every timed step is scaled by the reference samples taken on both
// sides of it (see hostRef): on a host shared with other tenants, raw
// wall times spread by up to 26% between runs a minute apart, and scaled
// ones by a few percent (README.md, "Measured spread").
func runWorkload(w workload, cfg config) (*record, *tracer, error) {
	b := w.make(cfg)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(w.name)
	}
	rc := &refClock{}
	var setups []step
	var setupWall float64
	for len(setups) < max(cfg.Sizes.SetupReps, 1) || setupWall < cfg.Sizes.SetupSeconds {
		runtime.GC()
		rc.begin()
		if err := tr.span("setup", "", 0, func() error { return b.setup(tr) }); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rc.lap()
		setups = append(setups, rc.take()...)
		setupWall += setups[len(setups)-1].Wall
	}
	if err := b.warmup(); err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	rec := &record{
		Workload: w.name, Host: fingerprint(cfg.Seed), Seconds: cfg.Seconds, Trace: cfg.Trace,
		SetupSteps: setups, result: result{Metrics: metrics{}},
	}
	// A traced run alternates traced and untraced rounds; the difference
	// between their medians is the tracing overhead.
	minRounds := max(cfg.Sizes.MinRounds, 1)
	if cfg.Trace {
		minRounds = max(minRounds, 2)
	}
	var traced, untraced []float64
	var first roundResult
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < cfg.Seconds; i++ {
		rt := tr
		if i%2 == 1 {
			rt = nil
		}
		var r roundResult
		_ = rt.span("round", "", 0, func() error {
			r = b.round(rt, rc)
			return nil
		})
		runtime.GC()
		steps := rc.take()
		var wall, scaled float64
		for _, s := range steps {
			wall += s.Wall
			scaled += s.scaled()
		}
		rec.Rounds++
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		rec.Problems = append(rec.Problems, r.problems...)
		rec.Inferences = r.inferences
		rec.RoundWalls = append(rec.RoundWalls, wall)
		rec.RoundScaled = append(rec.RoundScaled, scaled)
		rec.Steps = append(rec.Steps, steps)
		if rt != nil {
			traced = append(traced, scaled)
		} else {
			untraced = append(untraced, scaled)
		}
		if i == 0 {
			first = r
		} else if r.cycles != first.cycles || r.flash != first.flash || r.accuracy != first.accuracy {
			rec.Problems = append(rec.Problems, fmt.Sprintf(
				"round %d gives %d cycles, %d flash bytes, accuracy %v; round 0 gave %d, %d, %v",
				i, r.cycles, r.flash, r.accuracy, first.cycles, first.flash, first.accuracy))
		}
	}

	sub, err := b.subject()
	if err != nil {
		return nil, nil, err
	}
	rec.InputsDigest = digest(sub.inputs)
	if cfg.Trace {
		pm, err := probeLayers(tr, sub, cfg.Sizes)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: per-layer probes: %w", w.name, err)
		}
		var generate time.Duration
		for _, s := range tr.matching("dataset.Generate", "*") {
			generate += s.dur()
		}
		pm.set("dataset.generate_s", "s", generate.Seconds()/float64(len(setups)))
		pm.set("trace_overhead_frac", "fraction", median(traced)/median(untraced)-1)
		rec.Metrics = pm
	} else {
		setupScaled := make([]float64, len(setups))
		for i, s := range setups {
			setupScaled[i] = s.scaled()
		}
		m := rec.Metrics
		m.set("setup_s", "s", median(setupScaled))
		m.set("round_s", "s", median(rec.RoundScaled))
		m.set("device_cycles", "cycles", float64(first.cycles))
		m.set("flash_bytes", "bytes", float64(first.flash))
		m.set("accuracy_device", "fraction", first.accuracy)
		m.set("max_rss_mb", "MB", maxRSSMB())
	}
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, tr, nil
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad address
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func digest(inputs [][]int8) string {
	h := fnv.New64a()
	for _, in := range inputs {
		for _, v := range in {
			h.Write([]byte{byte(v)})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeHuman(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "== %s  seed %d  %gs  trace %v\n", rec.Workload, h.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d %s %s/%s workers=%d vcs=%s modified=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Workers, h.VCSRevision, h.VCSModified)
	fmt.Fprintf(w, "inputs: digest %s, %d timed rounds\n", rec.InputsDigest, rec.Rounds)
	var refs []float64
	for _, s := range rec.SetupSteps {
		refs = append(refs, s.Ref1)
	}
	for _, steps := range rec.Steps {
		for _, s := range steps {
			refs = append(refs, s.Ref1)
		}
	}
	fmt.Fprintf(w, "reference: median sample %.2f ms of %d (%.0f ms on a quiet host)\n", 1e3*median(refs), len(refs), 1e3*refNominal)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		note := ""
		switch n {
		case "round_s":
			note = fmt.Sprintf("  (min %.4g, max %.4g; %.6g inferences/s; raw wall median %.4g s)",
				slices.Min(rec.RoundScaled), slices.Max(rec.RoundScaled), float64(rec.Inferences)/m.Value, median(rec.RoundWalls))
		}
		fmt.Fprintf(w, "  %-44s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  %-44s %14.6g fraction  (%d of %d operations)\n", "failed_frac", rec.FailedFrac, rec.Failed, rec.Attempted)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("neuroc-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "time budget of the timed rounds, in seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", ".bench_build", "directory a traced run writes neuroc-perf-<workload>.trace.json into")
	jsonOut := fs.String("json", "", "write the run record(s) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "neuroc-perf: want -trace 0 or 1, -seconds >= 0 and no arguments")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *traceDir, *jsonOut, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "neuroc-perf: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: fullSizes()}
	rec, tr, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
		return 1
	}
	writeHuman(stdout, rec)
	if tr != nil {
		tr.writeSelfSummary(stdout, 15)
		path := filepath.Join(*traceDir, "neuroc-perf-"+w.name+".trace.json")
		if err := writeFile(path, tr.writeChrome); err != nil {
			fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(tr.spans))
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(w io.Writer) error { return writeJSON(w, rec) }); err != nil {
			fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct || rec.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of this binary, so that
// each one's peak memory is its own, and combines their results.
func runAll(seed uint64, seconds float64, trace int, traceDir, jsonOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
		return 1
	}
	status := 0
	results := map[string]*result{}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-trace-dir", traceDir)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "neuroc-perf: %s: %v\n", w.name, err)
			status = 1
		}
		if r, err := lastResult(out.Bytes()); err == nil {
			results[w.name] = r
		} else {
			fmt.Fprintf(stderr, "neuroc-perf: %s: no result: %v\n", w.name, err)
			status = 1
		}
	}
	if jsonOut != "" {
		doc := struct {
			Host      host               `json:"host"`
			Seconds   float64            `json:"seconds"`
			Trace     bool               `json:"trace"`
			Workloads map[string]*result `json:"workloads"`
		}{fingerprint(seed), seconds, trace == 1, results}
		if err := writeFile(jsonOut, func(w io.Writer) error { return writeJSON(w, doc) }); err != nil {
			fmt.Fprintf(stderr, "neuroc-perf: %v\n", err)
			return 1
		}
	}
	return status
}

// lastResult parses the JSON result line a run ends its output with.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeFile creates path, and its directory, and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
