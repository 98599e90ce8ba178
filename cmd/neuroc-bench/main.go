// Command neuroc-bench regenerates every table and figure of the
// paper's evaluation on the emulated Cortex-M0.
//
// Usage:
//
//	neuroc-bench -exp all            # everything (paper-scale, slow)
//	neuroc-bench -exp fig5 -quick    # one experiment, reduced scale
//	neuroc-bench -list               # show available experiments
//
// Output is the ASCII-table form of each figure, with the paper's
// headline numbers quoted in each table's trailing note so measured and
// published values can be compared side by side.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/neuro-c/neuroc/internal/bench"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/obs"
	"github.com/neuro-c/neuroc/internal/report"
)

var experiments = []struct {
	name string
	desc string
	run  func(r *bench.Runner, w io.Writer)
}{
	{"table1", "qualitative MCU class table", func(r *bench.Runner, w io.Writer) {
		r.Table1().Fprint(w)
	}},
	{"fig1", "adjacency strategies on digits", func(r *bench.Runner, w io.Writer) {
		r.Fig1().Fprint(w)
	}},
	{"fig2", "FC vs conv latency at equal MACCs", func(r *bench.Runner, w io.Writer) {
		r.Fig2().Fprint(w)
	}},
	{"fig3", "encoding layouts on a toy matrix", func(r *bench.Runner, w io.Writer) {
		r.Fig3().Fprint(w)
	}},
	{"fig5", "encoding latency and flash sweep", func(r *bench.Runner, w io.Writer) {
		a, b := r.Fig5()
		a.Fprint(w)
		b.Fprint(w)
	}},
	{"pareto", "latency/flash frontier: block vs unrolled vs auto search", func(r *bench.Runner, w io.Writer) {
		r.Pareto().Fprint(w)
	}},
	{"fig6", "MNIST: MLP sweep vs Neuro-C scales", func(r *bench.Runner, w io.Writer) {
		for _, t := range r.Fig6() {
			t.Fprint(w)
		}
	}},
	{"fig7", "best deployable models on all datasets", func(r *bench.Runner, w io.Writer) {
		r.Fig7().Fprint(w)
	}},
	{"fig8", "TNN ablation (remove per-neuron scale)", func(r *bench.Runner, w io.Writer) {
		r.Fig8().Fprint(w)
	}},
	{"ablations", "design-choice ablations (ReLU form, multiplier, wait states)", func(r *bench.Runner, w io.Writer) {
		for _, t := range r.Ablations() {
			t.Fprint(w)
		}
	}},
	{"interrupts", "inference latency under sensor-interrupt preemption", func(r *bench.Runner, w io.Writer) {
		r.Interrupts().Fprint(w)
	}},
	{"cores", "same image on Cortex-M0 vs Cortex-M0+ profiles", func(r *bench.Runner, w io.Writer) {
		r.Cores().Fprint(w)
	}},
	{"farm", "board-farm parallel on-emulator test-set accuracy", func(r *bench.Runner, w io.Writer) {
		r.FarmBench().Fprint(w)
	}},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list), or 'all'")
	quick := flag.Bool("quick", false, "reduced datasets and sweeps (CI-sized)")
	verbose := flag.Bool("v", false, "log per-model progress to stderr")
	seed := flag.Uint64("seed", 1, "experiment seed")
	list := flag.Bool("list", false, "list experiments and exit")
	metrics := flag.String("metrics", "", "write structured per-experiment metrics JSON to this file")
	workers := flag.Int("j", 0, "board-farm workers for device measurements (0 = all host cores); results are bit-identical for any value")
	encFlag := flag.String("encoding", "block", "deployment encoding for model experiments (block, csc, delta, mixed, unrolled, auto)")
	cpuprofile := flag.String("cpuprofile", "", "write a host pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a host pprof heap profile to this file on exit")
	listen := flag.String("listen", "", "serve live run metrics over HTTP on this address while experiments run (/metrics Prometheus text, /metrics.json snapshot)")
	timeline := flag.String("timeline", "", "write the farm experiment's neuroc-timeline/v1 trace (Perfetto-loadable JSON) to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neuroc-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	enc, err := modelimg.ParseEncoding(*encFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neuroc-bench:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Quick: *quick, Seed: *seed, Workers: *workers, Encoding: enc}
	if *verbose {
		cfg.Log = os.Stderr
	}
	if *listen != "" {
		reg := obs.NewRegistry()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "neuroc-bench: -listen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "neuroc-bench: live metrics on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler(reg)}
		go srv.Serve(ln)
		defer srv.Close()
		cfg.Obs = reg
	}
	r := bench.New(cfg)

	_ = report.Table{} // keep report in the import graph for doc links

	want := strings.Split(*exp, ",")
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && !contains(want, e.name) {
			continue
		}
		e.run(r, os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "neuroc-bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "neuroc-bench:", err)
			os.Exit(1)
		}
		if err := r.WriteMetricsJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "neuroc-bench: writing metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "neuroc-bench: wrote %d experiment metrics to %s\n",
			len(r.Metrics().Experiments), *metrics)
	}
	if *timeline != "" {
		// Rendered before the file is created, so a run whose timeline
		// failed leaves no empty file behind; -metrics is already written.
		var buf bytes.Buffer
		if err := r.WriteTimelineJSON(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "neuroc-bench: no timeline written:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*timeline, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "neuroc-bench: writing timeline:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "neuroc-bench: wrote run timeline to %s\n", *timeline)
	}
}

// startProfiles starts a host CPU profile and/or arranges a heap
// profile, returning a stop function to run on normal exit.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "neuroc-bench: cpuprofile:", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "neuroc-bench: memprofile:", err)
				return
			}
			runtime.GC() // report live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "neuroc-bench: memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if strings.TrimSpace(x) == s {
			return true
		}
	}
	return false
}
