package farm_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/obs"
)

// TestFarmCycleStatsWorkerIndependent: the cycle statistics are
// bit-identical at every pool size — they depend only on the multiset
// of per-input cycle counts, never on scheduling — and input-invariant:
// the branch-free kernels give MinCycles == MaxCycles.
func TestFarmCycleStatsWorkerIndependent(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(40, img.InDim)
	_, base, err := farm.Map(img, inputs, farm.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.MinCycles == 0 || base.MinCycles != base.MaxCycles {
		t.Fatalf("cycles vary with the input: min %d, max %d", base.MinCycles, base.MaxCycles)
	}
	cycleStats := func(s *farm.Stats) []uint64 {
		return []uint64{s.TotalCycles, s.MinCycles, s.MaxCycles, s.MeanCycles, s.Instructions}
	}
	for _, j := range []int{2, 8} {
		_, stats, err := farm.Map(img, inputs, farm.Options{Workers: j})
		if err != nil {
			t.Fatal(err)
		}
		got, want := cycleStats(stats), cycleStats(base)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("-j %d cycle stats diverge from -j 1: %v vs %v", j, got, want)
			}
		}
	}
}

// TestFarmStatsMatchResults cross-checks the Stats aggregates against
// an independent pass over the per-result cycles.
func TestFarmStatsMatchResults(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(23, img.InDim)
	results, stats, err := farm.Map(img, inputs, farm.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total, lo, hi uint64
	for i, r := range results {
		total += r.Cycles
		if i == 0 || r.Cycles < lo {
			lo = r.Cycles
		}
		if r.Cycles > hi {
			hi = r.Cycles
		}
	}
	if stats.TotalCycles != total || stats.MinCycles != lo || stats.MaxCycles != hi {
		t.Errorf("stats total/min/max %d/%d/%d, results give %d/%d/%d",
			stats.TotalCycles, stats.MinCycles, stats.MaxCycles, total, lo, hi)
	}
}

// TestFarmLiveScrapeMidRun runs a batch with an Observe hook feeding a
// FarmCollector, and scrapes the HTTP endpoint synchronously from
// inside the hook partway through the batch: the scrape must see the
// partial progress, and the batch must finish unperturbed.
func TestFarmLiveScrapeMidRun(t *testing.T) {
	img := testImage(t)
	inputs := testInputs(16, img.InDim)
	reg := obs.NewRegistry()
	col := obs.NewFarmCollector(reg, 0.001)
	col.StartBatch(len(inputs), 2, "auto")
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	var done atomic.Int64
	var midText, midJSON atomic.Value
	opts := farm.Options{
		Workers: 2,
		Observe: func(i int, res *farm.Result) {
			col.Observe(res.Cycles, res.HostDurNS, res.Err != nil)
			if done.Add(1) == int64(len(inputs)/2) {
				midText.Store(scrape(t, srv.URL+"/metrics"))
				midJSON.Store(scrape(t, srv.URL+"/metrics.json"))
			}
		},
	}
	results, stats, err := farm.Map(img, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Items != len(inputs) || stats.Failed != 0 {
		t.Fatalf("batch perturbed: %+v", stats)
	}
	// The farm's own results must be untouched by observation (same
	// outputs as an unobserved run).
	plain, _, err := farm.Map(img, inputs, farm.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Cycles != plain[i].Cycles {
			t.Fatalf("input %d: observed run cycles %d != unobserved %d", i, results[i].Cycles, plain[i].Cycles)
		}
	}

	text, _ := midText.Load().(string)
	if text == "" {
		t.Fatal("mid-run scrape never happened")
	}
	if !strings.Contains(text, "neuroc_inferences_total") ||
		!strings.Contains(text, "neuroc_inference_cycles_bucket") {
		t.Fatalf("mid-run Prometheus text missing farm families:\n%s", text)
	}
	var snap struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Value *float64 `json:"value"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(midJSON.Load().(string)), &snap); err != nil {
		t.Fatalf("mid-run JSON snapshot: %v", err)
	}
	if snap.Schema != obs.LiveSchema {
		t.Fatalf("schema %q, want %q", snap.Schema, obs.LiveSchema)
	}
	var sawPartial bool
	for _, f := range snap.Metrics {
		if f.Name == "neuroc_inferences_total" && len(f.Series) == 1 && f.Series[0].Value != nil {
			v := int64(*f.Series[0].Value)
			// The scrape fired at item len/2; the other worker may have
			// retired more by the time the handler read the counter.
			if v >= int64(len(inputs)/2) && v <= int64(len(inputs)) {
				sawPartial = true
			} else {
				t.Fatalf("mid-run inference count %d outside [%d,%d]", v, len(inputs)/2, len(inputs))
			}
		}
	}
	if !sawPartial {
		t.Fatal("neuroc_inferences_total missing from mid-run snapshot")
	}

	// After the batch, the collector totals equal the batch size.
	final := scrape(t, srv.URL+"/metrics")
	if !strings.Contains(final, "neuroc_inference_cycles_count 16") {
		t.Fatalf("final scrape missing complete histogram count:\n%s", final)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("scrape %s: %v", url, err)
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("scrape %s: %v", url, err)
		return ""
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}
