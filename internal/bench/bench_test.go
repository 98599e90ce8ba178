package bench

import (
	"strings"
	"testing"
)

// quickRunner returns a Runner in quick mode for CI-sized experiment
// smoke tests. These validate that every experiment runs end to end and
// produces the expected table structure; the paper-scale numbers come
// from cmd/neuroc-bench.
func quickRunner() *Runner {
	return New(Config{Quick: true, Seed: 1})
}

func TestTable1(t *testing.T) {
	tb := quickRunner().Table1()
	if len(tb.Rows) != 3 {
		t.Errorf("Table 1 rows = %d, want 3", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "Cortex-M0") {
		t.Error("Table 1 missing the target class")
	}
}

func TestFig2Quick(t *testing.T) {
	tb := quickRunner().Fig2()
	if len(tb.Rows) < 1 {
		t.Fatal("Fig 2 produced no rows")
	}
	// The FC layer must be faster than the equal-MACC conv.
	for _, row := range tb.Rows {
		if !strings.Contains(row[6], ".") {
			t.Fatalf("speedup cell malformed: %v", row)
		}
	}
	s := tb.String()
	if !strings.Contains(s, "CNN latency") {
		t.Error("Fig 2 missing columns")
	}
}

func TestFig3(t *testing.T) {
	tb := quickRunner().Fig3()
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig 3 rows = %d, want 4 encodings", len(tb.Rows))
	}
	names := map[string]bool{}
	for _, row := range tb.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"csc", "delta", "mixed", "block"} {
		if !names[want] {
			t.Errorf("Fig 3 missing encoding %s", want)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	lat, flash := quickRunner().Fig5()
	if len(lat.Rows) == 0 || len(flash.Rows) == 0 {
		t.Fatal("Fig 5 produced no rows")
	}
	if len(lat.Columns) != 5 || len(flash.Columns) != 5 {
		t.Error("Fig 5 should have one column per encoding plus N_out")
	}
}

func TestParetoQuick(t *testing.T) {
	r := quickRunner()
	tb := r.Pareto()
	if len(tb.Rows) != 5 {
		t.Fatalf("pareto rows = %d, want 5 (block, unr1, unr2, unr4, auto)", len(tb.Rows))
	}
	// The acceptance property of the tentpole: the weight-specialized
	// unrolled kernel must measurably beat the block encoding in cycles
	// (it trades flash for exactly that), and the auto search must be at
	// least as fast as every fixed encoding it chose between.
	mf := r.Metrics()
	cycles := map[string]uint64{}
	flash := map[string]int{}
	for _, m := range mf.Experiments {
		if !strings.HasPrefix(m.Name, "pareto-") || !m.Deployable {
			continue
		}
		key := strings.TrimSuffix(strings.TrimPrefix(m.Name, "pareto-"), "-out32")
		cycles[key] = m.Cycles
		flash[key] = m.FlashBytes
	}
	for _, key := range []string{"block", "unr1", "unr2", "unr4", "auto"} {
		if cycles[key] == 0 {
			t.Fatalf("pareto record for %s missing or cycle-free", key)
		}
	}
	for _, key := range []string{"unr1", "unr2", "unr4"} {
		if cycles[key] >= cycles["block"] {
			t.Errorf("unrolled (%s) does not beat block: %d >= %d cycles", key, cycles[key], cycles["block"])
		}
		if flash[key] <= flash["block"] {
			t.Errorf("unrolled (%s) should cost flash over block: %d <= %d bytes", key, flash[key], flash["block"])
		}
	}
	for _, key := range []string{"block", "unr1", "unr2", "unr4"} {
		if cycles["auto"] > cycles[key] {
			t.Errorf("auto picked a dominated point: %d cycles vs %s at %d", cycles["auto"], key, cycles[key])
		}
	}
	// Determinism across runner instances, like the other micro sweeps.
	if tb.String() != New(Config{Quick: true, Seed: 1}).Pareto().String() {
		t.Error("pareto experiment not deterministic")
	}
}

func TestFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tb := quickRunner().Fig1()
	if len(tb.Rows) < 4 {
		t.Fatalf("Fig 1 rows = %d", len(tb.Rows))
	}
	// Rows are sorted by parameter count.
	prev := -1
	for _, row := range tb.Rows {
		var params int
		if _, err := sscanInt(row[2], &params); err != nil {
			t.Fatalf("bad params cell %q", row[2])
		}
		if params < prev {
			t.Error("Fig 1 rows not sorted by params")
		}
		prev = params
	}
}

func sscanInt(s string, out *int) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tb := quickRunner().Fig8()
	if len(tb.Rows) < 1 {
		t.Fatal("Fig 8 produced no rows")
	}
	// Overhead columns must be present and small-positive formatted.
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[4], "+") || !strings.HasPrefix(row[5], "+") {
			t.Errorf("Fig 8 overheads malformed: %v", row)
		}
	}
}

func TestDatasetCache(t *testing.T) {
	r := quickRunner()
	a := r.Dataset("digits")
	b := r.Dataset("digits")
	if a != b {
		t.Error("dataset not cached")
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset accepted")
		}
	}()
	quickRunner().Dataset("imagenet")
}

func TestAblations(t *testing.T) {
	tables := quickRunner().Ablations()
	if len(tables) != 3 {
		t.Fatalf("ablations = %d tables, want 3", len(tables))
	}
	// The multiplier ablation must show dense layers hurt far more by a
	// slow multiplier than the MAC-free Neuro-C kernel.
	mult := tables[1]
	if len(mult.Rows) != 2 {
		t.Fatal("multiplier ablation malformed")
	}
	if !strings.Contains(mult.Rows[0][3], "x") || !strings.Contains(mult.Rows[1][3], "x") {
		t.Error("missing slowdown factors")
	}
}

func TestMicroExperimentsDeterministic(t *testing.T) {
	// Device-measured experiments must be bit-deterministic across
	// runner instances (same seed).
	a := New(Config{Quick: true, Seed: 1})
	b := New(Config{Quick: true, Seed: 1})
	if a.Fig3().String() != b.Fig3().String() {
		t.Error("Fig 3 not deterministic")
	}
	la, fa := a.Fig5()
	lb, fb := b.Fig5()
	if la.String() != lb.String() || fa.String() != fb.String() {
		t.Error("Fig 5 not deterministic")
	}
	if a.Interrupts().String() != b.Interrupts().String() {
		t.Error("interrupt experiment not deterministic")
	}
	if a.Cores().String() != b.Cores().String() {
		t.Error("core-profile experiment not deterministic")
	}
}

func TestInterruptsTable(t *testing.T) {
	tb := quickRunner().Interrupts()
	if len(tb.Rows) != 5 {
		t.Fatalf("interrupts rows = %d, want 5", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] != "yes" {
			t.Errorf("output corrupted under %s", row[0])
		}
	}
}

func TestCoresTable(t *testing.T) {
	tb := quickRunner().Cores()
	if len(tb.Rows) != 2 {
		t.Fatalf("cores rows = %d", len(tb.Rows))
	}
	if tb.Rows[1][3] >= tb.Rows[0][3] && tb.Rows[1][3] != "1.00x" {
		// M0+ must not be slower than M0.
		t.Errorf("M0+ slower than M0: %v", tb.Rows)
	}
}

func TestFarmBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	r := quickRunner()
	tb := r.FarmBench()
	if len(tb.Rows) < 2 {
		t.Fatalf("farm rows = %d, want >= 2 pool sizes", len(tb.Rows))
	}
	// On-device accuracy must equal the host reference on every row and
	// be identical across pool sizes (bit-determinism).
	for _, row := range tb.Rows {
		if row[1] != row[2] {
			t.Errorf("pool %s: device acc %s != host ref %s", row[0], row[1], row[2])
		}
		if row[1] != tb.Rows[0][1] {
			t.Errorf("pool %s: accuracy differs from -j 1", row[0])
		}
	}
	// Metrics must carry one farm record per pool, each evaluated on the
	// whole split, with the same cycles and accuracy at every pool size.
	mf := r.Metrics()
	var farms []Metric
	for _, m := range mf.Experiments {
		if m.Kind == "farm" {
			farms = append(farms, m)
		}
	}
	if len(farms) < 2 {
		t.Fatalf("farm metrics recorded = %d, want >= 2", len(farms))
	}
	for _, m := range farms {
		if m.Workers <= 0 || m.DeviceAccuracyN == 0 || m.Error != "" {
			t.Errorf("farm metric %s incomplete: %+v", m.Name, m)
		}
		if m.AccuracyDevice != m.Accuracy {
			t.Errorf("farm metric %s: device accuracy %v != accuracy %v", m.Name, m.AccuracyDevice, m.Accuracy)
		}
		if m.Cycles != farms[0].Cycles || m.Accuracy != farms[0].Accuracy || m.DeviceAccuracyN != farms[0].DeviceAccuracyN {
			t.Errorf("farm metric %s: cycles %d, accuracy %v over %d differ from %s's %d, %v over %d",
				m.Name, m.Cycles, m.Accuracy, m.DeviceAccuracyN,
				farms[0].Name, farms[0].Cycles, farms[0].Accuracy, farms[0].DeviceAccuracyN)
		}
	}
}

func TestDeviceAccuracyColumnCrossChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	// Any trained deployable candidate must report an on-device accuracy
	// (farm-evaluated, cross-checked against the host reference inside
	// runCandidate — a divergence panics there).
	r := quickRunner()
	tb := r.Fig1()
	withDevice := 0
	for _, row := range tb.Rows {
		if row[4] != "-" {
			withDevice++
		}
	}
	if withDevice == 0 {
		t.Error("Fig 1 has no on-device accuracy entries")
	}
}
