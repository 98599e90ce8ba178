package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// TestMain lets a test run this binary as m0run itself: with
// M0RUN_MAIN=1 in the environment it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("M0RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// m0run runs the command with args and returns its standard output.
func m0run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "M0RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("m0run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// -batch used to silently ignore the single-run observability flags;
// they must now be reported as conflicts so the caller gets a clear
// error instead of an unprofiled run that looks profiled.
func TestBatchFlagConflicts(t *testing.T) {
	if got := batchFlagConflicts(false, 0, "", "", "", ""); len(got) != 0 {
		t.Errorf("no flags set, got conflicts %v", got)
	}
	got := batchFlagConflicts(true, 5, "out.folded", "p.json", "in.raw", "0x20000000")
	want := []string{"-profile", "-trace", "-folded", "-profile-json", "-in", "-dump-addr"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conflicts = %v, want %v", got, want)
	}
	if got := batchFlagConflicts(false, 1, "", "", "", ""); !reflect.DeepEqual(got, []string{"-trace"}) {
		t.Errorf("trace-only conflicts = %v", got)
	}
}

// TestLayersReportDeployedImage: -layers runs the image the plain
// command runs, byte for byte (dumped from flash after the run), and
// its [total] row is the run's own halt-line cycle count — at every
// wait-state setting, beside -checked, whose board the measurement
// never shares.
func TestLayersReportDeployedImage(t *testing.T) {
	model := filepath.Join(t.TempDir(), "m.ncq1")
	writeTestModel(t, model)
	built := regexp.MustCompile(`built (\d+)-byte image`)
	halted := regexp.MustCompile(`halted: .* (\d+) cycles`)
	total := regexp.MustCompile(`\[total\]\s+(\d+)`)
	flash := regexp.MustCompile(`memory at 0x00000000:.*`)
	size := built.FindStringSubmatch(m0run(t, "-model", model))[1]
	for ws := 0; ws <= 2; ws++ {
		args := []string{"-model", model, "-flash-ws", fmt.Sprint(ws), "-dump-addr", "0", "-dump-len", size}
		plain := m0run(t, args...)
		for _, extra := range [][]string{{"-layers"}, {"-layers", "-checked"}} {
			out := m0run(t, append(args, extra...)...)
			if flash.FindString(out) == "" || flash.FindString(out) != flash.FindString(plain) {
				t.Errorf("ws %d %v: flashed image differs from the plain command's", ws, extra)
			}
			h, tot := halted.FindStringSubmatch(out), total.FindStringSubmatch(out)
			if h == nil || tot == nil || h[1] != tot[1] || h[1] != halted.FindStringSubmatch(plain)[1] {
				t.Errorf("ws %d %v: halt line %v, [total] %v, plain run %v\n%s",
					ws, extra, h, tot, halted.FindStringSubmatch(plain), out)
			}
		}
	}
}

// writeTestModel saves a small seeded 32-16-10 ternary model to path.
func writeTestModel(t *testing.T, path string) {
	t.Helper()
	r := rng.New(3)
	layer := func(in, out int) *quant.Layer {
		a := encoding.NewMatrix(in, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				if r.Bool(0.3) {
					a.Set(o, i, int8(1-2*r.Intn(2)))
				}
			}
		}
		l := &quant.Layer{Kind: quant.Ternary, In: in, Out: out, A: a, PerNeuron: true,
			ReLU: out > 10, PostShift: 7, Bias: make([]int32, out), Mults: make([]int32, out)}
		for o := range l.Mults {
			l.Mults[o] = int32(r.Intn(100)) + 20
		}
		return l
	}
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{layer(32, 16), layer(16, 10)}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseBatch: parseBatch never panics on any batch file and input
// dimension. It accepts exactly the files that are a positive multiple
// of a positive dimension, with runBatch's error text otherwise; an
// accepted file splits into records that are its bytes, in order, each
// capped at the dimension; and it allocates twice, the records' bytes
// and their slice headers, so allocation is bounded by len(data).
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, 2)
	f.Add([]byte{0x80, 0xff, 0x7f}, 3)
	f.Add([]byte{1, 2, 3}, 2)
	f.Add([]byte{}, 4)
	f.Add([]byte{1}, 0)
	f.Add([]byte{1, 2}, -2)
	f.Add(make([]byte, 3*64), 64)
	f.Fuzz(func(t *testing.T, data []byte, inDim int) {
		inputs, err := parseBatch(data, inDim)
		valid := inDim > 0 && len(data) > 0 && len(data)%inDim == 0
		if err != nil {
			want := fmt.Sprintf("%d bytes, not a positive multiple of the input dim %d", len(data), inDim)
			if valid || inputs != nil || err.Error() != want {
				t.Fatalf("parseBatch(%d bytes, %d) = %d records, %v; want no records and %q",
					len(data), inDim, len(inputs), err, want)
			}
			return
		}
		if !valid || len(inputs)*inDim != len(data) || cap(inputs) != len(inputs) {
			t.Fatalf("parseBatch(%d bytes, %d) accepted %d records (cap %d)", len(data), inDim, len(inputs), cap(inputs))
		}
		for i, in := range inputs {
			if len(in) != inDim || cap(in) != inDim {
				t.Fatalf("record %d: len %d cap %d, want %d", i, len(in), cap(in), inDim)
			}
			for j, v := range in {
				if byte(v) != data[i*inDim+j] {
					t.Fatalf("record %d byte %d: %d, file has %d", i, j, v, data[i*inDim+j])
				}
			}
		}
		if n := testing.AllocsPerRun(1, func() { parseBatch(data, inDim) }); n > 2 {
			t.Fatalf("parseBatch made %v allocations, want at most 2", n)
		}
	})
}
