package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/rng"
)

// optimizerGoldenSHA256 is the SHA-256 of Optimize's output over
// goldenCases. Every deployed unrolled kernel goes through Optimize, so
// a changed hash means changed image bytes; never re-pin it for a
// speed-up.
const optimizerGoldenSHA256 = "66a10392d7c6f8edb3a2b9456b2340f513952710b9b7087a2149beb299ded250"

// goldenMatrix draws an In x Out ternary matrix at the given density.
func goldenMatrix(r *rng.RNG, in, out int, density float64) *encoding.Matrix {
	m := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				w := int8(1)
				if r.Bool(0.5) {
					w = -1
				}
				m.Set(o, i, w)
			}
		}
	}
	return m
}

// goldenCase is one seeded unrolled kernel for the golden hash.
type goldenCase struct {
	m      *encoding.Matrix
	factor int
}

// goldenCases covers, at every unroll factor: a 784->128 layer at 14%
// density (the MNIST first layer), Out = 1-3 (partial and single-output
// groups), and seeded random layers (In 1-400, Out 1-64, density
// 2-70%) whose window moves rewind, coalesce and cross literal pools.
func goldenCases() []goldenCase {
	r := rng.New(16)
	var cs []goldenCase
	for _, f := range UnrollFactors {
		cs = append(cs, goldenCase{goldenMatrix(r, 784, 128, 0.14), f})
		for out := 1; out <= 3; out++ {
			cs = append(cs, goldenCase{goldenMatrix(r, 5+r.Intn(60), out, 0.3), f})
		}
		for k := 0; k < 12; k++ {
			in, out := 1+r.Intn(400), 1+r.Intn(64)
			cs = append(cs, goldenCase{goldenMatrix(r, in, out, 0.02+0.68*r.Float64()), f})
		}
	}
	return cs
}

// TestOptimizerGolden pins Optimize's output byte for byte.
func TestOptimizerGolden(t *testing.T) {
	h := sha256.New()
	for i, c := range goldenCases() {
		name := fmt.Sprintf("g%d", i)
		fmt.Fprintf(h, "%s\n%s", name, Optimize(Unrolled(name, c.m, c.factor, selfIn, selfAcc)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != optimizerGoldenSHA256 {
		t.Fatalf("Optimize output hash %s, want %s", got, optimizerGoldenSHA256)
	}
}

// optimizeSink keeps the benchmarked call from being optimized away.
var optimizeSink string

// BenchmarkOptimizeUnrolled times Optimize on the MNIST first layer
// (784->128, 14% dense) at unroll factor 4, the largest kernel the
// encoding search and the unrolled builds feed it.
func BenchmarkOptimizeUnrolled(b *testing.B) {
	src := Unrolled("l0_unr4", goldenMatrix(rng.New(1), 784, 128, 0.14), 4, selfIn, selfAcc)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimizeSink = Optimize(src)
	}
}

// TestSingleSpaced checks parseAsm's whitespace normalization against
// the strings.Fields form it short-cuts.
func TestSingleSpaced(t *testing.T) {
	for _, s := range []string{
		"", " ", "adds r0, r1", "  adds r0, r1  ", "adds  r0, r1", "adds\tr0,\tr1",
		"ldrsb r5, [r1, r5]", "movs r0, #0\r", "x\vy", "a \u00a0b", "a\u0085", "\u00a0a",
		"é ü", "a  ", " a b c ", "a \t b",
	} {
		if got, want := singleSpaced(s), strings.Join(strings.Fields(s), " "); got != want {
			t.Errorf("singleSpaced(%q) = %q, want %q", s, got, want)
		}
	}
}
