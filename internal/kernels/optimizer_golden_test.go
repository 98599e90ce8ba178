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

// optimizerGoldenSHA256 is the SHA-256 of Unrolled's output over
// goldenCases. Unrolled emits the deployed kernel text, so a changed
// hash means changed image bytes; never re-pin it for a speed-up.
// TestUnrolledMatchesOracle requires Unrolled to equal
// Optimize(naiveUnrolled(…)) on the same cases, so it pins the oracle's
// output too.
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

// TestOptimizerGolden pins the deployed unrolled kernels byte for byte.
func TestOptimizerGolden(t *testing.T) {
	h := sha256.New()
	for i, c := range goldenCases() {
		name := fmt.Sprintf("g%d", i)
		fmt.Fprintf(h, "%s\n%s", name, Unrolled(name, c.m, c.factor, selfIn, selfAcc))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != optimizerGoldenSHA256 {
		t.Fatalf("Unrolled output hash %s, want %s", got, optimizerGoldenSHA256)
	}
}

// TestUnrolledMatchesOracle requires the generator's text to equal the
// text oracle's, Optimize(naiveUnrolled(…)), on goldenCases and on
// seeded shapes at every factor: wide layers (up to 1,200 inputs) and
// narrow ones with 100-300 sparse outputs, whose many small groups can
// end just short of the pool trigger, so the pool lands ahead of a
// group's first write even at factor 1. Each output's support starts at
// input 0 or, half the time, at a random input, so groups open with
// folded moves. The test fails if the corpus stops reaching a rewind
// folded into an advance, a bare rewind, a pool flushed inside a group,
// or an accumulator whose first write follows that pool.
func TestUnrolledMatchesOracle(t *testing.T) {
	cs := goldenCases()
	r := rng.New(27)
	for _, f := range UnrollFactors {
		for k := 0; k < 120; k++ {
			in, out, density := 1+r.Intn(1200), 1+r.Intn(96), 0.002+0.3*r.Float64()*r.Float64()
			if k%2 == 0 {
				in, out, density = 1+r.Intn(64), 100+r.Intn(200), 0.02+0.08*r.Float64()
			}
			m := encoding.NewMatrix(in, out)
			for o := 0; o < out; o++ {
				first := 0
				if r.Bool(0.5) {
					first = r.Intn(in)
				}
				for i := first; i < in; i++ {
					if r.Bool(density) {
						m.Set(o, i, int8(2*r.Intn(2)-1))
					}
				}
			}
			cs = append(cs, goldenCase{m, f})
		}
	}
	seen := make(map[int]unrolledFeatures)
	for i, c := range cs {
		name := fmt.Sprintf("o%d", i)
		naive := naiveUnrolled(name, c.m, c.factor, selfIn, selfAcc)
		got, want := Unrolled(name, c.m, c.factor, selfIn, selfAcc), Optimize(naive)
		if got != want {
			t.Fatalf("case %d (%dx%d, factor %d): Unrolled differs from the text oracle\ngot:\n%s\nwant:\n%s",
				i, c.m.In, c.m.Out, c.factor, got, want)
		}
		f, s := unrolledFeaturesOf(naive), seen[c.factor]
		seen[c.factor] = unrolledFeatures{
			foldedMove:   s.foldedMove || f.foldedMove,
			bareRewind:   s.bareRewind || f.bareRewind,
			midGroupPool: s.midGroupPool || f.midGroupPool,
			keptInit:     s.keptInit || f.keptInit,
		}
	}
	for _, f := range UnrollFactors {
		if s := seen[f]; !s.foldedMove || !s.bareRewind || !s.midGroupPool || !s.keptInit {
			t.Errorf("factor %d: corpus misses a generator path: %+v", f, s)
		}
	}
}

// unrolledFeatures names the generator paths a kernel reaches.
type unrolledFeatures struct {
	foldedMove   bool // a rewind followed by an advance, emitted as one net move
	bareRewind   bool // a rewind with no advance after it
	midGroupPool bool // the inline pool lands between a group's inits and its stores
	keptInit     bool // an accumulator's first write follows that pool
}

// unrolledFeaturesOf reads the paths off a kernel's naive text, where
// every move, init and store is still spelled out.
func unrolledFeaturesOf(naive string) unrolledFeatures {
	var f unrolledFeatures
	lines := strings.Split(naive, "\n")
	inGroup, pooled := false, false
	written := make(map[string]bool)
	for k, l := range lines {
		l = strings.TrimSpace(l)
		next := ""
		if k+1 < len(lines) {
			next = strings.TrimSpace(lines[k+1])
		}
		switch {
		case strings.HasPrefix(l, "movs ") && !inGroup:
			inGroup, pooled = true, false
			clear(written)
		case strings.HasPrefix(l, "str "):
			inGroup = false
		case strings.HasPrefix(l, "subs r4, #"):
			f.foldedMove = f.foldedMove || strings.HasPrefix(next, "adds r4, #")
			f.bareRewind = f.bareRewind || strings.HasPrefix(next, "ldrb ")
		case strings.HasSuffix(l, ":") && inGroup:
			f.midGroupPool, pooled = true, true
		case strings.HasSuffix(l, ", r0") && (strings.HasPrefix(l, "adds ") || strings.HasPrefix(l, "subs ")):
			reg := l[5:strings.IndexByte(l, ',')]
			f.keptInit = f.keptInit || pooled && !written[reg]
			written[reg] = true
		}
	}
	return f
}

// unrolledSink keeps the benchmarked call from being optimized away.
var unrolledSink string

// BenchmarkUnrolled times the generator on the MNIST first layer
// (784->128, 14% dense) at unroll factor 4, the largest kernel the
// encoding search and the unrolled builds generate.
func BenchmarkUnrolled(b *testing.B) {
	m := goldenMatrix(rng.New(1), 784, 128, 0.14)
	b.SetBytes(int64(len(Unrolled("l0_unr4", m, 4, selfIn, selfAcc))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unrolledSink = Unrolled("l0_unr4", m, 4, selfIn, selfAcc)
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

// TestRawVariantIsNaiveForm pins the k_unr4_raw self-check variant to
// the naive generator's text for the same layer.
func TestRawVariantIsNaiveForm(t *testing.T) {
	if want := naiveUnrolled("k_unr4_raw", SelfMatrix(), 4, selfIn, selfAcc); unr4Raw != want {
		t.Fatalf("k_unr4_raw:\n%s\nwant:\n%s", unr4Raw, want)
	}
}
