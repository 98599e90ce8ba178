package modelimg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// buildGoldenSHA256 is the SHA-256 of every golden build's flash bytes,
// certificate JSON and check report JSON. A changed hash means a
// deployed image, its proof or its report changed; never re-pin it for
// a speed-up.
const buildGoldenSHA256 = "124969665a410cee84a7c34eaecb7b1e790d5ab29f4b5fb4e811c14da7938467"

// goldenModels are three seeded models: two ternary layers, a ternary
// stack with a dense layer inside it, and a wide sparse first layer
// whose tables need 16-bit indices.
func goldenModels() []*quant.Model {
	r := rng.New(24)
	return []*quant.Model{
		{InputScale: 127, Layers: []*quant.Layer{
			randTernaryLayer(r, 96, 32, 0.2, true, true),
			randTernaryLayer(r, 32, 10, 0.35, false, false),
		}},
		{InputScale: 127, Layers: []*quant.Layer{
			randTernaryLayer(r, 64, 24, 0.25, false, true),
			randDenseLayer(r, 24, 16, true),
			randTernaryLayer(r, 16, 10, 0.4, true, false),
		}},
		{InputScale: 127, Layers: []*quant.Layer{
			randTernaryLayer(r, 300, 40, 0.08, true, true),
			randTernaryLayer(r, 40, 10, 0.3, true, false),
		}},
	}
}

// goldenBuild is one entry of the golden corpus.
type goldenBuild struct {
	name string
	opts BuildOptions
}

// goldenBuilds covers every encoding (each unroll factor separately,
// and the auto search) plus the telemetry, ISR and IRQ-masking options.
func goldenBuilds(m *quant.Model) []goldenBuild {
	every := func(le LayerEncoding) []LayerEncoding {
		encs := make([]LayerEncoding, len(m.Layers))
		for i := range encs {
			encs[i] = le
		}
		return encs
	}
	var bs []goldenBuild
	for _, e := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed, UseAuto} {
		bs = append(bs, goldenBuild{e.String(), BuildOptions{Encoding: e}})
	}
	for _, f := range []int{1, 2, 4} {
		le := LayerEncoding{Choice: UseUnrolled, Factor: f}
		bs = append(bs, goldenBuild{le.String(), BuildOptions{PerLayer: every(le)}})
	}
	unr4 := every(LayerEncoding{Choice: UseUnrolled, Factor: 4})
	return append(bs,
		goldenBuild{"block+telemetry", BuildOptions{Encoding: UseBlock, Telemetry: true}},
		goldenBuild{"unrolled/4+telemetry", BuildOptions{PerLayer: unr4, Telemetry: true}},
		goldenBuild{"mixed+isr", BuildOptions{Encoding: UseMixed, ISRWorkLoops: 300}},
		goldenBuild{"unrolled/4+isr+mask", BuildOptions{PerLayer: unr4, ISRWorkLoops: 40, MaskIRQDuringInference: true}},
	)
}

// TestBuildGolden pins the image bytes, certificate and check report
// of every golden build.
func TestBuildGolden(t *testing.T) {
	h := sha256.New()
	for mi, m := range goldenModels() {
		for _, b := range goldenBuilds(m) {
			img, err := BuildOpts(m, b.opts)
			if err != nil {
				t.Fatalf("model %d %s: %v", mi, b.name, err)
			}
			cj, err := img.Cert.JSON()
			if err != nil {
				t.Fatal(err)
			}
			rj, err := img.Check.JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "m%d %s %d %d %d\n", mi, b.name, len(img.Prog.Code), len(cj), len(rj))
			h.Write(img.Prog.Code)
			h.Write(cj)
			h.Write(rj)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != buildGoldenSHA256 {
		t.Fatalf("golden build hash %s, want %s", got, buildGoldenSHA256)
	}
}
