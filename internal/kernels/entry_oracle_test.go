package kernels_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// TestEntryHasNoDeadDescriptorLoad builds images whose layers call
// unrolled kernels and requires the entry-code oracle, OptimizeEntry,
// to find nothing to delete: no "ldr r0, =descN" feeds the BL of a
// kernel that ignores its descriptor, while every requant call still
// loads one.
func TestEntryHasNoDeadDescriptorLoad(t *testing.T) {
	r := rng.New(27)
	layer := func(in, out int) *quant.Layer {
		a := encoding.NewMatrix(in, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				if r.Bool(0.3) {
					a.Set(o, i, int8(2*r.Intn(2)-1))
				}
			}
		}
		return &quant.Layer{Kind: quant.Ternary, In: in, Out: out, A: a,
			PostShift: 7, Mults: []int32{90}, Bias: make([]int32, out)}
	}
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{layer(48, 16), layer(16, 10)}}
	for _, f := range kernels.UnrollFactors {
		for _, c := range []struct {
			name string
			opts modelimg.BuildOptions
		}{{"plain", modelimg.BuildOptions{}}, {"telemetry", modelimg.BuildOptions{Telemetry: true}},
			{"masked", modelimg.BuildOptions{MaskIRQDuringInference: true}}} {
			le := modelimg.LayerEncoding{Choice: modelimg.UseUnrolled, Factor: f}
			opts := c.opts
			opts.PerLayer = []modelimg.LayerEncoding{le, le}
			t.Run(fmt.Sprintf("factor%d/%s", f, c.name), func(t *testing.T) {
				img, err := modelimg.BuildOpts(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				self := make(map[string]bool)
				for _, l := range img.Layers {
					self[l.Kernel] = true
				}
				if got := kernels.OptimizeEntry(img.Asm, self); got != img.Asm {
					t.Fatalf("the entry oracle deletes a descriptor load:\n%s", img.Asm)
				}
				if n, want := strings.Count(img.Asm, "\tldr r0, =desc"), len(m.Layers); n != want {
					t.Fatalf("%d descriptor loads, want %d (one per requant call)", n, want)
				}
			})
		}
	}
}
