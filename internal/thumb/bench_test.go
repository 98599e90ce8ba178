package thumb_test

import (
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// BenchmarkAssemble times Assemble on the source of two one-layer
// images of the MNIST first layer (784->128, 14% dense): the unrolled/4
// probe the encoding search builds, and the block-encoded image.
func BenchmarkAssemble(b *testing.B) {
	r := rng.New(1)
	a := encoding.NewMatrix(784, 128)
	for o := 0; o < 128; o++ {
		for i := 0; i < 784; i++ {
			if r.Bool(0.14) {
				w := int8(1)
				if r.Bool(0.5) {
					w = -1
				}
				a.Set(o, i, w)
			}
		}
	}
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{{
		Kind: quant.Ternary, In: 784, Out: 128, A: a, PostShift: 7,
		Mults: []int32{90}, Bias: make([]int32, 128),
	}}}
	for _, le := range []modelimg.LayerEncoding{
		{Choice: modelimg.UseUnrolled, Factor: 4},
		{Choice: modelimg.UseBlock},
	} {
		img, err := modelimg.BuildOpts(m, modelimg.BuildOptions{PerLayer: []modelimg.LayerEncoding{le}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprint(le), func(b *testing.B) {
			b.SetBytes(int64(len(img.Asm)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := thumb.Assemble(img.Asm, armv6m.FlashBase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
