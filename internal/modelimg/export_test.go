package modelimg

import (
	"slices"

	"github.com/neuro-c/neuroc/internal/quant"
)

// SearchFlashLowerBound probes model's ternary layers as the encoding
// search does and returns the search's flash lower bound for one
// assignment of probed encodings (encs[i] for layer i; entries for
// dense layers are ignored).
func SearchFlashLowerBound(model *quant.Model) (func(encs []LayerEncoding) int, error) {
	var ternary []int
	for i, l := range model.Layers {
		if l.Kind == quant.Ternary {
			ternary = append(ternary, i)
		}
	}
	s, err := probeLayers(model, ternary)
	if err != nil {
		return nil, err
	}
	return func(encs []LayerEncoding) int {
		var p point
		for ti, li := range ternary {
			p = s.extend(p, slices.IndexFunc(s.cands[ti], func(c candidate) bool { return c.enc == encs[li] }))
		}
		return s.lowerBound(p)
	}, nil
}
