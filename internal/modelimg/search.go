package modelimg

import (
	"errors"
	"fmt"
	"sort"

	"github.com/neuro-c/neuroc/internal/quant"
)

// Per-layer encoding search (UseAuto): pick, for every ternary layer,
// the encoding (block, csc, delta, mixed, or unrolled/4) that minimizes
// whole-inference cycles subject to the image fitting in flash. The
// narrower unrolled factors 1 and 2 stay valid explicit encodings but
// are not probed: they never beat unrolled/4 on WCET or flash
// (TestUnrolledFourDominates). A group of f outputs shares one
// ldrb+sxtb gather per touched input, and the adds/subs count is fixed
// by the nonzeros, so a wider group never adds instructions (the
// subexpression-sharing argument of "Unrolling Ternary Neural
// Networks"). Where the factors emit the same code (Out <= 2) the tie
// goes to unrolled/4, which is the same image bytes. Each candidate is
// priced by really building a one-layer image and evaluating the
// certificate-driven WCET (cert.Certificate.WCET), a sound upper bound
// on its cycles. The bound equals the measured count only when every
// loop runs its annotated bound, as in the self-check harnesses
// wcet_test.go pins; on real layers the loops run short and
// the bound over-prices by an encoding-dependent factor (1.2x for
// unrolled/4 up to about 6x for block), so the search minimizes the
// guaranteed worst case, not the measured cycles. Inference is a
// straight-line sequence of layer calls, so whole-model WCET is
// additive in the per-layer costs and ranking combinations by the
// probe-WCET sum ranks them by whole-model WCET.

// SearchWaitStates is the flash wait-state setting the search prices
// WCET at: one wait state, the modeled STM32F072 flash timing at full
// 48 MHz clock. The ranking is insensitive to this in practice —
// unrolled kernels save both fetches and data loads — but fixing it
// keeps the cost model deterministic and documented.
const SearchWaitStates = 1

// searchComboCap bounds exhaustive combination enumeration; beyond it
// (more than 6 ternary layers at 5 candidates each) the search falls
// back to a greedy repair loop.
const searchComboCap = 20000

// candidate is one priced per-layer encoding option.
type candidate struct {
	enc   LayerEncoding
	wcet  uint64 // one-layer probe image WCET at SearchWaitStates
	flash int    // probe layer FlashBytes (tables + descriptor + kernels)
}

// searchEncodings implements BuildOpts for Encoding == UseAuto.
func searchEncodings(model *quant.Model, opts BuildOptions) (*Image, error) {
	base := make([]LayerEncoding, len(model.Layers))
	var ternary []int
	for i, l := range model.Layers {
		base[i] = LayerEncoding{Choice: UseBlock}
		if l.Kind == quant.Ternary {
			ternary = append(ternary, i)
		}
	}
	if len(ternary) == 0 {
		return buildResolved(model, opts, base)
	}

	choices := []LayerEncoding{
		{Choice: UseBlock}, {Choice: UseCSC}, {Choice: UseDelta}, {Choice: UseMixed},
		{Choice: UseUnrolled, Factor: DefaultUnrollFactor},
	}

	// Probe every candidate of every ternary layer with a real one-layer
	// build. Probes use bare options: telemetry/ISR/masking add the same
	// constant to every candidate and cannot change the ranking.
	cands := make([][]candidate, len(ternary))
	for ti, li := range ternary {
		probe := &quant.Model{Layers: []*quant.Layer{model.Layers[li]}, InputScale: model.InputScale}
		for _, ch := range choices {
			img, err := buildResolved(probe, BuildOptions{}, []LayerEncoding{ch})
			if err != nil {
				var nd *ErrNotDeployable
				if errors.As(err, &nd) {
					continue // candidate cannot fit even alone (huge unrolled layer)
				}
				return nil, fmt.Errorf("modelimg: search probe, layer %d as %s: %w", li, ch, err)
			}
			w, err := img.Cert.WCET("entry", SearchWaitStates)
			if err != nil {
				return nil, fmt.Errorf("modelimg: search probe, layer %d as %s: %w", li, ch, err)
			}
			cands[ti] = append(cands[ti], candidate{enc: ch, wcet: w, flash: img.Layers[0].FlashBytes})
		}
		if len(cands[ti]) == 0 {
			return nil, &ErrNotDeployable{What: fmt.Sprintf("layer %d under every encoding", li), Need: 0, Have: 0}
		}
		sort.SliceStable(cands[ti], func(a, b int) bool {
			ca, cb := cands[ti][a], cands[ti][b]
			if ca.wcet != cb.wcet {
				return ca.wcet < cb.wcet
			}
			return ca.flash < cb.flash
		})
	}

	nCombos := 1
	for _, cs := range cands {
		nCombos *= len(cs)
		if nCombos > searchComboCap {
			return searchGreedy(model, opts, base, ternary, cands)
		}
	}
	return searchExhaustive(model, opts, base, ternary, cands, nCombos)
}

// searchExhaustive enumerates every combination, sorts by (cycle sum,
// flash sum), and really builds them best-first until one deploys. Among
// equal-cycle combinations the smallest real image wins, so the result
// is never dominated: nothing deployable is faster, and nothing equally
// fast is smaller.
func searchExhaustive(model *quant.Model, opts BuildOptions, base []LayerEncoding, ternary []int, cands [][]candidate, nCombos int) (*Image, error) {
	type combo struct {
		picks []int
		wcet  uint64
		flash int
	}
	combos := make([]combo, 0, nCombos)
	picks := make([]int, len(ternary))
	for {
		c := combo{picks: append([]int(nil), picks...)}
		for ti, p := range picks {
			c.wcet += cands[ti][p].wcet
			c.flash += cands[ti][p].flash
		}
		combos = append(combos, c)
		ti := len(picks) - 1
		for ti >= 0 {
			picks[ti]++
			if picks[ti] < len(cands[ti]) {
				break
			}
			picks[ti] = 0
			ti--
		}
		if ti < 0 {
			break
		}
	}
	sort.SliceStable(combos, func(a, b int) bool {
		if combos[a].wcet != combos[b].wcet {
			return combos[a].wcet < combos[b].wcet
		}
		return combos[a].flash < combos[b].flash
	})

	assign := func(c combo) []LayerEncoding {
		encs := append([]LayerEncoding(nil), base...)
		for ti, p := range c.picks {
			encs[ternary[ti]] = cands[ti][p].enc
		}
		return encs
	}
	var lastND error
	for i := 0; i < len(combos); i++ {
		img, err := buildResolved(model, opts, assign(combos[i]))
		if err != nil {
			var nd *ErrNotDeployable
			if errors.As(err, &nd) {
				lastND = err
				continue
			}
			return nil, err
		}
		// Tie-break equal-cycle combinations by real image size.
		for j := i + 1; j < len(combos) && combos[j].wcet == combos[i].wcet; j++ {
			alt, err := buildResolved(model, opts, assign(combos[j]))
			if err == nil && alt.TotalBytes() < img.TotalBytes() {
				img = alt
			}
		}
		return img, nil
	}
	if lastND != nil {
		return nil, lastND
	}
	return nil, fmt.Errorf("modelimg: encoding search found no deployable combination")
}

// searchGreedy handles models with too many ternary layers to
// enumerate: start from each layer's fastest candidate and, while the
// image exceeds flash, downgrade the layer wasting the most bytes over
// its most compact candidate. Best-effort (the exhaustive path is the
// one with the non-domination guarantee), but it never returns a
// dominated uniform choice: it only ever trades bytes for cycles when
// flash forces it to.
func searchGreedy(model *quant.Model, opts BuildOptions, base []LayerEncoding, ternary []int, cands [][]candidate) (*Image, error) {
	cur := make([]int, len(ternary)) // cands are cost-sorted; 0 = fastest
	minFlash := make([]int, len(ternary))
	for ti, cs := range cands {
		best := 0
		for k := range cs {
			if cs[k].flash < cs[best].flash {
				best = k
			}
		}
		minFlash[ti] = best
	}
	for {
		encs := append([]LayerEncoding(nil), base...)
		for ti, p := range cur {
			encs[ternary[ti]] = cands[ti][p].enc
		}
		img, err := buildResolved(model, opts, encs)
		if err == nil {
			return img, nil
		}
		var nd *ErrNotDeployable
		if !errors.As(err, &nd) {
			return nil, err
		}
		// Downgrade the layer with the largest flash excess over its most
		// compact candidate.
		worst, excess := -1, 0
		for ti, p := range cur {
			if e := cands[ti][p].flash - cands[ti][minFlash[ti]].flash; e > excess {
				worst, excess = ti, e
			}
		}
		if worst < 0 {
			return nil, err // already all-compact; genuinely not deployable
		}
		cur[worst] = minFlash[worst]
	}
}
