package modelimg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/quant"
)

// Per-layer encoding search (UseAuto): pick, for every ternary layer,
// the encoding (block, csc, delta, mixed, or unrolled/4) that minimizes
// the sum of the layers' probe WCETs subject to the image fitting in
// flash. Unrolled/1 and /2 stay valid explicit encodings but are not
// probed: a group of f outputs shares one ldrb+sxtb gather per touched
// input and the adds/subs count is fixed by the nonzeros, so they never
// beat unrolled/4 on WCET or flash (TestUnrolledFourDominates; the
// subexpression-sharing argument of "Unrolling Ternary Neural
// Networks"). Where they emit the same code (Out <= 2) the tie goes to
// unrolled/4, the same image bytes.
//
// Each candidate is priced by really building a one-layer probe image
// and evaluating its certificate WCET (cert.Certificate.WCET), a sound
// upper bound on cycles that over-prices real layers, whose loops run
// short, by an encoding-dependent factor (1.2x for unrolled/4 up to
// about 6x for block). The probe sum is not the whole image's WCET
// either: the image's requant loop is bounded by its widest layer, and
// a kernel shared by several layers is generated at their merged loop
// bounds. Exact per-layer cycles in place of WCET bounds would make the
// sum exact.
//
// The search is one Pareto-frontier merge, exact at any depth (the
// dominance-pruning form of the multiple-choice knapsack). It folds the
// layers in one at a time. A point charges each shared accumulate
// kernel's bytes once and keeps a bitmask of the kernels it uses; every
// extension of two points with one mask adds the same to both, so within
// a mask only undominated (WCET, flash) points survive. A point whose
// flash lower bound exceeds the device is dropped unbuilt. The
// survivors are then really built best-first.

// SearchWaitStates is the flash wait-state setting the search prices
// WCET at: one wait state, the modeled STM32F072 flash timing at full
// 48 MHz clock. The ranking is insensitive to this in practice —
// unrolled kernels save both fetches and data loads — but fixing it
// keeps the cost model deterministic and documented.
const SearchWaitStates = 1

// candidate is one priced per-layer encoding option.
type candidate struct {
	enc    LayerEncoding
	wcet   uint64 // one-layer probe image WCET at SearchWaitStates
	flash  int    // probe layer FlashBytes (tables + descriptor + kernels)
	kernel int    // index of its shared accumulate kernel; -1 for unrolled, whose kernel is its own
}

// probes is the priced search space of one model.
type probes struct {
	cands   [][]candidate // per ternary layer, sorted by (wcet, flash)
	kbytes  []int         // per shared kernel, its bytes (the same in every probe)
	requant int           // bytes of the requant kernel every probe carries
}

// point is one partial or whole combination: picks[i] indexes layer
// i's cost-sorted candidates.
type point struct {
	picks []int
	wcet  uint64
	flash int    // each shared kernel counted once
	mask  uint64 // shared kernels used (at most 18 distinct names)
}

// extend adds candidate ci of the next layer to p.
func (s *probes) extend(p point, ci int) point {
	c := s.cands[len(p.picks)][ci]
	q := point{picks: append(p.picks[:len(p.picks):len(p.picks)], ci), wcet: p.wcet + c.wcet, flash: p.flash + c.flash, mask: p.mask}
	if c.kernel >= 0 && q.mask&(1<<c.kernel) != 0 {
		q.flash -= s.kbytes[c.kernel] // already charged
	} else if c.kernel >= 0 {
		q.mask |= 1 << c.kernel
	}
	return q
}

// lowerBound is a lower bound on the flash of any image containing p:
// every probe carries its own requant kernel, and the image has one.
func (s *probes) lowerBound(p point) int {
	return p.flash - (len(p.picks)-1)*s.requant
}

// cmpPoints orders points by (wcet, flash, enumeration order), the
// enumeration being lexicographic over the cost-sorted candidates.
func cmpPoints(a, b point) int {
	return cmp.Or(cmp.Compare(a.wcet, b.wcet), cmp.Compare(a.flash, b.flash), slices.Compare(a.picks, b.picks))
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
	s, err := probeLayers(model, ternary)
	if err != nil {
		return nil, err
	}

	front, minPruned := []point{{}}, 0
	for ti := range ternary {
		var next []point
		for _, p := range front {
			for ci := range s.cands[ti] {
				q := s.extend(p, ci)
				if lb := s.lowerBound(q); lb > armv6m.FlashSize {
					minPruned = min(lb, cmp.Or(minPruned, lb)) // 0: none yet
					continue
				}
				next = append(next, q)
			}
		}
		slices.SortFunc(next, func(a, b point) int { return cmp.Or(cmp.Compare(a.mask, b.mask), cmpPoints(a, b)) })
		// Flash never rises along the survivors of one mask, so the
		// last survivor is the only one that can dominate the next point.
		front = next[:0]
		for _, q := range next {
			if n := len(front); n > 0 && front[n-1].mask == q.mask && front[n-1].flash <= q.flash &&
				(front[n-1].wcet != q.wcet || front[n-1].flash != q.flash) {
				continue // dominated
			}
			front = append(front, q)
		}
	}
	slices.SortFunc(front, cmpPoints)

	// Build best-first until an image deploys. Among equal-WCET points
	// the smallest real image wins, so nothing deployable is faster and
	// nothing equally fast is smaller.
	assign := func(p point) []LayerEncoding {
		encs := append([]LayerEncoding(nil), base...)
		for ti, ci := range p.picks {
			encs[ternary[ti]] = s.cands[ti][ci].enc
		}
		return encs
	}
	var lastND error
	for i, p := range front {
		img, err := buildResolved(model, opts, assign(p))
		if err != nil {
			var nd *ErrNotDeployable
			if errors.As(err, &nd) {
				lastND = err
				continue
			}
			return nil, err
		}
		for _, q := range front[i+1:] {
			if q.wcet != p.wcet {
				break
			}
			alt, err := buildResolved(model, opts, assign(q))
			if err == nil && alt.TotalBytes() < img.TotalBytes() {
				img = alt
			}
		}
		return img, nil
	}
	if lastND != nil {
		return nil, lastND
	}
	return nil, &ErrNotDeployable{What: "every encoding mix's flash image (lower bound)", Need: minPruned, Have: armv6m.FlashSize}
}

// probeLayers prices every candidate of every ternary layer with a real
// one-layer build. Probes use bare options: telemetry/ISR/masking add
// the same constant to every candidate and cannot change the ranking.
func probeLayers(model *quant.Model, ternary []int) (*probes, error) {
	choices := []LayerEncoding{
		{Choice: UseBlock}, {Choice: UseCSC}, {Choice: UseDelta}, {Choice: UseMixed},
		{Choice: UseUnrolled, Factor: DefaultUnrollFactor},
	}
	s := &probes{cands: make([][]candidate, len(ternary))}
	kidx := make(map[string]int)
	for ti, li := range ternary {
		probe := &quant.Model{Layers: []*quant.Layer{model.Layers[li]}, InputScale: model.InputScale}
		var compact *ErrNotDeployable
		for _, ch := range choices {
			img, err := buildResolved(probe, BuildOptions{}, []LayerEncoding{ch})
			if err != nil {
				var nd *ErrNotDeployable
				if errors.As(err, &nd) { // the candidate cannot fit even alone, or cannot be encoded
					// A candidate that fits by size but not by encoding
					// ranks last: it has no byte need to compare.
					if compact == nil || nd.Err == nil && (compact.Err != nil || nd.Need < compact.Need) {
						compact = &ErrNotDeployable{What: fmt.Sprintf("layer %d under every encoding (most compact: %s, %s)", li, ch, nd.What),
							Need: nd.Need, Have: nd.Have, Err: nd.Err}
					}
					continue
				}
				return nil, fmt.Errorf("modelimg: search probe, layer %d as %s: %w", li, ch, err)
			}
			w, err := img.Cert.WCET("entry", SearchWaitStates)
			if err != nil {
				return nil, fmt.Errorf("modelimg: search probe, layer %d as %s: %w", li, ch, err)
			}
			// Probe layout: k_requant, then the layer's kernel, then data.
			syms, kname := img.Prog.Symbols, img.Layers[0].Kernel
			c := candidate{enc: ch, wcet: w, flash: img.Layers[0].FlashBytes, kernel: -1}
			if ch.Choice != UseUnrolled {
				k, ok := kidx[kname]
				if !ok {
					k = len(s.kbytes)
					kidx[kname] = k
					s.kbytes = append(s.kbytes, int(syms["data_start"]-syms[kname]))
				}
				c.kernel = k
			}
			s.requant = int(syms[kname] - syms["k_requant"]) // the same in every probe
			s.cands[ti] = append(s.cands[ti], c)
		}
		if len(s.cands[ti]) == 0 {
			return nil, compact
		}
		slices.SortStableFunc(s.cands[ti], func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.wcet, b.wcet), cmp.Compare(a.flash, b.flash))
		})
	}
	return s, nil
}
