package cert

import "github.com/neuro-c/neuroc/internal/armv6m"

// Certificate-to-translator lowering: the certified-loop fast path
// (armv6m/translate.go) consumes certified facts through neutral DTOs
// so the emulator package never imports this one. The lowering is
// purely an evaluation of the certificate — the self-loops' layout,
// per-instruction closed-form costs, bus-counter deltas, proven memory
// regions, and trip bounds pass through unchanged; the translator
// re-derives and cross-checks every cost before using it.

// regionOf maps a certified memory class to the translator's region
// enum.
func regionOf(m MemClass) uint8 {
	switch m {
	case ClassFlash:
		return armv6m.RegionFlash
	case ClassSRAM:
		return armv6m.RegionSRAM
	}
	return armv6m.RegionNone
}

// SelfLoops lowers the certificate's certified self-loops — single-block
// natural loops (header == only member == only latch) with a proven
// trip bound — to the translator's block DTOs. Other blocks are not
// lowered: only a self-loop can run in a whole-loop executor.
func (c *Certificate) SelfLoops() []armv6m.CertBlock {
	var out []armv6m.CertBlock
	for fi := range c.Funcs {
		f := &c.Funcs[fi]
		selfBound := make(map[uint32]uint64)
		for li := range f.Loops {
			l := &f.Loops[li]
			if l.Bound > 0 && len(l.Blocks) == 1 && l.Blocks[0] == l.Header &&
				len(l.Latches) == 1 && l.Latches[0] == l.Header {
				selfBound[l.Header] = l.Bound
			}
		}
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			bound, ok := selfBound[b.Start]
			if !ok {
				continue
			}
			cb := armv6m.CertBlock{
				Start:  b.Start,
				End:    b.End,
				Instrs: make([]armv6m.CertInstr, len(b.Instrs)),
				Bound:  bound,
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				cb.Instrs[ii] = armv6m.CertInstr{
					Addr:       in.Addr,
					Size:       in.Size,
					CostBase:   in.Cost.Base,
					CostWS:     in.Cost.WS,
					TakenExtra: in.TakenExtra,
					FlashReads: in.FlashReads,
					SRAMReads:  in.SRAMReads,
					SRAMWrites: in.SRAMWrites,
					Region:     regionOf(in.Mem),
					Store:      in.Store,
					Exact:      in.Exact,
					Target:     in.Target,
					Call:       in.Call,
					Ret:        in.Ret,
					Halt:       in.Halt,
				}
			}
			out = append(out, cb)
		}
	}
	return out
}

// Translate builds the certified-loop table for a certified image over
// its predecode table. Every certified image gets a table, with zero
// loops when none of its self-loops matches a whole-loop executor (and
// no straight-line run, which the translator finds in the predecode
// table itself); nil only for a nil certificate, an unknown version, or
// a nil predecode table. The table inherits the certificate's cycle-model pin (profile,
// refill, MULS cost); a core configured differently runs without the
// loops rather than executing them under the wrong model. marks are the
// watched addresses the table marks (armv6m.TranslationConfig.Marks).
func Translate(c *Certificate, pt *armv6m.PredecodeTable, marks ...uint32) *armv6m.TranslationTable {
	if c == nil || c.Version != Version || pt == nil {
		return nil
	}
	return armv6m.Translate(pt, c.SelfLoops(), armv6m.TranslationConfig{
		Profile:        c.Profile,
		PipelineRefill: c.PipelineRefill,
		MulCycles:      c.MulCycles,
		Marks:          marks,
	})
}
