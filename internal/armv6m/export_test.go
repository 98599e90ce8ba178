package armv6m

// RunSpan is one straight-line run of a translation table: its
// addresses [Start, End) and the static totals execRun adds at exit.
type RunSpan struct {
	Start, End uint32
	Gathers    int
	Instrs     uint64
	CostBase   uint64
	CostWS     uint64
	FlashReads uint64
	SRAMReads  uint64
	SRAMWrites uint64
}

// RunSpans lists the table's runs in address order.
func (t *TranslationTable) RunSpans() []RunSpan {
	var out []RunSpan
	for i := range t.loops {
		lp := &t.loops[i]
		if lp.kind != loopRun {
			continue
		}
		out = append(out, RunSpan{Start: lp.start, End: lp.next, Gathers: len(lp.run.gathers),
			Instrs: lp.totN, CostBase: lp.totB, CostWS: lp.totW,
			FlashReads: lp.totFR, SRAMReads: lp.totSR, SRAMWrites: lp.totSW})
	}
	return out
}
