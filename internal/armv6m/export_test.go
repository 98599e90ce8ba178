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

// OracleStep executes one instruction on the fetch/decode oracle
// (oracle_test.go), with Step's retire sequence.
func OracleStep(c *CPU) error { return c.oracleStep() }

// OracleRun is Run on the fetch/decode oracle.
func OracleRun(c *CPU, maxInstructions uint64) error { return c.oracleRun(maxInstructions) }

// DecodeEntry decodes the halfword op at FlashBase, with the next
// halfword lo, as the emulator does, and reports whether the entry has
// a handler and whether it is a fault entry.
func DecodeEntry(op, lo uint32) (handled, fault bool) {
	var e pentry
	predecode1(&e, FlashBase, op, lo, true)
	return e.fn != nil, e.kind == kFault
}

// ClassifyOp is the trace's instruction class of a first halfword.
func ClassifyOp(op uint32) InstrClass { return classifyOp(op) }

// TableTotal reports whether every entry of the table has a handler.
func (t *PredecodeTable) TableTotal() bool {
	for i := range t.entries {
		if t.entries[i].fn == nil {
			return false
		}
	}
	return true
}

// MarksPlaced reports, per watched address the table was built with,
// whether its mark was placed.
func (t *TranslationTable) MarksPlaced() []bool {
	out := make([]bool, len(t.marks))
	for i := range t.marks {
		out[i] = t.marks[i].why == ""
	}
	return out
}
