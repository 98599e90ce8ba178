package asmcheck

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/cert"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// Certificate export: every analysis re-walks the recovered CFGs into
// the neuroc-cert/v1 facts — per-instruction cycle formulas and memory
// classes, block costs, successor edges, loop bounds — and reads the
// report's cycle bounds off the certificate evaluator
// (cert.Certificate.Bounds), so Check, Certify and the encoding search
// share one cycle-bound engine. The cycle formulas mirror the
// emulator's published Cortex-M0 cost model instruction for
// instruction, which is what lets checked execution (internal/cert)
// validate every exact retire against them with zero tolerance.

// Certify analyzes the program like Check and, when it passes every
// check, exports the proof as a certificate. A program with violations
// yields a nil certificate, the report carrying them, and an error.
func Certify(p *thumb.Program, cfg Config) (*cert.Certificate, *Report, error) {
	ck, rootAddrs, isrAddrs, err := run(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, c := ck.report(rootAddrs, isrAddrs)
	if !rep.OK() {
		return nil, rep, fmt.Errorf("asmcheck: refusing to certify a program with %d violation(s); first: %s",
			len(rep.Violations), rep.Violations[0])
	}
	return c, rep, nil
}

// certificate exports every analyzed function. The whole-image stack
// and cycle bounds are filled in by report.
func (ck *checker) certificate(rootAddrs, isrAddrs []uint32) *cert.Certificate {
	c := &cert.Certificate{
		Version:        cert.Version,
		Profile:        ck.cfg.Profile.Name,
		PipelineRefill: ck.cfg.Profile.PipelineRefill,
		MulCycles:      ck.cfg.MulCycles,
		CodeBase:       ck.p.Base,
		CodeLimit:      ck.cfg.CodeLimit,
		WCETWaitStates: ck.cfg.FlashWaitStates,
		Roots:          rootAddrs,
		ISRRoots:       isrAddrs,
	}
	for _, addr := range ck.funcOrder {
		f := ck.funcs[addr]
		if f.entry == nil {
			continue
		}
		c.Funcs = append(c.Funcs, ck.certFunc(f))
	}
	return c
}

// certFunc exports one function: blocks in address order, loops with
// their proven bounds. Iteration bounds come from "asmcheck: loop N"
// annotations on the latch (back-edge) branches; a loop with none is
// a CYCLE_UNBOUNDED violation, exported with bound 0, which the
// evaluator refuses to price.
func (ck *checker) certFunc(f *fn) cert.Func {
	cf := cert.Func{Name: f.name, Addr: f.addr}
	for _, b := range f.blockList {
		cb := cert.Block{Start: b.start, Exact: true}
		for i := range b.instrs {
			in := &b.instrs[i]
			ci := ck.certInstr(in)
			cb.Cost = cb.Cost.Add(ci.Cost)
			cb.TakenExtra = ci.TakenExtra // nonzero only on a conditional terminator
			if !ci.Exact {
				cb.Exact = false
			}
			cb.Instrs = append(cb.Instrs, ci)
		}
		last := b.last()
		cb.End = last.Addr + uint32(last.Size)
		for _, s := range b.succs {
			cb.Succs = append(cb.Succs, s.start)
		}
		cf.Blocks = append(cf.Blocks, cb)
	}
	idom := dominators(f)
	for _, l := range ck.findLoops(f, idom) {
		cl := cert.Loop{Header: l.header.start}
		for _, latch := range l.latches {
			cl.Latches = append(cl.Latches, latch.start)
			if b := uint64(latch.last().LoopBound); b > cl.Bound {
				cl.Bound = b
			}
		}
		for b := range l.blocks { //neurolint:allow maporder (sorted below before export)
			cl.Blocks = append(cl.Blocks, b.start)
		}
		if cl.Bound == 0 {
			ck.violate(CodeCycleUnbounded, f, l.latches[0].last().Addr,
				"loop back edge to 0x%08x has no \"asmcheck: loop N\" bound", cl.Header)
		}
		sortU32(cl.Blocks)
		sortU32(cl.Latches)
		cf.Loops = append(cf.Loops, cl)
	}
	return cf
}

// certInstr derives one instruction's fact set from its decode and the
// joined memory classification. The formula mirrors the emulator's
// cost model: every fetch is one flash read paying one wait-state
// unit; only a single load/store whose data target is proven flash
// pays a second unit (LDM/STM/PUSH/POP data and BL's second fetch
// halfword are wait-state free). An unproven single load/store is
// inexact and charged the second unit, so its cost bounds the
// emulator's from above.
func (ck *checker) certInstr(in *instr) cert.Instr {
	refill := uint64(ck.cfg.Profile.PipelineRefill)
	ci := cert.Instr{
		Addr: in.Addr, Size: uint8(in.Size), Text: in.Text,
		Exact: true, FlashReads: 1, // the fetch
	}
	cost := cert.Formula{Base: 1, WS: 1} // the fetch again

	// classify resolves the joined memory fact for a data-accessing
	// instruction; an unproven region makes the instruction inexact.
	classify := func() (regionID, bool) {
		m := ck.mems[in.Addr]
		if m == nil || !m.seen || m.unproven {
			ci.Exact = false
			return regionNone, false
		}
		switch m.region {
		case regionFlash:
			ci.Mem = cert.ClassFlash
		case regionSRAM:
			ci.Mem = cert.ClassSRAM
		case regionPeriph:
			ci.Mem = cert.ClassPeriph
		default:
			ci.Exact = false
			return regionNone, false
		}
		return m.region, true
	}

	switch in.Kind {
	case armv6m.KindALU:
		if in.IsMul {
			cost.Base = uint64(ck.cfg.MulCycles)
		}

	case armv6m.KindCompare, armv6m.KindHint, armv6m.KindCPS, armv6m.KindAddSP:
		// 1 cycle; a WFI's sleep portion is outside the active formula.

	case armv6m.KindBKPT:
		ci.Halt = true

	case armv6m.KindLoad, armv6m.KindStore:
		cost.Base = 2
		ci.Accesses = 1
		ci.Store = in.Kind == armv6m.KindStore
		r, ok := classify()
		switch {
		case !ok:
			cost.WS++ // the target may be flash: bound by its wait states
		case r == regionFlash:
			cost.WS++ // data access pays wait states
			ci.FlashReads++
		case r == regionSRAM:
			if ci.Store {
				ci.SRAMWrites = 1
			} else {
				ci.SRAMReads = 1
			}
		default:
			// The peripheral window is zero-wait and uncounted.
		}

	case armv6m.KindLoadMulti, armv6m.KindStoreMulti:
		n := uint64(in.RegCount())
		cost.Base = 1 + n
		ci.Accesses = int(n)
		ci.Store = in.Kind == armv6m.KindStoreMulti
		if r, ok := classify(); ok {
			switch r {
			case regionFlash:
				ci.FlashReads += n // multi-transfer data is wait-state free
			case regionSRAM:
				if ci.Store {
					ci.SRAMWrites = n
				} else {
					ci.SRAMReads = n
				}
			}
		}

	case armv6m.KindPush:
		n := uint64(in.RegCount())
		cost.Base = 1 + n
		ci.Accesses = int(n)
		ci.Store = true
		ci.Mem = cert.ClassSRAM // the stack lives in SRAM
		ci.SRAMWrites = n

	case armv6m.KindPop:
		n := uint64(in.RegCount())
		cost.Base = 1 + n
		ci.Accesses = int(n)
		ci.Mem = cert.ClassSRAM
		ci.SRAMReads = n
		if in.RegList&(1<<15) != 0 {
			cost.Base += 1 + refill // PC write refills the pipeline
			ci.Ret = true
		}

	case armv6m.KindBranchCond:
		ci.Target = in.Target
		ci.TakenExtra = refill // not-taken base of 1, refill on the taken edge

	case armv6m.KindBranch:
		cost.Base = 1 + refill
		ci.Target = in.Target

	case armv6m.KindBX:
		cost.Base = 1 + refill
		ci.Ret = true

	case armv6m.KindBL:
		cost.Base = 2 + refill
		ci.FlashReads = 2 // the second halfword fetch is counted but wait-state free
		ci.Call = in.Target

	default:
		// BLX/SVC/UDF/unknown never certify (the analysis flags them, so
		// Certify refused already); keep the fact inexact as a backstop.
		ci.Exact = false
	}
	ci.Cost = cost
	return ci
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
