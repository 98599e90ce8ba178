// Package cert defines the neuroc-cert/v1 proof-carrying certificate:
// the machine-checkable artifact internal/asmcheck exports for every
// image that passes static verification, and the runtime checker that
// validates an emulated execution against it instruction by
// instruction (see checker.go).
//
// A certificate pins down, for every function and basic block the
// static analysis proved reachable: the address range, the successor
// edges, the exact cycle cost of the block as a closed form in the
// flash wait-state setting, the memory-region classification of every
// load and store, loop iteration bounds, and the whole-image stack and
// WCET bounds. Downstream consumers (the planned JIT tier, the checked
// execution mode) never re-derive these facts; they only evaluate
// them. The format is append-only versioned: consumers must reject a
// certificate whose Version string they do not know.
package cert

import (
	"encoding/json"
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Version is the format identifier of this certificate schema.
const Version = "neuroc-cert/v1"

// Formula is a cycle cost as a closed form in the flash wait-state
// setting: cycles(ws) = Base + WS*ws. The WS coefficient counts the
// flash accesses that pay wait states at runtime: the instruction
// fetch, plus each single load/store whose target is proven to be
// flash. (LDM/STM/PUSH/POP pay no data wait states in the Cortex-M0
// model, and BL's second fetch halfword is free; both match the
// emulator exactly.) An inexact single load/store, whose region is
// unproven, is charged the data wait state too, so its formula is an
// upper bound rather than the exact cost.
type Formula struct {
	Base uint64 `json:"base"`
	WS   uint64 `json:"ws"`
}

// Eval evaluates the formula at a wait-state setting.
func (f Formula) Eval(ws uint64) uint64 { return f.Base + f.WS*ws }

// Add returns the sum of two formulas.
func (f Formula) Add(g Formula) Formula { return Formula{Base: f.Base + g.Base, WS: f.WS + g.WS} }

// Mul scales a formula by an execution count: n back-to-back retires
// cost n·Base + n·WS·ws, the way a certified loop body is priced per
// proven iteration.
func (f Formula) Mul(n uint64) Formula { return Formula{Base: f.Base * n, WS: f.WS * n} }

// NotTakenCost sums the member instructions' formulas with a
// conditional terminator at its not-taken cost — the closed form the
// block's Cost field must equal. Consumers cross-check the block
// against its instructions with this before trusting either.
func (b *Block) NotTakenCost() Formula {
	var f Formula
	for i := range b.Instrs {
		f = f.Add(b.Instrs[i].Cost)
	}
	return f
}

// MemClass is the proven memory region of a data access.
type MemClass string

// Memory classes. ClassNone marks an access whose region the analysis
// could not prove; instructions carrying it are inexact and exempt
// from runtime memory checking.
const (
	ClassNone   MemClass = ""
	ClassFlash  MemClass = "flash"
	ClassSRAM   MemClass = "sram"
	ClassPeriph MemClass = "periph"
)

// Instr is the per-instruction fact set. Counter fields are the exact
// bus-counter deltas one retire of this instruction produces (the
// fetch included), which is how the runtime checker validates the
// memory classification without ever seeing an address.
type Instr struct {
	Addr uint32 `json:"addr"`
	Size uint8  `json:"size"`
	Text string `json:"text,omitempty"`

	// Cost is the instruction's active-cycle cost; for a conditional
	// branch it is the not-taken cost and TakenExtra is added on the
	// taken edge. WFI is certified by its 1-cycle active part (the
	// sleep portion is accounted separately by the trace).
	Cost       Formula `json:"cost"`
	TakenExtra uint64  `json:"taken_extra,omitempty"`

	// Mem/Store/Accesses classify the instruction's data accesses:
	// every access targets Mem, Store marks proven stores, Accesses is
	// the access count (register count for LDM/STM/PUSH/POP).
	Mem      MemClass `json:"mem,omitempty"`
	Store    bool     `json:"store,omitempty"`
	Accesses int      `json:"accesses,omitempty"`

	// Exact bus-counter deltas per retire (fetch included).
	FlashReads uint64 `json:"flash_reads"`
	SRAMReads  uint64 `json:"sram_reads,omitempty"`
	SRAMWrites uint64 `json:"sram_writes,omitempty"`

	// Exact marks instructions whose cost formula and counter deltas
	// are proven exact. An unproven access region makes the
	// instruction (and its block) inexact: still control-flow checked,
	// but exempt from cycle and counter validation.
	Exact bool `json:"exact"`

	// Control-flow facts: Target for B/B<cond>, Call for BL (callee
	// entry), Ret for returns (BX lr, POP {...,pc}), Halt for BKPT.
	Target uint32 `json:"target,omitempty"`
	Call   uint32 `json:"call,omitempty"`
	Ret    bool   `json:"ret,omitempty"`
	Halt   bool   `json:"halt,omitempty"`
}

// Block is one basic block: [Start, End) with its certified cost and
// successor edges (in-function block starts).
type Block struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`

	// Cost is the sum of the member instructions' formulas, with a
	// conditional terminator charged at its not-taken cost; TakenExtra
	// is the addition when the block exits via the taken edge. Callee
	// cycles at BL sites are not included (they are certified in the
	// callee's own blocks).
	Cost       Formula `json:"cost"`
	TakenExtra uint64  `json:"taken_extra,omitempty"`

	// Exact marks blocks all of whose instructions are exact.
	Exact bool `json:"exact"`

	Succs  []uint32 `json:"succs,omitempty"`
	Instrs []Instr  `json:"instrs"`
}

// Loop is one natural loop with its proven iteration bound: the header
// block executes at most Bound times per entry from outside the loop.
type Loop struct {
	Header  uint32   `json:"header"`
	Bound   uint64   `json:"bound"`
	Blocks  []uint32 `json:"blocks"`
	Latches []uint32 `json:"latches"`
}

// Func is one certified function.
type Func struct {
	Name   string  `json:"name"`
	Addr   uint32  `json:"addr"`
	Blocks []Block `json:"blocks"`
	Loops  []Loop  `json:"loops,omitempty"`
}

// Certificate is the neuroc-cert/v1 artifact for one checked image.
type Certificate struct {
	Version string `json:"version"`

	// Cycle-model parameters the formulas were derived under. A
	// checker must refuse to validate a run whose core configuration
	// disagrees.
	Profile        string `json:"profile"`
	PipelineRefill int    `json:"pipeline_refill"`
	MulCycles      int    `json:"mul_cycles"`

	CodeBase  uint32 `json:"code_base"`
	CodeLimit uint32 `json:"code_limit"`

	// StackBound is the whole-image worst-case stack depth in bytes
	// (hardware exception frame and deepest ISR included when ISRs are
	// certified). WCETCycles is the whole-image worst-case cycle bound
	// over the main-thread roots, evaluated by Bound at WCETWaitStates
	// (not a closed form: the worst path may change with the
	// wait-state setting).
	StackBound     uint32 `json:"stack_bound"`
	WCETCycles     uint64 `json:"wcet_cycles"`
	WCETWaitStates int    `json:"wcet_wait_states"`

	Roots    []uint32 `json:"roots"`
	ISRRoots []uint32 `json:"isr_roots,omitempty"`

	Funcs []Func `json:"funcs"`
}

// JSON renders the certificate for tooling.
func (c *Certificate) JSON() ([]byte, error) { return json.MarshalIndent(c, "", "  ") }

// Parse decodes a neuroc-cert/v1 document, rejecting unknown versions.
func Parse(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("cert: %w", err)
	}
	if c.Version != Version {
		return nil, fmt.Errorf("cert: unsupported version %q (want %q)", c.Version, Version)
	}
	return &c, nil
}

// Func returns the certified function at addr, or nil.
func (c *Certificate) Func(addr uint32) *Func {
	for i := range c.Funcs {
		if c.Funcs[i].Addr == addr {
			return &c.Funcs[i]
		}
	}
	return nil
}

// FuncByName returns the certified function with the given name, or nil.
func (c *Certificate) FuncByName(name string) *Func {
	for i := range c.Funcs {
		if c.Funcs[i].Name == name {
			return &c.Funcs[i]
		}
	}
	return nil
}

// CompatibleWith reports whether the certificate's cycle-model
// parameters match the core's configuration.
func (c *Certificate) CompatibleWith(cpu *armv6m.CPU) error {
	if c.Version != Version {
		return fmt.Errorf("cert: unsupported version %q", c.Version)
	}
	if cpu.Profile.Name != c.Profile || cpu.Profile.PipelineRefill != c.PipelineRefill {
		return fmt.Errorf("cert: certified for profile %s (refill %d), core is %s (refill %d)",
			c.Profile, c.PipelineRefill, cpu.Profile.Name, cpu.Profile.PipelineRefill)
	}
	if cpu.MulCycles != c.MulCycles {
		return fmt.Errorf("cert: certified for %d-cycle MULS, core uses %d", c.MulCycles, cpu.MulCycles)
	}
	return nil
}
