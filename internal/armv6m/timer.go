package armv6m

// On-device telemetry peripheral: a TIM2-style free-running cycle
// counter plus a small event mailbox, memory-mapped at the STM32F0 TIM2
// base. The paper measures every latency number from the firmware
// itself by reading TIM2_CNT around the inference call; this peripheral
// reproduces that measurement path inside the emulator, so generated
// kernels can timestamp layer boundaries exactly the way firmware on
// the real part would.
//
// Register map (word access only; all other widths bus-fault):
//
//	0x4000_0024  CNT   RO  low 32 bits of the core cycle counter
//	0x4000_0040  MBOX  WO  event mailbox: the stored word is recorded
//	                       together with the 64-bit cycle count at which
//	                       the storing instruction retires
//	0x4000_0044  NEVT  RO  number of committed mailbox events
//
// Access cost: the region adds no wait states, so a load or store
// costs the fixed 2 cycles of any single-cycle-memory data access on
// the M0 — identical to SRAM, and identical on every execution path
// (the differential tests pin this).
//
// Timestamp semantics (pinned by tests, identical on every execution
// path):
//
//   - A CNT read returns the cycle count at the start of the reading
//     instruction's execute stage: every earlier instruction has fully
//     retired and the current instruction's fetch wait states are
//     charged, but its own execute cycles are not.
//   - A MBOX store records the cycle count at which the storing
//     instruction *retires* (all of its cycles charged). The store only
//     enqueues the event; the core commits it with the final cycle
//     count once the instruction completes. This commit-at-retire split
//     is what makes the legacy and predecoded tiers, the traced path
//     and the test oracle agree to the cycle.
//
// A Timer is attached to exactly one core (CPU.EnableTimer) and is not
// shared between boards: under internal/farm every board owns a
// private Timer instance, so parallel evaluation stays race-free.

// Telemetry peripheral memory map.
const (
	TimerBase uint32 = 0x4000_0000 // STM32F0 TIM2 base
	TimerSize uint32 = 0x400       // one peripheral window

	TimerCNT  uint32 = TimerBase + 0x24 // TIM2_CNT offset on the real part
	TimerMBOX uint32 = TimerBase + 0x40
	TimerNEVT uint32 = TimerBase + 0x44
)

// DefaultTimerMaxEvents bounds the mailbox event log. A model image
// emits two events per layer, so the default is far above any real
// firmware while still bounding a runaway store loop.
const DefaultTimerMaxEvents = 4096

// TimerEvent is one committed mailbox event: the stored marker word and
// the 64-bit cycle count at which the storing instruction retired.
type TimerEvent struct {
	Marker uint32
	Cycles uint64
}

// Timer is the telemetry peripheral state for one core.
type Timer struct {
	// Events is the committed mailbox log, in program order.
	Events []TimerEvent

	// Dropped counts mailbox stores discarded because Events reached
	// MaxEvents. The committed log is still exact up to the drop point.
	Dropped uint64

	// MaxEvents caps len(Events); 0 means DefaultTimerMaxEvents.
	MaxEvents int

	// cycles points at the owning core's cycle counter (CNT reads go
	// through it; the core keeps it exact at every bus access).
	cycles *uint64

	// pend holds marker words stored by the instruction currently
	// executing, waiting for the core to commit them at retire.
	pend []uint32
}

// EnableTimer attaches a telemetry peripheral to the core's bus (or
// returns the one already attached). With no timer attached the
// peripheral window stays unmapped and every access faults, so cores
// that never call EnableTimer behave bit-identically to builds without
// the peripheral.
func (c *CPU) EnableTimer() *Timer {
	if c.Bus.Timer == nil {
		c.Bus.Timer = &Timer{cycles: &c.Cycles}
	}
	return c.Bus.Timer
}

// Reset clears the event log and any uncommitted store, preserving the
// configuration. The cycle counter itself is the core's and resets with
// the core.
func (t *Timer) Reset() {
	t.Events = t.Events[:0]
	t.pend = t.pend[:0]
	t.Dropped = 0
}

// maxEvents resolves the configured cap.
func (t *Timer) maxEvents() int {
	if t.MaxEvents > 0 {
		return t.MaxEvents
	}
	return DefaultTimerMaxEvents
}

// read handles a word load from the peripheral window.
func (t *Timer) read(addr uint32) (uint32, error) {
	switch addr {
	case TimerCNT:
		return uint32(*t.cycles), nil //neurolint:allow cycleint (TimerCNT is a 32-bit register; the low word is the hardware contract)
	case TimerNEVT:
		return uint32(len(t.Events)), nil
	default:
		return 0, &BusFault{Addr: addr, Size: 4, Why: "unimplemented timer register"}
	}
}

// write handles a word store to the peripheral window. A MBOX store
// only enqueues the marker: the core calls commit once the storing
// instruction has retired, which is what gives every execution path the
// same timestamp.
func (t *Timer) write(addr, v uint32) error {
	if addr != TimerMBOX {
		return &BusFault{Addr: addr, Size: 4, Write: true, Why: "unimplemented timer register"}
	}
	t.pend = append(t.pend, v)
	return nil
}

// pending reports whether a mailbox store is waiting for retire.
func (t *Timer) pending() bool { return len(t.pend) > 0 }

// commit stamps every pending mailbox store with the retire-time cycle
// count. An instruction that performs several mailbox stores (an STM)
// commits them in store order with one shared timestamp, as all of its
// bus activity retires together.
func (t *Timer) commit(now uint64) {
	for _, m := range t.pend {
		if len(t.Events) >= t.maxEvents() {
			t.Dropped++
			continue
		}
		t.Events = append(t.Events, TimerEvent{Marker: m, Cycles: now})
	}
	t.pend = t.pend[:0]
}
