// Package armv6m implements an instruction-set emulator for the ARMv6-M
// architecture (the Thumb-1 subset executed by the Cortex-M0/M0+ cores)
// together with the Cortex-M0 cycle model. It is the measurement
// substrate of this repository: inference kernels are assembled to
// Thumb-1 machine code, loaded into the emulated flash, executed, and
// timed in cycles. Latency in milliseconds is cycles divided by the core
// clock, exactly how the paper derives latency from the TIM2 cycle
// counter on the STM32F072RB.
//
// Fidelity notes:
//
//   - All ARMv6-M 16-bit encodings that arm-none-eabi-gcc emits for
//     integer kernels are implemented, plus the 32-bit BL. Privileged
//     and system instructions (MSR/MRS/CPS) are not, as bare-metal
//     inference code never uses them.
//   - The cycle model follows the Cortex-M0 Technical Reference Manual:
//     1 cycle for ALU ops, 2 for single load/store, 1+N for LDM/STM and
//     PUSH/POP, 3 for taken branches (pipeline refill), 1 for not-taken,
//     4 for BL, 3 for BX, 4+N for POP that loads the PC. MULS costs one
//     cycle, matching the fast single-cycle multiplier configured on the
//     STM32F0 family.
//   - The memory system is a single shared bus with no cache, as on the
//     M0. Flash wait states add a fixed penalty to every flash access
//     (instruction fetch or data); the STM32F072 runs with 0 wait states
//     at the paper's 8 MHz clock, which is the default configuration.
//   - Unaligned accesses fault, as they do on real ARMv6-M hardware.
//     This is a deliberate debugging aid: kernel bugs surface as faults
//     rather than silently wrong numbers.
package armv6m

import "fmt"

// Default memory map, matching the STM32F072RB used in the paper.
const (
	FlashBase = 0x0800_0000
	FlashSize = 128 * 1024
	SRAMBase  = 0x2000_0000
	SRAMSize  = 16 * 1024
)

// BusFault describes an invalid memory access.
type BusFault struct {
	Addr  uint32
	Size  int
	Write bool
	Why   string
}

func (f *BusFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("armv6m: bus fault: %d-byte %s at 0x%08x: %s", f.Size, kind, f.Addr, f.Why)
}

// Bus models the Cortex-M0 single AHB-Lite bus with a flash region, an
// SRAM region, and a configurable flash wait-state penalty.
type Bus struct {
	Flash []byte // read-only to the core; loaded before reset
	SRAM  []byte

	FlashBase uint32
	SRAMBase  uint32

	// FlashWaitStates is added to the cycle count of every access that
	// touches flash (instruction fetches and data loads). 0 below
	// 24 MHz on the STM32F0, 1 above.
	FlashWaitStates int

	// Counters for memory-traffic reporting.
	FlashReads, SRAMReads, SRAMWrites uint64

	// Timer, when non-nil, maps the telemetry peripheral window at
	// TimerBase (see timer.go). Nil leaves the window unmapped, so the
	// peripheral costs nothing on buses that never enable it.
	Timer *Timer

	// sharedFlash marks a bus whose Flash slice aliases an array owned
	// elsewhere (NewBusSharedFlash); LoadFlash refuses to write it.
	sharedFlash bool

	// flashGen counts LoadFlash mutations; the CPU's predecoded
	// instruction table records the generation it was built against and
	// rebuilds when they diverge (see predecode.go).
	flashGen uint32
	// loadedLen is the high-water mark of bytes written by LoadFlash
	// (the whole array for a shared bus): the prefix worth predecoding.
	// Execution beyond it decodes each fetch on demand.
	loadedLen int

	// Pads Bus to whole cache lines, for the reason CPU is padded.
	_ [16]byte
}

// NewBus returns a bus with the STM32F072RB memory map (128 KB flash,
// 16 KB SRAM, zero wait states).
func NewBus() *Bus {
	return &Bus{
		Flash:     make([]byte, FlashSize),
		SRAM:      make([]byte, SRAMSize),
		FlashBase: FlashBase,
		SRAMBase:  SRAMBase,
	}
}

// NewBusSharedFlash returns a bus whose flash region aliases the given
// slice instead of owning a private copy. The core can never write
// flash (stores to it bus-fault), and the aliasing bus never writes it
// either — LoadFlash on a shared bus is rejected — so a single
// fully-populated flash array can back any number of boards
// concurrently. This is the memory model of a board farm: one immutable
// program image, many independent cores with private SRAM. The caller
// must not mutate flash while any sharing core runs.
func NewBusSharedFlash(flash []byte) *Bus {
	return &Bus{
		Flash:       flash,
		SRAM:        make([]byte, SRAMSize),
		FlashBase:   FlashBase,
		SRAMBase:    SRAMBase,
		sharedFlash: true,
		loadedLen:   len(flash),
	}
}

// inFlash reports whether [addr, addr+size) lies inside flash. The
// checks are written against the offset, not addr+size, so addresses
// near the top of the 32-bit space cannot wrap past the bound (e.g. a
// word read at 0xfffffffc must fault, not alias into the region).
func (b *Bus) inFlash(addr uint32, size int) bool {
	n, s := uint32(len(b.Flash)), uint32(size)
	return addr >= b.FlashBase && s <= n && addr-b.FlashBase <= n-s
}

func (b *Bus) inSRAM(addr uint32, size int) bool {
	n, s := uint32(len(b.SRAM)), uint32(size)
	return addr >= b.SRAMBase && s <= n && addr-b.SRAMBase <= n-s
}

// inTimer reports whether addr falls in the mapped telemetry window
// (offset-based, so addresses near the top of the address space cannot
// wrap into the region).
func (b *Bus) inTimer(addr uint32) bool {
	return b.Timer != nil && addr-TimerBase < TimerSize
}

// region resolves addr to the backing slice, or nil if unmapped. Flash
// is additionally aliased at address 0, as the M0 maps boot memory there.
func (b *Bus) region(addr uint32, size int, write bool) ([]byte, int, error) {
	switch {
	case b.inFlash(addr, size):
		if write {
			return nil, 0, &BusFault{Addr: addr, Size: size, Write: true, Why: "write to flash"}
		}
		b.FlashReads++
		return b.Flash, int(addr - b.FlashBase), nil
	case uint32(size) <= uint32(len(b.Flash)) && addr <= uint32(len(b.Flash))-uint32(size): // boot alias at 0, wrap-safe
		if write {
			return nil, 0, &BusFault{Addr: addr, Size: size, Write: true, Why: "write to flash alias"}
		}
		b.FlashReads++
		return b.Flash, int(addr), nil
	case b.inSRAM(addr, size):
		if write {
			b.SRAMWrites++
		} else {
			b.SRAMReads++
		}
		return b.SRAM, int(addr - b.SRAMBase), nil
	default:
		return nil, 0, &BusFault{Addr: addr, Size: size, Write: write, Why: "unmapped address"}
	}
}

// accessCycles returns the extra wait-state cycles for an access at addr.
func (b *Bus) accessCycles(addr uint32) int {
	if b.inFlash(addr, 1) || addr < uint32(len(b.Flash)) {
		return b.FlashWaitStates
	}
	return 0
}

// Read8 loads one byte.
func (b *Bus) Read8(addr uint32) (uint32, error) {
	if b.inTimer(addr) {
		return 0, &BusFault{Addr: addr, Size: 1, Why: "timer region is word-access only"}
	}
	mem, off, err := b.region(addr, 1, false)
	if err != nil {
		return 0, err
	}
	return uint32(mem[off]), nil
}

// Read16 loads a halfword; addr must be 2-aligned.
func (b *Bus) Read16(addr uint32) (uint32, error) {
	if addr&1 != 0 {
		return 0, &BusFault{Addr: addr, Size: 2, Why: "unaligned halfword read"}
	}
	if b.inTimer(addr) {
		return 0, &BusFault{Addr: addr, Size: 2, Why: "timer region is word-access only"}
	}
	mem, off, err := b.region(addr, 2, false)
	if err != nil {
		return 0, err
	}
	return uint32(mem[off]) | uint32(mem[off+1])<<8, nil
}

// peek16 is Read16 without counting the access: ok is false where
// Read16 would fault. The on-demand decoder looks ahead at a BL's
// second halfword with it, so that an entry decoded on demand is
// decoded from the same pair as the table's entry for that address: a
// pair that is not a BL is a fault entry from decode on, as Decode
// rejects it and as the certified-loop translator refuses it, and a BL
// entry carries its resolved target. The BL's handler (or the fault
// entry's) counts the read when it runs.
func (b *Bus) peek16(addr uint32) (v uint32, ok bool) {
	flash, sram := b.FlashReads, b.SRAMReads
	v, err := b.Read16(addr)
	b.FlashReads, b.SRAMReads = flash, sram
	return v, err == nil
}

// Read32 loads a word; addr must be 4-aligned.
func (b *Bus) Read32(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, &BusFault{Addr: addr, Size: 4, Why: "unaligned word read"}
	}
	if b.inTimer(addr) {
		return b.Timer.read(addr)
	}
	mem, off, err := b.region(addr, 4, false)
	if err != nil {
		return 0, err
	}
	return uint32(mem[off]) | uint32(mem[off+1])<<8 | uint32(mem[off+2])<<16 | uint32(mem[off+3])<<24, nil
}

// Write8 stores one byte.
func (b *Bus) Write8(addr uint32, v uint32) error {
	if b.inTimer(addr) {
		return &BusFault{Addr: addr, Size: 1, Write: true, Why: "timer region is word-access only"}
	}
	mem, off, err := b.region(addr, 1, true)
	if err != nil {
		return err
	}
	mem[off] = byte(v)
	return nil
}

// Write16 stores a halfword; addr must be 2-aligned.
func (b *Bus) Write16(addr uint32, v uint32) error {
	if addr&1 != 0 {
		return &BusFault{Addr: addr, Size: 2, Write: true, Why: "unaligned halfword write"}
	}
	if b.inTimer(addr) {
		return &BusFault{Addr: addr, Size: 2, Write: true, Why: "timer region is word-access only"}
	}
	mem, off, err := b.region(addr, 2, true)
	if err != nil {
		return err
	}
	mem[off] = byte(v)
	mem[off+1] = byte(v >> 8)
	return nil
}

// Write32 stores a word; addr must be 4-aligned.
func (b *Bus) Write32(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return &BusFault{Addr: addr, Size: 4, Write: true, Why: "unaligned word write"}
	}
	if b.inTimer(addr) {
		return b.Timer.write(addr, v)
	}
	mem, off, err := b.region(addr, 4, true)
	if err != nil {
		return err
	}
	mem[off] = byte(v)
	mem[off+1] = byte(v >> 8)
	mem[off+2] = byte(v >> 16)
	mem[off+3] = byte(v >> 24)
	return nil
}

// LoadFlash copies img into flash at offset off. This is a host-side
// setup API, not an emulated access; an out-of-range image is a
// reported failure (the caller may be loading an arbitrary user file),
// not a crash. Buses sharing another board's flash are read-only and
// reject loads.
func (b *Bus) LoadFlash(off int, img []byte) error {
	if b.sharedFlash {
		return fmt.Errorf("armv6m: LoadFlash on a shared-flash bus (the image is owned by the farm)")
	}
	if off < 0 || off+len(img) > len(b.Flash) {
		return fmt.Errorf("armv6m: LoadFlash %d+%d exceeds flash size %d", off, len(img), len(b.Flash))
	}
	copy(b.Flash[off:], img)
	if off+len(img) > b.loadedLen {
		b.loadedLen = off + len(img)
	}
	b.flashGen++
	return nil
}
