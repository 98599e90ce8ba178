package armv6m_test

import (
	"encoding/binary"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// fuzzImage builds a bootable flash image from raw fuzz bytes: a valid
// vector table (SP at the top of SRAM, reset vector at the first code
// halfword) followed by the bytes as code. Whatever the bytes decode to
// — valid kernels, UDFs, stray BLs, odd branch targets, bus faults —
// both interpreters must agree on every observable.
func fuzzImage(code []byte) []byte {
	img := make([]byte, 8+len(code))
	binary.LittleEndian.PutUint32(img[0:], armv6m.SRAMBase+armv6m.SRAMSize)
	binary.LittleEndian.PutUint32(img[4:], (armv6m.FlashBase+8)|1)
	copy(img[8:], code)
	return img
}

// fuzzBoot boots one core from the image; onDemand sets
// DisablePredecode, so every fetch decodes on demand.
func fuzzBoot(t *testing.T, img []byte, onDemand bool) *armv6m.CPU {
	t.Helper()
	cpu := armv6m.New()
	cpu.DisablePredecode = onDemand
	if err := cpu.Bus.LoadFlash(0, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	return cpu
}

// FuzzPredecodeParity feeds random Thumb-1 instruction streams to three
// cores — table-driven, on-demand (DisablePredecode) and the
// fetch/decode oracle — and requires bit-identical state, counters, and
// error text, both in per-Step lockstep (exercising Step on the table
// and on demand) and across a single Run (exercising the hoisted
// runPredecoded loop and its local-counter flushes).
func FuzzPredecodeParity(f *testing.F) {
	// Seeds: straight-line ALU ops, a tight loop, memory traffic, a
	// fault, an instruction every core refuses (UDF), and code that
	// leaves the table.
	f.Add([]byte{0x01, 0x20, 0x42, 0x1c, 0x00, 0xbe})             // movs r0,#1; adds r2,r0,r1; bkpt
	f.Add([]byte{0x01, 0x30, 0xfd, 0xe7})                         // adds r0,#1; b .-2 (endless loop)
	f.Add([]byte{0x40, 0x68, 0x41, 0x60, 0x00, 0xbe})             // ldr/str through r0 (faults at 0)
	f.Add([]byte{0xde, 0xde, 0x00, 0xbe})                         // UDF, then bkpt
	f.Add([]byte{0x00, 0xf0, 0x02, 0xf8, 0x00, 0xbe, 0x00, 0xbe}) // bl +4
	f.Add([]byte{0x80, 0xb5, 0x80, 0xbd, 0x00, 0xbe})             // push {r7,lr}; pop {r7,pc}
	f.Add([]byte{0x80, 0x42, 0x05, 0x21, 0x49, 0x41, 0x00, 0xbe}) // cmp r0,r0 (C=1); movs r1,#5; adcs r1,r1; bkpt
	f.Add([]byte{0x00, 0xb4, 0x00, 0xbe})                         // push {} faults
	// Code stored to SRAM and entered with bx: movs r0,#0x20; lsls
	// r0,r0,#24; ldr r1,[pc,#4]; str r1,[r0]; adds r0,#1; bx r0; then
	// the literal "movs r2,#42; bkpt", which runs from 0x20000000.
	f.Add([]byte{0x20, 0x20, 0x00, 0x06, 0x01, 0x49, 0x01, 0x60, 0x01, 0x30, 0x00, 0x47,
		0x2a, 0x22, 0x00, 0xbe})
	// A jump through the boot alias: cmp r7,#1; beq done; movs r7,#1;
	// movs r0,#9; bx r0 (the alias of the first instruction); done:
	// movs r2,#42; bkpt.
	f.Add([]byte{0x01, 0x2f, 0x02, 0xd0, 0x01, 0x27, 0x09, 0x20, 0x00, 0x47, 0x2a, 0x22, 0x00, 0xbe})
	f.Add([]byte{0x00, 0xf0, 0x00, 0x00, 0x00, 0xbe}) // BL whose second halfword is not a BL suffix
	f.Add([]byte{0x00, 0xbf, 0x00, 0xf0})             // nop; BL in the image's last halfword
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		img := fuzzImage(code)

		// Step-level lockstep, comparing after every instruction.
		const maxSteps = 3000
		lockstep(t, fuzzBoot(t, img, false), maxSteps, fuzzBoot(t, img, false), fuzzBoot(t, img, true))

		// Run-level parity on fresh cores: the budgeted hoisted loop and
		// the on-demand Step loop must land on the oracle's final state
		// and error.
		oracle := fuzzBoot(t, img, false)
		errOracle := armv6m.OracleRun(oracle, maxSteps)
		for _, onDemand := range []bool{false, true} {
			c := fuzzBoot(t, img, onDemand)
			if err := c.Run(maxSteps); errStr(err) != errStr(errOracle) {
				t.Fatalf("Run (DisablePredecode=%v): error diverged\ncore:   %v\noracle: %v", onDemand, err, errOracle)
			}
			compareState(t, -1, c, oracle)
			compareSRAM(t, c, oracle)
		}
	})
}
