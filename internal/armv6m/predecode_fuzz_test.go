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

// fuzzBoot boots one core from the image; legacy selects the
// fetch/decode interpreter.
func fuzzBoot(t *testing.T, img []byte, legacy bool) *armv6m.CPU {
	t.Helper()
	cpu := armv6m.New()
	cpu.DisablePredecode = legacy
	if err := cpu.Bus.LoadFlash(0, img); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	return cpu
}

// FuzzPredecodeParity feeds random Thumb-1 instruction streams to a
// predecoded core and a legacy core and requires bit-identical state,
// counters, and error text, both in per-Step lockstep (exercising the
// Step fast path) and across a single Run (exercising the hoisted
// runPredecoded loop and its local-counter flushes).
func FuzzPredecodeParity(f *testing.F) {
	// Seeds: straight-line ALU ops, a tight loop, memory traffic, a
	// fault, and an instruction the predecoder refuses (UDF).
	f.Add([]byte{0x01, 0x20, 0x42, 0x1c, 0x00, 0xbe})             // movs r0,#1; adds r2,r0,r1; bkpt
	f.Add([]byte{0x01, 0x30, 0xfd, 0xe7})                         // adds r0,#1; b .-2 (endless loop)
	f.Add([]byte{0x40, 0x68, 0x41, 0x60, 0x00, 0xbe})             // ldr/str through r0 (faults at 0)
	f.Add([]byte{0xde, 0xde, 0x00, 0xbe})                         // UDF, then bkpt
	f.Add([]byte{0x00, 0xf0, 0x02, 0xf8, 0x00, 0xbe, 0x00, 0xbe}) // bl +4
	f.Add([]byte{0x80, 0xb5, 0x80, 0xbd, 0x00, 0xbe})             // push {r7,lr}; pop {r7,pc}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		img := fuzzImage(code)

		// Step-level lockstep, comparing after every instruction.
		fast := fuzzBoot(t, img, false)
		legacy := fuzzBoot(t, img, true)
		const maxSteps = 3000
		for n := 0; n < maxSteps; n++ {
			errFast := fast.Step()
			errLegacy := legacy.Step()
			if errStr(errFast) != errStr(errLegacy) {
				t.Fatalf("step %d: error diverged\nfast:   %v\nlegacy: %v", n, errFast, errLegacy)
			}
			compareState(t, n, fast, legacy)
			if errFast != nil {
				break
			}
		}
		for i := range fast.Bus.SRAM {
			if fast.Bus.SRAM[i] != legacy.Bus.SRAM[i] {
				t.Fatalf("SRAM diverged at +0x%x: %02x vs %02x",
					i, fast.Bus.SRAM[i], legacy.Bus.SRAM[i])
			}
		}

		// Run-level parity on fresh cores: the budgeted hoisted loop
		// must land on the same final state and error as the Step loop.
		fastR := fuzzBoot(t, img, false)
		legacyR := fuzzBoot(t, img, true)
		errFast := fastR.Run(maxSteps)
		errLegacy := legacyR.Run(maxSteps)
		if errStr(errFast) != errStr(errLegacy) {
			t.Fatalf("Run: error diverged\nfast:   %v\nlegacy: %v", errFast, errLegacy)
		}
		compareState(t, -1, fastR, legacyR)
		for i := range fastR.Bus.SRAM {
			if fastR.Bus.SRAM[i] != legacyR.Bus.SRAM[i] {
				t.Fatalf("Run: SRAM diverged at +0x%x: %02x vs %02x",
					i, fastR.Bus.SRAM[i], legacyR.Bus.SRAM[i])
			}
		}
	})
}
