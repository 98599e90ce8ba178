package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// refNominal is the time of one reference sample on a quiet host: the
// 2-core x86-64 VM the benchmark was sized on, when no other tenant
// loads it. Scaled times are wall times converted to that host.
const refNominal = 0.013

// One reference sample is refChunks chunks. A chunk is one int8
// matrix-vector product of refRows × refCols, the shape of eval-dense's
// hidden layer, then refSteps steps of a branchy interpreter over a
// 1 MiB table. On the sizing host the product takes about 80% of a
// chunk's time.
const (
	refChunks        = 500
	refRows, refCols = 32, 784
	refSteps         = 800
)

// The reference kernel's operands, one set per goroutine, made once so
// that sampling never allocates and so never starts a garbage
// collection, whose cost would depend on the repository's heap.
var (
	refWeights, refInputs = func() (w, x [workers][]byte) {
		s := uint32(1)
		for g := range w {
			w[g] = make([]byte, refRows*refCols)
			x[g] = make([]byte, refCols)
			for i := range w[g] {
				s = s*1664525 + 1013904223
				w[g][i] = byte(s >> 24)
			}
			for i := range x[g] {
				x[g][i] = byte(i*37 + g)
			}
		}
		return w, x
	}()
	refTables = func() (t [workers][]uint32) {
		for i := range t {
			t[i] = make([]uint32, 1<<18)
		}
		return t
	}()
)

var refSink uint32 // keeps the compiler from discarding the kernel

// hostRef times a fixed kernel that calls nothing in the repository and
// returns the wall time in seconds. One goroutine per farm worker pulls
// the kernel's chunks from a shared counter, as farm.Map hands out
// inputs. Other tenants of the host slow the kernel much as they slow
// the emulator, image building and training, so the ratio of a step to
// the samples taken beside it cancels most of the host's drift, while a
// change to the repository moves only the step.
//
// Tenants slow the two halves of a chunk by different factors: the
// matrix-vector product a little more than the workloads, the
// interpreter much less. The mix was chosen so that the kernel slows
// with the workloads (README.md, "Choosing the reference kernel").
func hostRef() float64 {
	var next atomic.Int64
	var acc [workers]uint32
	start := time.Now()
	var wg sync.WaitGroup
	for g := range acc {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var a uint32
			for i := next.Add(1); i <= refChunks; i = next.Add(1) {
				a += refProduct(refWeights[g], refInputs[g])
				a += refInterp(refTables[g], uint64(i), refSteps)
			}
			acc[g] = a
		}(g)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, a := range acc {
		refSink += a
	}
	return wall
}

// refProduct multiplies the refRows × refCols int8 matrix w by the int8
// vector x. Every load is bounds-checked against its buffer, as an
// emulator checks a bus address.
func refProduct(w, x []byte) uint32 {
	var out uint32
	wl, xl := uint32(len(w)), uint32(len(x))
	for o := uint32(0); o < refRows; o++ {
		base := o * refCols
		var acc uint32
		for i := uint32(0); i < refCols; i++ {
			a := base + i
			if a >= wl || i >= xl {
				break
			}
			acc += uint32(int32(int8(w[a]))) * uint32(int32(int8(x[i])))
		}
		out += acc >> 3
	}
	return out
}

// refInterp runs steps of a small interpreter: pseudo-random opcodes
// dispatched through a switch over the table mem.
func refInterp(mem []uint32, seed uint64, steps int) uint32 {
	mask := uint64(len(mem) - 1)
	x := seed
	var acc uint32
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := (x >> 8) & mask
		switch x & 7 {
		case 0, 1:
			acc += mem[idx]
		case 2:
			mem[idx] = acc
		case 3:
			acc ^= uint32(x)
		case 4:
			if acc&1 == 0 {
				acc >>= 1
			} else {
				acc = acc*3 + 1
			}
		default:
			acc += uint32(x & 7)
		}
	}
	return acc
}

// step is one timed step of a workload with the reference samples
// taken just before and just after it.
type step struct {
	Wall float64 `json:"wall_s"`
	Ref0 float64 `json:"ref_before_s"`
	Ref1 float64 `json:"ref_after_s"`
}

// scaled is the step's wall time converted to the quiet host.
func (s step) scaled() float64 { return s.Wall * refNominal / ((s.Ref0 + s.Ref1) / 2) }

// refClock cuts a workload into steps and samples the reference kernel
// at every cut, outside the steps it times.
type refClock struct {
	ref   float64
	start time.Time
	steps []step
}

// begin samples the reference and starts a step. On a nil clock it
// does nothing.
func (c *refClock) begin() {
	if c == nil {
		return
	}
	c.ref = hostRef()
	c.start = time.Now()
}

// lap ends the open step, samples the reference and starts the next
// step. On a nil clock it does nothing.
func (c *refClock) lap() {
	if c == nil {
		return
	}
	wall := time.Since(c.start).Seconds()
	ref := hostRef()
	c.steps = append(c.steps, step{Wall: wall, Ref0: c.ref, Ref1: ref})
	c.ref = ref
	c.start = time.Now()
}

// take returns the steps closed since the last take.
func (c *refClock) take() []step {
	s := c.steps
	c.steps = nil
	return s
}
