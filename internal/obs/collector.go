package obs

import (
	"fmt"
	"sync"
)

// FarmCollector publishes a board-farm batch into a Registry: live
// progress, per-inference latency distributions in both domains,
// per-layer cycle and µJ breakdowns, and a failure counter. It is
// the bridge farm.Map's per-item observer hook feeds; all methods are
// safe for concurrent use by any number of workers.
type FarmCollector struct {
	reg *Registry

	// UJPerCycle prices observed cycles into the accumulated-energy
	// counter (energy.Model.ActiveUJPerCycle); 0 disables the µJ series.
	UJPerCycle float64

	inferences Counter
	failures   Counter
	energyUJ   FloatCounter
	batchItems Gauge
	batchDone  Gauge
	workers    Gauge

	cycles Histogram
	wallNS Histogram

	mu          sync.Mutex
	layerCycles []Histogram    // by layer index
	layerUJ     []FloatCounter // by layer index
}

// NewFarmCollector registers the farm metric families on reg.
func NewFarmCollector(reg *Registry, ujPerCycle float64) *FarmCollector {
	return &FarmCollector{
		reg:        reg,
		UJPerCycle: ujPerCycle,
		inferences: reg.Counter("neuroc_inferences_total", "completed inferences (successes)"),
		failures:   reg.Counter("neuroc_inference_failures_total", "inferences that faulted or exhausted their budget"),
		energyUJ:   reg.FloatCounter("neuroc_energy_uj_total", "accumulated active energy across successful inferences (µJ, priced from exact cycles)"),
		batchItems: reg.Gauge("neuroc_batch_items", "inputs in the current batch"),
		batchDone:  reg.Gauge("neuroc_batch_done", "inputs completed so far in the current batch"),
		workers:    reg.Gauge("neuroc_farm_workers", "emulated boards in the current pool"),
		cycles:     reg.Histogram("neuroc_inference_cycles", "per-inference device cycles (cycle domain: exact and deterministic)"),
		wallNS:     reg.Histogram("neuroc_inference_wall_ns", "per-inference host wall time in ns (wall domain: varies run to run)"),
	}
}

// StartBatch resets the progress gauges for a new batch and publishes
// its shape (the counters and histograms accumulate across batches).
func (c *FarmCollector) StartBatch(items, workers int, tier string) {
	c.batchItems.Set(int64(items))
	c.batchDone.Set(0)
	c.workers.Set(int64(workers))
	c.reg.Gauge("neuroc_tier_info", "execution tier of the current batch (1 = active)",
		Label{"tier", tier}).Set(1)
}

// Observe records one completed inference.
func (c *FarmCollector) Observe(cycles uint64, wallNS int64, failed bool) {
	c.batchDone.Add(1)
	if failed {
		c.failures.Inc()
		return
	}
	c.inferences.Inc()
	c.cycles.Observe(cycles)
	if wallNS > 0 {
		c.wallNS.Observe(uint64(wallNS))
	}
	if c.UJPerCycle > 0 {
		c.energyUJ.Add(float64(cycles) * c.UJPerCycle)
	}
}

// ObserveLayer records one layer span of a completed inference.
func (c *FarmCollector) ObserveLayer(layer int, kernel string, cycles uint64) {
	c.mu.Lock()
	for len(c.layerCycles) <= layer {
		i := len(c.layerCycles)
		ls := []Label{{"layer", fmt.Sprint(i)}}
		if i == layer && kernel != "" {
			ls = append(ls, Label{"kernel", kernel})
		}
		c.layerCycles = append(c.layerCycles, c.reg.Histogram(
			"neuroc_layer_cycles", "per-layer device cycles (cycle domain)", ls...))
		c.layerUJ = append(c.layerUJ, c.reg.FloatCounter(
			"neuroc_layer_uj_total", "accumulated per-layer active energy (µJ, priced from exact cycles)", ls...))
	}
	h, uj := c.layerCycles[layer], c.layerUJ[layer]
	c.mu.Unlock()
	h.Observe(cycles)
	if c.UJPerCycle > 0 {
		uj.Add(float64(cycles) * c.UJPerCycle)
	}
}
