// Package obs is the unified observability substrate: hierarchical
// run-timeline spans with Chrome-trace export (neuroc-timeline/v1), a
// live metrics registry served over HTTP (Prometheus text + JSON
// snapshot), and deterministic log-bucketed latency histograms.
//
// The package is built on the repo's two-domain rule. Every span and
// every metric lives in exactly one time domain:
//
//   - The cycle domain is the emulated device's own clock. Cycle counts
//     are exact and deterministic — the same image and inputs produce
//     the same numbers on any host, at any worker count, on any
//     execution tier — so cycle-domain artifacts are byte-stable and
//     exact-gated (metricscheck -compare, golden files).
//   - The wall domain is the host clock. Wall figures legitimately vary
//     run to run; they are banded in comparisons and never gated.
//
// Cycle-domain code in this package is wall-free: the only host-clock
// read lives in WallNow (clock.go), and neurolint enforces that.
//
// obs deliberately imports nothing outside the standard library, so the
// measurement pipeline (internal/farm, internal/telemetry) can feed it
// without import cycles. Span *construction* from layer spans lives in
// internal/telemetry; this package owns the
// span model, the serialization, and the validators.
package obs
