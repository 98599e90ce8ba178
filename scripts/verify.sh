#!/bin/sh
# Repository verify path: tier-1 build + tests, then a bench-smoke run
# that exercises the device-measured experiments in quick mode, writes
# structured metrics JSON, and gates on the metrics schema so metric
# regressions (dropped keys, empty experiment lists) fail fast.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== gofmt"
test -z "$(gofmt -l .)"

echo "== static (go vet + race detector + fuzz corpus)"
go vet ./...
go test -race ./...

echo "== neurolint (repo-local determinism/artifact-stability gate)"
go run ./cmd/neurolint

echo "== staticcheck (pinned; skipped loudly when the module proxy is unreachable)"
# The container this script often runs in has no network and an empty
# module cache; CI always has both, so the pinned tools are a hard gate
# there and an announced skip here.
TOOLBIN="$(mktemp -d)"
trap 'rm -rf "$TOOLBIN"' EXIT
if GOBIN="$TOOLBIN" go install honnef.co/go/tools/cmd/staticcheck@v0.6.1 >/dev/null 2>&1; then
	"$TOOLBIN/staticcheck" ./...
else
	echo "   SKIPPED: cannot fetch staticcheck@v0.6.1 (offline?); CI runs it unconditionally"
fi

echo "== govulncheck (pinned; skipped loudly when the module proxy is unreachable)"
if GOBIN="$TOOLBIN" go install golang.org/x/vuln/cmd/govulncheck@v1.1.4 >/dev/null 2>&1; then
	"$TOOLBIN/govulncheck" ./...
else
	echo "   SKIPPED: cannot fetch govulncheck@v1.1.4 (offline?); CI runs it unconditionally"
fi

echo "== go test"
go test ./...

echo "== neuroc-perf (the benchmark's nested module, outside ./...)"
# It builds against asmcheck.Certify and cert.Certificate.WCET through
# the module's replace directive, so it needs no network.
go -C cmd/neuroc-perf vet .
go -C cmd/neuroc-perf test .

echo "== examples-smoke (the library walkthroughs, about 5 s)"
# quickstart predicts on the deployed board (dep.Dev), anomaly prices a
# batch segmented from the deployed image (MeasureEnergy), and encodings
# deploys under every encoding. examples/mnist trains for minutes and is
# left out.
go run ./examples/quickstart > /dev/null
go run ./examples/anomaly > /dev/null
go run ./examples/encodings > /dev/null

echo "== asmcheck (static verification of all generated kernels)"
go run ./cmd/asmcheck -kernels

echo "== certificates (every kernel variant exports a neuroc-cert/v1 artifact)"
go run ./cmd/asmcheck -kernels -cert > /dev/null

echo "== checked execution (certificates validated at retire time, both interpreters)"
go test -run 'TestVariantCertExactness|TestModelChecked' -count=1 ./internal/cert/

echo "== translation parity (superblock tier bit-identical to both interpreters)"
# Every kernel variant at ws 0-2 on legacy/predecoded/translated, plus
# telemetry parity, budget lockstep, holed-certificate and stale-table
# fallback, device/farm tier selection, and the fuzz seeds (the full
# corpus replays in the plain `go test` stages above), then 15 s of
# fuzzing that reaches the whole-loop MAC and gather executors.
go test -run 'TestTranslate|TestTier|FuzzTranslateParity' -count=1 \
	./internal/armv6m/ ./internal/device/ ./internal/farm/
go test -run '^$' -fuzz FuzzTranslateParity -fuzztime 15s ./internal/armv6m/

echo "== optimizer parity (unrolled kernels: fuzz seeds + dense pins + golden hash + unrolled/4 dominance)"
# The peephole-optimized unrolled kernels against their unoptimized
# form: bit-for-bit accumulator equality, optimized <= unoptimized
# cycles, exact cycle parity across all three execution tiers at ws
# 0-2, and strict certification of both forms. `-run` replays the
# checked-in fuzz seed corpus deterministically; `go test -fuzz
# FuzzOptimizerParity ./internal/kernels/` explores further locally.
# TestOptimizerGolden pins the SHA-256 of the optimizer's output, so
# the deployed unrolled bytes cannot move. TestUnrolledFourDominates
# pins why the encoding search probes only unrolled/4: it never loses
# to unrolled/1 or /2 on WCET or flash.
go test -run 'FuzzOptimizerParity|TestOptimizerParityDense|TestOptimizerGolden' -count=1 ./internal/kernels/
go test -run 'TestUnrolledFourDominates' -count=1 ./internal/modelimg/

echo "== layer attribution parity (host segmentation of the deployed image == telemetry twin)"
# MeasureLayers and MeasureEnergy segment the deployed image on the host
# instead of running the telemetry twin. Host spans of the plain image
# must equal the twin's decoded spans cycle for cycle under every
# encoding (unrolled/4 and an auto-resolved per-layer mix included) at
# ws 0-2; MeasureLayers must equal the twin's farm aggregate and
# MeasureEnergy must price the deployed cycles, under concurrent callers.
go test -race -count=1 -run 'TestModelTelemetryExact|TestHostLayerSpansTwinParity|TestMeasureEnergy' ./internal/telemetry/ .

echo "== training bit-identity (sparse ternary kernels == dense GEMMs, QAT step kernels, host reference, training golden)"
# The sparse forward and input-gradient kernels against MatMul/MatMulBT
# with math.Float32bits on random ternary matrices (zero, cancelling and
# negative rows; row counts on both sides of the parallel split); the
# latent-gradient MatMulAT against a naive ascending-k product (every
# remainder of its block of four rows, ±0 and 2^±20 entries); the
# branch-free Apply against a select-by-sign reference and the host
# reference's sparse ternary Forward against Apply; Adam split across
# workers against one worker; Fit on fewer rows than a batch; and the
# SHA-256 of trained parameters and SaveModel bytes, pinned from the
# dense kernels they replaced (the 784-input case exercises Adam's
# split). -cpu 1,4 shows the row split never moves a bit; the race run
# covers the goroutines MatMulAT and Adam start.
go test -run 'TestTernaryKernelsMatchDense|TestTernarizeThreshold|TestMatMulAT|TestApplyMatchesSwitchReference|TestTernaryForwardMatchesApply|TestAdamSplitMatchesSerial|TestFitFewerRowsThanBatch|TestTrainingGolden' \
	-count=1 -cpu 1,4 ./internal/tensor/ ./internal/encoding/ ./internal/quant/ ./internal/nn/ .
go test -race -count=10 ./internal/nn/ ./internal/tensor/

echo "== encoding-search smoke (-encoding auto end to end)"
# The farm experiment deployed with the per-layer encoding search:
# exercises the flag through neuroc-bench -> Config -> Deploy(auto) ->
# the cert-WCET search -> farm, and panics inside the run on any
# prediction divergence from the host reference. No metrics file: the
# encoding keys would differ from the block-encoded baseline by
# construction.
go run ./cmd/neuroc-bench -exp farm -quick -j 4 -encoding auto > /dev/null

echo "== farm race-stress (shared-flash board farm under the race detector)"
go test -race -count=1 ./internal/farm/...

echo "== bench-regression smoke (all three execution tiers still wired up, optimizer and segmenter benchmarks)"
# One iteration of the Translated/Predecoded/Legacy benchmarks: proves
# each tier is selected, runs, and stays in parity (the benchmark
# bodies assert translation attachment and would fail on any execution
# error). BenchmarkOptimizeUnrolled and BenchmarkHostLayerSpans (one
# segmented inference, what MeasureLayers pays per row) are compiled
# and run once too. Real throughput comparisons need -benchtime 1s and
# an idle host; this is a wiring gate, not a perf gate.
go test -run '^$' -bench 'Inference|FarmMap|OptimizeUnrolled|HostLayerSpans' -benchtime 1x \
	./internal/armv6m/ ./internal/farm/ ./internal/kernels/ ./internal/telemetry/

echo "== bench-smoke on the translated tier (explicit -tier plumbing end to end)"
# The farm experiment pinned to -tier translated: exercises the tier
# flag through neuroc-bench -> Config -> Deployment -> farm -> device,
# and panics inside the run on any accuracy/cycle divergence from the
# host reference. No metrics file: the tier key would differ from the
# auto-tier baseline by construction.
go run ./cmd/neuroc-bench -exp farm -quick -j 4 -tier translated > /dev/null

echo "== bench-smoke (quick device-measured experiments + metrics JSON)"
# table1/fig2/fig3/fig5/pareto are the training-free experiments: they
# deploy and measure on the emulated M0 in seconds, which is what the
# smoke gate needs. pareto covers the unrolled encodings and the auto
# search (its records gate the unrolled-beats-block property in the
# baseline). farm adds the board-farm parallel evaluation: full digits
# test-set accuracy on-emulator, with wall-clock and speedup recorded
# into the same neuroc-metrics/v1 file (the -j 4 run is bit-identical
# to -j 1; only wall-clock changes, and only on multi-core hosts).
# `neuroc-bench -quick -metrics bench_quick.json` (all experiments)
# produces the same file at CI-training scale.
go run ./cmd/neuroc-bench -exp table1,fig2,fig3,fig5,pareto,farm -quick -j 4 -metrics bench_quick.json -timeline timeline_quick.json > /dev/null

echo "== metricscheck"
go run ./cmd/metricscheck bench_quick.json

echo "== timeline-smoke (neuroc-timeline/v1 shape + span-tree invariants)"
# The farm experiment above also emitted the run timeline. Gate it: the
# validator checks the Chrome trace-event shape, that inference spans
# concatenate gaplessly in input order, that layer spans stay inside
# their inference, and that Σ layer cycles + overhead + other equals
# each inference's cycle count exactly.
go run ./cmd/metricscheck -timeline timeline_quick.json

echo "== metrics regression gate (deterministic keys vs committed baseline)"
# Every emulator-computed key (cycle counts, instructions, accuracy,
# footprints, per-layer telemetry cycles, and the energy keys priced
# from them) must match BENCH_BASELINE.json EXACTLY — the emulator is
# deterministic and the energy model is a fixed calibration, so any
# drift is a real behavior change. Wall-clock keys are ignored at
# tolerance 0. After an intentional cycle-model, codegen, or energy-
# calibration change, regenerate the baseline with the bench-smoke
# command above and commit it with the change.
# The verdict is captured to metricscheck_compare.txt so CI can upload
# it as an artifact even when the gate fails. Deliberately not a pipe
# into tee: under set -e that would gate on tee's exit status, not
# metricscheck's.
if go run ./cmd/metricscheck -compare BENCH_BASELINE.json bench_quick.json > metricscheck_compare.txt 2>&1; then
	cat metricscheck_compare.txt
else
	cat metricscheck_compare.txt
	exit 1
fi

echo "verify: ok"
