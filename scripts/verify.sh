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

echo "== translation parity (certified-loop fast path bit-identical to the fetch/decode oracle, as both interpreters are)"
# Every kernel variant at ws 0-2 on legacy/predecoded/translated, plus
# telemetry parity, budget lockstep, holed-certificate and stale-table
# fallback, device/farm tier selection, and the fuzz seeds (the full
# corpus replays in the plain `go test` stages above), then 15 s of
# fuzzing that reaches the whole-loop MAC, gather and column executors
# and the straight-line runs. Every test of the stage is listed by its
# exact name (scripts/require-tests.sh), so a renamed test fails the
# stage instead of dropping out silently.
sh scripts/require-tests.sh ./internal/armv6m/ TestTranslateParityKernels TestTranslateParityTelemetry \
	TestTranslateBudgetLockstep TestTranslateFallbackMidRun TestTranslateStaleTableFallsBack \
	TestTranslateLoopCoverage TestTranslateGatherDeviation TestTranslateFirstOpDeviation \
	TestTranslateColumnParity TestTranslateSweepParityVariants TestTranslateSweepParityRandom \
	TestTranslateSweepLeavesSRAM TestTranslateSweepCertificate TestTranslateSweepExitFlags FuzzTranslateParity
sh scripts/require-tests.sh ./internal/device/ TestTierParityAndSelection
sh scripts/require-tests.sh ./internal/farm/ TestTierTranslatedEveryEncoding TestTierParityAcrossFarm
go test -run 'TestTranslate|TestTier|FuzzTranslateParity' -count=1 \
	./internal/armv6m/ ./internal/device/ ./internal/farm/
go test -run '^$' -fuzz FuzzTranslateParity -fuzztime 15s ./internal/armv6m/

echo "== engine parity (table-driven and on-demand cores bit-identical to the fetch/decode oracle)"
# The emulator ships one instruction semantics: the predecoded handlers,
# reached through the decode-once table or decoded on demand for a PC
# the table does not cover (SRAM, the boot alias, past the image). The
# fetch/decode interpreter it replaced is the test oracle
# (internal/armv6m/oracle_test.go). The parity tests step a table core
# and an on-demand core in lockstep with it over every kernel variant,
# SysTick preemption, tracing and wait states; TestDecodeAgreesWithEmulator
# pins Decode (the disassembler's and asmcheck's view) to the emulator's
# fault entries and trace classes over every first halfword; then 15 s
# of FuzzPredecodeParity on all three cores. Each test is listed by its
# exact name, so a renamed test cannot drop out silently.
sh scripts/require-tests.sh ./internal/armv6m/ TestPredecodeParityKernels TestPredecodeParitySysTick \
	TestPredecodeParityTrace TestPredecodeParityWaitStates TestPredecodeRunParity \
	TestDecodeAgreesWithEmulator FuzzPredecodeParity
go test -run 'TestPredecodeParity|TestPredecodeRunParity|TestDecodeAgreesWithEmulator|FuzzPredecodeParity' -count=1 ./internal/armv6m/
go test -run '^$' -fuzz FuzzPredecodeParity -fuzztime 15s -fuzzminimizetime 2s ./internal/armv6m/

echo "== unrolled generator == text oracle (byte identity, fuzz seeds + dense and wide pins + golden hash + unrolled/4 dominance)"
# kernels.Unrolled emits the deployed kernel text directly. The
# peephole optimizer it replaced, run over the naive generator's text,
# is the oracle in optimizer_oracle_test.go. TestUnrolledMatchesOracle
# requires equal text on the golden corpus and seeded shapes up to
# 1,200 inputs (folded moves, bare rewinds, mid-group pools, inits kept
# after the pool). FuzzOptimizerParity (its seed corpus, replayed
# deterministically by -run), TestOptimizerParityDense and
# TestUnrolledParityWide require the same text, then run both forms on
# all three execution tiers at ws 0-2: equal accumulators, deployed <=
# naive cycles, strict certification and WCET == measured for both;
# `go test -fuzz FuzzOptimizerParity ./internal/kernels/` explores
# further. TestOptimizerGolden pins the SHA-256 of Unrolled's output,
# so the deployed unrolled bytes cannot move. TestUnrolledFourDominates
# pins why the encoding search probes only unrolled/4: it never loses
# to unrolled/1 or /2 on WCET or flash. Each test is listed by its
# exact name, so a renamed test cannot drop out silently.
sh scripts/require-tests.sh ./internal/kernels/ TestUnrolledMatchesOracle FuzzOptimizerParity \
	TestOptimizerParityDense TestUnrolledParityWide TestOptimizerGolden
sh scripts/require-tests.sh ./internal/modelimg/ TestUnrolledFourDominates
go test -run 'TestUnrolledMatchesOracle|FuzzOptimizerParity|TestOptimizerParityDense|TestUnrolledParityWide|TestOptimizerGolden' -count=1 ./internal/kernels/
go test -run 'TestUnrolledFourDominates' -count=1 ./internal/modelimg/

echo "== build byte identity (dense CFG recovery == map-based oracle, golden image bytes, annotation scanner == regexps)"
# Image builds recover CFGs in a dense per-halfword table, scan
# "asmcheck:" annotations without regexps and skip re-joining lines
# that are already single-spaced. TestCFGMatchesOracle compares every
# recovered CFG (blocks, instructions, edges, calls, violations) with
# the map-based builder kept in cfg_oracle_test.go, on model images
# under all eight encodings with telemetry and ISR options, every
# kernel harness and the FuzzCheck seeds; TestBuildGolden pins the
# SHA-256 of image bytes, certificates and reports of a fixed corpus;
# TestAnnotation* checks the scanner against the two regexps it
# replaced. Then 15 s of FuzzCheck, which checks the same CFG parity
# on raw, overlapping and truncated code (a short minimization keeps a
# new input from stalling the run). Each test is listed by its exact
# name.
sh scripts/require-tests.sh ./internal/asmcheck/ TestCFGMatchesOracle
sh scripts/require-tests.sh ./internal/modelimg/ TestBuildGolden
sh scripts/require-tests.sh ./internal/thumb/ TestAnnotationScanner TestAnnotationAssemble
go test -run 'TestCFGMatchesOracle|TestBuildGolden|TestAnnotation' -count=1 \
	./internal/asmcheck/ ./internal/modelimg/ ./internal/thumb/
go test -run '^$' -fuzz FuzzCheck -fuzztime 15s -fuzzminimizetime 2s ./internal/asmcheck/

echo "== encoding search exactness (Pareto-frontier search == exhaustive oracle, sound flash bound)"
# The per-layer encoding search against the exhaustive enumeration it
# replaced, kept as a test oracle: identical picks and image bytes on
# seeded models with 1-7 ternary layers, flash-pressure models and the
# seven-layer case the old greedy fallback got wrong; the flash lower
# bound the search skips builds by stays at or below every real image;
# and an undeployable layer reports its most compact candidate. Each
# test is listed by its exact name.
sh scripts/require-tests.sh ./internal/modelimg/ TestSearchMatchesOracle TestSearchMatchesOracleSevenLayers \
	TestSearchSevenLayerFlashPressure TestSearchFlashBoundSound TestSearchNotDeployableNamesMostCompact \
	TestSearchNotDeployableAnyMix TestSearchEncodingsRoundTrip TestAutoSearchNeverDominated
go test -run 'TestSearch|TestAutoSearch' -count=1 ./internal/modelimg/

echo "== layer attribution parity (boundary marks on the fast path == trace-hook oracle == telemetry twin)"
# MeasureLayers and MeasureEnergy segment the deployed image on the host
# instead of running the telemetry twin, reading the cycle totals at the
# layer boundaries off marks in the translation table on the untraced
# fast path. Host spans of the plain image must equal the twin's decoded
# spans cycle for cycle under every encoding (unrolled/4 and an
# auto-resolved per-layer mix included) at ws 0-2, and the trace-hook
# segmenter's spans and counters (TestHostLayerSpansOracle); every board
# state that cannot record the marks must be refused by name
# (TestRunBoundaries*, TestTranslateMarks*), and random marks must change
# nothing against the fetch/decode oracle (FuzzTranslateParity seeds);
# MeasureLayers must equal the twin's farm aggregate and MeasureEnergy
# must price the deployed cycles, under concurrent callers. The gated
# tests are listed by their exact names.
sh scripts/require-tests.sh ./internal/telemetry/ TestHostLayerSpansOracle
sh scripts/require-tests.sh ./internal/device/ TestRunBoundariesRefuses
sh scripts/require-tests.sh ./internal/armv6m/ TestTranslateMarksRefuse TestTranslateMarks FuzzTranslateParity
go test -race -count=1 -run 'TestModelTelemetryExact|TestHostLayerSpansTwinParity|TestMeasureEnergy|TestHostLayerSpansOracle|TestRunBoundaries|TestTranslateMarks|FuzzTranslateParity' \
	./internal/telemetry/ ./internal/device/ ./internal/armv6m/ .

echo "== training bit-identity (sparse ternary kernels == dense GEMMs, QAT step kernels, host reference, training golden)"
# The sparse forward and input-gradient kernels against MatMul/MatMulBT
# with math.Float32bits on random ternary matrices (zero, cancelling and
# negative rows; row counts on both sides of the parallel split; blocks
# of eight input rows that are +0/-0 in whole or in part, for the
# forward kernel's eight-row block); the latent-gradient MatMulAT
# against a naive ascending-k product (every remainder of its blocks of
# eight and four rows, ±0 and 2^±20 entries); the branch-free Apply
# against a select-by-sign reference and the host reference's sparse
# ternary Forward against Apply; Adam split across workers against one
# worker; Fit on fewer rows than a batch; and the SHA-256 of trained
# parameters and SaveModel bytes, pinned from the dense kernels they
# replaced (the 784-input case exercises Adam's split). -cpu 1,4 shows the row split
# never moves a bit; the race run covers the goroutines MatMulTernary,
# MatMulAT and Adam start. Each test is listed by its exact name.
sh scripts/require-tests.sh ./internal/tensor/ TestTernaryKernelsMatchDense TestTernarizeThreshold TestMatMulAT
sh scripts/require-tests.sh ./internal/encoding/ TestApplyMatchesSwitchReference
sh scripts/require-tests.sh ./internal/quant/ TestTernaryForwardMatchesApply
sh scripts/require-tests.sh ./internal/nn/ TestAdamSplitMatchesSerial TestFitFewerRowsThanBatch
sh scripts/require-tests.sh . TestTrainingGolden
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

echo "== bench-regression smoke (all three execution tiers still wired up, image-build stage, unrolled generator and segmenter benchmarks)"
# One iteration of the Translated/Predecoded/Legacy benchmarks: proves
# each tier is selected, runs, and stays in parity (the benchmark
# bodies assert translation attachment and would fail on any execution
# error). BenchmarkCertify, BenchmarkAssemble and
# BenchmarkUnrolled (the image-build stages, on a 784->128
# layer), and BenchmarkHostLayerSpans (one segmented inference, what
# MeasureLayers pays per row) are compiled and run once too. Real throughput comparisons need -benchtime 1s and
# an idle host; this is a wiring gate, not a perf gate.
go test -run '^$' -bench 'Inference|FarmMap|Unrolled|HostLayerSpans|Certify|Assemble' -benchtime 1x \
	./internal/armv6m/ ./internal/farm/ ./internal/kernels/ ./internal/telemetry/ ./internal/asmcheck/ ./internal/thumb/

echo "== bench-smoke (quick device-measured experiments + metrics JSON)"
# table1/fig2/fig3/fig5/pareto are the training-free experiments: they
# deploy and measure on the emulated M0 in seconds, which is what the
# smoke gate needs. pareto covers the unrolled encodings and the auto
# search (its records gate the unrolled-beats-block property in the
# baseline). farm adds the board-farm parallel evaluation: full digits
# test-set accuracy on-emulator at -j 1 and -j 4, recorded into the same
# neuroc-metrics/v1 file (the two records differ only in their name and
# workers keys).
# `neuroc-bench -quick -metrics bench_quick.json` (all experiments)
# produces the same file at CI-training scale.
go run ./cmd/neuroc-bench -exp table1,fig2,fig3,fig5,pareto,farm -quick -j 4 -metrics bench_quick.json -timeline timeline_quick.json > /dev/null

echo "== metricscheck"
go run ./cmd/metricscheck bench_quick.json
# The gate's own reader: a repeated experiment name must fail both the
# validator and the comparison instead of one record hiding the other.
sh scripts/require-tests.sh ./internal/bench/ TestMetricsGateRejectsDuplicateNames
go test -run 'TestMetricsGateRejectsDuplicateNames' -count=1 ./internal/bench/

echo "== timeline-smoke (neuroc-timeline/v1 shape + span-tree invariants)"
# The farm experiment above also emitted the run timeline. Gate it: the
# validator checks the Chrome trace-event shape, that inference spans
# concatenate gaplessly in input order, that layer spans stay inside
# their inference, and that Σ layer cycles + overhead + other equals
# each inference's cycle count exactly.
go run ./cmd/metricscheck -timeline timeline_quick.json

echo "== metrics regression gate (deterministic keys vs committed baseline)"
# Every key of the document (cycle counts, instructions, accuracy,
# footprints, per-layer cycles, and the energy keys priced from them)
# must match BENCH_BASELINE.json EXACTLY — the emulator is
# deterministic and the energy model is a fixed calibration, so any
# drift is a real behavior change. The document carries no host
# wall-clock key, and a key the schema does not define fails the gate.
# After an intentional cycle-model, codegen, or energy-calibration
# change, regenerate the baseline with the bench-smoke command above
# and commit it with the change.
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
