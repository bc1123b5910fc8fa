# Development targets: build, vet, fmt-check, test, bench-smoke,
# race-short, race-churn, scenario-parity, smoke-txkv, smoke-txkvd,
# trace-demo, paper-smoke, fuzz-trace, fuzz-batch, tidy. CI runs every one of them
# except tidy as a blocking step. Recorded throughput and latency
# numbers come from `bash bench/run.sh` (bench/README.md), not from a
# make target: bench-smoke only checks that the benchmark module and
# internal/stm's AtomicBlock and HotPair microbenchmarks build and run,
# each on its commit-mode axis (eager, lazy, lazyb4).
# race-short repeats TestMetricsPlaneWiring and TestCommitCountExact 200x at -cpu 2: a kill landing on an attempt failing for another reason is rare, and so is a commit lost between a descriptor's private count and its flush; either must fail CI, not flake.

GO ?= go

.PHONY: all build vet fmt-check test bench-smoke race-short race-churn scenario-parity smoke-txkv smoke-txkvd trace-demo paper-smoke fuzz-trace fuzz-batch tidy

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
# A blocking CI step next to Vet (bench/ included: gofmt walks
# directories, not modules).
fmt-check:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

test:
	$(GO) test ./...

# bench/ is its own module (replace txconflict => ../), so build, vet
# and test above never compile it; this does, against the working
# tree's stm/metrics/txkv surface. Then the two fixed-cost
# microbenchmarks of internal/stm run for 2000 blocks each on two
# processors, in every commit mode (eager, lazy, and lazyb4: lazy with a
# four-member combiner lane) — not to time anything, but so they keep
# compiling and BenchmarkHotPair's committed-sum check runs. A blocking
# CI step after Test.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -count=1 .
	$(GO) test -run '^$$' -bench 'AtomicBlock|HotPair' -benchtime 2000x -cpu 2 ./internal/stm/

# Race-detector pass over the runtimes with real concurrency
# (internal/stm: goroutine STM; internal/htm: simulator driven from
# worker goroutines; internal/scenario: the cross-backend parity
# suite; internal/trace + internal/experiments: recorded runs and the
# trace-fidelity loop; internal/txkv: the keyed store's workload
# invariant matrix and the token-gated server). -short keeps it inside
# CI budgets. internal/stm runs at -cpu 1,4: on one P a requestor can only
# yield to an owner that shares its P (the hand-off the conflict path
# must survive), on four the descriptor free lists and the lock word
# see real interleavings.
race-short:
	$(GO) test -race -short -cpu 1,4 ./internal/stm/
	$(GO) test -count=200 -cpu 2 -run 'TestMetricsPlaneWiring|TestCommitCountExact' ./internal/stm/
	$(GO) test -race -short ./internal/htm/ ./internal/scenario/ ./internal/trace/ ./internal/experiments/ ./internal/txkv/

# Control-plane race cell: SetPolicy churn against live traffic on all
# three commit modes (internal/stm) — including the kill-heavy
# commutative-fold churn, which flips FoldCommutative mid-run against
# mixed Add/Store traffic on the same hot words — and the cross-mode
# equivalence suite under mid-run policy
# flips (internal/scenario), all under the race detector. CI runs this
# in the GOMAXPROCS=4 matrix cell.
race-churn:
	$(GO) test -race -count=1 -run 'TestSetPolicyChurn|TestFoldPolicyChurn' ./internal/stm/
	$(GO) test -race -count=1 -run 'TestCrossModePolicyChurn' ./internal/scenario/

# Cross-backend scenario parity plus the cross-mode (eager vs lazy vs
# lazy+batched) equivalence suite: every registry scenario on both
# backends and all three STM commit paths, invariants verified, under
# the race detector. CI runs this at GOMAXPROCS=1, 4 and 8 (the 8-proc
# cell pins STM_COMMIT_BATCH=4).
scenario-parity:
	$(GO) test -race -count=1 -run 'TestScenarioParity|TestCrossMode' ./internal/scenario/

# End-to-end txkv serving smoke under the race detector: every keyed
# workload over HTTP (httptest), each batch on its request's goroutine
# under one of the server's worker tokens, structural + semantic
# invariants verified after shutdown; then the token edges: a request
# whose context ended never takes a token, and Close waits for a
# running batch.
smoke-txkv:
	$(GO) test -race -count=1 -run 'TestTxkvdSmoke|TestServerEndpoints|TestCancelledRequestTakesNoToken|TestCloseWaitsForRunningBatch' ./internal/txkv/

# Observability-plane smoke under the race detector: drive live
# traffic through a metrics-enabled server, scrape GET /metrics, and
# parse the exposition back — fails on malformed 0.0.4 text, a
# missing metric family, or a missing abort-reason series; then the
# churn cell races concurrent scrapes against live traffic and
# SetPolicy swaps.
smoke-txkvd:
	$(GO) test -race -count=1 -run 'TestMetricsExposition|TestMetricsScrapeChurn' ./internal/txkv/

# The Section 1 profile-to-simulation loop, end to end, on the .btrace
# container: record a short contended hotspot run on the STM runtime,
# replay the recording on a fresh STM arena, replay it on the HTM
# simulator and diff recorded vs simulated vs re-measured behaviour
# (-fidelity), then stream a 10⁶-record synthetic trace through the
# block writer and replay an index-spaced sample of it (LoadSample) —
# all under the race detector. CI runs this and uploads the recorded
# trace.
TRACE_FILE ?= demo.btrace
TRACE_BIG ?= demo-big.btrace
trace-demo:
	$(GO) run -race ./cmd/stmbench -scenario hotspot -duration 200ms -record $(TRACE_FILE)
	$(GO) run -race ./cmd/stmbench -replay $(TRACE_FILE) -goroutines 1,2 -duration 100ms
	$(GO) run -race ./cmd/stmbench -fidelity $(TRACE_FILE) -duration 100ms
	$(GO) run -race ./cmd/stmbench -synth 1000000 -record $(TRACE_BIG)
	$(GO) run -race ./cmd/stmbench -replay $(TRACE_BIG) -goroutines 2 -duration 100ms

# The whole paper reproduction at -quick sizes, end to end, into a
# throwaway directory. go test ./cmd/paper byte-compares the
# deterministic sections but skips the three timed ones (stm,
# stm_ablations, tracefidelity); this runs them, and every cell checks
# its scenario invariant. Seed 2, off the goldens' seed 1, so the
# -seed path runs too (TestSeedReachesTimedSections pins that it
# reaches the timed sections). A blocking CI step after Test.
paper-smoke:
	d=$$(mktemp -d) && $(GO) run ./cmd/paper -quick -seed 2 -out "$$d"; s=$$?; rm -rf "$$d"; exit $$s

# Fuzz the trace reader: Load's decoder on the .btrace container,
# seeded in memory (FuzzLoadBinary builds a few hundred records, small
# enough that each mutation decodes fast) — corrupt or truncated inputs
# must error, never panic, never over-allocate, never silently drop
# records. New inputs are not minimized: from a fresh corpus this
# target finds one every ~70 ms, and minimizing each (even at 1 s, as
# fuzz-batch does) left the 20 s run at ~54k executions instead of
# ~350k. A failing input is still saved under testdata/fuzz.
fuzz-trace:
	$(GO) test -run '^$$' -fuzz FuzzLoadBinary -fuzztime 20s -fuzzminimizetime 0 ./internal/trace/

# Fuzz the /v1/batch codec against encoding/json: on arbitrary bytes
# the fast-path decoders accept only what encoding/json accepts and
# decode it to the same value, the fallback answers as the json.Decoder
# did, and the append encoders write what json.Marshal writes. Then
# fuzz the store behind it: whatever ops a body decodes to, applying
# them to a small store returns one result per op and leaves
# CheckInvariants clean (FuzzApplyBatch). A blocking CI step; the seed
# corpora (golden fixtures, the non-canonical cases, every op kind at
# the edge keys) also run in plain `go test`. The minimize budget is
# cut from its 60 s default, which would otherwise swallow a 10 s run
# the first time a kilobyte-sized input is interesting.
fuzz-batch:
	$(GO) test -run '^$$' -fuzz 'FuzzBatchDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/txkv/
	$(GO) test -run '^$$' -fuzz 'FuzzBatchResponseDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/txkv/
	$(GO) test -run '^$$' -fuzz 'FuzzApplyBatch$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/txkv/

tidy:
	$(GO) mod tidy
