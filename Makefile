GO ?= go

.PHONY: all build verify test bench exp profile clean

all: build

build:
	$(GO) build ./...

# Tier-1 verify line (keep in sync with ROADMAP.md), plus a race-detector
# pass over the concurrent experiment driver and the explore sweep's workers
# (result files byte-identical at GOMAXPROCS 1, 2 and 8, cold, warm and
# cached), plus the exp golden digests
# under the interpreter PP backend (the default test run covers the compiled
# backend), so neither dispatch path can rot. The sharded-engine goldens run
# under both synchronization schemes (window barrier and per-pair
# watermarks) — simulated cycles must be bit-identical across all of them.
# The metrics passes pin the observability layer: registry instruments exact
# under the race detector, and metrics-enabled runs cycle-identical to the
# golden digests. The sampled passes smoke-test the FLASHSIM_SAMPLE process
# default end-to-end and run the sampling determinism suite (off-switch
# bit-identity, repeatability, env resolution) under the race detector.
# The fork-determinism passes pin snapshot/restore round trips: warm-started
# (checkpoint + copy-on-write fork) runs must match cold runs bit-for-bit on
# every Fig 4.1 app across {seq,sharded} x {interp,compiled}, and the machine
# pool, the fork suite and machines sharing one memoized protocol program run
# once more under the race detector. The sharded goldens also run under the
# race detector in both sync modes: message events are armed on one shard and
# fire on another, and that hand-off has no lock of its own (the sender
# re-arms an event only after the engine's synchronization has ordered the
# receiver's read). The fuzz line drives the calendar event queue against a
# sorted-slice reference for a bounded time (go test runs its seed corpus).
verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./... && $(GO) test -race ./internal/exp -run Parallel
	FLASHSIM_PP_DISPATCH=interp $(GO) test -count=1 ./internal/exp -run TestGolden
	FLASHSIM_ENGINE=sharded $(GO) test -count=1 ./internal/exp -run TestGolden
	GOMAXPROCS=1 FLASHSIM_ENGINE=sharded $(GO) test -count=1 ./internal/exp -run TestGolden
	FLASHSIM_ENGINE=sharded FLASHSIM_ENGINE_SYNC=watermark $(GO) test -count=1 ./internal/exp -run TestGolden
	$(GO) test -race ./internal/sim -run 'Sharded|Watermark'
	FLASHSIM_ENGINE=sharded $(GO) test -race -count=1 ./internal/exp -run TestGolden
	FLASHSIM_ENGINE=sharded FLASHSIM_ENGINE_SYNC=watermark $(GO) test -race -count=1 ./internal/exp -run TestGolden
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzQueueOrder -fuzztime 10s
	$(GO) test -race ./internal/metrics
	$(GO) test -count=1 ./internal/exp -run TestMetrics
	FLASHSIM_SAMPLE=default $(GO) test -count=1 ./internal/exp -run TestSampledSmoke
	$(GO) test -race -count=1 ./internal/exp -run TestSampled
	FLASHSIM_PP_DISPATCH=interp $(GO) test -count=1 ./internal/exp -run TestForkDeterminism
	FLASHSIM_PP_DISPATCH=compiled $(GO) test -count=1 ./internal/exp -run TestForkDeterminism
	FLASHSIM_ENGINE=sharded FLASHSIM_PP_DISPATCH=interp $(GO) test -count=1 ./internal/exp -run TestForkDeterminism
	FLASHSIM_ENGINE=sharded FLASHSIM_PP_DISPATCH=compiled $(GO) test -count=1 ./internal/exp -run TestForkDeterminism
	$(GO) test -race -count=1 ./internal/exp -run 'Pool|Fork|SharedProgram'

test:
	$(GO) test ./...

# Microbenchmarks 5x -> BENCH_sim.json (ns/op, B/op, allocs/op per run),
# including BenchmarkWindowSync (barrier vs watermark sync-op counts) and
# the per-app engine profile summary in the "engine" section.
bench:
	scripts/bench.sh

# Full experiment suite in benchmark form, one iteration each.
exp:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Host-performance report: where does the simulator's own wall time go?
# Per-shard window-exec/barrier shares, outbox drain, merge, GC accounting.
profile:
	$(GO) run ./cmd/flashexp profile -scale 4

clean:
	$(GO) clean ./...
