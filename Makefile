GO ?= go

.PHONY: all build verify test bench exp clean

all: build

build:
	$(GO) build ./...

# Tier-1 verify line (keep in sync with ROADMAP.md): its internal/exp golden
# table (goldenBackends) already re-proves the digests on every host
# backend. On top of it: no non-test Go under cmd/ or internal/ may read or
# set the process environment (a backend choice travels in arch.Config,
# nowhere else), and every Go file is gofmt-clean; the race detector over
# the concurrent experiment runner and explore workers, the golden table
# (message events cross shards without a lock of their own), machines
# sharing one memoized protocol program and the sampling suite; over the
# sharded engine's own differential tests; over the metrics registry; and a
# bounded fuzz of the calendar event queue against a sorted-slice reference.
verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...
	! grep -rnE 'os\.(Getenv|Setenv|LookupEnv)' cmd internal --include='*.go' --exclude='*_test.go' && test -z "$$(gofmt -l cmd internal bench examples)"
	$(GO) test -race ./internal/exp -run 'Parallel|GoldenDigest|SharedProgram|Sampled'
	$(GO) test -race ./internal/sim -run 'Sharded|Watermark'
	$(GO) test -race ./internal/metrics
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzQueueOrder -fuzztime 10s

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

clean:
	$(GO) clean ./...
