GO ?= go

.PHONY: all build verify test bench exp clean

all: build

build:
	$(GO) build ./...

# Tier-1 verify line (keep in sync with ROADMAP.md): its internal/exp golden
# table (goldenBackends) already re-proves the digests on every host
# backend. On top of it: no non-test Go under cmd/ or internal/ may read or
# set the process environment (a backend choice travels in arch.Config,
# nowhere else), no non-test Go under internal/exp but paper.go may write a
# number inside a "(paper...)" annotation (every published number is a row
# of paper.go's table, which the renderers and flashexp check read), and
# every Go file is gofmt-clean; the race detector over
# the concurrent experiment runner and explore workers, the golden table
# (message events cross shards without a lock of their own), machines
# sharing one memoized protocol program and the sampling suite; over every
# test of the event engines (the sharded engine's own differential tests
# among them) and of the metrics registry (16 goroutines writing shared
# series through Add, Set and Max must leave exact totals); and eight
# bounded fuzzes, each 10 s with the minimization of a new input held to
# 100 executions (Go's default, 60 s, outlasts the budget and idles the
# run): the calendar event queue against a sorted-slice reference, the PP
# assembler (no input panics it; every program it accepts
# schedules in each mode without losing an instruction), the -sample
# parser (no input panics it; every spec it accepts round-trips through
# String and keeps its phase arithmetic consistent), the explore result
# cache's entries (no bytes panic Get; bytes that are not an entry for the
# key miss; a report Get accepts keeps its digest through Put and Get), and
# the sparse store's page table against a dense reference (writes, reads,
# snapshots, two forks of one snapshot, resets and pristine images), and
# the processor cache's lazily materialized set groups against a stamp-LRU
# reference (several geometries, captures restored twice and the zero
# state, the shared zero group never written), and the in-place coherence
# audit against the map-based reference audit on corrupted post-run
# machines (FLASH dynptr, FLASH bitvec and ideal: the same error, or nil
# exactly when the reference finds nothing), directory entries of lines
# no cache holds included (pending, ack and dirty bits flipped in
# untouched lines' FLASH headers; ideal entries changed after their
# copies are dropped), and the ideal directory's sharer lists against a
# []NodeID model (insertion order kept through appends, deletes and
# re-inserts; every pool cell on one list or the free list).
verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...
	! grep -rnE 'os\.(Getenv|Setenv|LookupEnv)' cmd internal --include='*.go' --exclude='*_test.go' && ! grep -rnE '\(paper[^)]*[^[:alnum:]_][0-9]' internal/exp --include='*.go' --exclude='*_test.go' --exclude=paper.go && test -z "$$(gofmt -l cmd internal bench examples)"
	$(GO) test -race ./internal/exp -run 'Parallel|GoldenDigest|SharedProgram|Sampled'
	$(GO) test -race ./internal/sim ./internal/metrics
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzQueueOrder -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/ppisa -run '^$$' -fuzz FuzzAssemble -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/arch -run '^$$' -fuzz FuzzParseSampleSpec -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/exp -run '^$$' -fuzz FuzzResultCacheEntry -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/memsys -run '^$$' -fuzz FuzzStoreOps -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/cpu -run '^$$' -fuzz FuzzCacheGroups -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/core -run '^$$' -fuzz FuzzCheckCoherence -fuzztime 10s -fuzzminimizetime 100x && $(GO) test ./internal/ideal -run '^$$' -fuzz FuzzSharerList -fuzztime 10s -fuzzminimizetime 100x

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
