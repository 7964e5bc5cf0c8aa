#!/usr/bin/env bash
# Runs the simulator/workload/ppsim/core microbenchmarks COUNT times (default 5)
# and the Fig 4.1 macrobenchmarks MACRO_COUNT times (default 3) on the
# default machine (sequential engine, compiled PP dispatch), and emits
# BENCH_sim.json with per-run ns/op, B/op, and allocs/op for each benchmark,
# alongside the recorded seed-tree baseline so before/after is visible in
# one file. The alternate host backends are measured by the repo benchmark
# (bench/: ppsim.interp_ratio, sim.sharded_barrier_w2_ratio,
# sim.sharded_watermark_w2_ratio, each with a cycle-equality check) and
# proven cycle-identical by the golden table in internal/exp. A sampled
# section compares fast-forward execution against full simulation (error +
# confidence intervals + speedup; gate: >= 3x at <= 5% error on >= 2 apps,
# carried by per-app tuned schedules; a failed gate is recorded with its
# table and fails the script at the end), a multicore section records a
# timed paper-size run (skipped, loudly, on 1 core), and an explore section times the design-space sweep cold vs warm
# (result cache on; gate: >= 2x, bit-identical output).
#
# Usage:  scripts/bench.sh            # -> BENCH_sim.json
#         COUNT=3 MACRO_COUNT=1 OUT=/tmp/b.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
MACRO_COUNT="${MACRO_COUNT:-3}"
OUT="${OUT:-BENCH_sim.json}"
RAW="$(mktemp)"
RAWC="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC"' EXIT

# Host context recorded into every generated section: benchmark numbers are
# meaningless without the parallelism they ran at.
HOST_CPUS="$(nproc 2>/dev/null || echo 1)"
GOMAXPROCS_VAL="${GOMAXPROCS:-$HOST_CPUS}"

# now_s / since: per-section wall-clock, fractional seconds.
now_s() { date +%s.%N 2>/dev/null || date +%s; }
since() { awk -v a="$1" -v b="$(now_s)" 'BEGIN { printf "%.2f", b - a }'; }

T_MICRO="$(now_s)"
go test -run '^$' -bench . -benchmem -count "$COUNT" \
	./internal/sim ./internal/workload ./internal/ppsim ./internal/core | tee "$RAW"
MICRO_WALL="$(since "$T_MICRO")"

# The engine's hot loop must stay allocation-free: every BenchmarkEngine*
# line must report 0 allocs/op (with -benchmem the last value-unit pair of a
# line, wherever b.ReportMetric columns fall), or the observability layer (or anything
# else) has leaked allocations into the core event queue.
awk '/^BenchmarkEngine/ && $(NF - 1) != 0 {
	printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $(NF - 1); bad = 1
}
END { exit bad }' "$RAW" || { echo "bench.sh: engine allocation regression" >&2; exit 1; }

# So must the queue under the simulation's own load (the in-situ event cost,
# BenchmarkEngineMissMix, is matched by the rule above but must be present)
# and the whole miss path above it — processor, controller, handlers,
# network — on both machine kinds.
awk '/^BenchmarkEngineMissMix/ { mix++ }
/^BenchmarkMissPath\// {
	path++
	if ($(NF - 1) != 0) { printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $(NF - 1); bad = 1 }
}
END { if (!mix || path < 2) { print "FAIL: EngineMissMix / MissPath benchmarks missing"; bad = 1 }; exit bad }' "$RAW" ||
	{ echo "bench.sh: miss path allocation regression" >&2; exit 1; }

# The workload<->cpu handshake must stay allocation-free on all three paths:
# batched writes, direct read hits, and the two mixed.
awk '/^pkg:/ { pkg = $2 }
pkg ~ /internal\/workload$/ && /^Benchmark(WriteBurst|ReadRoundTrip|MixedRefs)/ {
	seen++
	if ($(NF - 1) != 0) { printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $(NF - 1); bad = 1 }
}
END { if (seen < 3) { print "FAIL: workload handshake benchmarks missing"; bad = 1 }; exit bad }' "$RAW" ||
	{ echo "bench.sh: workload handshake allocation regression" >&2; exit 1; }

# The compiled PP dispatch loop must be allocation-free in steady state: the
# closure image is built once at program load, and executing handlers must
# not allocate.
awk '$1 ~ /^BenchmarkHandlerDispatch\/compiled/ && $(NF - 1) != 0 {
	printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $(NF - 1); bad = 1
}
END { exit bad }' "$RAW" || { echo "bench.sh: compiled dispatch allocation regression" >&2; exit 1; }

# The metrics layer must agree with the statistics report: run one app with
# a metrics snapshot and the JSON report, and require the flash_cycles gauge
# to equal the report's Elapsed bit-for-bit (the registry is fed from the
# same machine the report is collected from — a skew means double
# accounting somewhere).
MJSON="$(mktemp)"
SJSON="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC" "$MJSON" "$SJSON"' EXIT
go run ./cmd/flashsim -app fft -procs 4 -scale 256 -metrics-out "$MJSON" -json >"$SJSON" 2>/dev/null
METRIC_CYCLES="$(sed -n 's/.*"flash_cycles": *\([0-9]*\).*/\1/p' "$MJSON" | head -1)"
STATS_CYCLES="$(sed -n 's/.*"Elapsed": *\([0-9]*\).*/\1/p' "$SJSON" | head -1)"
if [ -z "$METRIC_CYCLES" ] || [ "$METRIC_CYCLES" != "$STATS_CYCLES" ]; then
	echo "bench.sh: metrics flash_cycles ($METRIC_CYCLES) != stats Elapsed ($STATS_CYCLES)" >&2
	exit 1
fi
echo "bench.sh: metrics snapshot agrees with stats (flash_cycles = $METRIC_CYCLES)"

# Fig 4.1 macrobenchmarks on the default machine.
T_DISPATCH="$(now_s)"
go test -run '^$' -bench 'Fig41(FFT|LU|MP3D|Ocean)$' -count "$MACRO_COUNT" . | tee "$RAWC"
DISPATCH_WALL="$(since "$T_DISPATCH")"

awk -v count="$COUNT" -v gmp="$GOMAXPROCS_VAL" -v cpus="$HOST_CPUS" -v wall="$MICRO_WALL" '
/^pkg:/ { pkg = $2; sub(/^flashsim\/internal\//, "", pkg) }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	key = pkg "." name
	if (!(key in seen)) { seen[key] = 1; order[++n] = key }
	# A result line is "name iterations" then value-unit pairs; b.ReportMetric
	# units sit between ns/op and B/op, so file each value under its unit
	# (syncops/run -> syncops_per_run), never under a column position.
	for (f = 3; f < NF; f += 2) {
		u = $(f + 1)
		if (u == "B/op") u = "bytes/op"
		gsub(/\//, "_per_", u)
		if ((key, u) in val) { val[key, u] = val[key, u] "," $f; continue }
		val[key, u] = $f
		units[key] = units[key] (units[key] == "" ? "" : " ") u
	}
}
END {
	printf "{\n"
	printf "  \"suite\": \"flashsim sim/workload/ppsim microbenchmarks + Fig 4.1 macros\",\n"
	printf "  \"runs\": %d,\n", count
	printf "  \"gomaxprocs\": %d,\n", gmp
	printf "  \"host_cpus\": %d,\n", cpus
	printf "  \"wall_seconds\": %s,\n", wall
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= n; i++) {
		k = order[i]
		printf "    \"%s\": {", k
		nu = split(units[k], us, " ")
		for (j = 1; j <= nu; j++)
			printf "%s\"%s\": [%s]", (j > 1 ? ", " : ""), us[j], val[k, us[j]]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  },\n"
}' "$RAW" >"$OUT"

macro_json() {
	awk '
	/^BenchmarkFig41/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		if (!(name in seen)) { seen[name] = 1; order[++n] = name }
		ns[name] = ns[name] sep[name] $3
		cyc[name] = $5
		sep[name] = ","
	}
	END {
		for (i = 1; i <= n; i++) {
			k = order[i]
			printf "      \"%s\": {\"ns_per_op\": [%s], \"flash_cycles\": %s}%s\n", \
				k, ns[k], cyc[k], (i < n ? "," : "")
		}
	}' "$1"
}

{
	printf '  "pp_dispatch": {\n'
	printf '    "note": "Fig 4.1 macros on the default machine (sequential engine, compiled PP dispatch), %s runs each; the interpreter comparison is bench/ ppsim.interp_ratio",\n' "$MACRO_COUNT"
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$DISPATCH_WALL"
	printf '    "compiled": {\n'
	macro_json "$RAWC"
	printf '    }\n'
	printf '  },\n'
} >>"$OUT"

# engine_profile app sync: run one app on the sharded engine with the given
# sync scheme and summarize its self-profile from the metrics snapshot:
# synchronization operations (absolute and per 1k events), window/burst
# counts with the empty fraction, and the wait/solve phase times.
engine_profile() {
	local app="$1" sync="$2" pj
	pj="$(mktemp)"
	go run ./cmd/flashsim -app "$app" -procs 16 -scale 8 \
		-engine sharded -engine-sync "$sync" -metrics-out "$pj" >/dev/null 2>&1
	awk '
	{ v = $NF; gsub(/,/, "", v) }
	/flashsim_engine_windows_total\{/       { windows += v }
	/flashsim_engine_empty_windows_total\{/ { empty += v }
	/flashsim_engine_barrier_wait_ns_total\{/ { bwait += v }
	/flashsim_engine_horizon_wait_ns_total\{/ { hwait += v }
	/"flashsim_engine_solve_ns_total"/      { solve += v }
	/flashsim_engine_sync_ops_total\{/      { ops += v }
	/"flashsim_sim_events_total"/           { ev += v }
	END {
		ef = windows > 0 ? empty / windows : 0
		opk = ev > 0 ? ops * 1000 / ev : 0
		printf "{\"sync_ops\": %d, \"events\": %d, \"sync_ops_per_kevent\": %.1f, \"windows\": %d, \"empty_window_frac\": %.3f, \"barrier_wait_ns\": %d, \"horizon_wait_ns\": %d, \"solve_ns\": %d}", \
			ops, ev, opk, windows, ef, bwait, hwait, solve
	}' "$pj"
	rm -f "$pj"
}

PROFILE_JSON=""
GE5=0
for app in fft lu mp3d ocean; do
	pb="$(engine_profile "$app" barrier)"
	pw="$(engine_profile "$app" watermark)"
	ob="$(printf '%s' "$pb" | sed -n 's/.*"sync_ops": \([0-9]*\).*/\1/p')"
	ow="$(printf '%s' "$pw" | sed -n 's/.*"sync_ops": \([0-9]*\).*/\1/p')"
	ratio="$(awk -v a="$ob" -v b="$ow" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')"
	if awk -v r="$ratio" 'BEGIN { exit !(r >= 5) }'; then GE5=$((GE5 + 1)); fi
	echo "bench.sh: $app sync ops barrier=$ob watermark=$ow (${ratio}x fewer)"
	PROFILE_JSON="$PROFILE_JSON      \"$app\": {
        \"barrier\": $pb,
        \"watermark\": $pw,
        \"sync_op_ratio\": $ratio
      },
"
done
# The watermark scheme's reason to exist: at least two Fig 4.1 apps must see
# a >= 5x synchronization-operation reduction over the window barrier.
if [ "$GE5" -lt 2 ]; then
	echo "bench.sh: watermark sync-op reduction below 5x on $GE5 app(s), need >= 2" >&2
	exit 1
fi
PROFILE_JSON="${PROFILE_JSON%,
}"

{
	printf '  "engine": {\n'
	printf '    "note": "Fig 4.1 macros on the sequential engine (the pp_dispatch pass above) and the sharded engine self-profile; sharded-vs-sequential walls are bench/ sim.sharded_barrier_w2_ratio and sim.sharded_watermark_w2_ratio",\n'
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "seq": {\n'
	macro_json "$RAWC"
	printf '    },\n'
	printf '    "profile": {\n'
	printf '      "note": "engine self-profile per app at procs 16 scale 8 (flashsim -metrics-out): sync ops are lock acquisitions, condition sleeps, and shared-state scan steps; watermark must cut them >= 5x vs the window barrier on >= 2 apps",\n'
	printf '%s\n' "$PROFILE_JSON"
	printf '    }\n'
	printf '  },\n'
} >>"$OUT"

# Sampled fast-forward vs full simulation: the sampled experiment runs apps
# fully detailed and under a SMARTS-style schedule (each leg three times,
# minimum event-loop wall, simulated outputs asserted bit-identical across
# repeats) and reports extrapolated Elapsed with 95% confidence intervals
# alongside the wall-clock speedup. The default schedule covers the whole
# Fig 4.1 suite for context; the gate rides on per-application tuned
# schedules (SMARTS practice — the sampling regimen is picked per benchmark):
# at least two distinct apps must deliver >= 3x wall-clock speedup at <= 5%
# Elapsed error across the default and tuned tables. Barrier-heavy codes
# trade larger error for the same speedup at any schedule (DESIGN.md §14).
T_SAMPLED="$(now_s)"
SAMPLED_TXT="$(mktemp)"
GATE_TXT="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC" "$MJSON" "$SJSON" "$SAMPLED_TXT" "$GATE_TXT"' EXIT
go run ./cmd/flashexp sampled | tee "$SAMPLED_TXT"
SAMPLED_SPEC="$(sed -n 's/.*full simulation (\([0-9/]*\),.*/\1/p' "$SAMPLED_TXT")"

RADIX_SPEC="2000/24000/8000"
MP3D_SPEC="2000/100000/8000"
go run ./cmd/flashexp -sample-apps radix -sample "$RADIX_SPEC" sampled | tee -a "$GATE_TXT"
go run ./cmd/flashexp -sample-apps mp3d -sample "$MP3D_SPEC" sampled | tee -a "$GATE_TXT"
SAMPLED_WALL="$(since "$T_SAMPLED")"

# sampled_rows: comparison-table rows -> JSON object members (comma-joined).
sampled_rows() {
	awk '
	$2 ~ /^[0-9]+$/ && NF == 9 {
		err = $5; sub(/%$/, "", err); sub(/^\+/, "", err)
		sp = $9; sub(/x$/, "", sp)
		rows[++n] = sprintf("      \"%s\": {\"full_cycles\": %s, \"est_cycles\": %s, \"ci95_cycles\": %s, \"err_pct\": %s, \"covered\": %s, \"full_seconds\": %s, \"sampled_seconds\": %s, \"speedup\": %s}", \
			$1, $2, $3, $4, err, $6, $7, $8, sp)
	}
	END { for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "") }' "$1"
}
# sampled_pass: names of apps meeting the gate (speedup >= 3x, |err| <= 5%).
sampled_pass() {
	awk '
	$2 ~ /^[0-9]+$/ && NF == 9 {
		err = $5; sub(/%$/, "", err)
		sp = $9; sub(/x$/, "", sp)
		if (sp + 0 >= 3 && (err + 0 <= 5 && -(err + 0) <= 5)) print $1
	}' "$1"
}

GATE_PASSING="$( { sampled_pass "$SAMPLED_TXT"; sampled_pass "$GATE_TXT"; } | sort -u)"
GATE_COUNT="$(printf '%s\n' "$GATE_PASSING" | awk 'NF' | wc -l)"
# A failed gate still records the table it failed on — the ledger keeps what
# was measured — and fails the script once the file is complete.
SAMPLED_GATE_MET=true
if [ "$GATE_COUNT" -lt 2 ]; then
	SAMPLED_GATE_MET=false
	echo "bench.sh: sampled mode meets >=3x at <=5% error on only $GATE_COUNT app(s), need >= 2" >&2
else
	echo "bench.sh: sampled gate met on $GATE_COUNT apps (>=3x speedup at <=5% error):" $GATE_PASSING
fi
GATE_PASSING_JSON="$(printf '%s\n' "$GATE_PASSING" | awk 'NF { s = s (s ? ", " : "") "\"" $1 "\"" } END { print s }')"

{
	printf '  "sampled": {\n'
	printf '    "note": "full vs sampled fast-forward execution (flashexp sampled, legs 3x min-wall); est_cycles extrapolates Elapsed from detailed windows, ci95_cycles is the 95%% confidence half-width, wall seconds cover the event loop only",\n'
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$SAMPLED_WALL"
	printf '    "default": {\n'
	printf '      "spec": "%s",\n' "$SAMPLED_SPEC"
	printf '      "apps": {\n'
	sampled_rows "$SAMPLED_TXT" | sed 's/^      /        /'
	printf '      }\n'
	printf '    },\n'
	printf '    "tuned": {\n'
	printf '      "note": "per-app schedules carry the gate (SMARTS-style per-benchmark tuning)",\n'
	printf '      "specs": {"radix": "%s", "mp3d": "%s"},\n' "$RADIX_SPEC" "$MP3D_SPEC"
	printf '      "apps": {\n'
	sampled_rows "$GATE_TXT" | sed 's/^      /        /'
	printf '      }\n'
	printf '    },\n'
	printf '    "gate": {"require": "speedup >= 3x and |err| <= 5%% on >= 2 distinct apps across the default and tuned tables", "passing": [%s], "met": %s}\n' "$GATE_PASSING_JSON" "$SAMPLED_GATE_MET"
	printf '  },\n'
} >>"$OUT"

# Multicore measurement debt (ROADMAP): a timed paper-size `flashexp all
# -scale 1` only means something with real cores to spread over. On a
# 1-core host it is recorded as explicitly skipped, not silently dropped.
# Barrier-vs-watermark walls are the repo benchmark's
# sim.sharded_barrier_w2_ratio and sim.sharded_watermark_w2_ratio.
if [ "$HOST_CPUS" -gt 1 ]; then
	T_ALL1="$(now_s)"
	go run ./cmd/flashexp all -scale 1 >/dev/null
	ALL_SCALE1_WALL="$(since "$T_ALL1")"
	{
		printf '  "multicore": {\n'
		printf '    "note": "end-to-end paper-size run (flashexp all -scale 1)",\n'
		printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
		printf '    "host_cpus": %s,\n' "$HOST_CPUS"
		printf '    "all_scale1_wall_seconds": %s\n' "$ALL_SCALE1_WALL"
		printf '  },\n'
	} >>"$OUT"
	echo "bench.sh: multicore wall: all -scale 1=${ALL_SCALE1_WALL}s"
else
	{
		printf '  "multicore": {\n'
		printf '    "skipped": true,\n'
		printf '    "host_cpus": %s,\n' "$HOST_CPUS"
		printf '    "note": "the timed flashexp all -scale 1 needs host_cpus > 1; rerun scripts/bench.sh on a multicore host to fill this section"\n'
		printf '  },\n'
	} >>"$OUT"
	echo "bench.sh: multicore wall comparison SKIPPED (host_cpus=$HOST_CPUS; needs > 1)"
fi

# Explore design-space sweep: cold (every point simulated) vs warm (each
# distinct simulated configuration once, host-axis duplicates served from
# the content-addressed result cache) vs a fully cached rerun. Both sweeps
# run their simulations on GOMAXPROCS workers. The three result files must
# be bit-identical — the cache is a pure host-side optimization — and the
# warm sweep must be >= 2x faster than the cold sweep (gate).
T_EXPLORE="$(now_s)"
EXPLORE_DIR="$(mktemp -d)"
trap 'rm -f "$RAW" "$RAWC" "$MJSON" "$SJSON" "$SAMPLED_TXT" "$GATE_TXT"; rm -rf "$EXPLORE_DIR"' EXIT
go build -o "$EXPLORE_DIR/flashexp" ./cmd/flashexp
EXPLORE_ARGS="-app fft -scale 16 -procs 4"
T_COLD="$(now_s)"
"$EXPLORE_DIR/flashexp" explore $EXPLORE_ARGS -cold -out "$EXPLORE_DIR/cold.json" >/dev/null
EXPLORE_COLD_WALL="$(since "$T_COLD")"
T_WARM="$(now_s)"
"$EXPLORE_DIR/flashexp" explore $EXPLORE_ARGS -cache-dir "$EXPLORE_DIR/cache" -out "$EXPLORE_DIR/warm.json" >/dev/null
EXPLORE_WARM_WALL="$(since "$T_WARM")"
T_CACHED="$(now_s)"
"$EXPLORE_DIR/flashexp" explore $EXPLORE_ARGS -cache-dir "$EXPLORE_DIR/cache" -out "$EXPLORE_DIR/cached.json" >/dev/null
EXPLORE_CACHED_WALL="$(since "$T_CACHED")"
if ! cmp -s "$EXPLORE_DIR/cold.json" "$EXPLORE_DIR/warm.json"; then
	echo "bench.sh: warm explore sweep is not bit-identical to the cold sweep" >&2
	exit 1
fi
if ! cmp -s "$EXPLORE_DIR/warm.json" "$EXPLORE_DIR/cached.json"; then
	echo "bench.sh: cached explore rerun is not bit-identical to the populating sweep" >&2
	exit 1
fi
EXPLORE_POINTS="$(grep -c '"report_digest"' "$EXPLORE_DIR/cold.json")"
EXPLORE_PARETO="$(grep -c '"pareto": true' "$EXPLORE_DIR/cold.json")"
EXPLORE_SPEEDUP="$(awk -v c="$EXPLORE_COLD_WALL" -v w="$EXPLORE_WARM_WALL" 'BEGIN { printf "%.2f", (w > 0 ? c / w : 0) }')"
if [ "$EXPLORE_POINTS" -lt 50 ]; then
	echo "bench.sh: explore sweep covered only $EXPLORE_POINTS points, need >= 50" >&2
	exit 1
fi
if ! awk -v r="$EXPLORE_SPEEDUP" 'BEGIN { exit !(r >= 2) }'; then
	echo "bench.sh: warm explore speedup ${EXPLORE_SPEEDUP}x below the 2x gate (cold ${EXPLORE_COLD_WALL}s, warm ${EXPLORE_WARM_WALL}s)" >&2
	exit 1
fi
EXPLORE_WALL="$(since "$T_EXPLORE")"
echo "bench.sh: explore $EXPLORE_POINTS points ($EXPLORE_PARETO Pareto): cold ${EXPLORE_COLD_WALL}s, warm ${EXPLORE_WARM_WALL}s (${EXPLORE_SPEEDUP}x), cached ${EXPLORE_CACHED_WALL}s, results bit-identical"
{
	printf '  "explore": {\n'
	printf '    "note": "flashexp explore %s: cold (every point simulated) vs warm (content-addressed result cache: one simulation per distinct simulated configuration) vs fully cached rerun, simulations on GOMAXPROCS workers; result JSON asserted bit-identical across all three; gate: warm >= 2x faster than cold",\n' "$EXPLORE_ARGS"
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$EXPLORE_WALL"
	printf '    "points": %s,\n' "$EXPLORE_POINTS"
	printf '    "pareto_points": %s,\n' "$EXPLORE_PARETO"
	printf '    "cold_wall_seconds": %s,\n' "$EXPLORE_COLD_WALL"
	printf '    "warm_wall_seconds": %s,\n' "$EXPLORE_WARM_WALL"
	printf '    "cached_wall_seconds": %s,\n' "$EXPLORE_CACHED_WALL"
	printf '    "warm_speedup": %s,\n' "$EXPLORE_SPEEDUP"
	printf '    "bit_identical": true\n'
	printf '  },\n'
} >>"$OUT"

# Seed-tree baseline (commit 1dc46be, before the event-queue rewrite and
# handshake batching) and the PR 1 optimized tree, both recorded once from
# the same host so the before/after comparison survives in the artifact.
# These flash_cycles reflect the pre-PR-5 event model; PR 5's deterministic
# delivery ordering and window-quantized store visibility shifted simulated
# cycle counts slightly (goldens regenerated once), so current runs are
# compared against the regenerated goldens, not these historical numbers.
cat >>"$OUT" <<'EOF'
  "miss_path_parent": {
    "note": "the two benchmarks PR 14 added, run unchanged on its parent commit 6aa42b0 (binary heap, closure per message, handlerCtx per handler) on this host pinned to one CPU like the rest of the file, 5 runs: the before of sim.BenchmarkEngineMissMix and core.BenchmarkMissPath above",
    "sim.BenchmarkEngineMissMix":    {"ns_per_op": [89.10, 76.33, 73.72, 73.11, 72.47], "allocs_per_op": 0},
    "core.BenchmarkMissPath/FLASH": {"ns_per_op": [4083, 4165, 4648, 4755, 4751], "bytes_per_op": 2232, "allocs_per_op": 36},
    "core.BenchmarkMissPath/ideal": {"ns_per_op": [1315, 1310, 1293, 1251, 1224], "bytes_per_op": 772, "allocs_per_op": 11}
  },
  "seed_baseline": {
    "note": "pre-optimization tree; exp macrobenchmarks at Scale 8, 5 runs; simulated cycle counts are bit-identical before and after by construction (golden-digest test)",
    "BenchmarkFig41FFT":   {"ns_per_op_range": [1318516459, 1480254385], "allocs_per_op": 3897043, "flash_cycles": 208107},
    "BenchmarkFig41LU":    {"ns_per_op_range": [315704263, 392691339],   "allocs_per_op": 804001,  "flash_cycles": 106681},
    "BenchmarkFig41MP3D":  {"ns_per_op_range": [1656902306, 2089944733], "allocs_per_op": 13044585, "flash_cycles": 1368847},
    "BenchmarkFig41Ocean": {"ns_per_op_range": [127016353, 216264582],   "allocs_per_op": 404905,  "flash_cycles": 91150},
    "BenchmarkLockHandoff":   {"ns_per_op_range": [8874097, 17338164],   "allocs_per_op": 32519},
    "BenchmarkSimThroughput": {"ns_per_op_range": [142056390, 259865968], "allocs_per_op": 347552}
  },
  "optimized_reference": {
    "note": "same macrobenchmarks on the PR 1 tree (allocation-free event queue + batched handshakes); identical flash_cycles, >=25% faster than seed",
    "BenchmarkFig41FFT":   {"ns_per_op_range": [821614478, 1319732764],  "allocs_per_op": 578901,  "flash_cycles": 208107},
    "BenchmarkFig41LU":    {"ns_per_op_range": [227919085, 248977685],   "allocs_per_op": 122776,  "flash_cycles": 106681},
    "BenchmarkFig41MP3D":  {"ns_per_op_range": [971415258, 1299683114],  "allocs_per_op": 4939595, "flash_cycles": 1368847},
    "BenchmarkFig41Ocean": {"ns_per_op_range": [90113142, 103282320],    "allocs_per_op": 130132,  "flash_cycles": 91150},
    "BenchmarkLockHandoff":   {"ns_per_op_range": [4272572, 5307763],    "allocs_per_op": 15812},
    "BenchmarkSimThroughput": {"ns_per_op_range": [87436388, 104982431], "allocs_per_op": 78221}
  }
}
EOF

echo "wrote $OUT"
if [ "$SAMPLED_GATE_MET" != true ]; then
	echo "bench.sh: FAILED: sampled gate not met (table recorded in $OUT)" >&2
	exit 1
fi
