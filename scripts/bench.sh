#!/usr/bin/env sh
# Reproducible fast-replay measurement (docs/PERFORMANCE.md).
#
#   scripts/bench.sh [scale] [reps]
#
# Builds release, runs the fig11 workload suite through the compiled
# out-of-order simulator with memoization (`fastreplay` harness), and
# writes `BENCH_fastsim.json` at the repo root, then repeats the suite
# under the four observability modes (`obs_overhead` harness,
# `BENCH_obs.json`). Each workload is timed best-of-N (default 3) to
# suppress host noise. When the committed
# pre-optimization baseline `results/BENCH_baseline.json` exists, each
# workload row and the output document carry the speedup against it.
set -eu

cd "$(dirname "$0")/.."
SCALE="${1:-0.1}"
REPS="${2:-3}"

echo "==> cargo build --release --workspace (offline)"
cargo build --release --offline --workspace

BASELINE_ARGS=""
if [ -f results/BENCH_baseline.json ]; then
    BASELINE_ARGS="--baseline results/BENCH_baseline.json"
fi

echo "==> fastreplay --scale $SCALE --reps $REPS"
# shellcheck disable=SC2086  # intentional word splitting of the optional flag
./target/release/fastreplay --scale "$SCALE" --reps "$REPS" $BASELINE_ARGS \
    --json-out BENCH_fastsim.json

echo "==> smoke: superaction compilation does not slow the suite down"
# fastreplay measures every workload A/B (supertrace on/off, interleaved
# builds, best-of-reps each), so the embedded *_nost fields compare like
# with like. Wall-clock on this shared host is +-5% noisy, so the gate
# is lenient: the supertrace-on harmonic mean must stay within 7% of
# off across the suite and on the irregular gcc-like workload — a real
# regression (traces slower than generic replay) shows up far larger.
awk 'BEGIN { h = hn = g = gn = 0 }
     {
       line = $0
       if (match(line, /"name":"126.gcc"[^}]*/)) {
         row = substr(line, RSTART, RLENGTH)
         if (match(row, /"steps_per_sec":[0-9.]+/)) {
           s = substr(row, RSTART, RLENGTH); sub(/.*:/, "", s); g = s + 0
         }
         if (match(row, /"steps_per_sec_nost":[0-9.]+/)) {
           s = substr(row, RSTART, RLENGTH); sub(/.*:/, "", s); gn = s + 0
         }
       }
       if (match(line, /"hmean_steps_per_sec":[0-9.]+/)) {
         s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); h = s + 0
       }
       if (match(line, /"hmean_steps_per_sec_nost":[0-9.]+/)) {
         s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); hn = s + 0
       }
     }
     END {
       if (h <= 0 || hn <= 0 || g <= 0 || gn <= 0) exit 1
       exit (h >= 0.93 * hn && g >= 0.93 * gn) ? 0 : 1
     }' BENCH_fastsim.json \
    || { echo "bench: supertrace-on measurably slower than off"; exit 1; }

echo "==> sim_batch --scale $SCALE --compare (suite as a worker-pool batch)"
./target/release/sim_batch --scale "$SCALE" --compare \
    --json-out BENCH_batch.json

echo "==> cache_sweep --bench 126.gcc --scale $SCALE (both capacity policies)"
./target/release/cache_sweep --bench 126.gcc --scale "$SCALE" \
    --json-out BENCH_cache.json

echo "==> obs_overhead --scale $SCALE --reps $REPS (disabled / sampled / full / timeline)"
# Same suite, same scale, same best-of-N methodology as fastreplay just
# above, so the embedded disabled-vs-unobserved hmean ratio compares
# like with like (the <= 2% disabled-handle budget in
# docs/OBSERVABILITY.md). The timeline mode measures epoch sampling
# with the run driven in epoch-sized budget slices, exactly as
# `facilec --obs timeline` drives it.
./target/release/obs_overhead --scale "$SCALE" --reps "$REPS" \
    --fastsim BENCH_fastsim.json --json-out BENCH_obs.json

echo "==> sim_warm --scale $SCALE (cold vs warm-start A/B over facile-snap/v2)"
# Each workload runs cold, snapshots its action cache
# (docs/PERSISTENCE.md), then reruns warm from the snapshot. The warm
# run must replay the cold run's architected results exactly (the
# binary asserts it) and should start at fast fraction ~1.0 in epoch 0.
./target/release/sim_warm --scale "$SCALE" --json-out BENCH_warm.json

echo "==> sim_serve --clients 1,2,4,8 (job daemon under concurrent clients)"
# Each row starts a fresh in-process daemon, splits the suite's 18
# jobs round-robin across C client connections, and measures service
# throughput (docs/SERVING.md). Rows share one job list, so the curve
# is the scaling of the serve path itself.
./target/release/sim_serve --scale "$SCALE" --jobs 18 --clients 1,2,4,8 \
    --json-out BENCH_serve.json

echo "bench: wrote BENCH_fastsim.json, BENCH_batch.json, BENCH_cache.json, BENCH_obs.json, BENCH_warm.json and BENCH_serve.json"
