#!/usr/bin/env sh
# Tier-1 verification, runnable with no network access.
#
#   scripts/verify.sh
#
# Runs the repo's tier-1 gate (ROADMAP.md) with --offline, lints the
# instrumented crates at deny-warnings, smoke-tests that
# `facilec --run --obs-out` emits a parseable facile-run/v2 document whose
# every section passes `sim_obs --check` (and that a tampered copy fails
# it, naming each broken section), and gates the fast-replay hot path: a small fig11 workload must
# fast-forward at least as much as the seed did, steady-state replay
# must be allocation-free (docs/PERFORMANCE.md), and superaction
# compilation must be architecturally invisible (supertrace on/off and
# slow-only runs produce bit-identical results and digests). Action-cache
# snapshots must round-trip: a warm run, and a run warm-started from a
# snapshot taken part-way through (default options and generational
# eviction at a small capacity), print the cold run's architectural
# results (docs/PERSISTENCE.md). The replay flight
# recorder's top-10 hot chains must explain >= 50% of gcc-like
# fast-path instructions, and watching the simulator must stay cheap
# (obs_overhead). Batch mode must produce a merged document that
# refolds bit-for-bit from its lanes and passes every sim_obs --check
# gate (and beat serial throughput on multi-core hosts); its empty-list/panicking-callback edge cases
# must stay structured errors. The serve daemon must round-trip jobs
# from concurrent clients with digests bit-identical to in-process
# runs and drain cleanly over the protocol (docs/SERVING.md). Rustdoc
# must build warning-free with its doc-tests green, and the facbench
# benchmark's own tests must pass against the current APIs.
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release (offline)"
cargo build --release --offline

echo "==> tier-1: cargo test -q (offline)"
cargo test -q --offline

echo "==> workspace: cargo build --release --workspace (offline)"
cargo build --release --offline --workspace

echo "==> workspace: cargo test -q --workspace (offline)"
cargo test -q --offline --workspace

echo "==> facbench: cargo test (offline)"
# The benchmark is a package of its own (not a workspace member) that
# drives the compiler passes through their public APIs, so the
# workspace build alone would not notice an API break there.
cargo test -q --offline --manifest-path facbench/Cargo.toml

echo "==> clippy -D warnings on instrumented crates (offline)"
cargo clippy --offline -q \
    -p facile-obs -p facile-runtime -p facile-vm -p facile -p bench \
    --all-targets -- -D warnings

echo "==> smoke: facilec --run --obs-out emits a parseable run document"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/loop.asm" <<'EOF'
addi r1, r0, 100
addi r2, r0, 0
loop: add r2, r2, r1
addi r1, r1, -1
bne r1, r0, loop
out r2
halt
EOF
./target/release/facilec --builtin functional --run "$tmp/loop.asm" \
    --obs-out "$tmp/metrics.json" --trace-out "$tmp/trace.jsonl" > /dev/null
./target/release/sim_obs "$tmp/metrics.json" > /dev/null
grep -q '"schema":"facile-run/v2"' "$tmp/metrics.json"
grep -q '"ev":"halt"' "$tmp/trace.jsonl"

echo "==> smoke: every section of one run passes sim_obs --check"
# --check runs every section's exactness gate against the shared header
# (docs/OBSERVABILITY.md): profile rows resolve to real source spans
# and sum exactly to sim.insns/sim.misses; the flight recorder's exit
# counters sum to the burst count, dispatches recount the steps
# histogram and (exact mode) the burst histograms recount the fast-path
# counters; the epoch deltas, retained plus dropped, telescope exactly
# to the final simulation, cache and supertrace counters.
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --obs-out "$tmp/d.json" --obs metrics,profile,hot,timeline \
    --timeline-stream "$tmp/tl.jsonl" --timeline-epoch 32 > /dev/null
./target/release/sim_obs "$tmp/d.json" --check
./target/release/sim_obs "$tmp/d.json" --folded | grep -q ':'
./target/release/sim_obs "$tmp/d.json" > "$tmp/views.txt"
grep -q 'hot chains' "$tmp/views.txt"
grep -q 'fast-fraction per epoch' "$tmp/views.txt"
grep -q '"epoch":0,' "$tmp/tl.jsonl"
# Negative gate: one counter edited in the profile and one in the hot
# section must fail --check with both sections named, not just the first.
sed -e 's/"fast_insns":\([0-9]*\),"slow_visits"/"fast_insns":1\1,"slow_visits"/' \
    -e 's/"bursts":\([0-9]*\),"bursts_skipped"/"bursts":1\1,"bursts_skipped"/' \
    "$tmp/d.json" > "$tmp/tampered.json"
if ./target/release/sim_obs "$tmp/tampered.json" --check 2> "$tmp/tampered.err" > /dev/null; then
    echo "verify: sim_obs --check accepted a tampered document"; exit 1
fi
grep -q ': profile: ' "$tmp/tampered.err" && grep -q ': hot: ' "$tmp/tampered.err" \
    || { echo "verify: sim_obs --check did not name both tampered sections"; \
         cat "$tmp/tampered.err"; exit 1; }

echo "==> smoke: action-cache snapshot round-trip (docs/PERSISTENCE.md)"
# A cold run saves its cache; a warm run loads it and must print the
# same architectural results (halt reason, insns, cycles, ipc, program
# output). The warm run legitimately differs on the replay-side lines:
# fast-fwd reaches 100%, memoized stays 0 (nothing new is recorded),
# and speed changes.
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-save "$tmp/loop.facsnap" \
    | grep -v 'sim speed\|fast-fwd\|memoized' > "$tmp/cold.txt"
grep -q 'FACSNAP1' "$tmp/loop.facsnap"
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-load "$tmp/loop.facsnap" > "$tmp/warm_full.txt"
grep -v 'sim speed\|fast-fwd\|memoized' "$tmp/warm_full.txt" > "$tmp/warm.txt"
cmp -s "$tmp/cold.txt" "$tmp/warm.txt" \
    || { echo "verify: warm-start architectural results differ from cold"; \
         diff "$tmp/cold.txt" "$tmp/warm.txt" || true; exit 1; }
# The warm run must actually engage the snapshot: pure replay from the
# first step, no slow-engine recording.
grep -q 'fast-fwd:    100.000%' "$tmp/warm_full.txt" \
    || { echo "verify: warm-started run was not pure replay"; exit 1; }

echo "==> smoke: a refrozen warm cache warm-starts again"
# The warm run saves its own cache: the installed image's entries are
# exported first, in image order, then any it recorded. That refreeze
# must load as well as the cold snapshot: pure replay and the cold
# run's architectural results. A pure-replay warm run records nothing,
# so its refreeze is the cold snapshot byte for byte.
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-load "$tmp/loop.facsnap" --cache-save "$tmp/chain.facsnap" > /dev/null
cmp -s "$tmp/loop.facsnap" "$tmp/chain.facsnap" \
    || { echo "verify: a pure-replay refreeze changed the snapshot"; exit 1; }
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-load "$tmp/chain.facsnap" 2> "$tmp/chain_err.txt" > "$tmp/chain_full.txt"
! grep -q 'starting cold' "$tmp/chain_err.txt" \
    || { echo "verify: refrozen snapshot declined"; cat "$tmp/chain_err.txt"; exit 1; }
grep -q 'fast-fwd:    100.000%' "$tmp/chain_full.txt" \
    || { echo "verify: run from the refrozen snapshot was not pure replay"; exit 1; }
grep -v 'sim speed\|fast-fwd\|memoized' "$tmp/chain_full.txt" > "$tmp/chain.txt"
cmp -s "$tmp/cold.txt" "$tmp/chain.txt" \
    || { echo "verify: refrozen-snapshot results differ from cold"; \
         diff "$tmp/cold.txt" "$tmp/chain.txt" || true; exit 1; }

echo "==> smoke: a partially warm run records on top of its snapshot"
# A snapshot taken part-way through a cold run warm-starts a full run:
# the rest of the run records on top of the installed (shared, pinned)
# generations and must print the architectural results of a cold full
# run. Once with default options and once under generational eviction
# at a small capacity, so eviction runs next to pinned generations.
for opts in "" "--cache-policy generational --cache-capacity 2048"; do
    # shellcheck disable=SC2086 # $opts is a list of words
    ./target/release/facilec --builtin ooo --run "$tmp/loop.asm" $opts \
        | grep -v 'sim speed\|fast-fwd\|memoized' > "$tmp/part_cold.txt"
    # shellcheck disable=SC2086
    ./target/release/facilec --builtin ooo --run "$tmp/loop.asm" $opts \
        --steps 130 --cache-save "$tmp/part.facsnap" > /dev/null
    # shellcheck disable=SC2086
    ./target/release/facilec --builtin ooo --run "$tmp/loop.asm" $opts \
        --cache-load "$tmp/part.facsnap" 2> "$tmp/part_err.txt" > "$tmp/part_full.txt"
    ! grep -q 'starting cold' "$tmp/part_err.txt" \
        || { echo "verify: partial snapshot declined (options: $opts)"; \
             cat "$tmp/part_err.txt"; exit 1; }
    grep -q 'memoized: .* in [1-9][0-9]* nodes' "$tmp/part_full.txt" \
        || { echo "verify: partially warm run recorded nothing (options: $opts)"; exit 1; }
    grep -v 'sim speed\|fast-fwd\|memoized' "$tmp/part_full.txt" > "$tmp/part_warm.txt"
    cmp -s "$tmp/part_cold.txt" "$tmp/part_warm.txt" \
        || { echo "verify: partially warm results differ from cold (options: $opts)"; \
             diff "$tmp/part_cold.txt" "$tmp/part_warm.txt" || true; exit 1; }
done

echo "==> smoke: corrupted snapshot header falls back to a cold run"
# Any header damage must degrade to a clean cold start: a warning on
# stderr, exit 0, and output bit-identical to a never-warmed run
# (only the timing line may differ).
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    | grep -v 'sim speed' > "$tmp/cold_ref.txt"
cp "$tmp/loop.facsnap" "$tmp/bad.facsnap"
printf 'XX' | dd of="$tmp/bad.facsnap" bs=1 seek=0 conv=notrunc 2>/dev/null
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-load "$tmp/bad.facsnap" 2> "$tmp/bad_err.txt" \
    | grep -v 'sim speed' > "$tmp/bad_run.txt"
grep -q 'starting cold' "$tmp/bad_err.txt" \
    || { echo "verify: corrupted snapshot load did not warn"; exit 1; }
cmp -s "$tmp/cold_ref.txt" "$tmp/bad_run.txt" \
    || { echo "verify: rejected snapshot did not fall back to a cold run"; \
         diff "$tmp/cold_ref.txt" "$tmp/bad_run.txt" || true; exit 1; }

echo "==> smoke: a version-1 snapshot falls back to a cold run"
# The format is versioned and keeps no reader for older versions
# (docs/PERSISTENCE.md): a saved snapshot with its version word set to
# 1 must be refused like any other mismatch — the warning naming the
# version, exit 0, and output bit-identical to a never-warmed run.
cp "$tmp/loop.facsnap" "$tmp/v1.facsnap"
printf '\001\000\000\000' | dd of="$tmp/v1.facsnap" bs=1 seek=8 conv=notrunc 2>/dev/null
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --cache-load "$tmp/v1.facsnap" 2> "$tmp/v1_err.txt" > "$tmp/v1_full.txt" \
    || { echo "verify: version-1 snapshot load exited nonzero"; exit 1; }
grep -q 'unsupported snapshot version 1 .*starting cold' "$tmp/v1_err.txt" \
    || { echo "verify: version-1 snapshot load did not warn"; cat "$tmp/v1_err.txt"; exit 1; }
grep -v 'sim speed' "$tmp/v1_full.txt" > "$tmp/v1_run.txt"
cmp -s "$tmp/cold_ref.txt" "$tmp/v1_run.txt" \
    || { echo "verify: version-1 snapshot did not fall back to a cold run"; \
         diff "$tmp/cold_ref.txt" "$tmp/v1_run.txt" || true; exit 1; }

echo "==> smoke: supertrace on/off digest equality"
# Superaction compilation is a replay-speed optimization only: the same
# workload run with trace compilation forced on (low threshold) and off
# must print identical architectural results — halt reason, instruction
# and cycle counts, fast-forwarded fraction, memoized bytes, program
# output. Only the throughput line may differ.
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --supertrace on --supertrace-threshold 8 | grep -v 'sim speed' > "$tmp/st_on.txt"
./target/release/facilec --builtin ooo --run "$tmp/loop.asm" \
    --supertrace off | grep -v 'sim speed' > "$tmp/st_off.txt"
cmp -s "$tmp/st_on.txt" "$tmp/st_off.txt" \
    || { echo "verify: supertrace on/off architectural results differ"; \
         diff "$tmp/st_on.txt" "$tmp/st_off.txt" || true; exit 1; }
# The deeper differential gates: on/off/slow-only memory digests must be
# bit-identical, including under randomized eviction torture.
cargo test -q --offline --test stats_invariants \
    supertrace_on_off_and_slow_only_agree_bit_for_bit
cargo test -q --offline -p facile-vm --test stats_invariants \
    supertrace_survives_randomized_eviction_torture

echo "==> perf smoke: fig11 fast fraction holds on a small workload"
./target/release/fastreplay --scale 0.02 --reps 1 --filter 145.fpppp \
    --json-out "$tmp/perf.json" > /dev/null
# The seed measures 98.6% fast-forwarded on fpppp at this scale; the
# fraction is a behavioural (not timing) property, so gate it hard.
awk 'BEGIN { ok = 0 }
     {
       if (match($0, /"name":"145.fpppp"[^}]*"fast_fraction":[0-9.]+/)) {
         s = substr($0, RSTART, RLENGTH)
         sub(/.*"fast_fraction":/, "", s)
         if (s + 0 >= 0.98) ok = 1
       }
     }
     END { exit ok ? 0 : 1 }' "$tmp/perf.json" \
    || { echo "verify: fast fraction regressed (< 0.98 on fpppp)"; exit 1; }

echo "==> perf smoke: steady-state replay is allocation-free"
cargo test -q --offline -p facile-vm --test alloc_free_replay

echo "==> smoke: batch merged documents pass the exactness gate"
# Four jobs over one compiled step on four worker threads. sim_obs
# --check runs every section's gate on each lane and on the merged
# document, and refolds the lanes in order demanding byte-equality with
# the trailing merged document; the merged header must carry the batch
# label with the summed counters (4 x 304 insns for this loop).
cat > "$tmp/jobs.txt" <<EOF
$tmp/loop.asm
$tmp/loop.asm
$tmp/loop.asm
$tmp/loop.asm
EOF
./target/release/facilec --builtin functional batch --jobs "$tmp/jobs.txt" \
    --threads 4 --obs-out "$tmp/batch.jsonl" \
    --obs metrics,profile,hot,timeline --timeline-epoch 32 \
    --progress 2> "$tmp/progress.jsonl" > /dev/null
./target/release/sim_obs "$tmp/batch.jsonl" --check > "$tmp/batch_check.txt"
grep -q '4 lanes refold into `batch(4 jobs)`' "$tmp/batch_check.txt" \
    || { echo "verify: batch lanes were not refolded"; exit 1; }
tail -n 1 "$tmp/batch.jsonl" | grep -q '"label":"batch(4 jobs)"'
tail -n 1 "$tmp/batch.jsonl" | grep -q '"sim":{"cycles":[0-9]*,"insns":1216,'
# The heartbeat must have reported every completed job, and with a
# timeline attached each must carry the lane's latest epoch.
[ "$(grep -c '"steps_per_sec"' "$tmp/progress.jsonl")" -eq 4 ] \
    || { echo "verify: batch --progress did not report 4 jobs"; exit 1; }
[ "$(grep -c '"epoch_fast_fraction"' "$tmp/progress.jsonl")" -eq 4 ] \
    || { echo "verify: batch --progress heartbeats lack epoch fields"; exit 1; }
# Warm batch: every lane installs the same read-only snapshot
# (copy-on-write, docs/PERSISTENCE.md) and the merged document must
# satisfy the same gates with identical summed counters.
./target/release/facilec --builtin functional --run "$tmp/loop.asm" \
    --cache-save "$tmp/func.facsnap" > /dev/null
./target/release/facilec --builtin functional batch --jobs "$tmp/jobs.txt" \
    --threads 4 --cache-load "$tmp/func.facsnap" \
    --obs-out "$tmp/warm.jsonl" --obs metrics,timeline --timeline-epoch 32 > /dev/null
tail -n 1 "$tmp/warm.jsonl" | grep -q '"sim":{"cycles":[0-9]*,"insns":1216,'
tail -n 1 "$tmp/warm.jsonl" | grep -q '"sim":{[^}]*"slow_steps":0,'
./target/release/sim_obs "$tmp/warm.jsonl" --check > "$tmp/warm_check.txt"
grep -q '4 lanes refold' "$tmp/warm_check.txt" \
    || { echo "verify: warm batch lanes were not refolded"; exit 1; }
# The merged document pins one snapshot image per lane.
tail -n 1 "$tmp/warm.jsonl" | grep -q '"frozen_gens":4' \
    || { echo "verify: warm batch lanes did not pin the shared snapshot"; exit 1; }

echo "==> regression: batch driver edge cases are structured errors"
# An empty job list and a panicking --progress callback must both come
# back as errors, never as panics/aborts (both test names contain
# "structured_error"; see crates/core/src/batch.rs).
cargo test -q --offline -p facile --lib structured_error

echo "==> regression: mutated TRISC assembly is an error, never a panic"
# serve assembles every job's client-supplied asm; 2,000 seeded
# mutations of the shipped workloads' asm must all come back as
# assembler errors (a job's asm_error) or assemble.
cargo test -q --offline -p facile-workloads --test asm_fuzz -- --nocapture \
    > "$tmp/asm_fuzz.txt" 2>&1 \
    || { echo "verify: assembler fuzz failed"; cat "$tmp/asm_fuzz.txt"; exit 1; }
grep -q 'asm fuzz: 2000 cases, .*, 0 panics' "$tmp/asm_fuzz.txt" \
    || { echo "verify: assembler fuzz panicked"; cat "$tmp/asm_fuzz.txt"; exit 1; }

echo "==> regression: mutated serve requests are structured errors, never panics"
# serve decodes every `sim` request a client sends; 2,000 seeded
# mutations of valid request bodies (field types, negative, fractional
# and too-large numbers, `want` names, the asm) must each decode to a
# bad_request, an asm_error or a valid job.
cargo test -q --offline -p facile --lib mutated_sim_requests -- --nocapture \
    > "$tmp/serve_fuzz.txt" 2>&1 \
    || { echo "verify: serve request fuzz failed"; cat "$tmp/serve_fuzz.txt"; exit 1; }
grep -q 'serve fuzz: 2000 cases, .*, 0 panics' "$tmp/serve_fuzz.txt" \
    || { echo "verify: serve request fuzz panicked"; cat "$tmp/serve_fuzz.txt"; exit 1; }

echo "==> regression: mutated Facile source is diagnosed or compiled, never a panic"
# compile_source runs the whole pipeline, the program optimization step
# included; 2,000 seeded mutations of the shipped simulators' source and
# of generated step functions must each end as diagnostics or a step.
cargo test -q --offline -p facile --test compile_fuzz -- --nocapture \
    > "$tmp/compile_fuzz.txt" 2>&1 \
    || { echo "verify: compile fuzz failed"; cat "$tmp/compile_fuzz.txt"; exit 1; }
grep -q 'compile fuzz: 2000 cases, .*, 0 panics' "$tmp/compile_fuzz.txt" \
    || { echo "verify: compile fuzz panicked"; cat "$tmp/compile_fuzz.txt"; exit 1; }

echo "==> smoke: facilec serve end-to-end (docs/SERVING.md)"
# Start the daemon on an ephemeral port, wait for the readiness line,
# then drive it with sim_serve: two concurrent clients, four jobs,
# --check-local reruns every job in-process and asserts the daemon's
# memory digests and out traces match bit-for-bit, --shutdown drains
# it over the protocol. The daemon must exit 0 with its lifetime
# counters showing every job completed.
./target/release/facilec --builtin functional serve --addr 127.0.0.1:0 \
    > "$tmp/serve.log" 2>&1 &
serve_pid=$!
i=0
while ! grep -q 'serving on' "$tmp/serve.log"; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "verify: serve daemon never became ready"; \
                          kill "$serve_pid" 2>/dev/null || true; exit 1; }
    sleep 0.1
done
serve_addr="$(sed -n 's/^serving on //p' "$tmp/serve.log" | head -n 1)"
./target/release/sim_serve --sim functional --addr "$serve_addr" \
    --clients 2 --jobs 4 --scale 0.01 --check-local --shutdown > /dev/null
wait "$serve_pid" \
    || { echo "verify: serve daemon exited nonzero"; cat "$tmp/serve.log"; exit 1; }
grep -q '"schema":"facile-serve/v1"' "$tmp/serve.log"
grep -q '"completed":4' "$tmp/serve.log" \
    || { echo "verify: serve daemon did not complete all 4 jobs"; \
         cat "$tmp/serve.log"; exit 1; }

if [ "$(nproc)" -ge 2 ]; then
    echo "==> perf smoke: batch throughput beats serial (multi-core host)"
    # Timing-dependent, so only gated where parallel speedup is
    # physically possible; single-core hosts check correctness above.
    ./target/release/sim_batch --scale 0.02 --threads 4 --compare \
        --json-out "$tmp/batch_bench.json" > /dev/null
    awk 'BEGIN { ok = 0 }
         {
           if (match($0, /"batch_speedup":[0-9.]+/)) {
             s = substr($0, RSTART, RLENGTH)
             sub(/.*:/, "", s)
             if (s + 0 >= 1.0) ok = 1
           }
         }
         END { exit ok ? 0 : 1 }' "$tmp/batch_bench.json" \
        || { echo "verify: batch aggregate did not beat serial"; exit 1; }
else
    echo "==> perf smoke: batch speedup gate skipped (single-core host)"
fi

echo "==> perf smoke: generational eviction beats clear-on-full on gcc-like"
# Both capacity policies over the same capped sweep of the gcc-like
# workload. cache_sweep itself asserts transparency (cycle counts match
# the unbounded run under both policies); the gate here compares the
# slow-path work. Raw miss counters are not comparable across policies —
# stale generational links surface as *recoverable* misses while a
# wholesale clear silently discards everything and re-records without a
# miss event — so the gate sums slow-path instructions, the quantity the
# paper's fast-forwarding minimizes, and requires the generational total
# to be strictly lower.
./target/release/cache_sweep --bench 126.gcc --scale 0.05 \
    --json-out "$tmp/cache.jsonl" > /dev/null
awk 'BEGIN { clear = 0; gen = 0 }
     {
       line = $0
       slow = 0
       if (match(line, /"slow_insns":[0-9]+/)) {
         s = substr(line, RSTART, RLENGTH)
         sub(/.*:/, "", s)
         slow = s + 0
       }
       if (line ~ /"policy":"clear"/)        clear += slow
       if (line ~ /"policy":"generational"/) gen += slow
     }
     END { exit (clear > 0 && gen > 0 && gen < clear) ? 0 : 1 }' \
    "$tmp/cache.jsonl" \
    || { echo "verify: generational policy did not reduce slow-path work"; exit 1; }

echo "==> perf smoke: observability overhead stays small on gcc-like"
# One small obs_overhead lane: the top-10 hot chains must explain at
# least half of the fast-path instructions (a behavioural property,
# gated hard), and the disabled-handle / sampled-recorder throughput
# must stay near the unobserved baseline. The timing half is gated
# leniently (>= 0.90, best of 10 reps, the modes interleaved inside each
# rep so host-speed drift hits them alike) and only on multi-core
# hosts, like the other wall-clock gates; the committed BENCH_obs.json
# carries the full-suite <= 2% methodology. Each job runs ~150 ms; ten
# short interleaved reps, not longer jobs, are what keep the ratio
# steady on a host whose speed drifts over seconds.
./target/release/obs_overhead --scale 0.02 --reps 10 --filter 126.gcc \
    --json-out "$tmp/obs.json" > /dev/null
awk 'BEGIN { ok = 0 }
     {
       if (match($0, /"hot_top10_coverage":[0-9.]+/)) {
         s = substr($0, RSTART, RLENGTH)
         sub(/.*:/, "", s)
         if (s + 0 >= 0.5) ok = 1
       }
     }
     END { exit ok ? 0 : 1 }' "$tmp/obs.json" \
    || { echo "verify: top-10 hot chains cover < 50% of fast-path insns"; exit 1; }
if [ "$(nproc)" -ge 2 ]; then
    awk 'BEGIN { ok = 0 }
         {
           if (match($0, /"sampled_over_disabled":[0-9.]+/)) {
             s = substr($0, RSTART, RLENGTH)
             sub(/.*:/, "", s)
             if (s + 0 >= 0.90) ok = 1
           }
         }
         END { exit ok ? 0 : 1 }' "$tmp/obs.json" \
        || { echo "verify: sampled flight recorder cost > 10% throughput"; exit 1; }
else
    echo "    (timing half skipped: single-core host)"
fi

echo "==> docs: rustdoc builds warning-free for every crate (offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q --offline

echo "==> docs: doc-tests pass (offline)"
cargo test --doc -q --offline --workspace

echo "verify: OK"
