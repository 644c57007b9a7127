#!/usr/bin/env bash
# Repo CI gate. Run from the repo root: ./ci.sh
#
# Order matters: the cheap style/lint gates run after the build so a
# broken tree fails fast with a compiler error instead of a lint one.
set -euo pipefail
cd "$(dirname "$0")"

# Crates this sequence of PRs actively touches; lint-gated at -D warnings.
TOUCHED=(-p lcasgd-tensor -p lcasgd-autograd -p lcasgd-nn -p lcasgd-simcluster -p lcasgd-netcluster -p lcasgd-core -p lcasgd-bench -p lc-asgd)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# The chaos suite exercises crash/recovery paths that hang rather than
# fail when recovery regresses, so it runs again under a hard timeout:
# a wedged run must kill CI, not stall it.
echo "==> chaos / fault-injection suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test chaos_faults
timeout 120 cargo test -q --release -p lcasgd-core checkpoint
timeout 120 cargo test -q --release -p lcasgd-netcluster frame

# Supervisor chaos: the combined NaN-storm + corrupt-payload +
# straggler run must self-heal on all three backends, and the
# staleness-bound proptests must hold under arbitrary fault plans.
echo "==> supervisor chaos suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test supervisor_chaos
timeout 120 cargo test -q --release -p lcasgd-core supervisor
timeout 120 cargo test -q --release -p lcasgd-netcluster breaker

# Failover chaos: a primary kill mid-run must promote the hot standby on
# all three backends (bit-reproducibly on the simulator), epoch fencing
# must hold at-most-once apply, and the standby's lag must stay bounded.
echo "==> failover chaos suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test failover_chaos
timeout 120 cargo test -q --release -p lcasgd-core replication
timeout 120 cargo test -q --release -p lcasgd-netcluster config

# Shard equivalence: shards=1 must be bitwise identical to the unsharded
# protocol on the simulator, shards∈{2,4} must complete and learn on all
# three backends, and the 4-shard primary-kill failover must promote the
# mirrored shard group everywhere.
echo "==> shard equivalence suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test shard_equivalence
timeout 120 cargo test -q --release -p lcasgd-core shard

# Engine golden: the schedule run_cluster_with produces on the simulator
# — per algorithm, and under shards, a supervisor, a primary kill and a
# halt + resume — must hash to the constants taken from the commit before
# the function was split into a server state machine and a worker loop.
echo "==> engine golden suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test engine_golden

# The apply thread only applies: the predictors track their series inside
# full runs, restore bitwise (and from a checkpoint the autograd cell
# wrote) and allocate nothing in steady state; the fused LSTM cell agrees
# with the autograd reference; and no epoch record leaves the server before
# the evaluator thread has completed it — a wedged hand-off hangs rather
# than fails, hence the timeouts.
echo "==> predictor + deferred-evaluation suites (hard 300s timeout)"
timeout 300 cargo test -q --release --test predictor_integration
timeout 300 cargo test -q --release --test predictor_alloc
timeout 300 cargo test -q --release --test deferred_eval
timeout 300 cargo test -q --release -p lcasgd-bench --test lstm_differential

# Every model-sized buffer has one owner: a steady-state learner iteration
# asks the heap for nothing of that size, a whole TCP run of the 5.3 MB
# model for a bounded handful per applied update (a counting global
# allocator; release, so the counts are those of the shipped codegen).
# The cluster half hangs rather than fails when liveness regresses.
echo "==> model-sized allocation suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test model_alloc

# Observability contract: traced LC-ASGD on all three backends must tile
# each worker's timeline (per-phase totals within 5% of elapsed time in
# the run's clock domain) and the TCP byte counters must be frame-exact.
# Same timeout rationale as the chaos suite — net tests hang on regress.
echo "==> trace / observability suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test trace_integration

# Kernel correctness: the packed and implicit-GEMM kernels must match the
# naive reference kernels on randomized shapes that straddle every
# blocking edge, public tensor ops must be bitwise identical across thread
# counts, and the convolution and BatchNorm kernels must reproduce, bit
# for bit, the checksums their pack-then-multiply / per-element
# predecessors produced (tests/kernel_golden.rs). Run in release so the
# differential proptests cover all cases quickly (and so the AVX2
# dispatch path — the one production uses — is what gets tested).
echo "==> kernel differential + determinism + golden suites (hard 300s timeout)"
timeout 300 cargo test -q --release -p lcasgd-tensor --test kernel_differential
timeout 300 cargo test -q --release --test properties thread_invariance
timeout 300 cargo test -q --release --test kernel_golden

# Reactor scale-out + wire codecs: 256-worker zero-loss delivery,
# coalesced-reply byte identity, mid-frame-disconnect chaos, and the
# bf16/int8 codec property + convergence suites. Net tests hang rather
# than fail when liveness regresses, hence the hard timeouts.
echo "==> net scale-out + wire codec suites (hard 300s timeout)"
timeout 300 cargo test -q --release --test net_scale
timeout 300 cargo test -q --release --test wire_codec
timeout 120 cargo test -q --release -p lcasgd-netcluster reactor
timeout 120 cargo test -q --release -p lcasgd-netcluster pool

# One checksum, byte-identical formats: the dispatched CRC-32 (PCLMULQDQ
# where the host has it) must equal the portable slicing-by-16 path and
# the bitwise oracle at every length, alignment and streaming split; and
# the bulk codecs must emit exactly the bytes of the per-element reference
# encoder, decode every bit pattern, refuse oversize lengths up front, and
# still load a checkpoint and a WAL record written before they existed.
echo "==> CRC differential + golden byte-identity suites (hard 300s timeout)"
timeout 300 cargo test -q --release -p lcasgd-simcluster crc
timeout 300 cargo test -q --release --test wire_golden

# Kernel performance: re-measure the hot kernels and fail if any
# kernel's single-thread speedup over its seed copy fell >20% below the
# committed BENCH_kernels.json's, or its time rose >3x. (One thread,
# because the sandbox's slow regimes are the second core being taken:
# they slow exactly the kernels that fork.) Schema is validated; the
# gate is skipped when no baseline exists.
echo "==> kernel-baseline --smoke (hard 300s timeout)"
cargo build --release -q -p lcasgd-bench --bin kernel-baseline
timeout 300 ./target/release/kernel-baseline --smoke

# Transport performance: re-measure the reactor at 256 loopback workers
# and fail if applied updates/sec regressed >20% against the committed
# BENCH_net.json (schema validated; skipped when no baseline exists).
# The net-scale bin lives in lcasgd-bench, which the root release build
# above does not cover — build it explicitly.
echo "==> net-scale --smoke (hard 300s timeout)"
cargo build --release -q -p lcasgd-bench --bin net-scale
timeout 300 ./target/release/net-scale --smoke

# End-to-end benchmark: its own unit tests, then the short form of the
# full report — every workload trains for two epochs through the public
# API and the exit code is the correctness gate (planned updates applied,
# loss falls, TCP bytes per update within 1 % of parameters × codec
# width). The package builds into benchmark/target, not the root target —
# and against its committed lock file, offline: a change that would make
# cargo rewrite benchmark/Cargo.lock (a new dependency edge between
# workspace crates, say) fails here, not in the benchmark pipeline.
echo "==> benchmark build --locked, tests + --smoke (hard 600s / 300s timeouts)"
cargo build --release --quiet --locked --offline --manifest-path benchmark/Cargo.toml
timeout 600 cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml
timeout 300 cargo run --release --quiet --locked --offline \
    --manifest-path benchmark/Cargo.toml -- --smoke

# CLI smoke: --trace must emit a non-empty, well-formed Chrome trace.
echo "==> lcasgd train --trace smoke"
TRACE_OUT=$(mktemp /tmp/lcasgd_ci_trace.XXXXXX.json)
timeout 120 ./target/release/lcasgd train --algorithm lc-asgd --workers 2 \
    --scale tiny --epochs 2 --trace "$TRACE_OUT" >/dev/null
[ -s "$TRACE_OUT" ] || { echo "trace file is empty"; exit 1; }
grep -q '"traceEvents"' "$TRACE_OUT" || { echo "trace file is not a Chrome trace"; exit 1; }
rm -f "$TRACE_OUT"

# CLI smoke: a supervised run under a NaN storm must exit 0 and write a
# non-empty health log recording the quarantine.
echo "==> lcasgd train --fault-plan --fallback smoke"
PLAN_FILE=$(mktemp /tmp/lcasgd_ci_plan.XXXXXX.txt)
HEALTH_OUT=$(mktemp /tmp/lcasgd_ci_health.XXXXXX.log)
printf 'nan worker=0 at-op=2\nnan worker=0 at-op=5\n' > "$PLAN_FILE"
timeout 120 ./target/release/lcasgd train --algorithm lc-asgd --workers 2 \
    --scale tiny --epochs 2 --fault-plan "$PLAN_FILE" --fallback auto \
    --health-log "$HEALTH_OUT" >/dev/null
[ -s "$HEALTH_OUT" ] || { echo "health log is empty"; exit 1; }
grep -q 'nan-gradient' "$HEALTH_OUT" || { echo "health log misses the NaN sentinel"; exit 1; }
rm -f "$PLAN_FILE" "$HEALTH_OUT"

# CLI smoke: a hot-standby run with a planned primary kill must exit 0
# and report exactly one promotion in the replication summary.
echo "==> lcasgd train --standby failover smoke"
KILL_PLAN=$(mktemp /tmp/lcasgd_ci_kill.XXXXXX.txt)
REPL_OUT=$(mktemp /tmp/lcasgd_ci_repl.XXXXXX.log)
printf 'primary-kill at-update=10\n' > "$KILL_PLAN"
timeout 120 ./target/release/lcasgd train --algorithm asgd --workers 2 \
    --scale tiny --epochs 2 --standby --flush-every 4 --lease-ms 200 \
    --fault-plan "$KILL_PLAN" > "$REPL_OUT"
grep -q 'replication:' "$REPL_OUT" || { echo "no replication summary"; exit 1; }
grep -q 'failovers 1' "$REPL_OUT" || { echo "failover did not happen"; exit 1; }
rm -f "$KILL_PLAN" "$REPL_OUT"

# CLI smoke: a 4-shard run must exit 0, report the shard count, and
# still survive a planned primary kill with a standby attached.
echo "==> lcasgd train --shards 4 smoke"
KILL_PLAN=$(mktemp /tmp/lcasgd_ci_shards.XXXXXX.txt)
SHARD_OUT=$(mktemp /tmp/lcasgd_ci_shards.XXXXXX.log)
printf 'primary-kill at-update=10\n' > "$KILL_PLAN"
timeout 120 ./target/release/lcasgd train --algorithm asgd --workers 2 \
    --scale tiny --epochs 2 --shards 4 --standby --flush-every 4 \
    --lease-ms 200 --fault-plan "$KILL_PLAN" > "$SHARD_OUT"
grep -q 'sharded across 4 model shards' "$SHARD_OUT" || { echo "no shard summary"; exit 1; }
grep -q 'failovers 1' "$SHARD_OUT" || { echo "sharded failover did not happen"; exit 1; }
rm -f "$KILL_PLAN" "$SHARD_OUT"

# CLI smoke: quantized runs must exit 0 on both lossy codecs.
echo "==> lcasgd train --wire-codec smoke"
for CODEC in bf16 int8; do
    timeout 120 ./target/release/lcasgd train --algorithm asgd --workers 2 \
        --scale tiny --epochs 2 --wire-codec "$CODEC" >/dev/null
done

echo "==> cargo fmt --check (touched crates)"
cargo fmt --check "${TOUCHED[@]}"

echo "==> cargo clippy -D warnings (touched crates)"
cargo clippy -q "${TOUCHED[@]}" --all-targets -- -D warnings

echo "CI OK"
