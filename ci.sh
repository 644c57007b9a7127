#!/usr/bin/env bash
# Repo CI gate. Run from the repo root: ./ci.sh
#
# Order matters: the cheap style/lint gates run after the build so a
# broken tree fails fast with a compiler error instead of a lint one.
set -euo pipefail
cd "$(dirname "$0")"

# Crates this sequence of PRs actively touches; lint-gated at -D warnings.
TOUCHED=(-p lcasgd-tensor -p lcasgd-autograd -p lcasgd-nn -p lcasgd-simcluster -p lcasgd-netcluster -p lcasgd-core -p lcasgd-bench -p lc-asgd)

# Runs a name-filtered `cargo test` under a hard timeout, and fails when
# the filter selects no test: a deletion must not leave behind a stage
# that passes vacuously. Usage: filtered SECS CARGO_ARGS... [-- TEST_ARGS...]
filtered() {
    local secs=$1
    shift
    local sep=(--)
    [[ " $* " == *" -- "* ]] && sep=()
    local n
    n=$(timeout "$secs" cargo test -q --release "$@" "${sep[@]}" --list 2>/dev/null |
        grep -c ': test$' || true)
    [ "$n" -gt 0 ] || { echo "cargo test $* selects no test"; exit 1; }
    timeout "$secs" cargo test -q --release "$@"
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# The chaos suite exercises crash/recovery paths that hang rather than
# fail when recovery regresses, so it runs again under a hard timeout:
# a wedged run must kill CI, not stall it.
echo "==> chaos / fault-injection suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test chaos_faults
filtered 120 -p lcasgd-core checkpoint
filtered 120 -p lcasgd-netcluster frame

# Supervisor chaos: the combined NaN-storm + corrupt-payload +
# straggler run must self-heal on all three backends, and the
# staleness-bound proptests must hold under arbitrary fault plans.
echo "==> supervisor chaos suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test supervisor_chaos
filtered 120 -p lcasgd-core supervisor

# Failover chaos: a primary kill mid-run must promote the hot standby on
# all three backends (bit-reproducibly on the simulator), epoch fencing
# must hold at-most-once apply, and the standby's lag must stay bounded.
echo "==> failover chaos suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test failover_chaos
filtered 120 -p lcasgd-core replication
filtered 120 -p lcasgd-netcluster config

# Shard equivalence: shards=1 must be bitwise identical to the unsharded
# protocol on the simulator, shards∈{2,4} must complete and learn on all
# three backends, and the 4-shard primary-kill failover must promote the
# mirrored shard group everywhere.
echo "==> shard equivalence suite (hard 300s timeout)"
timeout 300 cargo test -q --release --test shard_equivalence
filtered 120 -p lcasgd-core shard

# Engine golden: the schedule run_cluster_with produces on the simulator
# — per algorithm, and under shards, a supervisor, a primary kill and a
# halt + resume — must hash to the constants taken from the commit before
# the function was split into a server state machine and a worker loop.
# And the server core is a pure function of its inputs: each of those
# runs, replayed into a fresh core, makes the same seam calls and replies.
echo "==> engine golden + core replay suites (hard 300s timeout)"
timeout 300 cargo test -q --release --test engine_golden
filtered 300 -p lcasgd-core trainer::replay

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

# Every model-sized buffer has one owner and every activation-sized one
# comes back through its thread's tensor cache: a steady-state learner
# iteration asks the heap for nothing model-sized (and a ResNet-tiny one
# for at most 2 requests of a page or more), a whole TCP run of the 5.3 MB
# model for a bounded handful per applied update, and the f32 one-shard
# run's peak of live model-sized bytes stays at most 19 models (15–16
# held, 75.5–80.6 MiB; 120.9 MiB when every frame was a byte buffer on
# both sides of the wire) — a counting global allocator; release, so the
# counts are those of the shipped codegen. The cluster half hangs rather than fails
# when liveness regresses.
echo "==> model- and activation-sized allocation suite (hard 300s timeout)"
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
# predecessors produced (tests/kernel_golden.rs); so must the model pin:
# both residual block families (ResNet-tiny's basic blocks and
# tiny_bottleneck's) — built weights, one training step's loss, gradient
# and BN statistics, and the inference logits. Run in release so the
# differential proptests cover all cases quickly (and so the AVX2
# dispatch path — the one production uses — is what gets tested). The
# tensor crate's unit tests include the buffer cache's (zeros from a
# reused buffer, retention rules, its byte bound), on the shipped codegen.
echo "==> kernel differential + determinism + golden suites (hard 300s timeout)"
timeout 120 cargo test -q --release -p lcasgd-tensor --lib
timeout 300 cargo test -q --release -p lcasgd-tensor --test kernel_differential
filtered 300 --test properties thread_invariance
timeout 300 cargo test -q --release --test kernel_golden

# Reactor scale-out + wire codecs: 256-worker zero-loss delivery,
# coalesced-reply byte identity, mid-frame-disconnect chaos, and the
# bf16/int8 codec property + convergence suites. Net tests hang rather
# than fail when liveness regresses, hence the hard timeouts.
echo "==> net scale-out + wire codec suites (hard 300s timeout)"
timeout 300 cargo test -q --release --test net_scale
timeout 300 cargo test -q --release --test wire_codec
filtered 120 -p lcasgd-netcluster reactor

# One checksum, byte-identical formats: the dispatched CRC-32 (PCLMULQDQ
# where the host has it) must equal the portable slicing-by-16 path and
# the bitwise oracle at every length, alignment and streaming split; the
# bulk codecs must emit exactly the bytes of the per-element reference
# encoder, decode every bit pattern, refuse oversize lengths up front, and
# still load a checkpoint and a WAL record written before they existed;
# and every message, through every sink — windows of 1 B to 64 KiB, the
# checksum sink — must give exactly those bytes, decode the same when it
# streams in piece by piece, and fail as a frame (its checksum), not in
# the codec, when a byte of it is flipped (tests/wire_golden.rs).
echo "==> CRC differential + golden byte-identity suites (hard 300s timeout)"
filtered 300 -p lcasgd-simcluster crc
timeout 300 cargo test -q --release --test wire_golden

# One int8 quantizer, bit-exact: `codec::level` must equal libm's
# `round().clamp() as i8` on all 2³² f32 inputs (the ignored test, ≈ 15 s
# on two cores), and the downlink pack and the uplink's error feedback must
# reproduce the loops they replaced — levels, scales, message bytes and
# residual bits — at 1 and 4 shards.
echo "==> int8 quantizer exhaustive + codec differential suites (hard 300s timeout)"
filtered 300 -p lcasgd-simcluster level -- --ignored
timeout 300 cargo test -q --release -p lcasgd-bench --test codec_differential

# Kernel performance: re-measure the hot kernels and fail if any
# kernel's single-thread speedup over its seed copy, times 1.2, is below
# the committed BENCH_kernels.json's (> 16.7% below it), or its time rose
# >3x. (One thread, because the sandbox's slow regimes are the second
# core being taken: they slow exactly the kernels that fork.) Schema is
# validated; the gate is skipped when no baseline exists.
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

# Paper harness: the ablations section must print a row per reading of
# Formula 5 and per predictor width, and an unknown section must exit 2.
# repro-all lives in lcasgd-bench too — build it explicitly.
echo "==> repro-all tiny ablations smoke (hard 300s timeout)"
cargo build --release -q -p lcasgd-bench --bin repro-all
ABLATIONS=$(timeout 300 ./target/release/repro-all tiny ablations)
for MODE in literal relative off; do
    grep -qE "^ *$MODE +[0-9]" <<<"$ABLATIONS" || { echo "ablations miss mode $MODE"; exit 1; }
done
for HIDDEN in 16 32 64 128; do
    grep -qE "^ *$HIDDEN +[0-9]" <<<"$ABLATIONS" || { echo "ablations miss width $HIDDEN"; exit 1; }
done
RC=0
./target/release/repro-all tiny nosuch 2>/dev/null || RC=$?
[ "$RC" -eq 2 ] || { echo "repro-all tiny nosuch exited $RC, not 2"; exit 1; }

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
echo "==> lcasgd train --fault-plan --health-log smoke"
PLAN_FILE=$(mktemp /tmp/lcasgd_ci_plan.XXXXXX.txt)
HEALTH_OUT=$(mktemp /tmp/lcasgd_ci_health.XXXXXX.log)
printf 'nan worker=0 at-op=2\nnan worker=0 at-op=5\n' > "$PLAN_FILE"
timeout 120 ./target/release/lcasgd train --algorithm lc-asgd --workers 2 \
    --scale tiny --epochs 2 --fault-plan "$PLAN_FILE" \
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
    --scale tiny --epochs 2 --standby --flush-every 4 \
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
    --fault-plan "$KILL_PLAN" > "$SHARD_OUT"
grep -q 'sharded across 4 model shards' "$SHARD_OUT" || { echo "no shard summary"; exit 1; }
grep -q 'failovers 1' "$SHARD_OUT" || { echo "sharded failover did not happen"; exit 1; }
rm -f "$KILL_PLAN" "$SHARD_OUT"

# CLI smoke: 3 shards do not divide --flush-every 4, so a replication batch
# must still end on a push boundary — the kill promotes whole pushes and
# the re-armed standby is never lost.
echo "==> lcasgd train --shards 3 --standby kill smoke"
KILL_PLAN=$(mktemp /tmp/lcasgd_ci_shards3.XXXXXX.txt)
SHARD_OUT=$(mktemp /tmp/lcasgd_ci_shards3.XXXXXX.log)
printf 'primary-kill at-update=7\n' > "$KILL_PLAN"
timeout 120 ./target/release/lcasgd train --algorithm asgd --workers 2 \
    --scale tiny --epochs 2 --shards 3 --standby --flush-every 4 \
    --fault-plan "$KILL_PLAN" > "$SHARD_OUT"
grep -q 'failovers 1' "$SHARD_OUT" || { echo "3-shard failover did not happen"; exit 1; }
if grep -q 'DEGRADED' "$SHARD_OUT"; then echo "3-shard failover lost its standby"; exit 1; fi
rm -f "$KILL_PLAN" "$SHARD_OUT"

# CLI smoke: quantized runs must exit 0 on both lossy codecs.
echo "==> lcasgd train --wire-codec smoke"
for CODEC in bf16 int8; do
    timeout 120 ./target/release/lcasgd train --algorithm asgd --workers 2 \
        --scale tiny --epochs 2 --wire-codec "$CODEC" >/dev/null
done

# CLI smoke: a flag train does not read must exit 2, not run with defaults.
echo "==> lcasgd train --no-such-flag smoke"
RC=0; ./target/release/lcasgd train --no-such-flag 2>/dev/null || RC=$?
[ "$RC" -eq 2 ] || { echo "lcasgd train --no-such-flag exited $RC, not 2"; exit 1; }
RC=0; ./target/release/lcasgd train --flush-every 4 2>/dev/null || RC=$?
[ "$RC" -eq 2 ] || { echo "lcasgd train --flush-every without --standby exited $RC, not 2"; exit 1; }
# ... and so must a value outside a flag's set, a flag given twice and a
# flag whose value is another flag, not run with another reading; the
# first line of the error names the flag (the first word of each case).
# A value flag given last and a --flush-every of 0 are refused the same way.
for BAD in "--dataset foo" "--workers 0" \
    "--algorithm asgd --algorithm sgd --workers 2 --epochs 1" "--trace --standby" \
    "--trace" "--staleness-bound" "--flush-every 0 --standby"; do
    RC=0; ERR=$(./target/release/lcasgd train $BAD 2>&1 >/dev/null) || RC=$?
    [ "$RC" -eq 2 ] || { echo "lcasgd train $BAD exited $RC, not 2"; exit 1; }
    case "${ERR%%$'\n'*}" in
        *"${BAD%% *}"*) ;;
        *) echo "lcasgd train $BAD: '${ERR%%$'\n'*}' does not name ${BAD%% *}"; exit 1 ;;
    esac
done

# CLI smoke: train runs the data `Scenario::imagenet` builds for repro-all.
echo "==> lcasgd train --dataset imagenet smoke"
OUT=$(timeout 120 ./target/release/lcasgd train --algorithm sgd --workers 1 --epochs 1 \
    --dataset imagenet)
case "$OUT" in
    *"192 train / 72 test"*) ;;
    *) echo "lcasgd train --dataset imagenet does not run Scenario::imagenet's data"; exit 1 ;;
esac

echo "==> cargo fmt --check (touched crates)"
cargo fmt --check "${TOUCHED[@]}"

echo "==> cargo clippy -D warnings (touched crates)"
cargo clippy -q "${TOUCHED[@]}" --all-targets -- -D warnings

# Rustdoc: an intra-doc link to a deleted or private item fails here, so a
# deletion cannot leave a dangling link behind.
echo "==> cargo doc -D warnings (touched crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${TOUCHED[@]}"

echo "CI OK"
