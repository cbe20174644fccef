#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in fail-fast order.
set -euo pipefail
cd "$(dirname "$0")"
# The gates below rewrite tracked artifacts; the tree gate checks that
# every one of them is back as it was. It runs on exit, so it reports
# even after an earlier gate failed, and keeps that gate's exit code.
status_at_start=$(git status --porcelain)
tree_gate() {
    local code=$?
    echo "== tree unchanged (ci.sh leaves the checkout as it found it) =="
    local status_at_end
    status_at_end=$(git status --porcelain)
    if [ "$status_at_end" != "$status_at_start" ]; then
        diff <(echo "$status_at_start") <(echo "$status_at_end") || true
        echo "ci.sh changed the tree (git status --porcelain differs from the start)"
        exit 1
    fi
    echo "tree gate: git status --porcelain matches the start"
    if [ "$code" -eq 0 ]; then
        echo "ci.sh: all green"
    fi
    exit "$code"
}
trap tree_gate EXIT

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== kernel bit-identity suites, optimized =="
# The register kernels only vectorize with optimizations on, and the
# paper tables come from release builds: re-run the linalg, k-means and
# model suites (tile-boundary and transpose bit-identity proptests
# included) in the profile that produces the numbers.
cargo test -q --release -p freeway-linalg -p freeway-cluster -p freeway-ml

echo "== kernel bit-identity suites, array lane backend =="
# The register tiles hold their lanes in one AVX-512 register where the
# build target has AVX-512F, and in an array elsewhere. Re-run the same
# suites built for x86-64-v3 (AVX2, no AVX-512), so the backend a
# native build does not pick stays bit-identical too; its own target
# directory keeps the native build's artifacts.
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 \
    cargo test -q --release -p freeway-linalg -p freeway-cluster -p freeway-ml

echo "== paper artifact gate (Table I and Figure 9 byte-identical) =="
# A kernel change may make nothing faster at the cost of a different
# number: regenerate Table I and Figure 9 at run_experiments.sh settings
# and diff them against the committed JSONs. They run every learner path
# (ensemble, CEC's k-means, knowledge reuse) on the paper's datasets.
cp results/table1.json /tmp/table1_ci.json
cp results/fig9.json /tmp/fig9_ci.json
FREEWAY_BATCHES=300 FREEWAY_BATCH_SIZE=256 \
    cargo run --release -q -p freeway-eval --bin table1 > /dev/null
FREEWAY_BATCHES=200 FREEWAY_BATCH_SIZE=256 \
    cargo run --release -q -p freeway-eval --bin fig9 > /dev/null
diff /tmp/table1_ci.json results/table1.json
diff /tmp/fig9_ci.json results/fig9.json
rm -f /tmp/table1_ci.json /tmp/fig9_ci.json
echo "paper artifact gate: table1 and fig9 match the committed JSONs"

echo "== alloc regression gate (zero-allocation hot path) =="
cargo test -q -p freeway-eval --features alloc-metrics --test alloc_regression

echo "== chaos recovery gate (fault-tolerant runtime) =="
cargo test -q -p freeway-chaos --test recovery

echo "== telemetry gate (drift-event observability) =="
# The observe_drift example self-checks (exit code) that the detected
# drift timeline covers the generator's ground truth and writes both
# export formats; the JSON re-parse below asserts the exported snapshot
# independently records at least one DriftDetected event. The example
# rewrites the tracked exports, whose stage-timing histograms differ run
# to run, so the committed copies are kept aside and put back after.
cp results/TELEMETRY_observe_drift.json /tmp/telemetry_ci.json
cp results/TELEMETRY_observe_drift.prom /tmp/telemetry_ci.prom
cargo run --release --example observe_drift > /dev/null
python3 - <<'PY'
import json
with open("results/TELEMETRY_observe_drift.json") as fh:
    snapshot = json.load(fh)
drifts = [e for e in snapshot["events"] if "DriftDetected" in e]
assert drifts, "exported snapshot carries no DriftDetected events"
assert snapshot["metrics"]["counters"]["freeway_events_drift_detected_total"] >= len(drifts) > 0
print(f"telemetry gate: {len(drifts)} DriftDetected event(s) in exported snapshot")
PY
mv /tmp/telemetry_ci.json results/TELEMETRY_observe_drift.json
mv /tmp/telemetry_ci.prom results/TELEMETRY_observe_drift.prom

echo "== overload gate (admission control + degradation ladder) =="
# The overload integration drill asserts bounded producer latency,
# shedding at the worker queue (the only admission buffer, so memory is
# bounded by its depth), zero stalls, and the prequential-accuracy
# envelope under a 4x burst; the checkpoint-corruption drill asserts
# restore falls back past a trashed newest generation. Release build:
# the drill budgets real wall-clock stage times, which debug-profile
# compute would blow. The drill example then re-writes its
# deterministic artifact twice: the diff asserts byte-stability, and
# `git diff` that it still matches the committed file (every drill gate
# below does the same).
cargo test -q --release -p freeway-chaos --test overload
cargo run --release --example overload_drill > /dev/null
cp results/OVERLOAD_drill.json /tmp/overload_drill_ci.json
cargo run --release --example overload_drill > /dev/null
diff /tmp/overload_drill_ci.json results/OVERLOAD_drill.json
git diff --exit-code -- results/OVERLOAD_drill.json
rm -f /tmp/overload_drill_ci.json
echo "overload gate: drill green, artifact byte-stable"

echo "== journal gate (durable ingest + effectively-once replay) =="
# The torn-write proptest cuts a journal at every byte of its tail frame
# and asserts recovery is always the framed prefix; the journaled crash
# drill asserts a two-panic run and a single-shard-panic 2-shard run both
# lose zero batches and reproduce the fault-free transcript byte-for-byte;
# the drill artifact is re-written and diffed for byte-stability.
cargo test -q --release -p freeway-core --test journal_recovery
cargo run --release --example chaos_drill -- --journal > /dev/null
cp results/JOURNAL_drill.json /tmp/journal_drill_ci.json
cargo run --release --example chaos_drill -- --journal > /dev/null
diff /tmp/journal_drill_ci.json results/JOURNAL_drill.json
git diff --exit-code -- results/JOURNAL_drill.json
rm -f /tmp/journal_drill_ci.json
python3 - <<'PY'
import json
drill = json.load(open("results/JOURNAL_drill.json"))
plain, sharded = drill["plain"], drill["sharded"]
assert plain["lost_in_flight"] == 0, f"plain drill lost batches: {plain}"
assert plain["transcript_matches_fault_free"], "plain transcript diverged"
assert plain["replay_exercised"], "crash drill never exercised replay"
assert plain["delivered_exactly_once"], "an accepted batch was lost or delivered twice"
assert plain["journal_appended"] == plain["accepted"], "an accepted batch skipped the journal"
assert sharded["lost_in_flight"] == [0, 0], f"a shard lost batches: {sharded}"
assert sharded["victim_transcript_matches"], "victim shard transcript diverged"
assert sharded["healthy_transcript_matches"], "healthy shard transcript diverged"
assert sharded["replay_confined_to_victim"], "replay leaked to the healthy shard"
print(
    "journal gate: replay exercised, 0 lost, "
    "transcripts byte-equal to fault-free, artifact byte-stable"
)
PY

echo "== serving gate (multi-client facade + label regimes) =="
# The serve suite proves concurrent sessions match a serialized oracle;
# the label-regime suite proves delayed/partial labels stay within the
# accuracy budget. The serving drill (8 clients x 2 shards under mixed
# label schedules) internally asserts zero panics, oracle equality, the
# 3-point accuracy budget, and a bounded p99 submit latency; its
# artifact is re-written and diffed for byte-stability, then the JSON
# re-parse asserts the recorded invariants independently.
cargo test -q --release -p freeway-core --test serve
cargo test -q --release -p freeway-chaos --test label_regime
cargo run --release --example serving_drill > /dev/null
cp results/SERVING_drill.json /tmp/serving_drill_ci.json
cargo run --release --example serving_drill > /dev/null
diff /tmp/serving_drill_ci.json results/SERVING_drill.json
git diff --exit-code -- results/SERVING_drill.json
rm -f /tmp/serving_drill_ci.json
python3 - <<'PY'
import json
drill = json.load(open("results/SERVING_drill.json"))
assert drill["clients"] >= 8, f"drill ran {drill['clients']} clients, need >= 8"
assert drill["shards"] == 2, f"drill ran {drill['shards']} shards, need 2"
assert all(p == 0 for p in drill["worker_panics"]), f"worker panics: {drill['worker_panics']}"
assert drill["shed"] == 0 and drill["quarantined"] == 0, "drill shed or quarantined batches"
assert drill["oracle_match"] is True, "concurrent transcripts diverged from the oracle"
assert all(a > 0 for a in drill["per_shard_admitted"]), "a shard sat idle"
gap = drill["full_accuracy"] - drill["regime_accuracy"]
assert gap <= 0.03, f"label-regime accuracy gap {gap:.4f} blew the 3-point budget"
print(
    f"serving gate: {drill['clients']} clients over {drill['shards']} shards, "
    f"oracle match, regime gap {gap:+.4f}"
)
PY

echo "== failover gate (liveness watchdog + shard fencing) =="
# The liveness suite proves the watchdog never declares a slow-but-
# progressing worker stalled (proptest) and that fenced-shard routing is
# deterministic and survivor-only; the stall/fence suite proves forced
# recovery of a hung or livelocked worker is effectively-once under a
# journal and that the serving facade sheds stranded work with typed
# retryable notices. The failover drill (stall -> recover -> crash-loop
# -> fence -> reroute) re-writes its deterministic artifact, the diff
# asserts byte-stability, and the JSON re-parse asserts the recorded
# invariants independently: the drill completing at all is the
# zero-process-panics claim, healthy shards never restart, and nothing
# is lost anywhere (journal replay covers even the fenced shard).
cargo test -q --release -p freeway-core --test liveness
cargo test -q --release -p freeway-chaos --test stall_fence
cargo run --release --example failover_drill > /dev/null
cp results/FAILOVER_drill.json /tmp/failover_drill_ci.json
cargo run --release --example failover_drill > /dev/null
diff /tmp/failover_drill_ci.json results/FAILOVER_drill.json
git diff --exit-code -- results/FAILOVER_drill.json
rm -f /tmp/failover_drill_ci.json
python3 - <<'PY'
import json
drill = json.load(open("results/FAILOVER_drill.json"))
assert drill["worker_stalls"] == 1, f"watchdog fired {drill['worker_stalls']} time(s), want 1"
assert drill["fenced_shards"] == [0], f"fence landed on the wrong shard: {drill['fenced_shards']}"
assert drill["restarts"][1:] == [0, 0], f"a healthy shard restarted: {drill['restarts']}"
assert all(lost == 0 for lost in drill["lost_in_flight"]), (
    f"batches lost in flight: {drill['lost_in_flight']}"
)
assert drill["failover_target"] in (1, 2), f"rerouted to a dead shard: {drill}"
assert drill["surviving_accuracy_gap"] <= 0.03, (
    f"surviving-traffic gap {drill['surviving_accuracy_gap']} blew the 3-point budget"
)
assert drill["registry_entries_after_fence"] == drill["registry_entries_before_fence"] > 0, (
    "fencing changed the knowledge registry"
)
assert drill["cross_shard_hits"] >= 1, "failover never reused the fenced shard's knowledge"
sim = drill["simulation"]
assert sim["false_positives"] == 0, f"virtual-time watchdog false-fired: {sim}"
assert sim["recovered"] == len(sim["detections"]) == 3, f"missed stall windows: {sim}"
print(
    f"failover gate: fence on shard 0, reroute -> {drill['failover_target']}, "
    f"surviving gap {drill['surviving_accuracy_gap']:+.4f}, 0 lost, artifact byte-stable"
)
PY

echo "== benchmark smoke (perfbench builds and its answers replay-check) =="
# perfbench/ is a cargo workspace of its own, so nothing above builds
# it: a core API change could break the benchmark unnoticed. One short
# run per workload proves it still builds against the current crates and
# that every answer matches its serialized reference replay (a mismatch
# exits 1 without printing numbers); the traced serve-roundtrip runs also
# replay-check every ladder tier and durable serving, and feed the
# serving-hop gate below. The last line of each run is its JSON verdict.
rm -f /tmp/perfbench_ci_hop.txt
for spec in learner-drift:0 serve-roundtrip:0 serve-roundtrip:1 serve-roundtrip:1 serve-roundtrip:1; do
    workload=${spec%:*}
    trace=${spec#*:}
    cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace "$trace" > /tmp/perfbench_ci.out
    tail -n 1 /tmp/perfbench_ci.out > /tmp/perfbench_ci.json
    WORKLOAD="$workload" TRACE="$trace" python3 - <<'PY'
import json, os
verdict = json.load(open("/tmp/perfbench_ci.json"))
run = f"{os.environ['WORKLOAD']} --trace {os.environ['TRACE']}"
assert verdict["correct"] is True, f"{run}: benchmark answers were not correct"
assert verdict["failed"] == 0, f"{run}: {verdict['failed']} operations failed"
print(f"benchmark smoke: {run}: correct, {verdict['attempted']} attempted, 0 failed")
if run == "serve-roundtrip --trace 1":
    metrics = verdict["metrics"]
    serve = metrics["tier.serve.rt_p50_us"]["value"]
    supervisor = metrics["tier.supervisor.rt_p50_us"]["value"]
    with open("/tmp/perfbench_ci_hop.txt", "a") as ratios:
        ratios.write(f"{serve / supervisor}\n")
PY
done
# Serving-hop gate, a ratio within each run so host speed cancels: a
# Service round trip may cost at most 1.2x the supervised pipeline's,
# which already makes the two worker wake-ups a serving trip needs. The
# median of the three traced runs rides out one noisy run.
python3 - <<'PY'
import statistics
ratios = [float(line) for line in open("/tmp/perfbench_ci_hop.txt")]
assert len(ratios) == 3, f"expected three traced serve-roundtrip runs, got {ratios}"
median = statistics.median(ratios)
runs = ", ".join(f"{r:.2f}" for r in ratios)
assert median <= 1.2, (
    f"serving hop regressed: median tier.serve/tier.supervisor rt_p50 {median:.2f} > 1.2 ({runs})"
)
print(f"serving-hop gate: median serve/supervisor round trip {median:.2f} <= 1.2 ({runs})")
PY
rm -f /tmp/perfbench_ci.out /tmp/perfbench_ci.json /tmp/perfbench_ci_hop.txt

echo "== cargo doc (telemetry + builder API docs must be warning-free) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== unwrap/expect audit (runtime crates must not panic) =="
# The supervised runtime's library code may not unwrap/expect its way
# past errors; tests keep their expects (cfg(test) code is not linted
# because only the lib target is checked, and --no-deps keeps the audit
# scoped to the listed crates). freeway-chaos rides along: the fault
# injector and overload harness run inside the same process as the
# runtime they are drilling. So does freeway-telemetry: its handles run
# on every shard worker and under the service lock, where a panic
# restarts a worker or ends the service.
cargo clippy -q -p freeway-core --lib --no-deps -- \
    -W clippy::unwrap_used -W clippy::expect_used -D warnings
cargo clippy -q -p freeway-chaos --lib --no-deps -- \
    -W clippy::unwrap_used -W clippy::expect_used -D warnings
cargo clippy -q -p freeway-telemetry --lib --no-deps -- \
    -W clippy::unwrap_used -W clippy::expect_used -D warnings

echo "== cargo clippy =="
# redundant_clone is allow-by-default (nursery); promote it to warn
# *before* `-D warnings` so the group elevation turns it into an error.
cargo clippy --workspace --all-targets -- -W clippy::redundant_clone -D warnings

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== throughput regression gate (single-core kernel floor) =="
# bench_throughput --quick runs StreamingLR at batch 256 once and emits
# one machine-readable JSON line; the gate fails when the FreewayML point
# drops below the checked-in floor. The floor (results/BENCH_floor.json)
# is set well under the measured steady state so host noise passes but
# losing the kernel optimisations does not.
cargo build --release -q -p freeway-eval --features alloc-metrics
# The kernel cliff gates below read three runs.
for run in 1 2 3; do
    ./target/release/bench_throughput --quick | tail -n 1 > /tmp/bench_quick_ci_$run.json
done
python3 - <<'PY'
import json, statistics
floor = json.load(open("results/BENCH_floor.json"))
runs = [json.load(open(f"/tmp/bench_quick_ci_{run}.json")) for run in (1, 2, 3)]
bench = runs[0]
match = [
    p for p in bench["points"]
    if p["system"] == "FreewayML"
    and p["model"] == floor["model"]
    and p["batch_size"] == floor["batch_size"]
]
assert match, f"quick bench emitted no point matching the floor spec {floor}"
got = match[0]["items_per_sec"]
need = floor["min_items_per_sec"]
assert got >= need, f"FreewayML throughput regressed: {got:,.0f} items/s < floor {need:,.0f}"
assert bench["kernel_microbench"], "quick bench carries no kernel microbench section"
print(f"throughput gate: FreewayML {got:,.0f} items/s >= floor {need:,.0f}")
# Kernel cliff gates, ratios within one run so host speed cancels, the
# median of three runs so one preempted point cannot decide: the
# learner-drift head's two gradient products must run at a set share of
# the GFLOP/s of the same product at its hidden layer's shape (full
# register tiles): its weight gradient (transa at 256x32x5, a 5-wide
# right-hand side) and its back-propagated delta (transb at 256x5x32, a
# 5-deep shared dimension). Where the build target has AVX-512F they
# take the narrow-operand sweeps. Over 30 runs of each build, medians of
# three read 0.87-1.11 (transa) and 0.85-1.53 (transb) for the sweeps
# and 0.51-0.66 and 0.46-0.72 for the register tiles they replaced, so
# the floors sit between. Without AVX-512F the tiles stay, and the
# older floor of 1/3 applies to both.
avx512 = bench["lane_backend"] == "avx512"
for kernel, head_shape, floor in [
    ("matmul_transa", "256x32x5", 0.75 if avx512 else 1 / 3),
    ("matmul_transb", "256x5x32", 0.78 if avx512 else 1 / 3),
]:
    ratios = []
    for run in runs:
        rates = {(p["kernel"], p["shape"]): p["gflops"] for p in run["kernel_microbench"]}
        ratios.append(rates[(kernel, head_shape)] / rates[(kernel, "256x20x32")])
    ratio = statistics.median(ratios)
    assert ratio >= floor, (
        f"{kernel} fell off its narrow-operand path: {head_shape} at {ratio:.2f}x "
        f"of 256x20x32's GFLOP/s (median of {[round(r, 2) for r in ratios]}) < {floor:.2f}"
    )
    print(f"kernel cliff gate: {kernel} {head_shape} at {ratio:.2f}x of 256x20x32 (median of 3)")
# Softmax cliff gate, the same kind of ratio: the learner-drift head's
# softmax (256x5) must take at most half the time of its hidden layer's
# forward GEMM (matmul 256x20x32). The lane kernel reads about 0.3; a
# softmax calling libm's exp per element reads about 1.
times = {
    (p["kernel"], p["shape"]): p["ns_per_call"] for p in bench["kernel_microbench"]
}
softmax, gemm = times[("softmax_rows", "256x5")], times[("matmul", "256x20x32")]
assert softmax <= gemm / 2, (
    f"softmax_rows fell off its lane kernel: {softmax:.0f} ns at 256x5 "
    f"> 1/2 of matmul 256x20x32's {gemm:.0f} ns"
)
print(f"softmax cliff gate: softmax_rows 256x5 at {softmax / gemm:.2f}x of matmul 256x20x32")
PY
rm -f /tmp/bench_quick_ci_1.json /tmp/bench_quick_ci_2.json /tmp/bench_quick_ci_3.json

echo "== sharded runtime gate (routing, crash isolation, shard scaling) =="
# The keyed shard drill asserts a worker panic on one shard restarts
# only that shard (healthy-shard transcript and registry byte-equal to
# a fault-free run); the sharded drill example re-writes its
# deterministic artifact and the diff asserts byte-stability; the quick
# shard sweep drives 1024 interleaved keyed streams through 1 and 2
# shards and gates the scaling ratio — only on hosts with >= 2 cores,
# since shard workers cannot scale past the physical core budget. The
# 1-shard parity oracle (the admitted Block path against
# SupervisedPipeline::feed, two callers of one offer path) and builder
# parity run here optimized as well as in the debug pass above.
cargo test -q --release -p freeway-core --test sharded --test builder_parity
cargo test -q --release -p freeway-chaos --test keyed_shard
cargo run --release --example sharded_drill > /dev/null
cp results/SHARDED_drill.json /tmp/sharded_drill_ci.json
cargo run --release --example sharded_drill > /dev/null
diff /tmp/sharded_drill_ci.json results/SHARDED_drill.json
git diff --exit-code -- results/SHARDED_drill.json
rm -f /tmp/sharded_drill_ci.json
./target/release/bench_throughput --quick --shards 1,2 --keys 1024 \
    | tail -n 1 > /tmp/shard_quick_ci.json
python3 - <<'PY'
import json, os
bench = json.load(open("/tmp/shard_quick_ci.json"))
points = {p["shards"]: p for p in bench["shard_scaling"]}
assert 1 in points and 2 in points, f"shard sweep missing counts: {sorted(points)}"
for p in points.values():
    assert p["keys"] >= 1024, f"sweep ran {p['keys']} keyed streams, need >= 1024"
    assert p["items_per_sec"] > 0, f"non-positive throughput at {p['shards']} shard(s)"
ratio = points[2]["items_per_sec"] / points[1]["items_per_sec"]
cores = os.cpu_count() or 1
if cores >= 2:
    assert ratio >= 1.6, (
        f"2-shard scaling regressed: {ratio:.2f}x over 1 shard "
        f"(need >= 1.6x on this {cores}-core host)"
    )
    print(f"sharded gate: 2 shards = {ratio:.2f}x of 1 shard on {cores} cores")
else:
    print(
        f"sharded gate: scaling ratio {ratio:.2f}x recorded, 1.6x assertion "
        f"skipped (single-core host cannot scale shard workers)"
    )
PY
rm -f /tmp/shard_quick_ci.json
echo "sharded gate: crash isolation green, drill artifact byte-stable"
