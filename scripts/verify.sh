#!/usr/bin/env bash
# Hermetic verification: build, test, and lint with no registry access.
# The workspace has zero external dependencies, so --offline must succeed
# even with an empty cargo registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace -- -D warnings

# Smoke-run the benchmarks: exercises the parallel + cached analyzer and
# the HTTP service end to end and checks the BENCH_*.json plumbing. This
# includes the seeded chaos storm (chaos_storm --seed 42), which fails on
# its own if a job is lost, anything hangs, a recovery path never fires,
# or disarmed fault-injection overhead reaches 10%.
scripts/bench.sh --smoke

# Chaos smoke gates, re-checked from the storm's JSON so a regression in
# the binary's own gating cannot pass silently: the storm replayed
# deterministically, and every recovery counter moved.
chaos_json="target/BENCH_chaos.smoke.json"
grep -q '"determinism": true' "$chaos_json" \
    || { echo "chaos smoke: storm was not deterministic" >&2; exit 1; }
for counter in ppo_rollbacks deadline_kills client_retries; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: recovery counter $counter never moved" >&2
        exit 1
    fi
done
# Router storm gates: the routed two-shard phase failed over, replayed the
# dead shard's log, and replayed byte-identically under the same seed.
grep -q '"router_identical": true' "$chaos_json" \
    || { echo "chaos smoke: router storm was not deterministic" >&2; exit 1; }
for counter in router_failovers router_replayed; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: router storm counter $counter never moved" >&2
        exit 1
    fi
done
# Membership storm gates (DESIGN.md §16): the RF2 fleet promoted replicas
# on the kill, the restarted shard rejoined and drained its share, and the
# whole storm replayed byte-identically under the same seed.
grep -q '"membership_identical": true' "$chaos_json" \
    || { echo "chaos smoke: membership storm was not deterministic" >&2; exit 1; }
for counter in membership_rejoins membership_migrated membership_promotions; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: membership storm counter $counter never moved" >&2
        exit 1
    fi
done
echo "chaos smoke: deterministic storm + live recovery counters confirmed"

# Trace smoke test: a tiny RL plan run with --trace-out must produce a
# Perfetto-loadable trace containing the planner/analyzer span taxonomy
# and the PPO update's (update, backward, GCN forward, Adam step), so the
# spans the training ledger reads stay gated (trace_check validates the
# JSON with the in-tree parser), and a profile table on stdout.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cat > "$trace_dir/smoke.tssdn" <<'EOF'
[nodes]
es a
es b
sw s0
sw s1
[links]
a s0
a s1
b s0
b s1
s0 s1
[flows]
a b 500 128
EOF
cargo build --release --offline -p nptsn-bench --bin trace_check
./target/release/nptsn plan "$trace_dir/smoke.tssdn" \
    --epochs 1 --steps 32 --seed 1 \
    --trace-out "$trace_dir/trace.json" --profile > "$trace_dir/plan.out"
./target/release/trace_check "$trace_dir/trace.json" \
    planner.run planner.epoch planner.rollout analyzer.analyze soag.generate \
    ppo.update ppo.backward gcn.forward adam.step
grep -q "planner.epoch" "$trace_dir/plan.out" \
    || { echo "trace smoke: no profile table on stdout" >&2; exit 1; }
rm -rf "$trace_dir"
trap - EXIT
echo "trace smoke: trace + profile confirmed"

# Serve smoke test: start the service on an ephemeral port, run a greedy
# plan job through the in-tree client (all 200s, non-empty /metrics), and
# check the drain-and-shutdown path completes cleanly.
serve_log="$(mktemp)"
./target/release/nptsn serve --addr 127.0.0.1:0 --serve-workers 1 --queue-depth 4 \
    >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^nptsn-serve listening on \([0-9.:]*\) .*/\1/p' "$serve_log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "serve smoke: server never printed its address" >&2; exit 1; }
# Wait on readiness, not a fixed sleep: /readyz answers 200 once the
# queue and workers are up.
./target/release/readyz_wait "$addr" 30
./target/release/serve_smoke "$addr"
wait "$serve_pid"
trap - EXIT
grep -q "drained and stopped" "$serve_log" \
    || { echo "serve smoke: no clean shutdown message" >&2; exit 1; }
echo "serve smoke: clean shutdown confirmed"

# Store smoke test (DESIGN.md §12): a server with a --data-dir is killed
# with SIGKILL mid-work — a finished verify job, a registered checkpoint,
# one running and several queued burn jobs on the books — then restarted
# on the same directory. store_smoke asserts the finished result comes
# back byte-identical, the registry survived, and every interrupted job
# is re-enqueued and driven to a terminal state.
store_state="$(mktemp -d)"
store_log="$store_state/serve.log"
start_store_server() {
    ./target/release/nptsn serve --addr 127.0.0.1:0 --serve-workers 1 \
        --queue-depth 16 --data-dir "$store_state/data" >"$store_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^nptsn-serve listening on \([0-9.:]*\) .*/\1/p' "$store_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "store smoke: server never printed its address" >&2; exit 1; }
    ./target/release/readyz_wait "$addr" 30
}
trap 'kill -9 "$serve_pid" 2>/dev/null || true; rm -rf "$store_state"' EXIT
start_store_server
./target/release/store_smoke seed "$addr" "$store_state"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
start_store_server
grep -q "jobs re-enqueued" "$store_log" \
    || { echo "store smoke: restart reported no recovery" >&2; exit 1; }
if grep -q "(0 jobs re-enqueued)" "$store_log"; then
    echo "store smoke: restart re-enqueued nothing" >&2
    exit 1
fi
./target/release/store_smoke check "$addr" "$store_state"
wait "$serve_pid"
trap - EXIT
rm -rf "$store_state"
echo "store smoke: kill -9 recovery confirmed"

# Infer micro-batching smoke test (DESIGN.md §13): a one-worker server
# with --infer-batch-max 8 must coalesce concurrent identical infer jobs
# into fused batched forwards. infer_smoke registers a checkpoint, piles
# four identical infer jobs behind a burn job, asserts every outcome is
# identical and that /metrics counted at least one batched forward.
infer_log="$(mktemp)"
./target/release/nptsn serve --addr 127.0.0.1:0 --serve-workers 1 --queue-depth 16 \
    --infer-batch-max 8 >"$infer_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^nptsn-serve listening on \([0-9.:]*\) .*/\1/p' "$infer_log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "infer smoke: server never printed its address" >&2; exit 1; }
./target/release/readyz_wait "$addr" 30
./target/release/infer_smoke "$addr"
wait "$serve_pid"
trap - EXIT
grep -q "drained and stopped" "$infer_log" \
    || { echo "infer smoke: no clean shutdown message" >&2; exit 1; }
rm -f "$infer_log"
echo "infer smoke: coalesced batched inference confirmed"

# Router smoke test (DESIGN.md §14): two durable shards behind the
# consistent-hash front tier, one killed with SIGKILL mid-submission.
# router_smoke owns the kill and asserts the durability contract: every
# job the router acked reaches a terminal state through the router, with
# the failover and the dead-shard replay visible in /metrics.
router_state="$(mktemp -d)"
trap 'kill -9 ${shard_a_pid:-} ${shard_b_pid:-} ${router_pid:-} 2>/dev/null || true; \
     rm -rf "$router_state"' EXIT
start_shard() { # $1: log file, $2: data dir, $3: shard name
    ./target/release/nptsn serve --addr 127.0.0.1:0 --serve-workers 1 \
        --queue-depth 32 --data-dir "$2" --shard-name "$3" >"$1" 2>&1 &
    shard_pid=$!
    shard_addr=""
    for _ in $(seq 1 100); do
        shard_addr="$(sed -n 's/^nptsn-serve listening on \([0-9.:]*\) .*/\1/p' "$1")"
        [[ -n "$shard_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$shard_addr" ]] \
        || { echo "router smoke: shard $3 never printed its address" >&2; exit 1; }
    ./target/release/readyz_wait "$shard_addr" 30
}
start_shard "$router_state/shard-a.log" "$router_state/data-a" s0
shard_a_pid=$shard_pid; shard_a_addr=$shard_addr
start_shard "$router_state/shard-b.log" "$router_state/data-b" s1
shard_b_pid=$shard_pid; shard_b_addr=$shard_addr
router_log="$router_state/router.log"
./target/release/nptsn router --addr 127.0.0.1:0 \
    --shards "$shard_a_addr,$shard_b_addr" \
    --data-dirs "$router_state/data-a,$router_state/data-b" \
    --names s0,s1 >"$router_log" 2>&1 &
router_pid=$!
router_addr=""
for _ in $(seq 1 100); do
    router_addr="$(sed -n 's/^nptsn-router listening on \([0-9.:]*\) .*/\1/p' "$router_log")"
    [[ -n "$router_addr" ]] && break
    sleep 0.1
done
[[ -n "$router_addr" ]] \
    || { echo "router smoke: router never printed its address" >&2; exit 1; }
./target/release/readyz_wait "$router_addr" 30
./target/release/router_smoke "$router_addr" --kill-pid "$shard_a_pid"
wait "$router_pid"
wait "$shard_a_pid" 2>/dev/null || true
# The router's /shutdown stops only the front tier; reap the survivor.
kill -9 "$shard_b_pid" 2>/dev/null || true
wait "$shard_b_pid" 2>/dev/null || true
trap - EXIT
grep -q "nptsn-router stopped" "$router_log" \
    || { echo "router smoke: no clean router shutdown message" >&2; exit 1; }
rm -rf "$router_state"
echo "router smoke: kill -9 failover with zero acked loss confirmed"

# Fleet observability smoke (DESIGN.md §15): a fresh two-shard fleet with
# an explicit --flight-capacity, one traced job routed through the front
# tier. trace_smoke asserts the merged Chrome-trace document (every span
# under the one router-minted trace id), the flight ring and the
# federated /metrics, and writes the merged trace for the greps below:
# both shard process rows plus spans from both sides of the process
# boundary must be in the document a Perfetto user would load.
obs_state="$(mktemp -d)"
trap 'kill -9 ${shard_a_pid:-} ${shard_b_pid:-} ${router_pid:-} 2>/dev/null || true; \
     rm -rf "$obs_state"' EXIT
start_shard "$obs_state/shard-a.log" "$obs_state/data-a" s0
shard_a_pid=$shard_pid; shard_a_addr=$shard_addr
start_shard "$obs_state/shard-b.log" "$obs_state/data-b" s1
shard_b_pid=$shard_pid; shard_b_addr=$shard_addr
obs_router_log="$obs_state/router.log"
./target/release/nptsn router --addr 127.0.0.1:0 \
    --shards "$shard_a_addr,$shard_b_addr" \
    --data-dirs "$obs_state/data-a,$obs_state/data-b" \
    --names s0,s1 --flight-capacity 1024 >"$obs_router_log" 2>&1 &
router_pid=$!
router_addr=""
for _ in $(seq 1 100); do
    router_addr="$(sed -n 's/^nptsn-router listening on \([0-9.:]*\) .*/\1/p' "$obs_router_log")"
    [[ -n "$router_addr" ]] && break
    sleep 0.1
done
[[ -n "$router_addr" ]] \
    || { echo "obs smoke: router never printed its address" >&2; exit 1; }
./target/release/readyz_wait "$router_addr" 30
./target/release/trace_smoke "$router_addr" "$obs_state/merged-trace.json" \
    --expect-capacity 1024
for needle in '"name":"s0"' '"name":"s1"' '"name":"job.run"' '"name":"router.forward"'; do
    grep -q "$needle" "$obs_state/merged-trace.json" \
        || { echo "obs smoke: $needle missing from the merged trace" >&2; exit 1; }
done
wait "$router_pid"
kill -9 "$shard_a_pid" "$shard_b_pid" 2>/dev/null || true
wait "$shard_a_pid" 2>/dev/null || true
wait "$shard_b_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$obs_state"
echo "obs smoke: merged fleet trace + flight ring + federation confirmed"

# Membership smoke (DESIGN.md §16): membership_smoke spawns its own RF2
# fleet as child processes and walks the full elastic-membership story —
# kill -9 promotes the passive replicas pause-free, the restarted shard
# re-announces through POST /admin/shards and catches up, and a brand-new
# shard joins the running fleet and drains its share — asserting the
# counters and every acked job's survival at each step.
cargo build --release --offline -p nptsn-bench --bin membership_smoke
./target/release/membership_smoke
echo "membership smoke: rejoin + scale-out + replica promotion confirmed"
