#!/usr/bin/env bash
# Tier-1 verify flow: release build, full test suite, and lint-clean clippy.
# This is the gate a change must pass before it lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (every crate's own suite)"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fault-injection smoke (loss sweep + mid-transfer link failure)"
cargo run --release -q -p tva-experiments --bin robustness -- --smoke

echo "==> invariant-checker smoke (fuzz batch + replay round-trip, auditors on)"
rm -rf target/verify-invcheck
cargo run --release -q -p tva-experiments --bin invcheck -- \
  fuzz --seeds 16 --start 1 --dir target/verify-invcheck
cargo run --release -q -p tva-experiments --bin invcheck -- \
  dump --seed 20 --out target/verify-invcheck/fixture.json
cargo run --release -q -p tva-experiments --bin invcheck -- \
  replay target/verify-invcheck/fixture.json
TVA_CHECK=1 cargo run --release -q -p tva-experiments --bin robustness -- --smoke

echo "==> attack-suite smoke (damage search, auditors on, shard-determinism)"
rm -rf target/verify-attacks
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-attacks/s1 \
  cargo run --release -q -p tva-experiments --bin attacks -- --smoke
TVA_CHECK=1 TVA_SHARDS=2 TVA_RESULTS_DIR=target/verify-attacks/s2 \
  cargo run --release -q -p tva-experiments --bin attacks -- --smoke >/dev/null
cmp target/verify-attacks/s1/attacks.tsv target/verify-attacks/s2/attacks.tsv
cmp target/verify-attacks/s1/attacks.json target/verify-attacks/s2/attacks.json
cmp target/verify-attacks/s1/attacks_metrics.json target/verify-attacks/s2/attacks_metrics.json
cmp target/verify-attacks/s1/attacks_attribution.tsv target/verify-attacks/s2/attacks_attribution.tsv
cmp target/verify-attacks/s1/attacks_attribution.json target/verify-attacks/s2/attacks_attribution.json

echo "==> allocation discipline (counting allocator, steady-state dumbbell)"
cargo test -q --release -p tva-bench --features alloc-count --test alloc_steady

echo "==> tva-node loopback smoke (daemon fast path: goodput up, zero malformed, zero allocs)"
node_out=$(TVA_NODE_DUR_MS=1000 cargo run --release -q -p tva-node \
  --features alloc-count --bin tva-node -- bench --out target/verify-node-bench.json)
echo "$node_out"
rm -f target/verify-node-bench.json
case "$node_out" in *" 0 malformed"*) ;; *)
  echo "verify: FAIL — clean mix must produce zero malformed frames"; exit 1;;
esac
case "$node_out" in *"0.0000 allocs/pkt"*) ;; *)
  echo "verify: FAIL — daemon fast path must be allocation-free in steady state"; exit 1;;
esac
case "$node_out" in *"(0 forwarded"*)
  echo "verify: FAIL — loopback bench forwarded nothing"; exit 1;;
esac
# Dirty mix at the daemon's Unix-epoch clock: request floods and decode
# rejects go through the request key table and the strict decoder, and the
# bench must still complete and forward.
dirty_out=$(TVA_NODE_MIX=dirty TVA_NODE_DUR_MS=200 timeout 120 \
  cargo run --release -q -p tva-node --features alloc-count --bin tva-node -- \
  bench --out target/verify-node-bench.json)
echo "$dirty_out"
rm -f target/verify-node-bench.json
case "$dirty_out" in *"wrote results/node_metrics.json"*) ;; *)
  echo "verify: FAIL — dirty-mix bench did not complete"; exit 1;;
esac
case "$dirty_out" in *"(0 forwarded"*)
  echo "verify: FAIL — dirty-mix bench forwarded nothing"; exit 1;;
esac

echo "==> telemetry plane smoke (serve + stats socket, obscheck, tva-top)"
rm -rf target/verify-stats
mkdir -p target/verify-stats
TVA_OBS_SAMPLE_N=16 TVA_NODE_STATS_ADDR=127.0.0.1:47133 \
  cargo run --release -q -p tva-node --bin tva-node -- serve \
  --bind 127.0.0.1:47131 --peer 127.0.0.1:47132 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
sleep 1
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll1.json
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll2.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-stats/poll1.json target/verify-stats/poll2.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  --monotone target/verify-stats/poll1.json target/verify-stats/poll2.json
top_out=$(cargo run --release -q -p tva-obs --bin tva-top -- --addr 127.0.0.1:47133 --once)
case "$top_out" in *"tva-top"*) ;; *)
  echo "verify: FAIL — tva-top --once rendered no dashboard frame"; exit 1;;
esac
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT

echo "==> internet-scale tree, quick variant (~10k hosts)"
cargo run --release -q -p tva-bench --bin scale -- --quick --out-dir target/verify-scale
test -s target/verify-scale/scale_metrics.json

echo "==> sharded engine smoke (quick scale on 2 shards, invariant checker on)"
TVA_SHARDS=2 TVA_CHECK=1 \
  cargo run --release -q -p tva-bench --bin scale -- --quick --out-dir target/verify-scale-sharded
grep -q '"shards": 2' target/verify-scale-sharded/scale.json
grep -q '"check_violations": 0' target/verify-scale-sharded/scale.json

echo "==> observability smoke (fig8 quick: obs-off vs obs-on, TSVs byte-identical)"
rm -rf target/verify-obs
TVA_RESULTS_DIR=target/verify-obs/off \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
TVA_RESULTS_DIR=target/verify-obs/on \
  TVA_OBS=1 TVA_OBS_PERFETTO=1 TVA_OBS_DIR=target/verify-obs/obs \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
cmp target/verify-obs/off/fig8.tsv target/verify-obs/on/fig8.tsv
cmp target/verify-obs/off/fig8.json target/verify-obs/on/fig8.json
test -s target/verify-obs/obs/fig8_TVA_series.json
test -s target/verify-obs/obs/fig8_TVA_trace.perfetto.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-obs/obs/*.json target/verify-obs/obs/*.jsonl

echo "verify: OK"
