#!/usr/bin/env bash
# Tier-1 CI gate: build, full test suite, the benchmark's own tests, lints,
# the fixed-seed fault-injection matrix (3 plans x 4 algorithms on the
# simulation backend; see
# crates/kimbap/tests/fault_injection.rs::fault_matrix_smoke), and a
# seed-replayable simulation fuzz smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark tests (labels vs serial reference, stream determinism)"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo clippy --workspace --benches --tests -- -D warnings"
cargo clippy --workspace --benches --tests -- -D warnings

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench -q --workspace --no-run

echo "==> fault-matrix smoke (fixed seeds)"
cargo test --release -q -p kimbap --test fault_injection fault_matrix_smoke

echo "==> cross-backend fault matrix (sim vs in-proc vs TCP loopback)"
cargo test --release -q -p kimbap --test transport_robustness

echo "==> simulation fuzz smoke (seed-replayable; failures print a replay cmd)"
./target/release/kimbap sim --algo cc-lp --seeds 50
./target/release/kimbap sim --algo msf --seeds 50

echo "==> elastic fuzz smoke (kill-bearing plans; survivors must shrink+converge)"
./target/release/kimbap sim --algo cc-lp --seeds 25 --hosts 4 --allow-shrink

echo "==> churn fuzz smoke (seeded join/kill plans; every interleaving must converge)"
./target/release/kimbap sim --algo cc-lp --seeds 25 --hosts 4 --allow-shrink --allow-grow

echo "==> serve scheduler fuzz smoke (seeded job mixes + banded faults; per-job diff vs serial)"
./target/release/kimbap serve-sim --seeds 25 --hosts 3

echo "==> TCP-loopback smoke (multi-process kimbap bin vs in-proc, diffed)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/kimbap gen --kind rmat --scale 8 --ef 4 --seed 9 \
    --out "$SMOKE_DIR/g.kg"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --faults drop --seed 1 --out "$SMOKE_DIR/inproc.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --transport tcp --port-base 46800 --faults drop --seed 1 \
    --out "$SMOKE_DIR/tcp.txt"
diff "$SMOKE_DIR/inproc.txt" "$SMOKE_DIR/tcp.txt"
echo "    in-proc and TCP labels identical"

echo "==> pipelined-vs-serial smoke (same seed, both modes, all three backends)"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --seed 1 --out "$SMOKE_DIR/pipe.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --seed 1 --no-pipeline --out "$SMOKE_DIR/serial.txt"
diff "$SMOKE_DIR/pipe.txt" "$SMOKE_DIR/serial.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --transport tcp --port-base 47000 --seed 1 --out "$SMOKE_DIR/pipe-tcp.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --transport tcp --port-base 47100 --seed 1 --no-pipeline \
    --out "$SMOKE_DIR/serial-tcp.txt"
diff "$SMOKE_DIR/pipe-tcp.txt" "$SMOKE_DIR/serial-tcp.txt"
./target/release/kimbap sim --algo cc-lp --seed 3 --hosts 4 \
    --out "$SMOKE_DIR/pipe-sim.txt"
./target/release/kimbap sim --algo cc-lp --seed 3 --hosts 4 --no-pipeline \
    --out "$SMOKE_DIR/serial-sim.txt"
diff "$SMOKE_DIR/pipe-sim.txt" "$SMOKE_DIR/serial-sim.txt"
echo "    pipelined and --no-pipeline outputs identical (inproc, tcp, sim)"

echo "==> TCP kill smoke (worker 1 killed mid-run; survivors' output diffed)"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 4 --threads 2 \
    --out "$SMOKE_DIR/clean.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 4 --threads 2 \
    --transport tcp --port-base 46900 --faults kill --allow-shrink \
    --out "$SMOKE_DIR/degraded.txt"
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/degraded.txt"
echo "    degraded (3-host) and fault-free (4-host) labels identical"

echo "==> TCP grow smoke (a real worker process joins mid-run; output diffed)"
# A grid graph's diameter keeps cc-lp running long enough for the
# late-spawned joiner worker to knock mid-computation.
./target/release/kimbap gen --kind grid --rows 150 --cols 150 --seed 9 \
    --out "$SMOKE_DIR/grid.kg"
./target/release/kimbap run cc-lp "$SMOKE_DIR/grid.kg" --hosts 3 --threads 2 \
    --out "$SMOKE_DIR/grid-clean.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/grid.kg" --hosts 3 --threads 2 \
    --transport tcp --port-base 47200 --faults join --allow-grow \
    --out "$SMOKE_DIR/grid-grown.txt"
diff "$SMOKE_DIR/grid-clean.txt" "$SMOKE_DIR/grid-grown.txt"
echo "    grown (3 -> 4 host) and fault-free labels identical"

echo "==> compressed-vs-raw smoke (cc-lp + louvain, inproc and sim, diffed)"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --seed 1 --out "$SMOKE_DIR/cc-comp.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --seed 1 --raw --out "$SMOKE_DIR/cc-raw.txt"
diff "$SMOKE_DIR/cc-comp.txt" "$SMOKE_DIR/cc-raw.txt"
./target/release/kimbap run louvain "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --out "$SMOKE_DIR/lv-comp.txt"
./target/release/kimbap run louvain "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --raw --out "$SMOKE_DIR/lv-raw.txt"
diff "$SMOKE_DIR/lv-comp.txt" "$SMOKE_DIR/lv-raw.txt"
./target/release/kimbap sim --algo cc-lp --seed 5 --hosts 3 \
    --out "$SMOKE_DIR/sim-cc-comp.txt"
./target/release/kimbap sim --algo cc-lp --seed 5 --hosts 3 --raw \
    --out "$SMOKE_DIR/sim-cc-raw.txt"
diff "$SMOKE_DIR/sim-cc-comp.txt" "$SMOKE_DIR/sim-cc-raw.txt"
./target/release/kimbap sim --algo louvain --seed 5 --hosts 3 \
    --out "$SMOKE_DIR/sim-lv-comp.txt"
./target/release/kimbap sim --algo louvain --seed 5 --hosts 3 --raw \
    --out "$SMOKE_DIR/sim-lv-raw.txt"
diff "$SMOKE_DIR/sim-lv-comp.txt" "$SMOKE_DIR/sim-lv-raw.txt"
echo "    compressed and raw storage tiers produce identical outputs"

echo "==> bytes-per-edge budget (unit-weight R-MAT must compress < 4 B/edge)"
./target/release/kimbap gen --kind rmat --scale 10 --ef 8 --seed 7 \
    --unit-weights --out "$SMOKE_DIR/unit.kg"
stats_line=$(./target/release/kimbap stats "$SMOKE_DIR/unit.kg" | grep '^compressed:')
echo "    $stats_line"
bpe=$(echo "$stats_line" | sed -n 's/.*(\([0-9.]*\) B\/edge.*/\1/p')
ratio=$(echo "$stats_line" | sed -n 's/.* \([0-9.]*\)x smaller.*/\1/p')
awk -v b="$bpe" 'BEGIN { exit !(b != "" && b < 4.0) }' \
    || { echo "bytes/edge budget blown: $bpe >= 4.0" >&2; exit 1; }
awk -v r="$ratio" 'BEGIN { exit !(r != "" && r >= 2.5) }' \
    || { echo "compression ratio too low: ${ratio}x < 2.5x" >&2; exit 1; }

echo "==> bench harness smoke (tiny graph, JSON records)"
scripts/bench.sh --smoke

echo "==> CI green"
