#!/usr/bin/env bash
# ledger/run.sh [--sets K] [--seed S] [--record FILE]
#
# The whole ritual in one place, run from anywhere:
#   1. tier-1 (`cargo build --release && cargo test -q` at the repo root)
#      and the ledger's own `cargo test`;
#   2. builds the ledger;
#   3. K full sets (default 2) of every workload — an untraced and a traced
#      run each, every run a fresh process of BENCHMARK.json's run_seconds —
#      alternating the workload order between sets so no workload always
#      runs on a warm or a cold machine;
#   4. `urb-ledger --summarize`: per workload and end-to-end metric the
#      median and quartiles over the sets, and the largest disagreement
#      between sets against the metric's bound from BENCHMARK.json;
#   5. with --record FILE, writes every run's result (end-to-end and
#      per-layer, all sets) plus date, commit, core count and seed to FILE —
#      how ledger/baseline/*.json are made.
# Exits non-zero when a test fails, a run fails the correctness gate, or a
# gated metric disagrees between sets by more than its bound.
set -euo pipefail

sets=2
seed=1
record=""
while [ $# -gt 0 ]; do
    case "$1" in
        --sets) sets="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --record) record="$2"; shift 2 ;;
        *) echo "usage: ledger/run.sh [--sets K] [--seed S] [--record FILE]" >&2; exit 2 ;;
    esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -n "$record" ]; then
    case "$record" in /*) ;; *) record="$PWD/$record" ;; esac
fi
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline
echo "== ledger: cargo test"
cargo test -q --release --offline --manifest-path ledger/Cargo.toml

echo "== build"
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml
target="${CARGO_TARGET_DIR:-ledger/target}"
bin="$target/release/urb-ledger"
out="$target/ledger-sets"
rm -rf "$out"
mkdir -p "$out/traced"

workloads=(mesh_small mesh_alg1_storm mesh_topics_100k inproc_saturate tcp_burst inproc_faulty inproc_paced)
status=0
for ((k = 1; k <= sets; k++)); do
    order=("${workloads[@]}")
    if ((k % 2 == 0)); then
        order=()
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
    fi
    for w in "${order[@]}"; do
        echo "== set $k: $w"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/set$k.$w.json" ||
            { echo "   untraced run FAILED (see $out/set$k.$w.json)"; status=1; }
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >"$out/traced/set$k.$w.json" ||
            { echo "   traced run FAILED (see $out/traced/set$k.$w.json)"; status=1; }
        grep '^note: stacked budget' "$out/traced/set$k.$w.json" || true
    done
done

echo "== summary over $sets sets (seed $seed, $seconds s per run, $(nproc) cores)"
"$bin" --summarize "$out" || status=1

if [ -n "$record" ]; then
    {
        printf '{\n  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
        printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
        printf '  "nproc": %s,\n  "seed": %s,\n  "run_seconds": %s,\n  "sets": {' "$(nproc)" "$seed" "$seconds"
        for ((k = 1; k <= sets; k++)); do
            ((k > 1)) && printf ','
            printf '\n    "set%s": {' "$k"
            first=1
            for w in "${workloads[@]}"; do
                ((first)) || printf ','
                first=0
                printf '\n      "%s": {\n        "end_to_end": %s,\n        "per_layer": %s\n      }' "$w" \
                    "$(tail -n 1 "$out/set$k.$w.json")" "$(tail -n 1 "$out/traced/set$k.$w.json")"
            done
            printf '\n    }'
        done
        printf '\n  }\n}\n'
    } >"$record"
    echo "== recorded $record"
fi
exit $status
