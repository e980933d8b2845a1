#!/usr/bin/env bash
# Perfbench pin smoke: the benchmark's self-tests, then a one-second run of
# each conv workload, which must pass its output checks (the pinned
# reference-draw losses 0x3cb733cc for cnn-device and 0x3c0a09f0 for
# remote-tcp, bit-identical repeats, full delivery). perfbench exits 0 even
# when a check fails, so this script reads the verdict off the report's last
# line instead.
#
# Usage: scripts/perfbench-smoke.sh
# Honors RFL_SIMD / RFL_THREADS like every other binary (CI runs it under
# the default settings and under RFL_SIMD=0).
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=perfbench/Cargo.toml

echo "== perfbench self-tests"
cargo test --offline --manifest-path "$MANIFEST"

echo "== building perfbench (release)"
cargo build --release --offline --manifest-path "$MANIFEST"

for workload in cnn-device remote-tcp; do
    echo "== perfbench --workload $workload (1 s, pins checked)"
    report=$(cargo run --release --quiet --offline --manifest-path "$MANIFEST" -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
    last=$(printf '%s\n' "$report" | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]]; then
        printf '%s\n' "$report"
        echo "FAIL: $workload output checks did not pass" >&2
        exit 1
    fi
    printf '%s\n' "$report" | grep -E '^(output check|episode 0 \(reference)' || true
done

echo "== perfbench smoke passed"
