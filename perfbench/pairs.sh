#!/usr/bin/env bash
# Compares crawl-live throughput of two commits in alternating pairs.
#
#   perfbench/pairs.sh OLD NEW [PAIRS] [SECONDS]
#
# Run from the root of a git checkout. Each commit's tree is exported
# with `git archive` into .bench_work/pairs/, this benchmark is copied
# into it, and the `crawl-pair` binary is built there (the benchmark's
# crawl-live rounds only need `job_start`, `JobManifest::new` and
# `JobOptions`). Pairs alternate which commit runs first. Prints one
# line per run: commit, records/s, CPU ms per 1,000 records.
set -euo pipefail
old=$1 new=$2 pairs=${3:-10} seconds=${4:-15}
root=$(pwd)
work=$root/.bench_work/pairs
rm -rf "$work"
mkdir -p "$work"
for commit in "$old" "$new"; do
    tree=$work/$commit
    mkdir -p "$tree"
    git archive "$commit" | tar -x -C "$tree"
    rm -rf "$tree/perfbench"
    cp -r "$root/perfbench" "$tree/perfbench"
    CARGO_TARGET_DIR=$tree/.bench_build cargo build --offline --release \
        --manifest-path "$tree/perfbench/Cargo.toml" --bin crawl_pair >&2
done
run() {
    (cd "$work/$1" && echo "$1 $(./.bench_build/release/crawl_pair --seed "$2" --seconds "$seconds")")
}
for pair in $(seq 1 "$pairs"); do
    if (( pair % 2 )); then first=$old second=$new; else first=$new second=$old; fi
    run "$first" "$pair"
    run "$second" "$pair"
done
rm -rf "$work"
