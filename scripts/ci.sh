#!/usr/bin/env bash
# Full local CI: build, tests, formatting, lints.
#
#   scripts/ci.sh
#
# Everything runs offline against the vendored dependency stand-ins
# (see vendor/README.md); no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."
# Digests of the seed-7 outputs (the 20k-site crawl, its bundle store,
# and the analyze report and tables over it), committed so a change that
# alters the output of every path at once still fails CI (every cmp gate
# below compares two paths of the same build). Regenerate them only for
# a deliberate output change, and say so in CHANGES.md.
GOLDEN="$PWD/scripts/golden"
# Every gate's scratch directory lives under one root that a single EXIT
# trap removes, whether the run passes or a gate fails part-way.
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

echo "==> cargo build --release"
cargo build --release

# perfbench (the repository's benchmark) builds against the crates'
# public API; a change to an item it calls fails here, not in the bench.
echo "==> perfbench builds and passes its unit tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> fuzz suites (hostile-input hardening)"
cargo test -q -p html -p jsland -p policy --test proptests

echo "==> hardened test pass (debug assertions + overflow checks)"
RUSTFLAGS="-C debug-assertions -C overflow-checks" \
    cargo test -q -p html -p jsland -p policy -p browser

echo "==> streaming equivalence at full scale (release, 20k sites)"
cargo test -q --release --test streaming_equivalence

echo "==> serde byte-identity gate (20k sites, streaming vs value-tree)"
cargo build --release --example reencode
BIN=target/release/permissions-odyssey
IDENT=$(mktemp -d -p "$SCRATCH")
"$BIN" crawl --size 20000 --seed 7 --out "$IDENT/crawl.jsonl" 2>/dev/null
target/release/examples/reencode \
    --db "$IDENT/crawl.jsonl" --out "$IDENT/streaming.jsonl" --codec streaming
target/release/examples/reencode \
    --db "$IDENT/crawl.jsonl" --out "$IDENT/value-tree.jsonl" --codec value-tree
cmp "$IDENT/crawl.jsonl" "$IDENT/streaming.jsonl"
cmp "$IDENT/streaming.jsonl" "$IDENT/value-tree.jsonl"
(cd "$IDENT" && sha256sum --quiet -c "$GOLDEN/crawl-seed7-20k.sha256")
rm -rf "$IDENT"
echo "    crawl, streaming re-encode, and value-tree re-encode are byte-identical"
echo "    crawl matches the golden digest"

echo "==> sharded round-trip smoke (crawl --shards 4 vs unsharded)"
BIN=target/release/permissions-odyssey
SMOKE=$(mktemp -d -p "$SCRATCH")
"$BIN" crawl --size 2000 --seed 7 --out "$SMOKE/flat.jsonl" 2>/dev/null
mkdir -p "$SMOKE/sharded"
"$BIN" crawl --size 2000 --seed 7 --shards 4 --out "$SMOKE/sharded/crawl.jsonl" 2>/dev/null
"$BIN" analyze --db "$SMOKE/flat.jsonl" >"$SMOKE/flat.out" 2>/dev/null
"$BIN" analyze --db "$SMOKE/sharded" --workers 4 >"$SMOKE/sharded.out" 2>/dev/null
diff -u "$SMOKE/flat.out" "$SMOKE/sharded.out"
rm -rf "$SMOKE"
echo "    sharded analyze output is byte-identical"

echo "==> columnar format gate (20k sites, JSONL vs .colsh)"
BIN=target/release/permissions-odyssey
COL=$(mktemp -d -p "$SCRATCH")
"$BIN" crawl --size 20000 --seed 7 --out "$COL/crawl.jsonl" 2>/dev/null
"$BIN" crawl --size 20000 --seed 7 --format columnar --out "$COL/crawl.colsh" 2>/dev/null
"$BIN" convert --in "$COL/crawl.jsonl" --out "$COL/converted.colsh" 2>/dev/null
cmp "$COL/crawl.colsh" "$COL/converted.colsh"
"$BIN" convert --in "$COL/crawl.colsh" --out "$COL/back.jsonl" 2>/dev/null
cmp "$COL/crawl.jsonl" "$COL/back.jsonl"
echo "    direct columnar crawl, convert round-trip, and JSONL are byte-identical"
# Dictionary epochs (bounded writer dictionaries) must be invisible to
# readers: an epoched encoding converts back to the exact JSONL bytes
# and analyzes identically.
"$BIN" convert --in "$COL/crawl.jsonl" --out "$COL/epoch.colsh" --dict-epoch 4 2>/dev/null
"$BIN" convert --in "$COL/epoch.colsh" --out "$COL/epoch-back.jsonl" 2>/dev/null
cmp "$COL/crawl.jsonl" "$COL/epoch-back.jsonl"
"$BIN" analyze --db "$COL/crawl.jsonl" >"$COL/epoch-ref.out" 2>/dev/null
"$BIN" analyze --db "$COL/epoch.colsh" >"$COL/epoch.out" 2>/dev/null
diff -u "$COL/epoch-ref.out" "$COL/epoch.out"
echo "    dictionary-epoch encoding round-trips and analyzes byte-identically"
for table in funnel census completeness t3 t4 t5 t6 summary t7 t8 directives \
             f2 t9 misconfig t10 groups exposure; do
    for workers in 1 4; do
        "$BIN" analyze --db "$COL/crawl.jsonl" --table "$table" --workers "$workers" \
            >"$COL/jsonl.out" 2>/dev/null
        "$BIN" analyze --db "$COL/crawl.colsh" --table "$table" --workers "$workers" \
            >"$COL/colsh.out" 2>/dev/null
        diff -u "$COL/jsonl.out" "$COL/colsh.out"
        if [ "$workers" = 1 ]; then
            cp "$COL/jsonl.out" "$COL/analyze-$table.out"
        fi
    done
done
echo "    every table renders byte-identically from columnar at 1 and 4 workers"
# The selective read: `--table funnel` folds outcome columns only, so a
# `.colsh` read seeks past the frame columns that a JSONL read must parse.
# Both timings come from this run, so their ratio survives host drift:
# best of three whole-process runs each, 15-20x measured
# (EXPERIMENTS.md), and JSONL must be at least 4x slower.
best_funnel_ns() {
    local best="" t0 t1
    for _ in 1 2 3; do
        t0=$(date +%s%N)
        "$BIN" analyze --db "$1" --table funnel --workers 1 >/dev/null 2>&1
        t1=$(date +%s%N)
        if [ -z "$best" ] || [ $((t1 - t0)) -lt "$best" ]; then best=$((t1 - t0)); fi
    done
    echo "$best"
}
jsonl_ns=$(best_funnel_ns "$COL/crawl.jsonl")
colsh_ns=$(best_funnel_ns "$COL/crawl.colsh")
funnel_ms="JSONL $((jsonl_ns / 1000000)) ms, .colsh $((colsh_ns / 1000000)) ms"
if [ "$jsonl_ns" -lt $((4 * colsh_ns)) ]; then
    echo "selective funnel read ($funnel_ms) fell below the 4x floor" >&2
    exit 1
fi
echo "    selective funnel read: $funnel_ms (floor 4x)"
# Every gate above compares two paths of one build; the committed digests
# also catch a fold change that moves all of them at once. The 5k-site
# adversarial crawl's hostile headers and `allow` values drive the
# parse-error paths.
"$BIN" analyze --db "$COL/crawl.jsonl" --workers 1 >"$COL/analyze-all.out" 2>/dev/null
"$BIN" crawl --size 5000 --seed 7 --adversarial --out "$COL/adversarial.jsonl" 2>/dev/null
"$BIN" analyze --db "$COL/adversarial.jsonl" --workers 1 \
    >"$COL/analyze-adversarial.out" 2>/dev/null
(cd "$COL" && sha256sum --quiet -c "$GOLDEN/analyze-seed7-20k.sha256")
echo "    analyze output matches the golden digests"
mkdir -p "$COL/sharded"
"$BIN" crawl --size 20000 --seed 7 --shards 4 --format columnar \
    --out "$COL/sharded/crawl.colsh" 2>/dev/null
"$BIN" analyze --db "$COL/crawl.jsonl" >"$COL/flat.out" 2>/dev/null
"$BIN" analyze --db "$COL/sharded" --workers 4 >"$COL/shard.out" 2>/dev/null
diff -u "$COL/flat.out" "$COL/shard.out"
rm -rf "$COL"
echo "    sharded columnar analyze output is byte-identical"

echo "==> record/replay bundle gate (20k sites, generator never invoked)"
BIN=target/release/permissions-odyssey
REC=$(mktemp -d -p "$SCRATCH")
"$BIN" crawl --size 20000 --seed 7 --record "$REC/bundle" --out "$REC/live.jsonl" \
    2>"$REC/record.log"
"$BIN" crawl --replay "$REC/bundle" --out "$REC/replayed.jsonl" 2>"$REC/replay.log"
cmp "$REC/live.jsonl" "$REC/replayed.jsonl"
# Replay reads its store instead of loading it, so the default 8-worker
# replay peaks at most 8 MiB above the recording crawl that built the
# store (about 22 and 26 MiB measured; EXPERIMENTS.md).
peak_mb() { sed -n 's/^peak rss: \([0-9]*\) MiB$/\1/p' "$1"; }
record_mb=$(peak_mb "$REC/record.log")
replay_mb=$(peak_mb "$REC/replay.log")
if [ -z "$record_mb" ] || [ -z "$replay_mb" ] || [ "$replay_mb" -gt $((record_mb + 8)) ]; then
    echo "crawl --replay peaked at ${replay_mb:-?} MiB, more than 8 MiB above" \
        "the recording's ${record_mb:-?} MiB" >&2
    exit 1
fi
echo "    replay peak rss ${replay_mb} MiB, recording ${record_mb} MiB (allowance +8 MiB)"
# `crawl` runs one worker pool: one replay worker writes the same bytes.
"$BIN" crawl --replay "$REC/bundle" --workers 1 --out "$REC/replayed-1.jsonl" 2>/dev/null
cmp "$REC/live.jsonl" "$REC/replayed-1.jsonl"
"$BIN" crawl --size 20000 --seed 7 --format columnar --out "$REC/live.colsh" 2>/dev/null
"$BIN" crawl --replay "$REC/bundle" --format columnar --out "$REC/replayed.colsh" 2>/dev/null
cmp "$REC/live.colsh" "$REC/replayed.colsh"
echo "    recorded 20k crawl replays byte-identically in JSONL (1 and 8 workers) and .colsh"
(cd "$REC" && sha256sum --quiet -c "$GOLDEN/bundle-seed7-20k.sha256")
echo "    bundle store matches the golden digests"
# The content-addressed store must actually dedup: ratio >= 1.5 (2.11
# measured, see EXPERIMENTS.md) and a store strictly smaller than the
# JSONL dataset it reproduces.
"$BIN" bundle stat "$REC/bundle" >"$REC/stat.txt"
ratio=$(awk '/dedup ratio:/ {print $3}' "$REC/stat.txt")
awk -v r="$ratio" 'BEGIN { exit !(r >= 1.5) }' || {
    echo "bundle dedup ratio $ratio fell below the 1.5 floor" >&2
    exit 1
}
store_bytes=$(awk '/store size:/ {print $3}' "$REC/stat.txt")
jsonl_bytes=$(wc -c <"$REC/live.jsonl")
if [ "$store_bytes" -ge "$jsonl_bytes" ]; then
    echo "bundle store ($store_bytes B) is not smaller than the JSONL dataset ($jsonl_bytes B)" >&2
    exit 1
fi
rm -rf "$REC"
echo "    bundle store dedup ratio $ratio (>= 1.5), store smaller than JSONL"

echo "==> job engine: deterministic kill-and-resume chaos harness (release)"
cargo test -q --release -p crawler --test job_engine

echo "==> job engine: CLI crash gate (chaos kill mid-write, resume, cmp)"
BIN=target/release/permissions-odyssey
JOB=$(mktemp -d -p "$SCRATCH")
for format in jsonl columnar; do
    ext=jsonl; [ "$format" = columnar ] && ext=colsh
    "$BIN" crawl-job start --dir "$JOB/ref-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" --fault-transients 40 2>/dev/null
    # Output does not depend on the worker count: one worker writes the
    # same shards as the default eight.
    "$BIN" crawl-job start --dir "$JOB/one-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" --fault-transients 40 --workers 1 2>/dev/null
    for i in 0 1 2; do
        cmp "$JOB/ref-$ext/crawl-00$i.$ext" "$JOB/one-$ext/crawl-00$i.$ext"
    done
    rm -rf "$JOB/one-$ext"
    # The chaos hook aborts the engine mid-write without flushing — the
    # start MUST fail — and the tails are shredded further by truncation
    # (every SIGKILL state is some byte prefix of the uninterrupted file).
    if "$BIN" crawl-job start --dir "$JOB/chaos-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" --fault-transients 40 --chaos-abort 7300 2>/dev/null; then
        echo "chaos-abort run unexpectedly succeeded" >&2
        exit 1
    fi
    truncate -s 41231 "$JOB/chaos-$ext/crawl-000.$ext"
    truncate -s 5 "$JOB/chaos-$ext/crawl-001.$ext"
    "$BIN" crawl-job resume --dir "$JOB/chaos-$ext" 2>/dev/null
    for i in 0 1 2; do
        cmp "$JOB/ref-$ext/crawl-00$i.$ext" "$JOB/chaos-$ext/crawl-00$i.$ext"
    done
    "$BIN" crawl-job status --dir "$JOB/chaos-$ext" | grep -q "state:     complete"
    # The completed resume wrote a completion record: resuming again
    # checks it and leaves every byte alone. Then a shard shortened
    # after completion no longer matches the record, so the resume falls
    # back to the decoding scan, which repairs it.
    for damage in none shorten; do
        test -f "$JOB/chaos-$ext/complete.json"
        if [ "$damage" = shorten ]; then
            truncate -s -100 "$JOB/chaos-$ext/crawl-002.$ext"
        fi
        "$BIN" crawl-job resume --dir "$JOB/chaos-$ext" 2>/dev/null
        for i in 0 1 2; do
            cmp "$JOB/ref-$ext/crawl-00$i.$ext" "$JOB/chaos-$ext/crawl-00$i.$ext"
        done
        "$BIN" crawl-job status --dir "$JOB/chaos-$ext" | grep -q "state:     complete"
    done
done
echo "    killed-and-resumed 20k jobs are byte-identical in both formats"
echo "    a 1-worker job is byte-identical to the 8-worker reference"
echo "    resuming a complete job is a no-op; a shortened shard is repaired"

echo "==> job engine: CLI crash gate for a recording job (kill, shred, resume, replay)"
# The killed recording job is shredded further: each pack and one shard
# cut to a fixed prefix, well below what the abort at 7,300 records
# leaves (about 3.3 MB per pack, 10 MB per shard) and inside a frame.
# The resume pass cuts each pack at its first record that breaks a store
# rule, so the resumed job must equal the uninterrupted one byte for byte,
# pass a strict `bundle stat`, and replay to the same shards.
"$BIN" crawl-job start --dir "$JOB/rec-ref" --record --size 20000 --seed 7 --shards 3 \
    --fault-transients 40 2>/dev/null
# The store does not depend on the worker count either: one worker
# records the same store files and shards as the default eight.
"$BIN" crawl-job start --dir "$JOB/rec-one" --record --size 20000 --seed 7 --shards 3 \
    --fault-transients 40 --workers 1 2>/dev/null
for f in bundle/bundle.json bundle/blobs.bin bundle/manifests.bin \
    crawl-000.jsonl crawl-001.jsonl crawl-002.jsonl; do
    cmp "$JOB/rec-ref/$f" "$JOB/rec-one/$f"
done
rm -rf "$JOB/rec-one"
if "$BIN" crawl-job start --dir "$JOB/rec-chaos" --record --size 20000 --seed 7 --shards 3 \
    --fault-transients 40 --chaos-abort 7300 2>/dev/null; then
    echo "chaos-abort recording run unexpectedly succeeded" >&2
    exit 1
fi
truncate -s 2000003 "$JOB/rec-chaos/bundle/blobs.bin"
truncate -s 2500001 "$JOB/rec-chaos/bundle/manifests.bin"
truncate -s 4000007 "$JOB/rec-chaos/crawl-001.jsonl"
"$BIN" crawl-job resume --dir "$JOB/rec-chaos" 2>/dev/null
for f in bundle/bundle.json bundle/blobs.bin bundle/manifests.bin \
    crawl-000.jsonl crawl-001.jsonl crawl-002.jsonl; do
    cmp "$JOB/rec-ref/$f" "$JOB/rec-chaos/$f"
done
"$BIN" bundle stat "$JOB/rec-chaos/bundle" >/dev/null
mkdir -p "$JOB/rec-replay"
"$BIN" crawl --replay "$JOB/rec-chaos/bundle" --shards 3 \
    --out "$JOB/rec-replay/crawl.jsonl" 2>/dev/null
for i in 0 1 2; do
    cmp "$JOB/rec-ref/crawl-00$i.jsonl" "$JOB/rec-replay/crawl-00$i.jsonl"
done
rm -rf "$JOB/rec-ref" "$JOB/rec-chaos" "$JOB/rec-replay"
echo "    a 1-worker recording job writes the 8-worker reference's store and shards"
echo "    a killed, shredded recording job resumes to the reference shards and store"
echo "    the resumed store passes a strict bundle stat and replays to the same shards"

echo "==> live analysis gate (analyze-while-crawling, both formats)"
LIVE=$(mktemp -d -p "$SCRATCH")
for format in jsonl columnar; do
    ext=jsonl; [ "$format" = columnar ] && ext=colsh
    "$BIN" crawl-job start --dir "$LIVE/job-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" 2>/dev/null &
    crawl_pid=$!
    # The follower starts before the manifest may even exist, folds the
    # growing shards at each frontier, and exits when the job completes.
    "$BIN" crawl-job analyze --dir "$LIVE/job-$ext" --follow --interval-ms 100 \
        >/dev/null 2>"$LIVE/follow-$ext.log"
    wait "$crawl_pid"
    "$BIN" analyze --db "$LIVE/job-$ext" >"$LIVE/batch-$ext.out" 2>/dev/null
    diff -u "$LIVE/job-$ext/tables/latest.txt" "$LIVE/batch-$ext.out"
done
rm -rf "$LIVE"
echo "    final live snapshot is byte-identical to batch analyze in both formats"

echo "==> job engine: bounded-memory soak smoke (100k origins, RSS ceiling)"
"$BIN" crawl-job start --dir "$JOB/soak" --size 100000 --shards 4 \
    --status-every 20000 --max-rss-mb 192 2>/dev/null
grep -q '"state":"complete"' "$JOB/soak/status.json"
echo "    100k-origin job stayed under the 192 MiB peak-RSS ceiling"
# The same soak through the .colsh writer, whose row groups and
# dictionary epochs hold more per shard than JSONL's line buffer (about
# 49 MiB measured; EXPERIMENTS.md).
"$BIN" crawl-job start --dir "$JOB/soak-colsh" --size 100000 --shards 8 \
    --format columnar --status-every 20000 --max-rss-mb 64 2>/dev/null
grep -q '"state":"complete"' "$JOB/soak-colsh/status.json"
echo "    100k-origin 8-shard .colsh job stayed under the 64 MiB peak-RSS ceiling"
# Killed at 60,000 records, the same job resumes under a ceiling of its
# own (the resume rebuilds each shard's dictionary from its file; about
# 48 MiB measured) to the uninterrupted soak's shards.
if "$BIN" crawl-job start --dir "$JOB/soak-chaos" --size 100000 --shards 8 \
    --format columnar --status-every 20000 --chaos-abort 60000 2>/dev/null; then
    echo "chaos-abort soak unexpectedly succeeded" >&2
    exit 1
fi
"$BIN" crawl-job resume --dir "$JOB/soak-chaos" --status-every 20000 \
    --max-rss-mb 64 2>/dev/null
for i in 0 1 2 3 4 5 6 7; do
    cmp "$JOB/soak-colsh/crawl-00$i.colsh" "$JOB/soak-chaos/crawl-00$i.colsh"
done
rm -rf "$JOB"
echo "    the killed soak resumed under 64 MiB to the uninterrupted shards"

echo "==> difftest: spec-oracle differential gate (>=10k seeded scenarios)"
cargo test -q --release -p difftest
cargo test -q --release -p difftest --test differential -- --ignored

echo "==> difftest: engine differentials vs the tree-walking referee"
echo "    (>=10k lockstep scripts; seed-7 20k browser visits, with and without interaction)"
cargo test -q --release -p difftest --lib -- --ignored
echo "    zero engine divergences"

echo "==> difftest: record/replay determinism gate (>=10k scenarios from bundles)"
cargo test -q --release -p difftest --test replay -- --ignored
echo "    zero replay divergences"

echo "==> difftest: coverage-guided fuzz smoke (fixed iteration budget)"
cargo test -q --release -p difftest --test fuzz -- --ignored
echo "    zero divergences, zero fuzz findings, deterministic replay"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> ci OK"
