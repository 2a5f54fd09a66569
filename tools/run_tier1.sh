#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the fast test tier, then smoke the
# end-to-end tracing pipeline (ada-gen -> ada-ingest --trace -> ada-query
# --trace -> ada-trace).  Exits non-zero on the first failure.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j

echo "== frozen benchmark build: perfbench/adabench compiles (no run) =="
# adabench calls the public read API directly; a read-API change that breaks
# it fails here instead of in the benchmark run.
cmake -S perfbench -B "$BUILD_DIR/perfbench" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$(nproc)" --target adabench

echo "== unit tier (ctest -L unit) =="
ctest --test-dir "$BUILD_DIR" -L unit --output-on-failure -j "$(nproc)"

echo "== tracing tier (ctest -L check-trace) =="
ctest --test-dir "$BUILD_DIR" -L check-trace --output-on-failure -j "$(nproc)"

echo "== pool users (ThreadPool, ParallelIngest[Alloc], Categorizer, PieceRead suites) =="
ctest --test-dir "$BUILD_DIR" -R 'ThreadPool|ParallelIngest|Categorizer|PieceRead' --output-on-failure -j "$(nproc)"

echo "== perf tier smoke (ctest -L check-perf) =="
ctest --test-dir "$BUILD_DIR" -L check-perf --output-on-failure

echo "== extent-integrity tier (ctest -L check-crc) =="
ctest --test-dir "$BUILD_DIR" -L check-crc --output-on-failure -j "$(nproc)"

echo "== decode tier (ctest -L check-codec) =="
ctest --test-dir "$BUILD_DIR" -L check-codec --output-on-failure -j "$(nproc)"

echo "== chaos tier (ctest -L chaos, fast seed budget) =="
ADA_CHAOS_SEEDS=5 ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure -j "$(nproc)"

echo "== query-cache tier (ctest -L check-cache) =="
ADA_CHAOS_SEEDS=5 ctest --test-dir "$BUILD_DIR" -L check-cache --output-on-failure -j "$(nproc)"

echo "== codec/frame-range tier (ctest -L check-range) =="
ctest --test-dir "$BUILD_DIR" -L check-range --output-on-failure -j "$(nproc)"

echo "== telemetry tier (ctest -L check-telemetry) =="
ctest --test-dir "$BUILD_DIR" -L check-telemetry --output-on-failure -j "$(nproc)"

echo "== scatter-gather tier (ctest -L check-sg) =="
ctest --test-dir "$BUILD_DIR" -L check-sg --output-on-failure -j "$(nproc)"

echo "== streaming tier (ctest -L check-stream) =="
ctest --test-dir "$BUILD_DIR" -L check-stream --output-on-failure -j "$(nproc)"

echo "== serve tier (ctest -L check-serve) =="
ctest --test-dir "$BUILD_DIR" -L check-serve --output-on-failure -j "$(nproc)"

echo "== tracing smoke: gen -> ingest -> query -> ada-trace =="
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$BUILD_DIR/tools/ada-gen" --out "$WORK/gen" --size tiny --frames 4 >/dev/null
"$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen/system.pdb" --xtc "$WORK/gen/traj.xtc" \
    --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc --threads 2 \
    --trace "$WORK/ingest_trace.json" >/dev/null
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --trace "$WORK/query_trace.json" --out "$WORK/protein.raw" >/dev/null

for trace in "$WORK/ingest_trace.json" "$WORK/query_trace.json"; do
    [ -s "$trace" ] || { echo "FAIL: $trace missing or empty" >&2; exit 1; }
    grep -q '"traceEvents"' "$trace" || { echo "FAIL: $trace is not Chrome trace JSON" >&2; exit 1; }
done

REPORT="$("$BUILD_DIR/tools/ada-trace" "$WORK/ingest_trace.json" "$WORK/query_trace.json")"
echo "$REPORT" | grep -q 'critical path' || {
    echo "FAIL: ada-trace reported no critical path" >&2
    echo "$REPORT" >&2
    exit 1
}

echo "== ingest thread smoke: v1 and v2 containers byte-identical at --threads 1, default, 4 =="
# A v1 image decodes straight into the per-tag records, a v2 image through a
# scratch frame; either way every dropping and the index must come out the
# same at every thread count.
for codec in v1 v2; do
    "$BUILD_DIR/tools/ada-gen" --out "$WORK/gen_$codec" --size tiny --frames 24 \
        --codec "$codec" >/dev/null
    for threads in 1 default 4; do
        threads_flag=()
        [ "$threads" = default ] || threads_flag=(--threads "$threads")
        "$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen_$codec/system.pdb" \
            --xtc "$WORK/gen_$codec/traj.xtc" --ssd "$WORK/threads_${codec}_$threads/ssd" \
            --hdd "$WORK/threads_${codec}_$threads/hdd" --name traj.xtc \
            "${threads_flag[@]}" >/dev/null
    done
    SERIAL_FILES="$(cd "$WORK/threads_${codec}_1" && find . -type f | sort)"
    [ -n "$SERIAL_FILES" ] || { echo "FAIL: the $codec ingest stored no files" >&2; exit 1; }
    for threads in default 4; do
        [ "$(cd "$WORK/threads_${codec}_$threads" && find . -type f | sort)" = "$SERIAL_FILES" ] || {
            echo "FAIL: $codec ingest at --threads $threads stored other files than --threads 1" >&2
            exit 1
        }
        for file in $SERIAL_FILES; do
            cmp "$WORK/threads_${codec}_1/$file" "$WORK/threads_${codec}_$threads/$file" || {
                echo "FAIL: $codec ingest at --threads $threads differs in $file" >&2
                exit 1
            }
        done
    done
done

echo "== cache differential smoke: --cache serves byte-identical subsets =="
# Same query with the subset cache armed (64 MiB): the output file must be
# byte-identical to the uncached read above.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --cache 67108864 --out "$WORK/protein_cached.raw" >/dev/null
cmp "$WORK/protein.raw" "$WORK/protein_cached.raw" || {
    echo "FAIL: cached query served different bytes than the uncached query" >&2
    exit 1
}

echo "== frame-range smoke: --frames/--stride slice the tagged subset =="
# A whole-range query is the same canonical image the plain query wrote
# (batch ingest stores one extent per tag, so both are single-segment RAW).
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --frames 0: --out "$WORK/range_all.raw" >/dev/null
cmp "$WORK/protein.raw" "$WORK/range_all.raw" || {
    echo "FAIL: --frames 0: differs from the plain query" >&2
    exit 1
}
# A strided sub-range reports the right frame count (frames 1 and 3 of 4).
RANGE_OUT="$("$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --frames 1:4 --stride 2)"
echo "$RANGE_OUT" | grep -q '2 frames' || {
    echo "FAIL: --frames 1:4 --stride 2 should serve 2 frames" >&2
    echo "$RANGE_OUT" >&2
    exit 1
}
# A selection past the end is a header-only image: exactly 16 bytes, whose
# magic and atom count (the first 12) are the plain query's.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --frames 500: --out "$WORK/range_empty.raw" >/dev/null
if [ "$(wc -c < "$WORK/range_empty.raw")" -ne 16 ] ||
    ! cmp -s -n 12 "$WORK/protein.raw" "$WORK/range_empty.raw"; then
    echo "FAIL: --frames 500: should serve a 16-byte header with the subset's atom count" >&2
    exit 1
fi

echo "== batch follow smoke: --follow over a batch container =="
# A batch container is sealed from the start: the follower drains it in one
# chunk, then stops, and must write exactly the plain query's bytes.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --follow --poll-ms 10 --timeout-s 60 --out "$WORK/batch_followed.raw" >/dev/null
cmp "$WORK/protein.raw" "$WORK/batch_followed.raw" || {
    echo "FAIL: --follow over a batch container differs from the plain query" >&2
    exit 1
}

echo "== telemetry smoke: --telemetry/--profile -> ada-stats render + openmetrics =="
# Re-run the ingest with the telemetry sampler and profiler armed; the JSONL
# series must render and the folded-stack profile must exist.
"$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen/system.pdb" --xtc "$WORK/gen/traj.xtc" \
    --ssd "$WORK/ssd2" --hdd "$WORK/hdd2" --name traj.xtc --threads 2 \
    --telemetry "$WORK/ingest_ts.jsonl,50" --profile "$WORK/ingest.folded,200" >/dev/null
[ -s "$WORK/ingest_ts.jsonl" ] || { echo "FAIL: telemetry JSONL missing or empty" >&2; exit 1; }
[ -s "$WORK/ingest.folded" ] || { echo "FAIL: folded profile missing or empty" >&2; exit 1; }
"$BUILD_DIR/tools/ada-stats" render "$WORK/ingest_ts.jsonl" | grep -q 'clock' || {
    echo "FAIL: ada-stats render produced no per-clock summary" >&2
    exit 1
}
# OpenMetrics exposition is well-formed enough to end with the EOF marker.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd2" --hdd "$WORK/hdd2" --name traj.xtc \
    --tag p --metrics openmetrics | grep -q '^# EOF' || {
    echo "FAIL: --metrics openmetrics did not emit the # EOF terminator" >&2
    exit 1
}
# The perf gate's own negative control: identical files pass, a doctored
# regression fails (exit 1).
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_codec.json \
    bench/baselines/BENCH_codec.json --budget=0.05 --higher=v2.ratio >/dev/null || {
    echo "FAIL: ada-stats diff rejected identical files" >&2
    exit 1
}
set +e
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_codec.json \
    bench/baselines/BENCH_codec_regressed.json --budget=0.05 --higher=v2.ratio >/dev/null
GATE_EXIT=$?
set -e
[ "$GATE_EXIT" -eq 1 ] || {
    echo "FAIL: ada-stats diff should exit 1 on the regressed fixture, got $GATE_EXIT" >&2
    exit 1
}

echo "== robustness smoke: --faults arming + --degraded partial results =="
# Healthy degraded query serves every tag (exit 0).
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --degraded >/dev/null
# A transient fault is absorbed by the retry path (still exit 0).
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --degraded --faults "plfs.read_dropping=nth:1" >/dev/null
# A down backend degrades to an explicit partial result (exit 2), never junk.
set +e
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --degraded --faults "plfs.read_dropping=down:1:1000" >/dev/null
DEGRADED_EXIT=$?
set -e
[ "$DEGRADED_EXIT" -eq 2 ] || {
    echo "FAIL: degraded query under a down backend should exit 2, got $DEGRADED_EXIT" >&2
    exit 1
}

echo "== scatter-gather smoke: --read-threads byte-identical over pieces + degraded exit 2 =="
# Parallel retrieval must serve the same bytes the serial query wrote above.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --tag p --read-threads 4 --queue-depth 2 --out "$WORK/protein_sg.raw" >/dev/null
cmp "$WORK/protein.raw" "$WORK/protein_sg.raw" || {
    echo "FAIL: --read-threads 4 served different bytes than the serial query" >&2
    exit 1
}
# A subset of several pieces (96 tiny frames: about 1 MB of protein, three
# 512 KiB pieces): the serial run, the pool default and four piece readers
# must write the same bytes.
"$BUILD_DIR/tools/ada-gen" --out "$WORK/gen_pieces" --size tiny --frames 96 >/dev/null
"$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen_pieces/system.pdb" --xtc "$WORK/gen_pieces/traj.xtc" \
    --ssd "$WORK/ssd5" --hdd "$WORK/hdd5" --name traj.xtc >/dev/null
for read_threads in 1 default 4; do
    threads_flag=()
    [ "$read_threads" = default ] || threads_flag=(--read-threads "$read_threads")
    "$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd5" --hdd "$WORK/hdd5" --name traj.xtc \
        --tag p "${threads_flag[@]}" --out "$WORK/pieces_$read_threads.raw" >/dev/null
done
[ "$(wc -c < "$WORK/pieces_1.raw")" -gt 1048576 ] || {
    echo "FAIL: the piece smoke's subset does not span several 512 KiB pieces" >&2
    exit 1
}
for read_threads in default 4; do
    cmp "$WORK/pieces_1.raw" "$WORK/pieces_$read_threads.raw" || {
        echo "FAIL: --read-threads $read_threads served different bytes than --read-threads 1" >&2
        exit 1
    }
done
# A down backend under parallel reads still degrades to an explicit partial
# result (exit 2) -- the scatter-gather merge surfaces the failure, never junk.
set +e
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --name traj.xtc \
    --degraded --read-threads 4 --faults "plfs.read_dropping=down:1:1000" >/dev/null
SG_DEGRADED_EXIT=$?
set -e
[ "$SG_DEGRADED_EXIT" -eq 2 ] || {
    echo "FAIL: parallel degraded query under a down backend should exit 2, got $SG_DEGRADED_EXIT" >&2
    exit 1
}

echo "== streaming smoke: --stream ingest + mid-stream query + --follow differential =="
# A paced streaming ingest in the background; concurrent queries must see a
# growing sealed prefix and a follower must reassemble the exact dataset.
"$BUILD_DIR/tools/ada-gen" --out "$WORK/gen_stream" --size tiny --frames 12 >/dev/null
"$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen_stream/system.pdb" --xtc "$WORK/gen_stream/traj.xtc" \
    --ssd "$WORK/ssd3" --hdd "$WORK/hdd3" --name live.xtc \
    --stream --chunk-frames 2 --frame-delay-ms 60 >"$WORK/stream_ingest.log" &
INGEST_PID=$!
# The follower polls until the stream seals; byte-compared against the
# one-shot query below.
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd3" --hdd "$WORK/hdd3" --name live.xtc \
    --tag p --follow --poll-ms 10 --timeout-s 60 --out "$WORK/followed.raw" >/dev/null &
FOLLOW_PID=$!
# Mid-ingest one-shot queries: kNotFound only before the first flush, then
# exit 0 with however much of the prefix is sealed.
MID_OK=0
for _ in $(seq 1 100); do
    if "$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd3" --hdd "$WORK/hdd3" --name live.xtc \
        --tag p >/dev/null 2>&1; then
        MID_OK=1
        break
    fi
    sleep 0.05
done
[ "$MID_OK" -eq 1 ] || {
    echo "FAIL: no mid-stream query ever served the sealed prefix" >&2
    exit 1
}
wait "$INGEST_PID" || { echo "FAIL: streaming ingest failed" >&2; cat "$WORK/stream_ingest.log" >&2; exit 1; }
grep -q 'streamed live.xtc: 12 frames' "$WORK/stream_ingest.log" || {
    echo "FAIL: streaming ingest report missing or wrong" >&2
    cat "$WORK/stream_ingest.log" >&2
    exit 1
}
wait "$FOLLOW_PID" || { echo "FAIL: ada-query --follow did not terminate cleanly" >&2; exit 1; }
"$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd3" --hdd "$WORK/hdd3" --name live.xtc \
    --tag p --frames 0: --out "$WORK/stream_oneshot.raw" >/dev/null
cmp "$WORK/followed.raw" "$WORK/stream_oneshot.raw" || {
    echo "FAIL: --follow reassembly differs from the one-shot query" >&2
    exit 1
}
# The streaming perf gate's own negative control: identical files pass, a
# fixture whose p99 blew the flush-interval bound fails (exit 1).
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_stream.json \
    bench/baselines/BENCH_stream.json --budget=0.05 \
    --higher=stream.p99_bounded,stream.correct >/dev/null || {
    echo "FAIL: ada-stats diff rejected identical stream baselines" >&2
    exit 1
}
set +e
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_stream.json \
    bench/baselines/BENCH_stream_regressed.json --budget=0.05 \
    --higher=stream.p99_bounded,stream.correct >/dev/null
STREAM_GATE_EXIT=$?
set -e
[ "$STREAM_GATE_EXIT" -eq 1 ] || {
    echo "FAIL: stream gate should exit 1 on the regressed fixture, got $STREAM_GATE_EXIT" >&2
    exit 1
}

echo "== retention smoke: --retain-bytes stream, then ada-inspect --fsck exits 0 =="
# Retention deletes the oldest chunks' records; fsck must judge the stream
# by its live extents and call it clean.
"$BUILD_DIR/tools/ada-ingest" --pdb "$WORK/gen_stream/system.pdb" \
    --xtc "$WORK/gen_stream/traj.xtc" --ssd "$WORK/ssd4" --hdd "$WORK/hdd4" --name live.xtc \
    --stream --chunk-frames 2 --retain-bytes 1 >/dev/null
"$BUILD_DIR/tools/ada-inspect" --ssd "$WORK/ssd4" --hdd "$WORK/hdd4" --name live.xtc \
    --fsck >"$WORK/retained_fsck.log" || {
    echo "FAIL: ada-inspect --fsck of a healthy retained stream exited non-zero" >&2
    cat "$WORK/retained_fsck.log" >&2
    exit 1
}

echo "== follow flag validation: non-positive --poll-ms/--timeout-s rejected =="
# Each of these is always user error (busy-spin / timeout-before-first-poll):
# the tool must refuse loudly with usage exit 2 instead of running anyway.
for bad_flags in "--poll-ms 0" "--poll-ms -5" "--timeout-s 0" "--timeout-s -1"; do
    set +e
    # shellcheck disable=SC2086
    "$BUILD_DIR/tools/ada-query" --ssd "$WORK/ssd3" --hdd "$WORK/hdd3" --name live.xtc \
        --tag p --follow $bad_flags >/dev/null 2>&1
    FOLLOW_FLAG_EXIT=$?
    set -e
    [ "$FOLLOW_FLAG_EXIT" -eq 2 ] || {
        echo "FAIL: --follow $bad_flags should be rejected with exit 2, got $FOLLOW_FLAG_EXIT" >&2
        exit 1
    }
done

echo "== serve smoke: ada-serve + concurrent spool clients byte-identical =="
# Start the service over the batch dataset, fan three tenants' clients at it
# concurrently, and byte-compare every served subset against the direct
# query from the tracing smoke above.
mkdir "$WORK/spool"
"$BUILD_DIR/tools/ada-serve" --ssd "$WORK/ssd" --hdd "$WORK/hdd" --spool "$WORK/spool" \
    --stop-file "$WORK/spool/stop" --workers 4 --poll-ms 5 >"$WORK/serve.log" &
SERVE_PID=$!
SERVE_CLIENT_PIDS=()
for i in 1 2 3; do
    "$BUILD_DIR/tools/ada-query" --serve-spool "$WORK/spool" --name traj.xtc --tag p \
        --tenant "viz$i" --timeout-s 60 --out "$WORK/served_$i.raw" >/dev/null &
    SERVE_CLIENT_PIDS+=($!)
done
for pid in "${SERVE_CLIENT_PIDS[@]}"; do
    wait "$pid" || { echo "FAIL: serve-spool client $pid failed" >&2; cat "$WORK/serve.log" >&2; exit 1; }
done
for i in 1 2 3; do
    cmp "$WORK/protein.raw" "$WORK/served_$i.raw" || {
        echo "FAIL: served subset $i differs from the direct query" >&2
        exit 1
    }
done
touch "$WORK/spool/stop"
wait "$SERVE_PID" || { echo "FAIL: ada-serve did not shut down cleanly" >&2; cat "$WORK/serve.log" >&2; exit 1; }
grep -q 'served 3 requests' "$WORK/serve.log" || {
    echo "FAIL: ada-serve report missing or wrong" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}
# The serve perf gate's own negative control: identical files pass, a
# fixture with the coalescing/correctness verdicts zeroed fails (exit 1).
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_serve.json \
    bench/baselines/BENCH_serve.json --budget=0.05 \
    --higher=serve.correct,serve.coalesce_single_fill >/dev/null || {
    echo "FAIL: ada-stats diff rejected identical serve baselines" >&2
    exit 1
}
set +e
"$BUILD_DIR/tools/ada-stats" diff bench/baselines/BENCH_serve.json \
    bench/baselines/BENCH_serve_regressed.json --budget=0.05 \
    --higher=serve.correct,serve.coalesce_single_fill >/dev/null
SERVE_GATE_EXIT=$?
set -e
[ "$SERVE_GATE_EXIT" -eq 1 ] || {
    echo "FAIL: serve gate should exit 1 on the regressed fixture, got $SERVE_GATE_EXIT" >&2
    exit 1
}

echo "== one published state: no container holds a stream-state file =="
# The index image carries the stream state; a separate stream.plfs next to
# it would be a second, unordered publication.
STRAY_STATE="$(find "$WORK" -name stream.plfs)"
[ -z "$STRAY_STATE" ] || {
    echo "FAIL: stream-state files beside the index: $STRAY_STATE" >&2
    exit 1
}

echo "tier-1 gate: OK"
