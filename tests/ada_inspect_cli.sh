#!/bin/sh
# ada-inspect reporting over a retained stream: the stream state carried in
# the index (watermark, floor, seal), a clean fsck, and a --repair summary
# that names every action it took.
#
# Usage: ada_inspect_cli.sh <ada-gen> <ada-ingest> <ada-inspect>
set -eu
gen=$1
ingest=$2
inspect=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "$out" >&2
    exit 1
}

"$gen" --out "$work/gen" --size tiny --frames 12 >/dev/null
"$ingest" --pdb "$work/gen/system.pdb" --xtc "$work/gen/traj.xtc" \
    --ssd "$work/ssd" --hdd "$work/hdd" --name live.xtc \
    --stream --chunk-frames 2 --retain-bytes 1 >/dev/null
inspect_live() {
    "$inspect" --ssd "$work/ssd" --hdd "$work/hdd" --name live.xtc "$@"
}

# Retention dropped chunks [0, 10): the stream is healthy, so fsck exits 0.
out=$(inspect_live --fsck) || fail "fsck of a healthy retained stream exited $?"
echo "$out" | grep -q 'stream: watermark 12 frames, floor 10, sealed' ||
    fail "stream state missing from the report"
echo "$out" | grep -q '^fsck: clean' || fail "healthy retained stream not clean"

# Damage the surviving protein chunk [10, 12): repair quarantines it and cuts
# the stream at frame 10, setting the intact misc chunk above the cut aside.
p=$(ls "$work/ssd/live.xtc" | grep '^dropping\.p\.' | head -n 1)
printf '\377\377\377\377' | dd of="$work/ssd/live.xtc/$p" bs=1 seek=24 conv=notrunc 2>/dev/null
code=0
out=$(inspect_live --repair) || code=$?
[ "$code" -eq 1 ] || fail "--repair of a damaged container should exit 1, got $code"
echo "$out" | grep -q '1 checksum-bad' || fail "fsck did not report the checksum-bad extent"
summary='dropped 0 broken records, quarantined 1 extents, dropped 1 open-tail records'
echo "$out" | grep -q "repaired: $summary, removed 0 orphans" ||
    fail "repair summary does not name every action"

out=$(inspect_live --fsck) || fail "fsck after repair exited $?"
echo "$out" | grep -q 'stream: watermark 10 frames, floor 10, sealed' ||
    fail "repair did not cut the stream at the damaged chunk"
echo "ok"
