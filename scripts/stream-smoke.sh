#!/bin/sh
# Streaming memory smoke: run the study over a corpus roughly 10x the
# paper's (6 taxa x PER_TAXON projects) under a GOMEMLIMIT a collect-all
# run could not fit in, then assert from the run ledger that the recorded
# live-heap peak stayed under the cap. GOMEMLIMIT is a soft limit — the
# assertion is on the sampled peak in the sealed manifest, not on
# surviving an OOM kill.
#
# Usage: scripts/stream-smoke.sh [per-taxon] [runlog-dir]
set -eu

PER_TAXON="${1:-334}"
RUNLOG_DIR="${2:-stream-smoke-runs}"
# 400 MiB: about 2x a collect-all peak on the paper's 195-project corpus,
# and far below what collecting the ~2000-project corpus used here takes.
LIMIT="400MiB"
CAP_BYTES=419430400

go build -o /tmp/coevo-stream-smoke ./cmd/coevo

# peak_of <ledger-dir> prints peak_heap_bytes of the newest manifest.
peak_of() {
    manifest=$(ls -t "$1"/*.json | head -1)
    grep -q '"outcome": "ok"' "$manifest" || { echo "run in $manifest did not finish ok" >&2; exit 1; }
    peak=$(sed -n 's/.*"peak_heap_bytes": *\([0-9]*\).*/\1/p' "$manifest" | head -1)
    [ -n "$peak" ] || { echo "manifest $manifest lacks peak_heap_bytes" >&2; exit 1; }
    echo "$peak"
}

echo "stream-smoke: streaming study of $((PER_TAXON * 6)) projects under GOMEMLIMIT=$LIMIT"
GOMEMLIMIT="$LIMIT" /tmp/coevo-stream-smoke study -per-taxon "$PER_TAXON" \
    -runlog-dir "$RUNLOG_DIR/stream" >/dev/null
STREAM_PEAK=$(peak_of "$RUNLOG_DIR/stream")
echo "stream-smoke: streaming peak heap $STREAM_PEAK bytes (cap $CAP_BYTES)"
if [ "$STREAM_PEAK" -ge "$CAP_BYTES" ]; then
    echo "stream-smoke: FAIL — streaming peak heap exceeds the cap" >&2
    exit 1
fi

echo "stream-smoke: ok"
