#!/usr/bin/env bash
#
# A markdown report that cannot be written in full must fail the
# run: with the file size limit at 1 KiB (and SIGXFSZ ignored, so
# the write fails instead of killing the process), eco_chip has to
# exit 1 and leave no partial report behind. The report for this
# scenario is about 2.8 KB.
#
# Usage: run_markdown_write_failure.sh ECO_CHIP WORKDIR

set -u

APP="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"
REPORT="$WORK/report.md"

(
    trap '' XFSZ
    ulimit -f 1
    exec "$APP" --scenario ga102 --node_list 7,10,14 \
        --markdown "$REPORT" > /dev/null 2> "$WORK/stderr.txt"
)
STATUS=$?

if [ "$STATUS" -ne 1 ]; then
    echo "expected exit 1 from a failed markdown write, got $STATUS" >&2
    exit 1
fi
if [ -e "$REPORT" ]; then
    echo "a partial markdown report was left behind:" \
        "$(wc -c < "$REPORT") bytes" >&2
    exit 1
fi
if ! grep -q "failed writing markdown report: $REPORT" "$WORK/stderr.txt"; then
    echo "the error does not name the report:" >&2
    cat "$WORK/stderr.txt" >&2
    exit 1
fi
echo "markdown write failure: exit 1, no partial file"
