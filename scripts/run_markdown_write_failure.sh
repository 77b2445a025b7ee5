#!/usr/bin/env bash
#
# A markdown report that cannot be written in full must fail the
# run: with the file size limit at 1 KiB (and SIGXFSZ ignored, so
# the write fails instead of killing the process), eco_chip has to
# exit 1 with an error naming the report and no usage text, and
# leave no partial report or temp file behind. Run once with no
# report there and once over an existing report, which must come
# through byte-identical. The report for this scenario is about
# 2.8 KB.
#
# Usage: run_markdown_write_failure.sh ECO_CHIP WORKDIR

set -u

APP="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"
REPORT="$WORK/report.md"

# Run the failing write; fail the script unless it failed cleanly.
failing_write() {
    (
        trap '' XFSZ
        ulimit -f 1
        exec "$APP" --scenario ga102 --node_list 7,10,14 \
            --markdown "$REPORT" > /dev/null 2> "$WORK/stderr.txt"
    )
    local status=$?
    if [ "$status" -ne 1 ]; then
        echo "expected exit 1 from a failed markdown write, got $status" >&2
        exit 1
    fi
    if ! grep -q "failed writing markdown report: $REPORT" "$WORK/stderr.txt"; then
        echo "the error does not name the report:" >&2
        cat "$WORK/stderr.txt" >&2
        exit 1
    fi
    if grep -q "usage:" "$WORK/stderr.txt"; then
        echo "a failed write printed the usage text:" >&2
        cat "$WORK/stderr.txt" >&2
        exit 1
    fi
    if compgen -G "$REPORT.tmp.*" > /dev/null; then
        echo "a temp file was left behind:" $REPORT.tmp.* >&2
        exit 1
    fi
}

failing_write
if [ -e "$REPORT" ]; then
    echo "a partial markdown report was left behind:" \
        "$(wc -c < "$REPORT") bytes" >&2
    exit 1
fi

printf '# previous report\n' > "$REPORT"
cp "$REPORT" "$WORK/previous.md"
failing_write
if ! cmp -s "$REPORT" "$WORK/previous.md"; then
    echo "the previous markdown report was not kept as it was" >&2
    exit 1
fi
echo "markdown write failure: exit 1, no usage, previous report kept"
