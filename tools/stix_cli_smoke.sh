#!/bin/sh
# End-to-end smoke test of stix_cli: loads a small CSV into a data
# directory (zoned, checkpointed), reopens it with `stats` and `query`, and
# checks the printed document counts, then checks that a second `load` into
# the same directory is refused and that malformed numeric flags exit with
# the usage code 2.
#
# Usage: stix_cli_smoke.sh STIX_CLI CSV WORK_DIR
#
# The expected query count (29) was computed from the CSV independently of
# STIX: rows with 23.65 <= lon <= 23.85, 37.90 <= lat <= 38.10 and a date
# between 06:00 and 18:00 on 2018-10-01.
set -eu

cli=$1
csv=$2
dir=$3/stix_cli_smoke_store

fail() {
  echo "stix_cli_smoke: $*" >&2
  exit 1
}

rm -rf "$dir"
"$cli" load --csv="$csv" --shards=3 --zones --out="$dir" ||
  fail "load exited $?"

stats=$("$cli" stats --snap="$dir") || fail "stats exited $?"
echo "$stats"
echo "$stats" | grep -q '^documents: 200 in .* (3 zones)$' ||
  fail "stats does not report 200 documents in 3 zones"

result=$("$cli" query --snap="$dir" --rect=23.65,37.90,23.85,38.10 \
  --from=2018-10-01T06:00:00Z --to=2018-10-01T18:00:00Z --limit=0) ||
  fail "query exited $?"
echo "$result"
echo "$result" | grep -q '^29 documents,' ||
  fail "query does not report 29 documents"

if second=$("$cli" load --csv="$csv" --out="$dir" 2>&1); then
  fail "a second load into $dir succeeded"
fi
echo "$second"
echo "$second" | grep -q 'already holds a cluster' ||
  fail "the second load failed for the wrong reason"

# Malformed numbers are usage errors (exit 2), not empty results.
expect_usage() {
  if "$cli" "$@" >/dev/null 2>&1; then
    fail "$* succeeded"
  else
    code=$?
  fi
  [ "$code" -eq 2 ] || fail "$* exited $code, not 2"
}
from=--from=2018-10-01T06:00:00Z
to=--to=2018-10-01T18:00:00Z
expect_usage query --snap="$dir" --rect=foo,bar,baz,qux "$from" "$to"
expect_usage query --snap="$dir" --rect=nan,37,24,39 "$from" "$to"
expect_usage query --snap="$dir" --rect=23.65,37.90,23.85,38.10 "$from" "$to" \
  --limit=abc
expect_usage load --csv="$csv" --shards=0 --out="$dir.zero"
expect_usage load --csv="$csv" --shards=abc --out="$dir.abc"
[ ! -e "$dir.zero" ] && [ ! -e "$dir.abc" ] ||
  fail "a refused load left a data directory behind"

rm -rf "$dir"
echo "stix_cli_smoke: ok"
