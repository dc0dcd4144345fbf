#!/usr/bin/env bash
# Bad-input smoke for the `osd` binary: a NaN coordinate and a 1e308
# coordinate in the data CSV, and a NaN query coordinate, must each make
# `osd query` fail cleanly — a non-zero exit code other than 101 (a
# panic's) — with an error naming the offending line or flag.
# Usage: scripts/bad_input_smoke.sh path/to/osd
set -euo pipefail
OSD="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

printf 'object_id,weight,c0,c1\n0,1.0,1,2\n1,1.0,NaN,2\n' > "$DIR/nan.csv"
printf 'object_id,weight,c0,c1\n0,1.0,1,2\n1,1.0,1e308,2\n' > "$DIR/huge.csv"
printf 'object_id,weight,c0,c1\n0,1.0,1,2\n1,1.0,3,4\n' > "$DIR/good.csv"

# expect_clean_failure NAME NEEDLE ARGS...: runs `osd ARGS...`, which must
# exit non-zero but not 101, with NEEDLE on stderr.
expect_clean_failure() {
  local name="$1" needle="$2"
  shift 2
  local code=0
  "$OSD" "$@" > "$DIR/out" 2> "$DIR/err" || code=$?
  if [ "$code" -eq 0 ] || [ "$code" -eq 101 ]; then
    echo "bad-input smoke ($name): exit code $code"
    cat "$DIR/err"
    exit 1
  fi
  grep -qF -- "$needle" "$DIR/err" || {
    echo "bad-input smoke ($name): the error does not name $needle"
    cat "$DIR/err"
    exit 1
  }
}

expect_clean_failure "NaN in the data" "line 3: coordinate" \
  query --data "$DIR/nan.csv" --query "0,0"
expect_clean_failure "1e308 in the data" "line 3: coordinate" \
  query --data "$DIR/huge.csv" --query "0,0"
expect_clean_failure "NaN in --query" "--query" \
  query --data "$DIR/good.csv" --query "NaN,5"
echo "bad-input smoke: ok"
