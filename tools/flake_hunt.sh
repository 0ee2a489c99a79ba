#!/usr/bin/env bash
# Flake hunter for tier-1.
#
# Runs `cargo test --no-fail-fast` N times and prints, per test, how
# many of the N runs it failed in. `--no-fail-fast` matters: without it
# one flaky target hides every suite cargo would have run after it. The
# runs are not `-q`: quiet mode drops the `Running <target>` lines that
# tell which suite a failed test belongs to.
#
# The log of every failed run is kept under target/flake_hunt/ so a
# flake can be diagnosed after the fact. A run that fails without any
# test reporting a failure (a build error, a crashed test binary) is
# counted under "<no test named>".
#
# Usage: tools/flake_hunt.sh N
set -euo pipefail

RUNS="${1:?usage: tools/flake_hunt.sh N}"

cd "$(dirname "$0")/.."
logs=target/flake_hunt
mkdir -p "$logs"
rm -f "$logs"/run-*.log
log="$logs/current.log"

declare -A fails=()
failed_runs=0
for ((i = 1; i <= RUNS; i++)); do
  start=$SECONDS
  if cargo test --no-fail-fast >"$log" 2>&1; then
    echo "run $i/$RUNS: ok ($((SECONDS - start)) s)" >&2
    continue
  fi
  failed_runs=$((failed_runs + 1))
  cp "$log" "$logs/run-$i.log"
  # `Running <target> (<binary>)` names the test binary (unit tests by
  # their crate); `---- <test> stdout ----` opens the report of each
  # failed test inside it.
  names=$(awk '
    /^ *Running / {
      target = $2
      if (target == "unittests") {
        target = $NF
        sub(/\)$/, "", target); sub(/.*\//, "", target); sub(/-[0-9a-f]+$/, "", target)
      }
    }
    /^ *Doc-tests / { target = "doc:" $2 }
    /^---- .* stdout ----$/ {
      name = $0
      sub(/^---- /, "", name)
      sub(/ stdout ----$/, "", name)
      print target "::" name
    }' "$log")
  [ -n "$names" ] || names="<no test named>"
  while IFS= read -r name; do
    fails["$name"]=$((${fails["$name"]:-0} + 1))
  done <<<"$names"
  echo "run $i/$RUNS: FAILED ($((SECONDS - start)) s): $(echo "$names" | tr '\n' ' ')" >&2
done
rm -f "$log"

echo "runs: $RUNS, failed runs: $failed_runs"
if [ "${#fails[@]}" -eq 0 ]; then
  echo "per-test failures: none"
  exit 0
fi
echo "per-test failures (runs failed, test):"
for name in "${!fails[@]}"; do
  printf '%6d  %s\n' "${fails[$name]}" "$name"
done | sort -rn
echo "logs of the failed runs: $logs/"
exit 1
