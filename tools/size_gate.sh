#!/usr/bin/env bash
# Code-size ratchet for the workspace's production Rust.
#
# Counts non-test lines in every `*.rs` under crates/ and vendor/
# (recursively, so `src/bin/` and nested modules count; `tests/` and
# `benches/` directories do not), where a file's non-test lines are the
# ones before its first `#[cfg(test)]`. Fails when the total exceeds the
# pinned ceiling. The ceiling may only go DOWN: when you delete code,
# lower LIMIT in this file to the new count; never raise it. Growth has
# to be paid for by a deletion elsewhere in the same PR.
#
# Rationale (legacy-bench retirement PR): the roadmap's design aim is one
# production path per job and a codebase that gets smaller while every
# benchmark number and byte-identical-outcome test holds. This gate turns
# that aim into a number each PR must not raise.
set -euo pipefail

LIMIT=18282

cd "$(dirname "$0")/.."
total=0
per_crate=""
for dir in crates/*/ vendor/*/; do
  dir="${dir%/}"
  n=0
  while IFS= read -r -d '' f; do
    c=$(awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
    n=$((n + c))
  done < <(find "$dir" \( -name tests -o -name benches \) -prune \
             -o -name '*.rs' -type f -print0)
  total=$((total + n))
  per_crate="$per_crate
  $(printf '%6d' "$n")  $dir"
done

echo "non-test Rust lines in crates/ + vendor/: $total (limit $LIMIT)"
echo "per crate:$per_crate"
if [ "$total" -gt "$LIMIT" ]; then
  echo "FAIL: production code grew past the pinned ceiling." >&2
  echo "Delete or simplify code elsewhere to pay for the growth, or move" >&2
  echo "test-only helpers under #[cfg(test)]." >&2
  exit 1
fi
