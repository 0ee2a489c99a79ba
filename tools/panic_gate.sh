#!/usr/bin/env bash
# Panic-site ratchet for the wire-facing crates.
#
# Counts non-test `unwrap()` / `expect("…")` / `panic!(` sites in
# crates/net + crates/core + crates/fleet + crates/classify source
# (everything before each file's first `#[cfg(test)]`, excluding comment
# lines) and fails when the count exceeds the pinned ceiling. The ceiling
# is hard-coded (no command-line override, as in size_gate.sh) and may
# only go DOWN: when you remove panic sites, lower LIMIT in this file;
# never raise it. The fleet crate joined the gate at zero sites and
# must stay there; classify joined at zero too (the kernel PR swept its
# `partial_cmp(..).expect(..)` comparators to `f64::total_cmp` and its
# argmax expects to safe defaults) — the streaming `ClassifierSink`
# makes its predict path wire-reachable, so it must stay at zero.
#
# Rationale (liveness overhaul PR): anything reachable from the wire must
# surface as a typed TransportError/FrameError/SapError so one bad frame
# or one dead peer fails a session, never a worker thread or the process.
# The remaining pinned sites are infallible by construction (length-checked
# slice conversions, lock acquisitions on the no-poison shim, invariants
# validated at spawn).
set -euo pipefail

LIMIT=27

cd "$(dirname "$0")/.."
total=0
worst=""
for f in crates/net/src/*.rs crates/core/src/*.rs crates/fleet/src/*.rs crates/classify/src/*.rs; do
  n=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f" \
      | grep -cE '\.unwrap\(\)|\.expect\("|panic!\(' || true)
  total=$((total + n))
  if [ "$n" -gt 0 ]; then
    worst="$worst
  $n  $f"
  fi
done

echo "non-test panic sites in crates/net + crates/core + crates/fleet + crates/classify: $total (limit $LIMIT)"
echo "per file:$worst"
if [ "$total" -gt "$LIMIT" ]; then
  echo "FAIL: panic-site count grew past the pinned ceiling." >&2
  echo "Convert new unwrap/expect/panic! sites to typed errors, or prove" >&2
  echo "them infallible and discuss lowering the pattern's reach." >&2
  exit 1
fi
