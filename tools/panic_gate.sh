#!/usr/bin/env bash
# Panic-site ratchet for the wire-facing crates and the kernels under them.
#
# Counts non-test `unwrap()` / `expect("…")` / `panic!(` sites in the
# `src/` trees of crates/net + crates/core + crates/fleet +
# crates/classify + crates/server + crates/privacy + crates/ica +
# crates/perturb + crates/linalg + crates/datasets, every
# `*.rs` file recursively (so `privacy/src/attack/` counts), everything
# before each file's first `#[cfg(test)]`, excluding comment lines, and
# fails when the count exceeds the pinned ceiling. The ceiling
# is hard-coded (no command-line override, as in size_gate.sh) and may
# only go DOWN: when you remove panic sites, lower LIMIT in this file;
# never raise it. The fleet crate joined the gate at zero sites and
# must stay there; classify joined at zero too (the kernel PR swept its
# `partial_cmp(..).expect(..)` comparators to `f64::total_cmp` and its
# argmax expects to safe defaults) — the mining service trains and
# predicts on records that arrived over the wire, so it must stay at zero.
# server joined at zero as well: its registry lock (which also guards
# the tally) is on the no-poison shim, so a panic while it is held no
# longer fails every later submit, and the miner-lane pop returns a
# typed mesh error.
# privacy and ica joined at zero and must stay there: both run the
# optimizer and attack configs a client sends with its session.
# perturb, linalg and datasets joined with the sites they already had
# (5 + 7 + 8 = 20, so the ceiling went from 22 to 42): the protocol
# perturbs, adapts and decodes wire data through them, so their panic
# sites are now counted too and may only fall from here.
#
# Rationale (liveness overhaul PR): anything reachable from the wire must
# surface as a typed TransportError/FrameError/SapError so one bad frame
# or one dead peer fails a session, never a worker thread or the process.
# The remaining pinned sites are infallible by construction (length-checked
# slice conversions, lock acquisitions on the no-poison shim, invariants
# validated at spawn).
set -euo pipefail

LIMIT=34

cd "$(dirname "$0")/.."
total=0
worst=""
crates="net core fleet classify server privacy ica perturb linalg datasets"
while IFS= read -r -d '' f; do
  n=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print}' "$f" \
      | grep -cE '\.unwrap\(\)|\.expect\("|panic!\(' || true)
  total=$((total + n))
  if [ "$n" -gt 0 ]; then
    worst="$worst
  $n  $f"
  fi
done < <(for c in $crates; do find "crates/$c/src" -name '*.rs' -type f -print0; done | sort -z)

echo "non-test panic sites in crates/{${crates// /,}}/src: $total (limit $LIMIT)"
echo "per file:$worst"
if [ "$total" -gt "$LIMIT" ]; then
  echo "FAIL: panic-site count grew past the pinned ceiling." >&2
  echo "Convert new unwrap/expect/panic! sites to typed errors, or prove" >&2
  echo "them infallible and discuss lowering the pattern's reach." >&2
  exit 1
fi
