#!/bin/sh
# Docs drift gate (`make docs-check`, part of `make check`):
#
#   1. every guide under docs/ must be linked from README.md — a new
#      guide nobody can discover is drift, not documentation;
#   2. the op tables in docs/SERVING.md and docs/WIRE.md must match
#      the wire protocol's op registry (the `ops` list in
#      lib/server/wire.ml) in both directions — every served op
#      documented, no phantom ops documented that the daemon would
#      answer `unknown_op`;
#   3. the op table in docs/ROBUSTNESS.md must match the constructors
#      of `Op.t` (lib/integrate/op.mli) in both directions — every
#      session op documented with its text, no phantom ops.
#
# Every failure names a file and line so the fix is one click away.
# Pure POSIX sh + grep/sed so it runs anywhere the repo builds.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
fail=0

# --- 1: README links every docs/*.md guide -------------------------
# A missing link points at the last existing docs/ link in README.md:
# that is where the new one belongs.
readme_anchor=$(grep -n 'docs/[A-Za-z_]*\.md' "$ROOT/README.md" |
  tail -1 | cut -d: -f1)
readme_anchor=${readme_anchor:-1}
for doc in "$ROOT"/docs/*.md; do
  rel="docs/$(basename "$doc")"
  if ! grep -q "$rel" "$ROOT/README.md"; then
    echo "docs-check: README.md:$readme_anchor: $rel is not linked from README.md"
    fail=1
  fi
done

# --- 2: op tables == Wire.ops --------------------------------------
# The registry is a literal string list; pull the quoted words between
# `let ops =` and the closing bracket.
registry_line=$(grep -n '^let ops =' "$ROOT/lib/server/wire.ml" |
  head -1 | cut -d: -f1)
registry=$(sed -n '/^let ops =/,/^  \]/p' "$ROOT/lib/server/wire.ml" |
  grep -o '"[a-z_]*"' | tr -d '"' | sort)
if [ -z "$registry" ]; then
  echo "docs-check: lib/server/wire.ml:${registry_line:-1}: cannot extract the op registry"
  exit 1
fi

# check_table DOC HEADER REGISTRY NAMES SOURCE: the first-column cells
# of the markdown table in DOC whose header row is `| HEADER | ...`
# must equal the words NAMES, which REGISTRY at SOURCE (FILE:LINE)
# defines (each doc has several tables — fields and error codes use the
# same layout, so the range matters).
check_table() {
  doc=$1 header=$2 registry_name=$3 names=$4 source=$5
  table_line=$(grep -n "^| $header " "$ROOT/$doc" | head -1 | cut -d: -f1)
  if [ -z "$table_line" ]; then
    echo "docs-check: $doc:1: no op table (a '| $header | ...' markdown table) found"
    fail=1
    return
  fi
  documented=$(sed -n "/^| $header  */,/^\$/p" "$ROOT/$doc" |
    grep -o '^| `[A-Za-z_]*`' | sed 's/| `//; s/`//' | sort -u)
  for op in $names; do
    if ! printf '%s\n' "$documented" | grep -qx "$op"; then
      echo "docs-check: $doc:$table_line: op \"$op\" ($source) is missing from the op table"
      fail=1
    fi
  done
  for op in $documented; do
    if ! printf '%s\n' "$names" | grep -qx "$op"; then
      op_line=$(grep -n "^| \`$op\`" "$ROOT/$doc" | head -1 | cut -d: -f1)
      echo "docs-check: $doc:${op_line:-$table_line}: documents op \"$op\" which is not in $registry_name ($source)"
      fail=1
    fi
  done
}

wire_source="lib/server/wire.ml:$registry_line"
check_table docs/SERVING.md op Wire.ops "$registry" "$wire_source"
check_table docs/WIRE.md op Wire.ops "$registry" "$wire_source"

# --- 3: the op vocabulary table == Op.t ----------------------------
# The constructors are the `  | Name` lines of `type t =`, up to the
# first blank line.
op_mli=lib/integrate/op.mli
type_line=$(grep -n '^type t =' "$ROOT/$op_mli" | head -1 | cut -d: -f1)
constructors=$(sed -n '/^type t =/,/^$/p' "$ROOT/$op_mli" |
  grep -o '^  | [A-Z][A-Za-z_]*' | sed 's/^  | //' | sort)
if [ -z "$constructors" ]; then
  echo "docs-check: $op_mli:${type_line:-1}: cannot extract the constructors of Op.t"
  exit 1
fi
check_table docs/ROBUSTNESS.md Op Op.t "$constructors" "$op_mli:$type_line"

[ "$fail" -eq 0 ] && echo "docs-check: ok"
exit "$fail"
