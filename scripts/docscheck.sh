#!/usr/bin/env bash
# docscheck.sh — the docs lint: fail CI when the operator/architecture
# docs go missing or docs/OPERATIONS.md drifts from the code in either
# direction. The flag list is parsed out of cmd/solapd/main.go and the
# metric names out of the Go sources under internal/, so adding a flag
# without documenting it — or deleting a flag or metric and leaving its
# row behind — is a one-commit CI failure instead of a slow divergence.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

for f in docs/OPERATIONS.md docs/ARCHITECTURE.md README.md; do
  if [[ ! -s "$f" ]]; then
    echo "docscheck: missing or empty: $f" >&2
    fail=1
  fi
done
[[ $fail -eq 0 ]] || exit 1

# Every flag solapd defines must appear in OPERATIONS.md as `-name`.
flags=$(grep -oE 'flag\.(String|Bool|Int|Int64|Float64|Duration)\("[a-z-]+"' \
  cmd/solapd/main.go | sed -E 's/.*\("([a-z-]+)"/\1/' | sort -u)
if [[ -z "$flags" ]]; then
  echo "docscheck: parsed no flags out of cmd/solapd/main.go" >&2
  exit 1
fi

for f in $flags; do
  if ! grep -q -- "\`-$f\`" docs/OPERATIONS.md; then
    echo "docscheck: solapd flag -$f is not documented in docs/OPERATIONS.md" >&2
    fail=1
  fi
done

# Every flag-table row in OPERATIONS.md must name a flag solapd defines.
documented=$(grep -oE '^\| `-[a-z-]+`' docs/OPERATIONS.md | sed -E 's/^\| `-([a-z-]+)`/\1/' | sort -u)
for f in $documented; do
  if ! grep -qx -- "$f" <<<"$flags"; then
    echo "docscheck: docs/OPERATIONS.md documents -$f, which cmd/solapd/main.go does not define" >&2
    fail=1
  fi
done

# Every full sdwp_* metric name in OPERATIONS.md must be emitted by
# production Go under internal/ (a string literal outside _test.go).
emitted=$(grep -rhoE --include='*.go' --exclude='*_test.go' '"sdwp_[a-z0-9_]+"' internal/ \
  | tr -d '"' | sort -u)
for m in $(grep -oE '`sdwp_[a-z0-9_]+`' docs/OPERATIONS.md | tr -d '`' | sort -u); do
  if ! grep -qx -- "$m" <<<"$emitted"; then
    echo "docscheck: docs/OPERATIONS.md lists metric $m, which no Go source under internal/ emits" >&2
    fail=1
  fi
done

# The README must point readers at both docs.
for link in docs/ARCHITECTURE.md docs/OPERATIONS.md; do
  if ! grep -q "$link" README.md; then
    echo "docscheck: README.md does not link $link" >&2
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  exit 1
fi
n=$(wc -w <<<"$flags")
echo "docscheck: OK ($n solapd flags documented)"
