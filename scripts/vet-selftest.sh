#!/bin/sh
# vet-selftest.sh preserves the self-testing property the retired shell
# lints had: before trusting a clean scan of the real tree, prove each
# coconut-vet analyzer still catches a known violation. The fixture tree
# under internal/vet/testdata/src/ holds at least one deliberate
# violation per analyzer (including the alias-import cases the old grep
# scripts provably missed); running the driver over each fixture must
# exit nonzero and name the analyzer, and a deliberately clean file must
# pass. A silent regression in an analyzer — or in the loader feeding it
# — fails this script, not the next determinism bug.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/coconut-vet" ./cmd/coconut-vet

fail=0
for a in walltime directio telemetry maporder actorspawn globalrand; do
    dir="internal/vet/testdata/src/$a"
    if [ ! -d "$dir" ]; then
        echo "vet-selftest: missing fixture $dir" >&2
        fail=1
        continue
    fi
    out=$("$tmp/coconut-vet" -dir "$dir" -analyzers "$a" 2>&1) && {
        echo "vet-selftest: $a found nothing in its violation fixture:" >&2
        echo "$out" >&2
        fail=1
        continue
    }
    case "$out" in
    *"$a"*) ;;
    *)
        echo "vet-selftest: $a exited nonzero but never named itself:" >&2
        echo "$out" >&2
        fail=1
        ;;
    esac
done

# A clean fixture must pass: the driver's failure signal carries no
# information if it also fires on violation-free code.
mkdir -p "$tmp/clean"
cat > "$tmp/clean/clean.go" <<'EOF'
package clean

func Add(a, b int) int { return a + b }
EOF
if ! "$tmp/coconut-vet" -dir "$tmp/clean" > /dev/null 2>&1; then
    echo "vet-selftest: driver failed on a violation-free fixture" >&2
    fail=1
fi

# A stale suppression must fail the run even with no findings.
mkdir -p "$tmp/stale"
cat > "$tmp/stale/stale.go" <<'EOF'
package stale

//vet:allow walltime nothing here reads the clock
func Clean() {}
EOF
if "$tmp/coconut-vet" -dir "$tmp/stale" > /dev/null 2>&1; then
    echo "vet-selftest: stale //vet:allow did not fail the run" >&2
    fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "vet-selftest: ok (6 analyzers caught their fixtures; clean tree passes; stale allow fails)"
