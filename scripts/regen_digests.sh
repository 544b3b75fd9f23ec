#!/usr/bin/env bash
# Regenerate tests/golden/digests.json, the golden report digests that
# model_digest_test compares against. Run it only when a change is meant to
# move the model; the file's diff then names the cells that moved, and the
# change log says why. Usage: scripts/regen_digests.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$jobs" --target model_digest_test
"$build/tests/model_digest_test" --write="$repo/tests/golden/digests.json"
echo "wrote $repo/tests/golden/digests.json"
