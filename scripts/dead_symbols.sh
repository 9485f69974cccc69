#!/usr/bin/env bash
# Linker-GC audit: lists library code that no shipped binary links.
#
# Builds the library with -ffunction-sections -fdata-sections into its own
# tree (build-deadsym/), links the CLI, every bench_* and example_* program
# and the perfbench binary with --gc-sections, then prints each iuad:: text
# symbol of libiuad.a that none of those binaries keeps. A printed name is
# a candidate, not a verdict: a function inlined at every call site leaves
# no symbol behind even though live code calls it, so grep each name
# before deleting it.
#
# Reports only: exits 0 whatever it prints, nonzero only if the build
# fails. Usage: scripts/dead_symbols.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-deadsym
GC_FLAGS=(
  -DCMAKE_BUILD_TYPE=Release
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
)

cmake -B "$BUILD_DIR" -S . -DIUAD_BUILD_TESTS=OFF "${GC_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" >/dev/null
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${GC_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$(nproc)" --target iuad_perfbench \
  >/dev/null

BINARIES=("$BUILD_DIR/iuad_main" "$BUILD_DIR"/bench_* "$BUILD_DIR"/example_*
          "$BUILD_DIR/perfbench/iuad_perfbench")

# Mangled names of defined text symbols (T: global, W: weak), one per line.
text_symbols() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/ { print $3 }'
}

KEPT="$(mktemp)"
LIB="$(mktemp)"
trap 'rm -f "$KEPT" "$LIB"' EXIT
text_symbols "${BINARIES[@]}" | sort -u > "$KEPT"
text_symbols "$BUILD_DIR/libiuad.a" | sort -u > "$LIB"

DEAD="$(comm -23 "$LIB" "$KEPT" | c++filt | grep '^iuad::' | sort -u || true)"
echo "dead_symbols: ${#BINARIES[@]} binaries; iuad:: text symbols of" \
     "libiuad.a that none of them keeps:"
if [[ -n "$DEAD" ]]; then
  printf '%s\n' "$DEAD"
fi
echo "dead_symbols: $(printf '%s' "$DEAD" | grep -c . || true) symbols"
