#!/usr/bin/env bash
# Link-time reachability gate: every out-of-line library function must be
# reached by at least one production binary (a bench, an example or
# perfbench), or be listed in tools/reachability.allow with a reason.
#
#   tools/reachability.sh [build-dir]      (default: build-reachability)
#
# Method:
#   1. Build the library, every bench and example, and perfbench at
#      -O0 -ffunction-sections -fdata-sections, so nothing is inlined away
#      and every function sits in a section of its own.
#   2. Link each production binary from its own objects plus *all* library
#      objects (not the archive, which would only pull what is referenced)
#      with --gc-sections --print-gc-sections.
#   3. Intersect the .text sections of library objects that every link
#      discarded.
#   4. Keep only strong (nm type T) symbols, so inline and template COMDAT
#      copies drop out, and demangle.
#
# Prints every unreached function, marking the allowlisted ones. Exits 1 on
# an unreached function that is not allowlisted, and on a stale allowlist
# entry (a function that is reachable or no longer defined).
#
# Needs gcc, binutils, c++filt, cmake, ninja and google-benchmark (for
# tab_overhead).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
allow="$root/tools/reachability.allow"
out=$(realpath -m "${1:-$root/build-reachability}")
flags="-O0 -ffunction-sections -fdata-sections"

# Runs a build step with its output in `log`, shown only when it fails.
quiet() {
  local log=$1
  shift
  if ! "$@" >> "$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "reachability: build step failed: $*" >&2
    exit 1
  fi
}

mkdir -p "$out"
: > "$out/build.log"
quiet "$out/build.log" cmake -S "$root" -B "$out/main" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" -DNEXTGOV_BUILD_TESTS=OFF
quiet "$out/build.log" ninja -C "$out/main"
quiet "$out/build.log" cmake -S "$root/perfbench" -B "$out/perfbench" -G Ninja \
  -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$flags"
# Only perfbench's own objects: the library objects come from the main build.
pb_objs=$(ninja -C "$out/perfbench" -t targets all |
  sed -nE 's#^(CMakeFiles/perfbench(_helpers)?\.dir/[^:]*\.o):.*#\1#p')
# shellcheck disable=SC2086
quiet "$out/build.log" ninja -C "$out/perfbench" $pb_objs

mapfile -t lib_objs < <(find "$out/main/CMakeFiles/nextgov.dir" -name '*.o' | sort)
if [ "${#lib_objs[@]}" -eq 0 ]; then
  echo "reachability: no library objects under $out/main" >&2
  exit 1
fi

# name|objects|extra link flags, one line per production binary.
binaries=()
for src in "$root"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  extra=""
  [ "$name" = tab_overhead ] && extra="-lbenchmark"
  binaries+=("$name|$out/main/CMakeFiles/$name.dir/bench/$name.cpp.o|$extra")
done
for src in "$root"/examples/*.cpp; do
  name=$(basename "$src" .cpp)
  binaries+=("example_$name|$out/main/CMakeFiles/example_$name.dir/examples/$name.cpp.o|")
done
binaries+=("perfbench|$(printf "$out/perfbench/%s " $pb_objs)|")

work="$out/links"
rm -rf "$work" && mkdir -p "$work"
n=0
for entry in "${binaries[@]}"; do
  IFS='|' read -r name objs extra <<< "$entry"
  for obj in $objs; do
    if [ ! -f "$obj" ]; then
      echo "reachability: $name was not built ($obj is missing)" >&2
      exit 1
    fi
  done
  # shellcheck disable=SC2086
  ${CXX:-g++} $objs "${lib_objs[@]}" -pthread $extra \
    -Wl,--gc-sections,--print-gc-sections -o "$work/$name" 2> "$work/$name.gc"
  # "removing unused section '.text.<sym>' in file '<lib object>'"
  sed -nE "s#.*removing unused section '\.text\.([^']+)' in file '([^']+)'.*#\2 \1#p" \
    "$work/$name.gc" | { grep -F "$out/main/CMakeFiles/nextgov.dir/" || true; } |
    sort -u > "$work/$name.dropped"
  n=$((n + 1))
done

# Sections every link dropped.
files=("$work"/*.dropped)
cp "${files[0]}" "$work/common"
for f in "${files[@]:1}"; do
  comm -12 "$work/common" "$f" > "$work/common.next"
  mv "$work/common.next" "$work/common"
done

# Strong definitions only, demangled.
: > "$work/unreached.mangled"
: > "$work/defined.mangled"
for obj in "${lib_objs[@]}"; do
  nm "$obj" | awk '$2 == "T" { print $3 }' | sort -u > "$work/strong"
  cat "$work/strong" >> "$work/defined.mangled"
  awk -v o="$obj" '$1 == o { print $2 }' "$work/common" | sort -u |
    comm -12 - "$work/strong" >> "$work/unreached.mangled"
done
c++filt < "$work/unreached.mangled" | sort -u > "$work/unreached"
c++filt < "$work/defined.mangled" | sort -u > "$work/defined"

# Allowlist: "<demangled name>  # <reason>"; blank lines and lines starting
# with # are ignored.
sed -E '/^[[:space:]]*(#|$)/d; s/[[:space:]]*#.*$//' "$allow" | sort -u > "$work/allowed"

status=0
echo "unreached library functions across $n production binaries:"
while IFS= read -r fn; do
  if grep -qxF -- "$fn" "$work/allowed"; then
    echo "  allowed    $fn"
  else
    echo "  UNLISTED   $fn"
    status=1
  fi
done < "$work/unreached"
echo "$(wc -l < "$work/unreached") unreached, $(comm -12 "$work/unreached" "$work/allowed" | wc -l) allowlisted"

while IFS= read -r fn; do
  status=1
  if grep -qxF -- "$fn" "$work/defined"; then
    echo "stale allowlist entry (reachable): $fn"
  else
    echo "stale allowlist entry (not defined): $fn"
  fi
done < <(comm -13 "$work/unreached" "$work/allowed")

if [ "$status" -ne 0 ]; then
  echo "reachability: delete the UNLISTED functions, move test oracles into tests/," \
       "or list them in tools/reachability.allow with a reason; remove stale entries" >&2
fi
exit "$status"
