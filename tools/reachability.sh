#!/usr/bin/env bash
# Link-time reachability gate: every library function, out-of-line or
# header-inline, must be reached by at least one production binary (a bench,
# an example or perfbench), or be listed in tools/reachability.allow with a
# reason.
#
#   tools/reachability.sh [build-dir]      (default: build-reachability)
#
# Method:
#   1. Build the library objects at -O0 -ffunction-sections -fdata-sections
#      -fkeep-inline-functions, so nothing is inlined away, every function
#      sits in a section of its own, and every inline function a library
#      header or source defines is emitted too; one more object includes
#      every src/ header, for headers no library source includes, and
#      explicitly instantiates each src/ class template at every argument
#      src/ names it with (`template class Quantity<Watts>;`), which emits
#      every member, not only the ones something calls. Build the objects
#      of every bench and example, and of perfbench, with the same flags
#      minus -fkeep-inline-functions (their inline standard-library code
#      would reference libstdc++-internal symbols).
#   2. Defined: the nextgov:: function symbols (nm T or W) of the library
#      objects.
#   3. Link each production binary from its own objects plus *all* library
#      objects (not the archive, which would only pull what is referenced)
#      with --gc-sections. Reached: the nextgov:: symbols any link keeps.
#   4. Unreached = defined - reached, demangled, less the special members
#      the compiler generates (implicit constructors, destructors and
#      assignments, which nobody can delete): those are told apart by
#      DW_AT_artificial in the library's debug info.
#
# Prints every unreached function, marking the allowlisted ones. Exits 1 on
# an unreached function that is not allowlisted, on a stale allowlist entry
# (a function that is reachable or no longer defined), and on a class
# template src/ never instantiates.
#
# Blind spots: the gate sees functions, not data. A data member that only
# tests read (RcNodeSpec::name, read only by Note9Thermal.HasSixNamedNodes)
# or a constant nobody uses passes it. So does a member of a function
# template, or of a class template instantiated only outside src/.
#
# Needs gcc, binutils, c++filt, cmake, ninja and google-benchmark (for
# tab_overhead).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
allow="$root/tools/reachability.allow"
out=$(realpath -m "${1:-$root/build-reachability}")
flags="-O0 -ffunction-sections -fdata-sections"
# The nextgov:: functions among mangled names: N, cv- and ref-qualifiers,
# then the namespace.
nextgov_fn='^_ZN[KVRO]*7nextgov'

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

# The object files of `build` whose ninja paths match the extended regex.
objects() {
  ninja -C "$1" -t targets all | sed -nE "s#^($2):.*#\\1#p"
}

# Explicit instantiations of every class template under `src` (a
# column-0 `template <typename T>` line followed by `class Name` or `struct
# Name`), one per argument the sources spell `Name<argument>` with, in the
# namespace of the template's header.
instantiations() {
  local ns name param arg found
  find "$1" -name '*.hpp' -print0 | xargs -0 awk '
    FNR == 1 { ns = ""; pending = "" }
    ns == "" && /^namespace [A-Za-z_:]+ \{/ { ns = $2 }
    pending != "" && match($0, /^(class|struct) [A-Za-z_][A-Za-z0-9_]*/) {
      split(substr($0, RSTART, RLENGTH), w, " ")
      print ns, w[2], pending
    }
    { pending = "" }
    /^template <(typename|class) [A-Za-z_][A-Za-z0-9_]*>$/ {
      pending = $3
      sub(/>$/, "", pending)
    }' | sort -u |
    while read -r ns name param; do
      found=0
      while IFS= read -r arg; do
        [ "$arg" = "$param" ] && continue
        echo "namespace $ns { template class $name<$arg>; }"
        found=1
      done < <(grep -rhoE "\\b$name<[^<>;]+>" "$1" | sed -E "s/^$name<(.*)>$/\\1/" | sort -u)
      if [ "$found" -eq 0 ]; then
        echo "reachability: class template $ns::$name is never instantiated in src/" >&2
        exit 1
      fi
    done
}

mkdir -p "$out"
: > "$out/build.log"
quiet "$out/build.log" cmake -S "$root" -B "$out/lib" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags -g -fkeep-inline-functions" -DNEXTGOV_BUILD_TESTS=OFF \
  -DNEXTGOV_BUILD_BENCH=OFF -DNEXTGOV_BUILD_EXAMPLES=OFF
quiet "$out/build.log" ninja -C "$out/lib" nextgov
(cd "$root/src" && find . -name '*.hpp' | sort | sed 's|^\./\(.*\)|#include "\1"|') \
  > "$out/headers.cpp"
instantiations "$root/src" >> "$out/headers.cpp"
# shellcheck disable=SC2086
quiet "$out/build.log" ${CXX:-g++} -std=c++20 $flags -g -fkeep-inline-functions \
  -I "$root/src" -c "$out/headers.cpp" -o "$out/headers.o"
quiet "$out/build.log" cmake -S "$root" -B "$out/main" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" -DNEXTGOV_BUILD_TESTS=OFF
main_objs=$(objects "$out/main" 'CMakeFiles/[^/]+\.dir/(bench|examples)/[^:/]+\.o')
quiet "$out/build.log" cmake -S "$root/perfbench" -B "$out/perfbench" -G Ninja \
  -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$flags"
# Only perfbench's own objects: the library objects come from the library build.
pb_objs=$(objects "$out/perfbench" 'CMakeFiles/perfbench(_helpers)?\.dir/[^:]*\.o')
# shellcheck disable=SC2086
quiet "$out/build.log" ninja -C "$out/main" $main_objs
# shellcheck disable=SC2086
quiet "$out/build.log" ninja -C "$out/perfbench" $pb_objs

mapfile -t lib_objs < <(find "$out/lib/CMakeFiles/nextgov.dir" "$out/headers.o" -name '*.o' | sort)
if [ "${#lib_objs[@]}" -eq 0 ]; then
  echo "reachability: no library objects under $out/lib" >&2
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
: > "$work/reached.mangled"
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
  ${CXX:-g++} $objs "${lib_objs[@]}" -pthread $extra -Wl,--gc-sections -o "$work/$name"
  nm "$work/$name" | awk '{ print $NF }' | { grep -E "$nextgov_fn" || true; } \
    >> "$work/reached.mangled"
  n=$((n + 1))
done

# Compiler-generated special members: the library's DW_AT_artificial
# subprograms. Mangled names demangle to one name for every constructor and
# destructor variant (complete, base, deleting, and the unified name the
# debug info uses), so the sets are compared demangled.
for obj in "${lib_objs[@]}"; do
  objdump --dwarf=info "$obj" 2> /dev/null | awk '
    function flush() { if (isfn && artificial && linkage != "") print linkage }
    /^ <[0-9a-f]+><[0-9a-f]+>: Abbrev Number/ {
      flush(); isfn = ($NF == "(DW_TAG_subprogram)"); artificial = 0; linkage = ""; next
    }
    /DW_AT_artificial/ { artificial = 1 }
    /DW_AT_linkage_name/ { linkage = $NF }
    END { flush() }'
done | c++filt | sort -u > "$work/generated"

for obj in "${lib_objs[@]}"; do
  nm "$obj" | awk '$2 == "T" || $2 == "W" { print $3 }'
done | { grep -E "$nextgov_fn" || true; } | c++filt | sort -u |
  comm -23 - "$work/generated" > "$work/defined"
c++filt < "$work/reached.mangled" | sort -u > "$work/reached"
comm -23 "$work/defined" "$work/reached" > "$work/unreached"

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
echo "$(wc -l < "$work/unreached") unreached of $(wc -l < "$work/defined") defined," \
  "$(comm -12 "$work/unreached" "$work/allowed" | wc -l) allowlisted"

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
