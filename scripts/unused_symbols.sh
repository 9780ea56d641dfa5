#!/usr/bin/env bash
# Linker audit: fail on any out-of-line hydra:: function defined in the
# src/ libraries that no production binary links.
#
# Builds a side tree at -O0 -fno-inline -ffunction-sections and links
# with -Wl,--gc-sections, so every function a binary cannot reach from
# main (or a static initialiser, or a live vtable) is dropped. The
# binaries are every tools/, bench/ and examples/ target plus the
# perfbench driver (perfbench/CMakeLists.txt, configured as its own
# project). Tests are not production: a function only a test calls is
# reported like one nothing calls.
#
# "Defined" means a global or file-local text symbol (nm type T or t)
# in a src/ library archive. Header-inline functions and template
# instantiations are weak or never emitted out of line, so they are
# out of this audit's reach; so is an unreached virtual override whose
# vtable is live.
#
# A symbol that only tests reach may stay when scripts/unused_symbols_allow.txt
# lists it, one `<name>  # <reason>` per line. <name> is either the full
# demangled symbol as nm -C prints it, or the same without its parameter
# list (matching every overload). An entry that matches no unreached
# symbol is stale and also fails the audit, so the list only shrinks.
#
# Usage: scripts/unused_symbols.sh [side-build-dir]  (default build-unused-symbols)
#        scripts/unused_symbols.sh --self-test        (fixture check of the rules)
#        scripts/unused_symbols.sh --help             (this text)
# Needs cmake, ninja and binutils' nm.
set -euo pipefail

cd "$(dirname "$0")/.."
ALLOWLIST=scripts/unused_symbols_allow.txt

# nm -C output on stdin -> sorted hydra:: text symbols of the given
# types (a bracket expression such as Tt).
text_symbols() {
  awk -v types="$1" '
    NF >= 3 && index(types, $2) {
      name = $0
      sub(/^[^ ]* [^ ] /, "", name)
      if (name ~ /^hydra::/) print name
    }' | LC_ALL=C sort -u
}

# audit <defined> <reached> <allowlist>: print every defined symbol not
# reached and not allowlisted, every stale or reasonless allowlist
# entry; return 1 if there is any.
audit() {
  LC_ALL=C comm -23 "$1" "$2" | awk -v allow="$3" '
    # The symbol minus trailing qualifiers and its last balanced
    # parenthesised group: the parameter list.
    function base(s,    i, depth, c) {
      sub(/( const| volatile| &&| &)+$/, "", s)
      if (substr(s, length(s), 1) != ")") return s
      depth = 0
      for (i = length(s); i > 0; --i) {
        c = substr(s, i, 1)
        if (c == ")") ++depth
        else if (c == "(" && --depth == 0) return substr(s, 1, i - 1)
      }
      return s
    }
    BEGIN {
      bad = 0
      while ((getline line < allow) > 0) {
        ++lineno
        if (line ~ /^[ \t]*(#|$)/) continue
        split_at = index(line, " #")
        name = split_at ? substr(line, 1, split_at - 1) : line
        reason = split_at ? substr(line, split_at + 2) : ""
        sub(/[ \t]+$/, "", name)
        gsub(/^[ \t]+|[ \t]+$/, "", reason)
        if (reason == "") {
          printf "%s:%d: allowlist entry without a reason: %s\n", allow, lineno, name
          bad = 1
        }
        entries[name] = lineno
        used[name] = 0
      }
    }
    {
      if ($0 in entries) { used[$0] = 1; next }
      b = base($0)
      if (b in entries) { used[b] = 1; next }
      printf "unreached: %s\n", $0
      bad = 1
    }
    END {
      for (name in entries) {
        if (!used[name]) {
          printf "%s:%d: stale allowlist entry (nothing unreached matches): %s\n", allow, entries[name], name
          bad = 1
        }
      }
      exit bad
    }'
}

self_test() {
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  local failures=0

  # nm parsing: only hydra:: symbols of the requested types survive.
  cat >"$tmp/nm.txt" <<'EOF'
0000000000000010 T hydra::arch::Core::cycle()
0000000000000020 t hydra::util::(anonymous namespace)::helper(int)
0000000000000030 W hydra::util::Config::get_string(std::string_view) const
                 U hydra::util::Rng::next()
0000000000000040 T main
0000000000000050 D hydra::obs::g_enabled
EOF
  local got want
  got=$(text_symbols Tt <"$tmp/nm.txt" | tr '\n' '|')
  want='hydra::arch::Core::cycle()|hydra::util::(anonymous namespace)::helper(int)|'
  if [ "$got" = "$want" ]; then
    echo "  self-test nm parsing [ok]"
  else
    echo "  self-test nm parsing [FAIL] got '$got'"
    failures=$((failures + 1))
  fi

  printf '%s\n' \
    'hydra::arch::Core::cycle()' \
    'hydra::arch::Core::rob_at_seq(unsigned long)' \
    'hydra::arch::Core::rob_at_seq(unsigned long) const' \
    'hydra::obs::Tracer::clear()' \
    'hydra::sim::Runner::operator()(int) const' | LC_ALL=C sort >"$tmp/defined.txt"
  printf '%s\n' 'hydra::arch::Core::cycle()' >"$tmp/reached.txt"

  # expect <case> <want-status> <pattern-or-empty> <allowlist lines...>
  expect() {
    local name=$1 want_status=$2 pattern=$3
    shift 3
    printf '%s\n' "$@" >"$tmp/allow.txt"
    local out status=0
    out=$(audit "$tmp/defined.txt" "$tmp/reached.txt" "$tmp/allow.txt") ||
      status=$?
    if [ "$status" -eq "$want_status" ] &&
       { [ -z "$pattern" ] || printf '%s\n' "$out" | grep -qF -- "$pattern"; }; then
      echo "  self-test $name [ok]"
    else
      echo "  self-test $name [FAIL] status $status, output:"
      printf '%s\n' "$out" | sed 's/^/    /'
      failures=$((failures + 1))
    fi
  }

  local keep_all=(
    '# comment lines and blanks are ignored'
    ''
    'hydra::arch::Core::rob_at_seq  # both overloads by base name'
    'hydra::obs::Tracer::clear()  # exact symbol'
    'hydra::sim::Runner::operator()  # operator() base name'
  )
  expect "all unreached allowlisted" 0 "" "${keep_all[@]}"
  expect "unreached symbol fails" 1 \
    'unreached: hydra::arch::Core::rob_at_seq(unsigned long) const' \
    "${keep_all[@]:0:1}" "${keep_all[@]:3}"
  expect "stale entry fails" 1 'stale allowlist entry' \
    "${keep_all[@]}" 'hydra::arch::Core::cycle  # reached, so stale'
  expect "reasonless entry fails" 1 'without a reason' \
    "${keep_all[@]:0:3}" 'hydra::obs::Tracer::clear()' "${keep_all[@]:4}"

  if [ "$failures" -ne 0 ]; then
    echo "unused_symbols self-test: $failures case(s) failed"
    return 1
  fi
  echo "unused_symbols self-test: all cases passed"
}

case "${1:-}" in
  --self-test)
    self_test
    exit
    ;;
  -h | --help)
    # The header comment above `set -euo pipefail` is the usage text.
    awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0"
    exit
    ;;
esac

BUILD_DIR="${1:-build-unused-symbols}"
FLAGS="-O0 -fno-inline -ffunction-sections"
configure() {
  cmake -S "$1" -B "$2" -G Ninja -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

echo "== unused_symbols: building $BUILD_DIR =="
configure . "$BUILD_DIR"
cmake --build "$BUILD_DIR" -j "$(nproc)" -- tools/all bench/all examples/all
configure perfbench "$BUILD_DIR/perfbench"
cmake --build "$BUILD_DIR/perfbench" -j "$(nproc)" --target perfbench

binaries=$(find "$BUILD_DIR/tools" "$BUILD_DIR/bench" "$BUILD_DIR/examples" \
  -maxdepth 1 -type f -perm -u+x)
binaries="$binaries $BUILD_DIR/perfbench/perfbench"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
nm -C --defined-only "$BUILD_DIR"/src/*.a 2>/dev/null | text_symbols Tt \
  >"$work/defined.txt"
# shellcheck disable=SC2086
for bin in $binaries; do nm -C --defined-only "$bin"; done |
  text_symbols TtWw >"$work/reached.txt"

echo "== unused_symbols: $(wc -l <"$work/defined.txt") out-of-line functions," \
  "$(echo "$binaries" | wc -w) binaries =="
if audit "$work/defined.txt" "$work/reached.txt" "$ALLOWLIST"; then
  echo "unused_symbols: clean"
else
  echo "unused_symbols: delete the unreached functions above, or list them" \
    "in $ALLOWLIST with the reason a test needs them"
  exit 1
fi
