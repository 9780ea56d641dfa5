#!/usr/bin/env python3
"""hydra-lint: repo-specific static rules that clang-tidy cannot express.

Rules (each has a stable id used in the allowlist):

* ``unit-suffix`` — a ``double`` member or default-valued parameter whose
  name suggests a physical quantity (temperature, power, time, voltage,
  frequency, energy, rate, ...) must either carry an explicit unit
  suffix (``_celsius``, ``_watts``, ``_seconds``, ``_m``, ``_hz``, ...)
  or use a dimensional strong type from util/units.h.  Bare physical
  doubles are how unit bugs are written.
* ``no-ambient-rng`` — ``rand()``, ``srand()``, ``time(`` and
  ``std::random_device`` are banned in src/: every run must be
  reproducible from explicit util::Rng seeds.
* ``util-no-obs`` — src/util is the dependency root and must not
  include the observability layer (src/obs), which sits above it.
* ``no-naked-kelvin`` — the 273.15 (or ``+ 273``/``- 273``) Kelvin
  offset may appear only in util/units.h; everyone else converts via
  ``celsius_to_kelvin``/``kelvin_to_celsius`` or Celsius::kelvin().
* ``no-per-cycle-loop`` — looping over ``idle_cycle()`` outside the
  core itself reintroduces the O(n) idle path that
  ``Core::idle_cycles(n)`` replaced; call the bulk advance instead.
  (System keeps one reference loop for the bit-identity check — it is
  allowlisted.)
* ``no-unaligned-simd-load`` — raw vector load/store intrinsics
  (``_mm256_loadu_pd``, ``vld1q_f64``, ...) are banned in src/.  The
  thermal kernels are the scalar fixed-order pair in thermal/linalg.h
  (four fma term classes, fixed reduction tree); a hand-vectorised
  kernel anywhere forks that bit-identity contract.
* ``no-bare-catch`` — a ``catch (...)`` handler in src/ must either
  propagate the exception (``throw;``, ``std::current_exception`` into
  a promise/``rethrow_exception``) or visibly record it (an obs counter
  or failure hook).  Silently swallowing an unknown exception is how a
  fault-tolerant engine turns a bug into a wrong number.  The
  supervision layer's legitimate containment sites are allowlisted by
  file path.
* ``no-raw-mutex`` — the std lock vocabulary (``std::mutex``,
  ``std::shared_mutex``, ``std::condition_variable``,
  ``std::scoped_lock``, ``std::unique_lock``, ...) is banned in src/
  outside ``src/util/``: every mutex-owning type must use the annotated
  capability wrappers from util/sync.h (util::Mutex, util::LockGuard,
  util::CondVar, ...) so Clang Thread Safety Analysis sees the whole
  lock protocol (DESIGN.md §16).  ``std::once_flag``/``call_once`` are
  not lock types and stay legal.
* ``no-unordered-result-iteration`` — iterating a
  ``std::unordered_map``/``unordered_set`` (range-for or ``.begin()``)
  is hash-order, which varies across standard libraries and pointer
  layouts: feeding it into a RunResult, a hash key, or a serialized
  artifact is the classic silent determinism killer.  Iterate a sorted
  view, key by submission order, or allowlist the site with a written
  argument for order-invariance.

False positives are silenced in ``scripts/hydra_lint_allow.txt``, one
``<rule-id> <path>:<identifier-or-token>`` per line (``#`` comments).
Keep it short — an allowlist entry is a claim that the flagged code is
deliberate (usually a hot-path kernel documented in DESIGN.md §11).
Every entry must still match a finding: a stale entry — left behind
after the code it excused was fixed or deleted — is itself an error, so
the list can only shrink unless a new justified exception is written.

Usage:
  hydra_lint.py                 # lint src/ (and headers in tools/bench)
  hydra_lint.py --self-test     # prove each rule rejects a seeded violation
"""

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "scripts" / "hydra_lint_allow.txt"

# Names that suggest a physical quantity.  Deliberately matched on word
# fragments: `horizon`, `sample_rate`, `switch_time` all trip.
PHYSICAL_WORDS = re.compile(
    r"(temp|celsius|kelvin|watt|power_|_power|energy|joule|volt|freq|"
    r"hertz|_time|time_|duration|period|horizon|latency|_rate|rate_|"
    r"slope|thickness|width_|height_|_width|_height|side_|area|"
    r"resistance|conductance|capacitance)",
    re.IGNORECASE)

# A unit-bearing name: trailing unit suffix, a per-unit name, or a
# dimensionless ratio/fraction/scale/alpha/count.
UNIT_SUFFIX = re.compile(
    r"(_celsius|_kelvin|_c|_k|_watts|_w|_joules|_j|_seconds|_s|_us|_ms|"
    r"_ns|_hz|_ghz|_volts|_v|_m|_mm|_um|_m2|_mm2|_per_\w+|_fraction|"
    r"_ratio|_scale|_alpha|_factor|_cycles|_samples|_count|_index)_?$"
    r"|^(watts|joules|volts|hertz|seconds|celsius|kelvin)_?$")

# Strong types whose presence satisfies the unit rule on a declaration.
TYPED = re.compile(
    r"\b(util::)?(Celsius|CelsiusDelta|CelsiusPerSecond|PerCelsius|"
    r"PerCelsiusSecond|Seconds|Hertz|Watts|Joules|Volts|KelvinPerWatt|"
    r"WattsPerKelvin|JoulesPerKelvin|Quantity<)")

# `double name{...};` / `double name = ...;` members and parameters.
DOUBLE_DECL = re.compile(r"\bdouble\s+(\w+)\s*(?:=|\{|;)")

AMBIENT_RNG = re.compile(r"\b(std::)?(rand|srand)\s*\(|"
                         r"\bstd::random_device\b|[^_\w\.]time\s*\(")

KELVIN_LITERAL = re.compile(r"273\.15|[-+]\s*273(?:\.0*)?\b")

# A call to the per-cycle idle advance (idle_cycles, the bulk form, has
# an `s` and deliberately does not match).
IDLE_CYCLE_CALL = re.compile(r"\bidle_cycle\s*\(")
LOOP_HEADER = re.compile(r"\b(for|while)\s*\(")

# Raw x86/NEON vector load/store intrinsics; banned in src/, where the
# thermal kernels are scalar with a fixed operation order.
SIMD_LOAD_STORE = re.compile(
    r"\b_mm\d*_(?:loadu|load|storeu|store|stream)_\w+\s*\(|"
    r"\bvld\dq?_\w+\s*\(|\bvst\dq?_\w+\s*\(")

BARE_CATCH = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
# Tokens that make a catch-all handler acceptable: it either rethrows,
# forwards the exception object, or records the event.
CATCH_PROPAGATES = re.compile(
    r"\bthrow\b|rethrow_exception|current_exception|\bobs::|\.add\s*\(")

# The raw std lock vocabulary. Legal only inside src/util (where
# util/sync.h wraps it with capability annotations); everyone else must
# hold locks the analysis can see. once_flag/call_once are not listed:
# they are not lock types and carry no capability.
RAW_MUTEX = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock)\b")

# Unordered-container declarations; the declared name is recovered by
# balancing the template angle brackets (see unordered_names).
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
# Hash-order iteration over a known unordered name.
RANGE_FOR = re.compile(r"\bfor\s*\([^();]*?:\s*(\w+)\s*\)")
BEGIN_CALL = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")


def unordered_names(text):
    """Names declared in `text` with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL.finditer(text):
        i = m.end() - 1  # at the opening '<'
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            continue
        dm = re.match(r"\s*(\w+)", text[i + 1:])
        if dm:
            names.add(dm.group(1))
    return names


def bare_catch_findings(text, rel, allow):
    """Findings for catch (...) handlers that swallow silently."""
    findings = []
    for m in BARE_CATCH.finditer(text):
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        end = brace
        for i in range(brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        body = text[brace:end + 1]
        if CATCH_PROPAGATES.search(body):
            continue
        if ("no-bare-catch", rel) in allow:
            continue
        lineno = text.count("\n", 0, m.start()) + 1
        findings.append((
            "no-bare-catch", f"{rel}:{lineno}",
            "catch (...) swallows without rethrowing or recording; "
            "propagate, count via obs, or allowlist this containment "
            "site"))
    return findings


class Allowlist:
    """Allowlist entries plus a record of which ones actually fired.

    Quacks like the plain set the rule checks test membership against,
    but remembers every hit so stale entries — lines whose finding no
    longer exists — can be reported as errors after the run.
    """

    def __init__(self, entries):
        self.entries = set(entries)
        self.used = set()

    def __contains__(self, key):
        if key in self.entries:
            self.used.add(key)
            return True
        return False

    def stale(self):
        return self.entries - self.used


def load_allowlist(path=ALLOWLIST):
    allow = set()
    if path.exists():
        for line in path.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                rule, _, key = line.partition(" ")
                allow.add((rule, key.strip()))
    return allow


def strip_comments(text):
    """Remove // and /* */ comments and string literals, keeping line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated; bail to default
                state = None
                out.append(c)
            i += 1
            continue
        i += 1
    return "".join(out)


def lint_file(path, rel, allow):
    """Return a list of (rule, location, message) findings for one file."""
    findings = []
    raw = path.read_text(errors="replace")
    text = strip_comments(raw)
    lines = text.splitlines()
    # Include paths are string literals, which strip_comments blanks;
    # check them on the raw lines (anchored, so comments can't trip it).
    raw_lines = raw.splitlines()

    in_units_h = rel.endswith("util/units.h")
    in_util = rel.startswith("src/util/")
    in_src = rel.startswith("src/")

    if in_src:
        findings.extend(bare_catch_findings(text, rel, allow))

    # Unordered names visible to this file: its own declarations plus the
    # sibling of the header/source pair (members declared in the .h are
    # iterated from the .cc).
    iter_names = unordered_names(text)
    sibling = path.with_suffix(".h" if path.suffix == ".cc" else ".cc")
    if sibling.is_file():
        iter_names |= unordered_names(strip_comments(
            sibling.read_text(errors="replace")))

    for lineno, line in enumerate(lines, 1):
        where = f"{rel}:{lineno}"

        if in_src and not in_units_h:
            m = KELVIN_LITERAL.search(line)
            if m and ("no-naked-kelvin", rel) not in allow:
                findings.append((
                    "no-naked-kelvin", where,
                    f"Kelvin offset literal '{m.group(0).strip()}' outside "
                    "util/units.h; use celsius_to_kelvin()/.kelvin()"))

        if in_src and not rel.startswith("src/arch/core"):
            # Loop header on the same line or within the two preceding
            # lines (covers the usual brace styles without a real parse).
            if IDLE_CYCLE_CALL.search(line):
                context = lines[max(0, lineno - 3):lineno]
                if (any(LOOP_HEADER.search(l) for l in context)
                        and ("no-per-cycle-loop", rel) not in allow):
                    findings.append((
                        "no-per-cycle-loop", where,
                        "loop over idle_cycle(); use the O(1) "
                        "Core::idle_cycles(n) bulk advance"))

        if in_src:
            m = SIMD_LOAD_STORE.search(line)
            if m and ("no-unaligned-simd-load", rel) not in allow:
                findings.append((
                    "no-unaligned-simd-load", where,
                    f"raw vector intrinsic '{m.group(0).strip('( ')}' "
                    "in src/; use the fixed-order scalar kernels in "
                    "thermal/linalg.h (matvec, gather_dot)"))

        if in_src:
            m = AMBIENT_RNG.search(line)
            if m and ("no-ambient-rng", rel) not in allow:
                findings.append((
                    "no-ambient-rng", where,
                    "ambient randomness/time source; runs must be "
                    "reproducible from util::Rng seeds"))

        if in_src and not in_util:
            m = RAW_MUTEX.search(line)
            if m and ("no-raw-mutex", rel) not in allow:
                findings.append((
                    "no-raw-mutex", where,
                    f"raw '{m.group(0)}' outside src/util; use the "
                    "annotated util::Mutex/LockGuard/CondVar wrappers "
                    "from util/sync.h so thread-safety analysis sees "
                    "the lock"))

        if in_src:
            hits = {m.group(1) for m in RANGE_FOR.finditer(line)}
            hits |= {m.group(1) for m in BEGIN_CALL.finditer(line)}
            for name in sorted(hits & iter_names):
                if ("no-unordered-result-iteration", rel) in allow:
                    continue
                findings.append((
                    "no-unordered-result-iteration", where,
                    f"iterating unordered container '{name}' is "
                    "hash-order — nondeterministic across stdlibs; sort "
                    "first, key by submission order, or allowlist with "
                    "an order-invariance argument"))

        if in_util and lineno <= len(raw_lines):
            if re.match(r'\s*#\s*include\s+"obs/', raw_lines[lineno - 1]):
                findings.append((
                    "util-no-obs", where,
                    "src/util must not depend on src/obs (dependency root)"))

        if in_src and rel.endswith(".h") and not in_units_h:
            # Unit rule on header declarations only: that is where the
            # contract lives; .cc internals may unwrap to raw double.
            for m in DOUBLE_DECL.finditer(line):
                name = m.group(1)
                if not PHYSICAL_WORDS.search(name):
                    continue
                if UNIT_SUFFIX.search(name):
                    continue
                if TYPED.search(line):
                    continue
                key = f"{rel}:{name}"
                if ("unit-suffix", key) in allow:
                    continue
                findings.append((
                    "unit-suffix", where,
                    f"physical-looking double '{name}' has neither a unit "
                    "suffix nor a util:: strong type"))
    return findings


def iter_files(root):
    for sub in ("src",):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in (".h", ".cc") and path.is_file():
                yield path


def run_lint(root=REPO, allow=None):
    allow = load_allowlist() if allow is None else allow
    findings = []
    for path in iter_files(root):
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(path, rel, allow))
    return findings


SEEDED = {
    "unit-suffix": "struct Foo {\n  double sensor_temp = 0.0;\n};\n",
    "no-ambient-rng": "int f() {\n  return rand();\n}\n",
    "util-no-obs": '#include "obs/obs.h"\n',
    "no-naked-kelvin": "double f(double c) {\n  return c + 273.15;\n}\n",
    "no-per-cycle-loop":
        "void f(Core& c) {\n"
        "  for (int i = 0; i < 100; ++i) {\n"
        "    c.idle_cycle(true);\n"
        "  }\n"
        "}\n",
    "no-unaligned-simd-load":
        "void f(const double* p, double* y) {\n"
        "  __m256d v = _mm256_loadu_pd(p);\n"
        "  _mm256_storeu_pd(y, v);\n"
        "}\n",
    "no-bare-catch":
        "void f() {\n"
        "  try {\n"
        "    g();\n"
        "  } catch (...) {\n"
        "    int swallowed = 0;\n"
        "    (void)swallowed;\n"
        "  }\n"
        "}\n",
    "no-raw-mutex":
        "struct Cache {\n"
        "  std::mutex mu;\n"
        "};\n",
    "no-unordered-result-iteration":
        "void f() {\n"
        "  std::unordered_map<int, int> totals;\n"
        "  for (const auto& [k, v] : totals) {\n"
        "    use(k, v);\n"
        "  }\n"
        "}\n",
}

SEEDED_PATH = {
    "unit-suffix": "src/core/seeded.h",
    "no-ambient-rng": "src/sim/seeded.cc",
    "util-no-obs": "src/util/seeded.h",
    "no-naked-kelvin": "src/thermal/seeded.cc",
    "no-per-cycle-loop": "src/sim/seeded_loop.cc",
    "no-unaligned-simd-load": "src/power/seeded_simd.cc",
    "no-bare-catch": "src/sim/seeded_catch.cc",
    "no-raw-mutex": "src/sim/seeded_mutex.h",
    "no-unordered-result-iteration": "src/sim/seeded_unordered.cc",
}


def self_test():
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmproot = pathlib.Path(tmp)
        for rule, code in SEEDED.items():
            path = tmproot / SEEDED_PATH[rule]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code)
        findings = run_lint(tmproot, allow=set())
        caught = {rule for rule, _, _ in findings}
        for rule in SEEDED:
            status = "ok" if rule in caught else "FAIL"
            print(f"  self-test {rule}: seeded violation "
                  f"{'caught' if rule in caught else 'MISSED'} [{status}]")
            if rule not in caught:
                failures.append(rule)
        # Comments and strings must not trip any rule.
        clean = tmproot / "src" / "util" / "clean.h"
        clean.write_text('// rand() and 273.15 in a comment\n'
                         'const char* k = "std::random_device";\n'
                         '// for (;;) core.idle_cycle(true);  in a comment\n'
                         'void g(Core& c) {\n'
                         '  for (int i = 0; i < 2; ++i) '
                         'c.idle_cycles(64, true);  // bulk form is fine\n'
                         '}\n'
                         'void h() {\n'
                         '  try {\n'
                         '    g();\n'
                         '  } catch (...) {\n'
                         '    throw;  // rethrowing catch-all is fine\n'
                         '  }\n'
                         '}\n')
        extra = [f for f in run_lint(tmproot, allow=set())
                 if "clean.h" in f[1]]
        status = "ok" if not extra else "FAIL"
        print(f"  self-test comments/strings ignored [{status}]")
        if extra:
            failures.append("comment-fp")

        # Allowlist hygiene: an entry that suppresses a live finding is
        # used (not stale); an entry pointing at nothing is stale.
        allow = Allowlist({
            ("no-raw-mutex", "src/sim/seeded_mutex.h"),
            ("no-raw-mutex", "src/sim/long_gone.cc"),
        })
        findings = run_lint(tmproot, allow=allow)
        suppressed = not any(f[1].startswith("src/sim/seeded_mutex.h")
                             for f in findings)
        stale = allow.stale()
        ok = (suppressed and
              stale == {("no-raw-mutex", "src/sim/long_gone.cc")})
        status = "ok" if ok else "FAIL"
        print(f"  self-test stale-allowlist detection [{status}]")
        if not ok:
            failures.append("stale-allowlist")
    if failures:
        print(f"hydra-lint self-test FAILED: {failures}")
        return 1
    print("hydra-lint self-test passed: every rule rejects its seed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule rejects a seeded violation")
    args = ap.parse_args()
    if args.self_test:
        return self_test()

    allow = Allowlist(load_allowlist())
    findings = run_lint(allow=allow)
    if findings:
        print(f"hydra-lint: {len(findings)} finding(s)")
        for rule, where, msg in findings:
            print(f"  {where}: [{rule}] {msg}")
        print(f"(false positive? add '<rule> <path>:<name>' to "
              f"{ALLOWLIST.relative_to(REPO)})")
        return 1
    stale = sorted(allow.stale())
    if stale:
        print(f"hydra-lint: {len(stale)} stale allowlist entr"
              f"{'y' if len(stale) == 1 else 'ies'} (no matching finding)")
        for rule, key in stale:
            print(f"  {rule} {key}: remove from "
                  f"{ALLOWLIST.relative_to(REPO)} — the code it excused "
                  "is gone or fixed")
        return 1
    print("hydra-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
