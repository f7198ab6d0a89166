#!/usr/bin/env python3
"""Repo-convention linter for the Logic-LNCL tree (stdlib only).

Rules (each with a per-rule allowlist of path globs):

  io           printf / fprintf / puts / std::cout / std::cerr are banned
               in src/ outside the logging sink — library code must report
               through LNCL_LOG or CheckFailure, never stdout.
  alloc        raw new[] / malloc / calloc / realloc / free are banned in
               src/ — buffers belong in util::Matrix, std::vector, or the
               util::Workspace arena.
  pragma-once  every header under src/ and bench/ must open with
               #pragma once.
  assert       raw assert( is banned in src/ — use LNCL_CHECK (always on)
               or LNCL_DCHECK / LNCL_AUDIT_* (audit builds), which abort
               with file:line context in every build type instead of
               vanishing under NDEBUG.
  timing       raw clock reads (std::chrono, clock_gettime, gettimeofday)
               are banned in src/ and bench/ outside util/timer.h and the
               obs/ telemetry layer — timings must flow through
               util::Stopwatch or obs::PhaseSpan so every duration lands in
               PhaseSeconds / trace events instead of ad-hoc prints.
  intrinsics   raw SIMD intrinsics (_mm*_ calls, __m128/256/512 types,
               immintrin.h) are banned outside src/util/gemm_kernel.* —
               vector code lives behind the microkernel layer so the rest
               of the tree stays portable and the scalar/SIMD bit-equality
               contract has a single enforcement point.
  prof         perf_event_open (and its __NR_ spelling) and procfs reads
               (/proc/self, /proc/cpuinfo) are banned in src/ and bench/
               outside src/obs/ — process and host introspection lives
               behind obs::ReadSelfStatus / obs::HostFingerprint, and
               per-span CPU time and page faults behind obs::Prof, so the
               rest of the tree has no platform-specific reads.
               (bench/bench_history.cc reads only .git, not procfs.)

Rules that need structure rather than a regex live in tools/analyze/ (the
AST-grounded analyzer). The old `rng` rule moved there: the determinism
check bans entropy sources (rand/srand, std::random_device, raw std
engines) outside src/util/rng.* on the token stream, where string and
comment contexts can't fool it.

Usage:
  tools/lint.py [--root DIR]   lint the tree; exit 1 on any violation
  tools/lint.py --self-test    prove every rule fires on its fixture in
                               tools/lint_fixtures/ and stays quiet on the
                               clean ones; exit 1 on any rule that fails
"""

import argparse
import fnmatch
import os
import re
import sys


class Rule:
    def __init__(self, name, description, pattern, roots, extensions,
                 allowlist=()):
        self.name = name
        self.description = description
        self.pattern = re.compile(pattern)
        self.roots = roots
        self.extensions = extensions
        self.allowlist = allowlist

    def applies_to(self, relpath):
        if not relpath.endswith(self.extensions):
            return False
        if not any(relpath.startswith(r + os.sep) for r in self.roots):
            return False
        return not any(fnmatch.fnmatch(relpath, g) for g in self.allowlist)


HEADER_EXTS = (".h",)
CODE_EXTS = (".h", ".cc")

RULES = [
    Rule(
        name="io",
        description="direct stdout/stderr write; use LNCL_LOG",
        pattern=r"(?<!\w)(?:std::)?(?:fprintf|printf|puts)\s*\(|"
                r"std::c(?:out|err|log)\b",
        roots=("src",),
        extensions=CODE_EXTS,
        # logging.* is the sanctioned sink; check.cc writes straight to
        # stderr on purpose so invariant failures bypass the log threshold.
        allowlist=("src/util/logging.h", "src/util/logging.cc",
                   "src/util/check.cc"),
    ),
    Rule(
        name="alloc",
        description="raw allocation; use Matrix/std::vector/Workspace",
        pattern=r"\bnew\s+[A-Za-z_][\w:<>,\s]*\[|"
                r"(?<!\w)(?:std::)?(?:malloc|calloc|realloc|free)\s*\(",
        roots=("src",),
        extensions=CODE_EXTS,
    ),
    Rule(
        name="pragma-once",
        description="header missing #pragma once",
        # Whole-file rule: the check lives in lint_file(); the pattern is a
        # never-matching placeholder so the Rule machinery stays uniform.
        pattern=r"(?!x)x",
        roots=("src", "bench"),
        extensions=HEADER_EXTS,
    ),
    Rule(
        name="assert",
        description="raw assert; use LNCL_CHECK or LNCL_DCHECK",
        pattern=r"(?<![\w.])assert\s*\(",
        roots=("src",),
        extensions=CODE_EXTS,
    ),
    Rule(
        name="timing",
        description="raw clock read; use util::Stopwatch or obs::PhaseSpan",
        pattern=r"std::chrono\b|"
                r"(?<!\w)(?:clock_gettime|gettimeofday)\s*\(",
        roots=("src", "bench"),
        extensions=CODE_EXTS,
        # timer.h wraps the steady clock for everyone else; the obs/ layer
        # timestamps trace events and phase spans itself so it can stay
        # freestanding (no util dependency).
        allowlist=("src/util/timer.h", "src/obs/*"),
    ),
    Rule(
        name="intrinsics",
        description="raw SIMD intrinsic; keep vector code in "
                    "util/gemm_kernel.*",
        pattern=r"\b_mm\d*_\w+|\b__m(?:128|256|512)[a-z]*\b|"
                r"\b__mmask\d+\b|\bimmintrin\.h\b",
        roots=("src", "bench"),
        extensions=CODE_EXTS,
        allowlist=("src/util/gemm_kernel.h", "src/util/gemm_kernel.cc"),
    ),
    Rule(
        name="prof",
        description="raw perf/procfs access; use obs::Prof / "
                    "obs::ReadSelfStatus",
        # No \b before perf_event_open: it must also catch the
        # __NR_perf_event_open syscall-number spelling.
        pattern=r"perf_event_open|/proc/self|/proc/cpuinfo",
        roots=("src", "bench"),
        extensions=CODE_EXTS,
        allowlist=("src/obs/*",),
    ),
]


def iter_files(root):
    for sub in ("src", "bench"):
        top = os.path.join(root, sub)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(CODE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root)


def lint_file(root, relpath):
    """Returns a list of (relpath, line_number, rule, line_text)."""
    violations = []
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        lines = f.read().splitlines()
    for rule in RULES:
        if not rule.applies_to(relpath):
            continue
        if rule.name == "pragma-once":
            if not any(l.strip() == "#pragma once" for l in lines[:5]):
                violations.append((relpath, 1, rule, "(missing #pragma once)"))
            continue
        for i, line in enumerate(lines, start=1):
            if rule.pattern.search(line):
                violations.append((relpath, i, rule, line.strip()))
    return violations


def lint_tree(root):
    violations = []
    for relpath in iter_files(root):
        violations.extend(lint_file(root, relpath))
    return violations


def report(violations):
    for relpath, line_no, rule, text in violations:
        print(f"{relpath}:{line_no}: [{rule.name}] {rule.description}")
        print(f"    {text}")
    print(f"lint: {len(violations)} violation(s)")


def self_test(root):
    """Each bad_<rule> fixture must trip exactly its rule; clean fixtures
    must trip nothing. Fixtures live in tools/lint_fixtures/ and are checked
    as if they sat at a src/-relative path, so the rule scoping applies."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    cases = {
        "bad_io.cc": "io",
        "bad_alloc.cc": "alloc",
        "bad_pragma_once.h": "pragma-once",
        "bad_assert.cc": "assert",
        "bad_timing.cc": "timing",
        "bad_intrinsics.cc": "intrinsics",
        "bad_prof.cc": "prof",
        "good.cc": None,
        "good.h": None,
    }
    failures = 0
    for name, expected in sorted(cases.items()):
        src = os.path.join(fixture_dir, name)
        if not os.path.exists(src):
            print(f"self-test: MISSING fixture {name}")
            failures += 1
            continue
        # Present the fixture to the linter under a src/ path so scoping
        # rules see it as library code.
        staged = os.path.join("src", "lint_fixture_stage", name)
        staged_abs = os.path.join(root, staged)
        os.makedirs(os.path.dirname(staged_abs), exist_ok=True)
        try:
            with open(src, encoding="utf-8") as f:
                body = f.read()
            with open(staged_abs, "w", encoding="utf-8") as f:
                f.write(body)
            tripped = sorted({v[2].name for v in lint_file(root, staged)})
            want = [expected] if expected else []
            ok = tripped == want
            status = "ok" if ok else "FAIL"
            print(f"self-test: {name}: expected {want or 'clean'}, "
                  f"got {tripped or 'clean'} [{status}]")
            failures += 0 if ok else 1
        finally:
            os.remove(staged_abs)
            os.rmdir(os.path.dirname(staged_abs))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its fixture")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        failures = self_test(root)
        print(f"self-test: {failures} failing rule(s)")
        return 1 if failures else 0

    violations = lint_tree(root)
    if violations:
        report(violations)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
