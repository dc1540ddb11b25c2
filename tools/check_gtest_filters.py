#!/usr/bin/env python3
"""CI lint: fail when a --gtest_filter pattern in the workflow matches no test.

A filter pattern that names a renamed or deleted suite silently runs
nothing, so a sanitizer job can go green while covering less than it
claims. This script reads every --gtest_filter='...' in the CI workflow,
lists the tests the test binary holds (--gtest_list_tests), and exits
nonzero when any pattern, positive or negative, matches none of them.

Usage: check_gtest_filters.py [qlove_tests binary] [workflow .yml]
       (defaults: build/qlove_tests, .github/workflows/ci.yml)
"""

import re
import subprocess
import sys

FILTER_RE = re.compile(r"--gtest_filter=(['\"]?)(\S+?)\1(?=\s|$)")


def list_tests(binary):
    """Full names (Suite.Test) of every test in \\p binary."""
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    tests = []
    suite = ""
    for line in out.splitlines():
        if not line.strip():
            continue
        name = line.split("#", 1)[0].strip()
        if line.startswith(" "):
            tests.append(suite + name)
        else:
            suite = name  # keeps its trailing '.'
    return tests


def pattern_regex(pattern):
    """gtest's glob: '*' any run, '?' one character, all else literal."""
    parts = [".*" if c == "*" else "." if c == "?" else re.escape(c)
             for c in pattern]
    return re.compile("".join(parts) + r"\Z")


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "build/qlove_tests"
    workflow = sys.argv[2] if len(sys.argv) > 2 else ".github/workflows/ci.yml"
    with open(workflow) as f:
        filters = [m.group(2) for m in FILTER_RE.finditer(f.read())]
    if not filters:
        print(f"FAIL: no --gtest_filter found in {workflow}")
        return 1
    tests = list_tests(binary)
    dead = []
    for filt in filters:
        positive, _, negative = filt.partition("-")
        pos = [(p, pattern_regex(p)) for p in positive.split(":") if p]
        neg = [(p, pattern_regex(p)) for p in negative.split(":") if p]
        for pattern, regex in pos + neg:
            if not any(regex.match(t) for t in tests):
                dead.append((filt, pattern))
        selected = sum(1 for t in tests
                       if any(r.match(t) for _, r in pos)
                       and not any(r.match(t) for _, r in neg))
        print(f"{len(pos) + len(neg)} patterns select {selected} tests: "
              f"{filt}")
    for filt, pattern in dead:
        print(f"FAIL: pattern '{pattern}' matches no test (filter '{filt}')")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
