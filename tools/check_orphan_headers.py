#!/usr/bin/env python3
"""Fail on library headers that nothing but their own unit tests include.

A header under src/ must be included by at least one file of the program:
another file under src/ (its own .cpp does not count), or a file under
bench/, examples/ or perfbench/. Tests do not count as includers, so a
capability whose only caller is its own test shows up here and can be
deleted instead of maintained.

Includes are matched by their path relative to src/ (the repo's one include
root), e.g. `#include "sched/policy.hpp"`.

Usage: check_orphan_headers.py [REPO_ROOT]   (default: this script's repo)
Exit status 1 lists every orphan header, one per line.
"""

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".cpp", ".hpp"}
INCLUDER_DIRS = ("src", "bench", "examples", "perfbench")


def includes_of(path):
    return set(INCLUDE.findall(path.read_text(encoding="utf-8", errors="replace")))


def orphan_headers(root):
    src = root / "src"
    headers = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.hpp"))
    included_by = {h: set() for h in headers}
    for top in INCLUDER_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in base.rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            for name in includes_of(path):
                if name in included_by:
                    included_by[name].add(path)
    orphans = []
    for header in headers:
        own_cpp = (src / header).with_suffix(".cpp")
        if not included_by[header] - {own_cpp}:
            orphans.append(header)
    return orphans


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    orphans = orphan_headers(root.resolve())
    if orphans:
        print("headers under src/ that no program file includes "
              "(tests do not count):")
        for header in orphans:
            print(f"  src/{header}")
        return 1
    print("check_orphan_headers: every header under src/ has a program includer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
