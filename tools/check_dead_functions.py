#!/usr/bin/env python3
"""Fail on library functions that no program binary links.

The header check (check_orphan_headers.py) cannot see a dead function
inside a header that programs do include. This check works at link level:
it builds every bench and example target, and the perfbench driver, at -O0
with -ffunction-sections and links them with -Wl,--gc-sections, so a
function survives in a binary only if something the program runs can
reach it. It then lists every `pcap::` function that a `libpcap_*.a`
defines (`nm -C`) but no program binary contains. Names are matched
without their parameter list, so one live overload keeps its siblings.

Tests do not count as programs: a function only a test calls is a
capability nothing uses, to be deleted rather than carried. The few kept
on purpose (test getters, reference implementations, test fixtures) are
listed in tools/dead_functions_allow.txt, one per line as
`name  # reason`; a name ending in `::` allows every function in that
scope. An allow entry that no longer names a dead function is an error
too, so the list stays exact.

Usage: check_dead_functions.py [--build-dir DIR] [--no-build] [--jobs N]
                               [REPO_ROOT]
  REPO_ROOT defaults to this script's repo; DIR to REPO_ROOT/build-deadfn.
  --no-build reuses the trees already in DIR.
Exit status 1 lists every unallowed dead function, one per line.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
TEXT_TYPES = set("TtWw")
NM_LINE = re.compile(r"^[0-9a-fA-F]+ (\S) (.+)$")
CLONE = re.compile(r" \[clone [^\]]*\]$")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
ALLOW_FILE = Path("tools") / "dead_functions_allow.txt"


def run(cmd):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def program_targets(root):
    """Every bench and example is one executable named after its source:
    (directory, target) pairs."""
    return [(top, p.stem) for top in ("bench", "examples")
            for p in sorted((root / top).glob("*.cpp"))]


def build(root, build_dir, jobs):
    main = build_dir / "main"
    perf = build_dir / "perfbench"
    run(["cmake", "-S", str(root), "-B", str(main), *FLAGS])
    run(["cmake", "--build", str(main), "-j", str(jobs), "--target",
         *(name for _, name in program_targets(root))])
    run(["cmake", "-S", str(root / "perfbench"), "-B", str(perf), *FLAGS])
    run(["cmake", "--build", str(perf), "-j", str(jobs), "--target",
         "perfbench_driver"])


def strip_params(name):
    """`ns::f(int) const` -> `ns::f`; template return types are dropped."""
    name = CLONE.sub("", name)
    close = name.rfind(")")
    if close < 0:
        return name
    depth = 0
    for i in range(close, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                name = name[:i]
                break
    # A function template's demangled name starts with its return type:
    # keep what follows the last space outside <>, () and {}.
    depth, start = 0, 0
    for i, ch in enumerate(name):
        if ch in "<({":
            depth += 1
        elif ch in ">)}":
            depth = max(0, depth - 1)
        elif ch == " " and depth == 0:
            start = i + 1
    return ABI_TAG.sub("", name[start:])


def functions_in(path):
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and m.group(1) in TEXT_TYPES:
            name = strip_params(m.group(2))
            if name.startswith("pcap::"):
                names.add(name)
    return names


def read_allow(root):
    allow = {}
    path = root / ALLOW_FILE
    if not path.is_file():
        return allow
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOW_FILE}: entry without a reason: {line!r}")
        allow[name.strip()] = reason.strip()
    return allow


def allowed_by(name, allow):
    for entry in allow:
        if name == entry or (entry.endswith("::") and name.startswith(entry)):
            return entry
    return None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--build-dir")
    parser.add_argument("--no-build", action="store_true")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args(argv[1:])
    root = Path(args.root).resolve()
    build_dir = Path(args.build_dir or root / "build-deadfn").resolve()
    if not args.no_build:
        build(root, build_dir, args.jobs)

    libraries = sorted((build_dir / "main" / "src").rglob("libpcap_*.a"))
    programs = [build_dir / "main" / top / name
                for top, name in program_targets(root)]
    programs.append(build_dir / "perfbench" / "perfbench_driver")
    missing = [str(p) for p in programs if not p.is_file()]
    if not libraries or missing:
        print(f"check_dead_functions: no libraries or missing programs under "
              f"{build_dir}: {' '.join(missing)}", file=sys.stderr)
        return 2

    defined = set().union(*(functions_in(p) for p in libraries))
    linked = set().union(*(functions_in(p) for p in programs))
    allow = read_allow(root)
    dead, used_entries = [], set()
    for name in sorted(defined - linked):
        entry = allowed_by(name, allow)
        if entry is None:
            dead.append(name)
        else:
            used_entries.add(entry)
    stale = sorted(set(allow) - used_entries)

    if dead:
        print("pcap:: functions a library defines but no program binary "
              "links (tests do not count):")
        for name in dead:
            print(f"  {name}")
    if stale:
        print(f"{ALLOW_FILE} entries that name no dead function:")
        for name in stale:
            print(f"  {name}")
    if dead or stale:
        return 1
    print(f"check_dead_functions: every pcap:: function of {len(libraries)} "
          f"libraries is linked by one of {len(programs)} programs or "
          f"allowed ({len(used_entries)} allow entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
