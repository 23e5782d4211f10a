#!/usr/bin/env python3
"""Reachability census: which ``src/`` functions does no caller enter?

Every caller runs in a scratch copy of the repository with a
``sitecustomize`` hook first on ``PYTHONPATH``.  The hook installs
``sys.setprofile`` in every interpreter that starts, so it also sees the
child processes ``benchmarks/perf/run.py`` spawns, and records each
``src/`` code object entered.  The set is diffed against an ``ast`` walk
of every ``def``.  A code object reports its first decorator's line as
``co_firstlineno``, so a decorated def is keyed by that line.

    python tools/census.py                 # the non-test callers
    python tools/census.py --tests         # ... and tier-1 as well
    python tools/census.py --check docs/architecture.md

``--check`` fails when an unentered def has no row in the document's
table.  A row's first cell names the def as `module:qualname`.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "examples", "benchmarks", "tests", "tools", "pyproject.toml")

HOOK = '''
import atexit, os, sys, threading
_seen = {}
def _profile(frame, event, arg, _seen=_seen, _env=os.environ):
    if event == "call":
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        if key not in _seen:
            _seen[key] = _env.get("PYTEST_CURRENT_TEST", "")
def _dump(src=os.environ["CENSUS_SRC"], out=os.environ["CENSUS_OUT"]):
    with open(os.path.join(out, "%d.txt" % os.getpid()), "w") as fh:
        for (name, line, func), test in _seen.items():
            if name.startswith(src):
                fh.write("%s\\t%d\\t%s\\t%s\\n"
                         % (name[len(src):], line, func, test.split(" ")[0]))
sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
'''

PY = sys.executable
PYTEST = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
PRESETS = ("read-optimized", "at-least-once", "exactly-once",
           "at-most-once", "replicated-state-machine")
CLI = [["info"], ["enumerate"], ["demo"], ["trace"], ["report"],
       ["obslint"], ["adapt"], ["trace", "exactly-once", "--flame"],
       *(["trace", "--ordering", o] for o in ("fifo", "total", "causal")),
       *(["trace", preset] for preset in PRESETS)]
BENCHES = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))
#: (argv, extra environment), run from the copy's root; each must exit 0.
CALLERS = [
    *(([PY, f"examples/{p.name}"], {})
      for p in sorted((ROOT / "examples").glob("*.py"))),
    *(([PY, "-m", "repro", *argv], {}) for argv in CLI),
    ([PY, "benchmarks/perf/run.py", "--smoke"], {}),
    (PYTEST + [f"benchmarks/{b}" for b in BENCHES if "x17" not in b], {}),
    # Full-sized x17 takes many minutes under the hook, so it runs tiny.
    (PYTEST + ["benchmarks/bench_x17_hotpath.py"], {"REPRO_BENCH_TINY": "1"}),
]
#: Tier-1 under the hook.  A wall-clock test may fail there, so its exit
#: status is not checked.
TESTS = (PYTEST + ["tests"], {})


def defs(src):
    """``(file, first line, name) -> (module:qualname, lines)`` per def."""
    found = {}
    for path in sorted(Path(src).rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[(str(rel), first, child.name)] = (
                        f"{module}:{prefix}{child.name}",
                        child.end_lineno - first + 1)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)
        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def entered(callers, root=ROOT, strict=True):
    """Run each caller in a copy of ``root``.  Returns the ``(file, line,
    name)`` key of every ``src/`` code object entered, mapped to the
    pytest id that entered it first (empty outside pytest)."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy, out, hook = (Path(tmp, name) for name in ("repo", "out", "hook"))
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, copy / name)
            elif (root / name).exists():
                shutil.copy(root / name, copy / name)
        out.mkdir()
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, PYTHONHASHSEED="0", CENSUS_OUT=str(out),
                   CENSUS_SRC=str(copy / "src") + os.sep,
                   PYTHONPATH=os.pathsep.join([str(hook), str(copy / "src")]))
        for argv, extra in callers:
            proc = subprocess.run(argv, cwd=copy, env=dict(env, **extra),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            print(f"census: exit {proc.returncode}: "
                  f"{' '.join(argv[1:])[:72]}", file=sys.stderr)
            if strict and proc.returncode:
                sys.exit(f"census: caller failed:\n{proc.stderr[-2000:]}")
        seen = {}
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                name, line, func, test = row.split("\t")
                seen.setdefault((name, int(line), func), test)
        return seen


def main(argv=None, callers=None, root=ROOT):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 and name the test that "
                             "enters each def")
    parser.add_argument("--check", metavar="DOC",
                        help="fail on an unentered def with no row in DOC")
    args = parser.parse_args(argv)
    every = defs(root / "src")
    seen = entered(CALLERS if callers is None else callers, root)
    tested = entered([TESTS], root, strict=False) if args.tests else {}
    missed = sorted((*every[key], tested.get(key, "-"))
                    for key in every.keys() - seen.keys())
    print(f"{len(missed)} of {len(every)} defs "
          f"({sum(n for _, n, _ in missed)} of "
          f"{sum(n for _, n in every.values())} lines) are entered by no "
          f"non-test caller")
    if args.tests:
        print(f"{sum(test == '-' for *_, test in missed)} of them are not "
              f"entered by tier-1 either")
    for qualname, lines, test in missed:
        print(f"  {qualname}  ({lines} lines)"
              + (f"  {test}" if args.tests else ""))
    if args.check:
        rows = set(re.findall(r"^\|\s*`([\w.]+:[\w.<>]+)`",
                              Path(args.check).read_text(), re.M))
        unlisted = [q for q, _, _ in missed if q not in rows]
        for qualname in unlisted:
            print(f"census: no row in {args.check}: {qualname}",
                  file=sys.stderr)
        for qualname in sorted(rows - {q for q, _, _ in missed}):
            print(f"census: row for an entered or deleted def: {qualname}",
                  file=sys.stderr)
        return 1 if unlisted else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
