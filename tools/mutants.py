"""Mutation pass: would the tests notice a wrong comparison?

Reads the mutant list ``mutants.json`` next to this script.  Each mutant
names a file under ``src/statorguard/``, an exact text that occurs in it
once, its replacement, and the test files (or test ids) to run.  For
each mutant the script copies ``src/`` into a temporary directory,
applies the replacement there, never in this checkout, and runs pytest
on the listed tests with the copy first on the import path.  A mutant is
killed when the tests fail (or cannot import the mutated package, or run
past the time limit) and survives when they pass.  A survivor whose entry
gives an ``equivalent`` reason is reported as equivalent.

    python tools/mutants.py                    # every mutant in the list
    python tools/mutants.py run-cut-pf onset-cut-dropped   # only these

First the listed tests run once on an unmutated copy, and they must pass
there.  Exit 0 when every mutant is killed or equivalent, 1 when one
survives, 2 when the list or the unmutated run is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).resolve().parent / "mutants.json"
PACKAGE = Path("src") / "statorguard"
TIMEOUT_S = 600

# pytest's exit codes that kill a mutant: a test failed, collection was
# interrupted (the mutated package does not import); and run_tests's code
# for a run past the time limit
_KILLING = (1, 2, -1)


def load() -> List[Dict[str, Any]]:
    """The mutant list, each entry checked for its fields and its text
    found exactly once in its file."""
    mutants = json.loads(LIST.read_text())
    seen = set()
    for m in mutants:
        missing = {"id", "file", "find", "replace", "tests"} - set(m)
        if missing:
            raise ValueError(f"mutant {m.get('id')!r} lacks {sorted(missing)}")
        if m["id"] in seen:
            raise ValueError(f"mutant id {m['id']!r} is listed twice")
        seen.add(m["id"])
        if m["find"] == m["replace"]:
            raise ValueError(f"mutant {m['id']!r} replaces its text with itself")
        count = (ROOT / PACKAGE / m["file"]).read_text().count(m["find"])
        if count != 1:
            raise ValueError(f"mutant {m['id']!r}: its text occurs {count} times "
                             f"in {m['file']}, not once")
    return mutants


def run_tests(src: Path, tests: Sequence[str]) -> int:
    """pytest's exit code for tests run from this checkout on the package
    in src; -1 when the run passes the time limit."""
    # hypothesis draws from a fixed seed: a mutant that only a drawn example
    # kills is then killed, or survives, in every pass of a fresh checkout
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def mutated_copy(scratch: Path, mutant: Optional[Dict[str, Any]]) -> Path:
    """A fresh copy of src/ in scratch with the mutant, if any, applied;
    its path."""
    src = scratch / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        target = scratch / PACKAGE / mutant["file"]
        target.write_text(target.read_text().replace(mutant["find"], mutant["replace"]))
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only the mutants with these ids")
    args = parser.parse_args(argv)
    try:
        mutants = load()
    except (OSError, ValueError) as exc:
        print(f"mutants.json: {exc}", file=sys.stderr)
        return 2
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        print(f"no mutant with id {sorted(unknown)}", file=sys.stderr)
        return 2
    if args.ids:
        mutants = [m for m in mutants if m["id"] in args.ids]

    tests = sorted({t for m in mutants for t in m["tests"]})
    outcome = {"killed": 0, "survived": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        scratch = Path(tmp)
        code = run_tests(mutated_copy(scratch, None), tests)
        if code != 0:
            print(f"the listed tests do not pass unmutated (pytest exit {code})",
                  file=sys.stderr)
            return 2
        for m in mutants:
            start = time.perf_counter()
            code = run_tests(mutated_copy(scratch, m), m["tests"])
            seconds = time.perf_counter() - start
            if code == 0:
                verdict = "equivalent" if m.get("equivalent") else "survived"
            elif code in _KILLING:
                verdict = "killed"
            else:
                print(f"{m['id']}: pytest could not run (exit {code})", file=sys.stderr)
                return 2
            outcome[verdict] += 1
            how = " (time limit)" if code == -1 else ""
            reason = f"  -- {m['equivalent']}" if verdict == "equivalent" else ""
            print(f"{verdict:<10} {m['id']:<34} {seconds:6.1f} s{how}{reason}", flush=True)
    print(f"{len(mutants)} mutants: {outcome['killed']} killed, "
          f"{outcome['survived']} survived, {outcome['equivalent']} equivalent")
    return 1 if outcome["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
