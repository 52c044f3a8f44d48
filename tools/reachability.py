"""Which code of src/xrlayout the run path and the acceptance gate never reach.

Run from the repository root:

    python tools/reachability.py

In one process, under sys.settrace, it runs:

  * `xrlayout run --all --gaze` under the fixtures' own strategies and under
    each of the five --strategy overrides, in json and in csv, and once more
    in json and csv with --tick-hz 20;
  * `xrlayout compare` of the fixture-strategy results with themselves;
  * `xrlayout validate` on every bundled and every invalid fixture;
  * the four demos (runpy);
  * pytest on tests/test_acceptance.py.

Then it prints, sorted by file and line, every code object of src/xrlayout
that was never entered, and every entered code object with the lines it
never ran, and how long the pass took; and the line counts of src/xrlayout
(line_counts): the reachability pass a structural change reports, as one
command.

    python tools/reachability.py --check

runs the same pass and gates on it: it exits 1 when the never-entered code
objects, by file and co_qualname (a name may repeat, for lambdas and
comprehensions), differ from those listed in tools/reachability_allow.txt,
or when an entry there gives no reason after a '#'.  So code that nothing
reaches cannot come in unlisted or unexplained, and an entry whose code is
now reached, or gone, must leave the list.  The list is that of
CPython 3.11: co_qualname needs 3.11, and 3.12 inlines comprehensions, so
their code objects vanish there.

The tracer slows the run several times over, so the acceptance gate's
time budgets may fail under it (criterion 1's 10 s budget usually does,
and its step exits 1).  Those assertions come after the criteria's loops,
so what ran is counted all the same; --check gates on the lists, never on
the steps' exit codes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import time
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "xrlayout"
ALLOW = ROOT / "tools" / "reachability_allow.txt"
STRATEGY_FLAGS = ("env-ref", "body-fixed", "world-fixed", "object-fixed", "head-fixed")


def code_objects(path: Path) -> list:
    """Every code object compiled from path: the module's and all it nests."""
    found, todo = [], [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        found.append(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return found


_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def line_counts(paths) -> tuple[int, int, int]:
    """(all lines, code lines, docstring lines) of the files.

    A docstring line is one in the span of a module, class or function
    docstring (by ast).  A code line holds a token other than a comment or
    whitespace (by tokenize) and is no docstring line.
    """
    total = code = docs = 0
    for path in paths:
        text = path.read_text(encoding="utf-8")
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        lines = {
            n
            for tok in tokens
            if tok.type not in _LAYOUT_TOKENS
            for n in range(tok.start[0], tok.end[0] + 1)
        }
        doc_lines = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    doc_lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(text.splitlines())
        code += len(lines - doc_lines)
        docs += len(doc_lines)
    return total, code, docs


def key(code) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def code_lines(code) -> set[int]:
    """The lines code's own instructions start (nested code objects excluded)."""
    return {line for _, _, line in code.co_lines() if line is not None and line > 0}


class Tracer:
    """Records which of the code objects in want run, and their lines."""

    def __init__(self, want: dict[tuple, set[int]]):
        self.want = want  # key -> lines not yet seen
        self.entered: set[tuple] = set()
        self.left: dict = {}  # code object -> its lines not yet seen, None if not wanted

    def call(self, frame, event, arg):
        code = frame.f_code
        try:
            left = self.left[code]
        except KeyError:
            k = key(code)
            left = self.left[code] = self.want.get(k)
            if left is not None:
                self.entered.add(k)
        if not left:  # not wanted, or every line already seen: no line events needed
            return None
        left.discard(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return line

        return line


def workload(out: Path) -> list[tuple[str, object]]:
    """The runs the pass traces (see the module docstring); (step, exit code) of each."""
    import pytest

    from xrlayout.cli import main

    steps = []

    def step(label: str, run) -> None:
        steps.append((label, run()))

    for name, extra in [("", ()), *((s, ("--strategy", s)) for s in STRATEGY_FLAGS)]:
        for fmt in ("json", "csv"):
            argv = ["run", "--all", "--format", fmt, "--gaze", *extra]
            step(" ".join(argv), lambda: main([*argv, "--out", str(out / fmt / name)]))
    for fmt in ("json", "csv"):
        argv = ["run", "--all", "--format", fmt, "--gaze", "--tick-hz", "20"]
        step(" ".join(argv), lambda: main([*argv, "--out", str(out / fmt / "20hz")]))
    results = str(out / "json" / "results.json")
    step("compare results.json results.json", lambda: main(["compare", results, results]))
    fixtures = PACKAGE / "fixtures"
    for scn in [*sorted(fixtures.glob("*.scn")), *sorted((fixtures / "invalid").glob("*.scn"))]:
        step(f"validate {scn.relative_to(fixtures)}", lambda: main(["validate", str(scn)]))
    def run_demo(path: Path) -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0

    for demo in sorted((ROOT / "demos").glob("*.py")):
        step(demo.name, lambda: run_demo(demo))
    test = ROOT / "tests" / "test_acceptance.py"
    step(f"pytest {test.name}", lambda: int(pytest.main(["-q", "-p", "no:cacheprovider", str(test)])))
    return steps


def allowed(path: Path) -> tuple[Counter, list[str]]:
    """The listed (file, co_qualname) pairs, and the entries without a reason.

    '#' starts a comment; on an entry's line, its reason.
    """
    listed, bare = Counter(), []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            file, qualname = entry.split()
            listed[file, qualname] += 1
            if not reason.strip():
                bare.append(entry.strip())
    return listed, bare


def check(unreached: Counter, listed: Counter, bare: list[str]) -> int:
    """0 when the never-entered code objects are exactly those listed, each with a reason."""
    new, gone = unreached - listed, listed - unreached
    if bare:
        print(f"listed without a reason ({ALLOW.relative_to(ROOT)}):")
        for entry in bare:
            print(f"  {entry}")
    for title, diff in [("never entered, not listed", new), ("listed, but entered or gone", gone)]:
        if diff:
            print(f"{title} ({ALLOW.relative_to(ROOT)}):")
            for (file, qualname), n in sorted(diff.items()):
                print(f"  {file} {qualname}" + (f" (x{n})" if n > 1 else ""))
    failed = bool(new or gone or bare)
    print(f"check: {'fail' if failed else 'ok'}, {sum(listed.values())} listed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help=f"gate on {ALLOW.name}")
    args = parser.parse_args(argv)
    if args.check and sys.version_info < (3, 11):
        print("--check needs Python 3.11 or later (co_qualname)")
        return 2
    codes = [c for path in sorted(PACKAGE.glob("*.py")) for c in code_objects(path)]
    want = {key(c): code_lines(c) for c in codes}
    all_lines = {k: set(v) for k, v in want.items()}
    tracer = Tracer(want)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(tracer.call)
        try:
            steps = workload(Path(tmp))
        finally:
            sys.settrace(None)
    elapsed = time.perf_counter() - start
    print(f"{len(steps)} steps traced in {elapsed:.1f} s; exit codes:")
    for label, code in steps:
        print(f"  {code} {label}")

    def where(k: tuple) -> str:
        return f"{os.path.relpath(k[0], ROOT)}:{k[1]} {k[2]}"

    unreached = sorted(k for k in want if k not in tracer.entered)
    print(f"{len(unreached)} of {len(want)} code objects never entered:")
    for k in unreached:
        print(f"  {where(k)}")
    partial = sorted(k for k in tracer.entered & want.keys() if want[k])
    print(f"{len(partial)} entered code objects with lines never run:")
    for k in partial:
        lines = sorted(want[k])
        print(f"  {where(k)}: {len(lines)} of {len(all_lines[k])} lines never run: {lines}")
    total, code, docs = line_counts(sorted(PACKAGE.glob("*.py")))
    print(f"src/xrlayout: {total:,} lines, {code:,} code lines, {docs:,} docstring lines")
    if not args.check:
        return 0
    qualnames = {key(c): c.co_qualname for c in codes}
    unreached_names = Counter((os.path.relpath(k[0], ROOT), qualnames[k]) for k in unreached)
    return check(unreached_names, *allowed(ALLOW))


if __name__ == "__main__":
    sys.exit(main())
