"""Which ``src/`` lines does the program run, and which only its tests?

usage: reach.py [--workload] [--tests] [--root DIR] [--save-tests FILE]
                [--load-tests FILE] [--save-workload FILE]
                [--load-workload FILE] [--quiet]

A stdlib ``sys.settrace`` line tracer (``coverage`` is not a dependency).

* ``--workload`` runs ``tools/diffguard.py`` over its sections (the
  program's own workloads: both SQL suites, the fuzzer, the strategies,
  ``repeat``, every figure, ``auto``, ``tpch``) under the tracer.
* ``--tests`` runs tier-1 ``tests/`` under the tracer.

For each module it prints the lines the workload never reaches, split
into *only tests reach* and *nothing reaches* when both traces are at
hand, the functions the workload never enters, and the kept entries
(user surface, oracle, typed errors, input formats, ``bench/`` entry
points, ...) with their reasons.  Kept lines are not counted as
unreached.  The last line is the totals.  A trace can be saved as JSON
and loaded again (``--tests --save-tests FILE`` alone only saves).

A trace sees a module's top-level lines (imports, ``def``, ``class``)
only if it is the first to import the module, so ``--workload --tests``
traces the tests in a child process.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SECTIONS = ("sql strategies fuzz repeat fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8"
            " fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 auto tpch").split()

# (module path under the package root, a glob, dotted name or "" for the
# whole module, reason).  A dotted name covers its nested functions too.
KEPT = (
    ("cli.py", "", "user surface: the command line"),
    ("__main__.py", "", "user surface: python -m repro"),
    ("planner/report.py", "ExecutionReport.explain_lines", "user surface: EXPLAIN renderer"),
    ("planner/report.py", "render_execution_report", "user surface: report renderer"),
    ("planner/report.py", "_table_lines", "user surface: report renderer"),
    ("planner/report.py", "ExecutionReport.plan", "user surface: EXPLAIN text"),
    ("planner/physical.py", "render_plan", "user surface: EXPLAIN renderer"),
    ("optimizer/chooser.py", "Choice.explain", "user surface: EXPLAIN renderer"),
    ("optimizer/chooser.py", "render_choice_summary", "user surface: report renderer"),
    ("common/units.py", "human_bytes", "user surface: the renderers' number format"),
    ("common/units.py", "human_seconds", "user surface: the renderers' number format"),
    ("common/units.py", "human_dollars", "user surface: the renderers' number format"),
    ("planner/database.py", "PushdownDB", "user surface: the facade's public methods"),
    ("cloud/context.py", "QueryExecution", "user surface: the execution record's public methods"),
    ("optimizer/cache.py", "SemanticCache.__len__", "user surface: len(PushdownDB.cache)"),
    ("experiments/*.py", "<lambda>", "user surface: a figure's claims, checked by `repro experiment`"),
    *(("experiments/harness.py", name, "user surface: checking and printing a figure's claims")
      for name in ("Claim.failure", "ExperimentResult.failures", "ExperimentResult.series",
                   "ExperimentResult.column", "ascending", "cost_against")),
    *((module, name, "user surface: a helper of a figure's claims")
      for module, name in (("experiments/auto_strategy.py", "_series"),
                           ("experiments/auto_strategy.py", "_unexplained_misses"),
                           ("experiments/fig11_parquet.py", "_parquet_over_csv"),
                           ("experiments/fig14_adaptive.py", "_arms"),
                           ("experiments/fig14_adaptive.py", "_over_static"))),
    ("workloads/zipf.py", "head_mass", "examples/groupby_skew.py calls it"),
    ("s3select/engine.py", "SelectResult.payload",
     "the compressed response (paper Section IX) the README documents"),
    ("optimizer/chooser.py", "choose", "documented API (README)"),
    ("optimizer/chooser.py", "run_auto", "documented API (README)"),
    ("expr/compiler.py", "", "oracle: the row compiler the vector kernels are checked against"),
    ("common/errors.py", "", "typed errors"),
    ("storage/csvcodec.py", "_scan_quoted", "input format: quoted CSV fields"),
    ("storage/parquet.py", "", "input format: Parquet"),
    ("bloom/filter.py", "BloomFilter.might_contain",
     "oracle: the pushed membership predicate is checked against it"),
    ("bloom/filter.py", "BloomFilter.build", "bench/ entry point"),
    ("bloom/filter.py", "BloomFilter.to_sql_predicate", "bench/ entry point"),
    ("bloom/universal_hash.py", "", "bench/ entry point (BloomFilter.build draws its hashes)"),
    ("storage/csvcodec.py", "encode_table", "bench/ entry point"),
    ("s3select/engine.py", "execute_select", "bench/ entry point"),
    ("optimizer/cache.py", "SemanticCache.current_bytes", "bench/ entry point"),
    ("bloom/filter.py", "membership_chunks", "a ladder rung the planner builds"),
    ("strategies/groupby.py", "HybridGroupByNode.predicted_phases",
     "strategy leaf prediction, pinned per strategy and priced by the chooser"),
    ("optimizer/feedback.py", "FeedbackStore.summary", "tests observe session isolation through it"),
)
TYPED_ERROR = "typed error"


# -- tracing ---------------------------------------------------------------

def trace(package: Path, run) -> dict[str, set[int]]:
    """Run ``run()`` under a line tracer; the lines it reached per file
    under ``package`` (absolute paths)."""
    prefix = str(package) + os.sep
    reached: dict[str, set[int]] = {}
    local_tracers = {}

    def local_for(filename):
        seen = reached.setdefault(filename, set())
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = local_tracers.get(filename)
        if tracer is None:
            if not filename.startswith(prefix):
                return None
            tracer = local_tracers[filename] = local_for(filename)
        return tracer

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def run_workload(root: Path) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        argv = sys.argv
        sys.argv = ["diffguard.py", str(root), os.path.join(scratch, "out.json"), *SECTIONS]
        try:
            runpy.run_path(str(root / "tools" / "diffguard.py"), run_name="__main__")
        finally:
            sys.argv = argv


def run_tests(root: Path) -> None:
    import pytest

    sys.path.insert(0, str(root / "src"))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        os.chdir(cwd)


def trace_tests_in_child(root: Path) -> dict[str, set[int]]:
    """The tests' trace, taken by ``reach.py --tests --save-tests`` in a
    process of its own."""
    with tempfile.TemporaryDirectory() as scratch:
        saved = os.path.join(scratch, "tests.json")
        subprocess.run([sys.executable, __file__, "--root", str(root),
                        "--tests", "--save-tests", saved], check=True)
        return _load(saved)


# -- static side -------------------------------------------------------------

class Module:
    """One source file: its executable lines, each line's innermost
    function, and which lines a kept entry or a typed error covers."""

    def __init__(self, path: Path, rel: str):
        self.path, self.rel = path, rel
        source = path.read_text()
        code = compile(source, str(path), "exec")
        self.lines: set[int] = set()
        self.owner: dict[int, str] = {}
        self.functions: dict[str, set[int]] = {}
        self._walk(code, "")
        self.kept: dict[int, str] = {}
        for pattern, name, reason in KEPT:
            if not fnmatch.fnmatch(rel, pattern):
                continue
            for line in self.lines:
                owner = self.owner.get(line, "")
                if not name or owner == name or owner.startswith(name + "."):
                    self.kept.setdefault(line, reason)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and _raises_typed_error(node.body[0]):
                # ``except ValueError: raise SQLSyntaxError(...)``
                first = node.lineno
            elif isinstance(node, ast.Raise) and _raises_typed_error(node):
                first = node.lineno
            else:
                continue
            for line in range(first, node.end_lineno + 1):
                if line in self.lines:
                    self.kept.setdefault(line, TYPED_ERROR)

    def _walk(self, code: types.CodeType, scope: str) -> None:
        # Line 0 is a module's entry instruction.
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            # The def line runs in the enclosing scope; a call starts
            # at the body.
            own.discard(code.co_firstlineno)
        for line in own:
            self.owner[line] = scope
        self.lines |= own
        if scope:
            # Same-named scopes (a module's lambdas) count as one.
            self.functions.setdefault(scope, set()).update(own)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = const.co_name
                if name.startswith("<") and name != "<lambda>":
                    name = name.strip("<>")
                self._walk(const, f"{scope}.{name}" if scope else name)


def _raises_typed_error(node: ast.stmt) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
    return name.endswith("Error")


def modules(package: Path) -> list[Module]:
    return [Module(path, path.relative_to(package).as_posix())
            for path in sorted(package.rglob("*.py"))]


# -- report ------------------------------------------------------------------

def spans(lines) -> str:
    """``1-3, 7`` for lines 1, 2, 3 and 7."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def report(mods, workload, tests, quiet=False) -> dict:
    totals = {"executable": 0, "unreached": 0, "kept": 0,
              "only_tests": 0, "nothing": 0, "functions": 0}
    for mod in mods:
        reached = workload.get(str(mod.path), set())
        by_tests = tests.get(str(mod.path), set()) if tests is not None else set()
        unreached = mod.lines - reached
        kept = {line for line in unreached if line in mod.kept}
        counted = unreached - kept
        only_tests = counted & by_tests
        nothing = counted - by_tests
        entered = {name for name, own in mod.functions.items() if own & reached}
        never = [(name, len(own)) for name, own in mod.functions.items()
                 if own and name not in entered and not own <= mod.kept.keys()
                 and (name.rpartition(".")[0] in entered or "." not in name)]
        totals["executable"] += len(mod.lines)
        totals["unreached"] += len(counted)
        totals["kept"] += len(kept)
        totals["only_tests"] += len(only_tests)
        totals["nothing"] += len(nothing)
        totals["functions"] += len(never)
        if quiet or not (counted or kept):
            continue
        print(f"{mod.rel}: {len(mod.lines)} executable, {len(counted)} unreached"
              + (f" ({len(only_tests)} only tests reach, {len(nothing)} nothing reaches)"
                 if tests is not None else "")
              + (f", {len(kept)} kept" if kept else ""))
        if tests is not None:
            if only_tests:
                print(f"  only tests reach: {spans(only_tests)}")
            if nothing:
                print(f"  nothing reaches: {spans(nothing)}")
        elif counted:
            print(f"  unreached: {spans(counted)}")
        for name, size in never:
            print(f"  never entered: {name} ({size} lines)")
        reasons: dict[str, set[int]] = {}
        for line in kept:
            reasons.setdefault(mod.kept[line], set()).add(line)
        for reason, lines in sorted(reasons.items()):
            print(f"  kept ({reason}): {spans(lines)}")
    split = (f" = {totals['only_tests']} only tests reach"
             f" + {totals['nothing']} nothing reaches" if tests is not None else "")
    print(f"TOTAL: {totals['executable']} executable lines; the workload leaves"
          f" {totals['unreached']} unreached{split}; {totals['kept']} kept;"
          f" {totals['functions']} functions never entered")
    return totals


def _load(path):
    return {name: set(lines) for name, lines in json.loads(Path(path).read_text()).items()}


def _save(path, reached):
    Path(path).write_text(json.dumps({name: sorted(lines) for name, lines in reached.items()}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="store_true", help="trace diffguard's sections")
    parser.add_argument("--tests", action="store_true", help="trace tier-1 tests/")
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout to trace")
    parser.add_argument("--save-workload", metavar="FILE")
    parser.add_argument("--load-workload", metavar="FILE")
    parser.add_argument("--save-tests", metavar="FILE")
    parser.add_argument("--load-tests", metavar="FILE")
    parser.add_argument("--quiet", action="store_true", help="print the totals only")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "repro"
    if not (args.workload or args.load_workload or (args.tests and args.save_tests)):
        parser.error("give --workload or --load-workload (or --tests --save-tests FILE)")

    tests = None
    if args.load_tests:
        tests = _load(args.load_tests)
    elif args.tests and args.workload:
        tests = trace_tests_in_child(root)
    elif args.tests:
        tests = trace(package, lambda: run_tests(root))
    if args.tests and args.save_tests:
        _save(args.save_tests, tests)
    if not (args.workload or args.load_workload):
        return 0  # only the test trace was asked for
    if args.load_workload:
        workload = _load(args.load_workload)
    else:
        workload = trace(package, lambda: run_workload(root))
        if args.save_workload:
            _save(args.save_workload, workload)
    report(modules(package), workload, tests, quiet=args.quiet)
    return 0


if __name__ == "__main__":
    sys.exit(main())
