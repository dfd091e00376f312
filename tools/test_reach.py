"""Smoke test of ``tools/reach.py`` on a fixture checkout.

A "workload" calls part of a module, a "test run" calls a little more;
the report must split the rest into *only tests reach* and *nothing
reaches*, name the functions the workload never enters, and count a
typed error's ``raise`` as kept, not unreached.  The fixture checkout
is laid out as the tool expects one: ``src/repro/``, a
``tools/diffguard.py`` for the workload and a ``tests/`` directory.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import subprocess
import sys
from pathlib import Path

import reach

FIXTURE = '''\
"""A fixture module."""


class Box:
    def __init__(self, v):
        self.v = v

    def double(self):
        return self.v * 2

    def half(self):
        return self.v / 2


def branch(x):
    if x:
        return 1
    raise ValueError("x must be true")


def multi(x):
    return (x +
            1)


def never(a):
    c = a + 1
    return c
'''


# The fixture's workload and tests, as ``reach.py --workload --tests``
# runs them: diffguard gets the checkout as its first argument, the
# tests find ``src/`` on the path.
DIFFGUARD = '''\
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from repro import mod
mod.Box(4).double()
mod.branch(1)
mod.multi(1)
'''

TESTS = '''\
from repro import mod


def test_half():
    assert mod.Box(4).half() == 2
'''


def _package(tmp_path: Path) -> Path:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    return package.resolve()


def _mod(package: Path):
    """A fresh import of the fixture module, so each trace sees its
    top-level lines too."""
    spec = importlib.util.spec_from_file_location("reach_fixture_mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _line(text: str) -> int:
    return FIXTURE.splitlines().index(text) + 1


def test_workload_and_tests_split_the_unreached_lines(tmp_path, capsys):
    package = _package(tmp_path)

    def workload():
        mod = _mod(package)
        mod.Box(4).double()
        mod.branch(1)
        mod.multi(1)

    reached = reach.trace(package, workload)
    by_tests = reach.trace(package, lambda: _mod(package).Box(4).half())
    path = str(package / "mod.py")
    assert _line("        return self.v * 2") in reached[path]
    assert _line("            1)") in reached[path]

    totals = reach.report(reach.modules(package), reached, by_tests)
    out = capsys.readouterr().out
    half, never = _line("        return self.v / 2"), _line("    c = a + 1")
    raised = _line('    raise ValueError("x must be true")')
    assert f"only tests reach: {half}\n" in out
    assert f"nothing reaches: {never}-{never + 1}\n" in out
    assert "never entered: Box.half (1 lines)" in out
    assert "never entered: never (2 lines)" in out
    assert f"kept (typed error): {raised}\n" in out
    assert (totals["unreached"], totals["only_tests"], totals["nothing"],
            totals["kept"], totals["functions"]) == (3, 1, 2, 1, 2)
    assert out.rstrip().splitlines()[-1].startswith("TOTAL: ")


def test_saved_traces_load_back_on_the_command_line(tmp_path):
    package = _package(tmp_path)
    reached = reach.trace(package, lambda: _mod(package).Box(1).double())
    saved = tmp_path / "workload.json"
    reach._save(saved, reached)
    done = subprocess.run(
        [sys.executable, str(Path(reach.__file__)), "--root", str(tmp_path),
         "--load-workload", str(saved), "--quiet"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("TOTAL: ")
    # Box.half, branch, multi and never: 1 + 2 + 2 + 2 lines (the raise is kept).
    assert "the workload leaves 7 unreached; 1 kept; 4 functions never entered" in done.stdout
    assert len(done.stdout.splitlines()) == 1


def test_workload_and_tests_traced_in_one_call(tmp_path):
    """``--workload --tests`` in one call: the module's top-level lines
    count as reached by the workload, not as reached only by tests."""
    _package(tmp_path)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "diffguard.py").write_text(DIFFGUARD)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fixture.py").write_text(TESTS)
    done = subprocess.run(
        [sys.executable, str(Path(reach.__file__)), "--root", str(tmp_path),
         "--workload", "--tests"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    half, never = _line("        return self.v / 2"), _line("    c = a + 1")
    assert f"  only tests reach: {half}\n" in done.stdout
    assert f"  nothing reaches: {never}-{never + 1}\n" in done.stdout
    assert done.stdout.rstrip().splitlines()[-1] == (
        "TOTAL: 18 executable lines; the workload leaves 3 unreached"
        " = 1 only tests reach + 2 nothing reaches; 1 kept; 2 functions never entered"
    )


def test_every_kept_entry_names_code_that_exists():
    """A kept entry whose module or function was renamed or deleted
    would silently keep nothing."""
    mods = reach.modules(reach.ROOT / "src" / "repro")
    stale = [
        (pattern, name) for pattern, name, _ in reach.KEPT
        if not any(
            fnmatch.fnmatch(mod.rel, pattern)
            and (not name or any(owner == name or owner.startswith(name + ".")
                                 for owner in mod.owner.values()))
            for mod in mods
        )
    ]
    assert stale == []
