"""The reachability census (``tools/census.py``) on a fixture package.

The tool keys a def by the line ``co_firstlineno`` reports for its code
object, which for a decorated def is the first decorator's line; a
wrong key would report every decorated def as unentered.  ``--check``
is the CI gate: an unentered def without a row in the table fails it,
and so does a row naming a def that is gone.
"""

import asyncio
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

FIXTURE = '''\
import functools


def used():
    def nested():
        return 1
    return nested()


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Box:
    @property
    def size(self):
        return 3

    async def fetch(self):
        return 4


def unused():
    return 5
'''

CALLER = ("import asyncio, pkg.mod as m; m.used(); m.decorated(); "
          "m.Box().size; asyncio.run(m.Box().fetch())")


def _fixture(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    return tmp_path


def _import(root):
    spec = importlib.util.spec_from_file_location(
        "pkg.mod", root / "src" / "pkg" / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defs_are_keyed_by_the_line_the_code_object_reports(tmp_path):
    root = _fixture(tmp_path)
    found = census.defs(root / "src")
    by_name = {qualname: key for key, (qualname, _) in found.items()}
    assert set(by_name) == {
        "pkg.mod:used", "pkg.mod:used.<locals>.nested",
        "pkg.mod:decorated", "pkg.mod:Box.size", "pkg.mod:Box.fetch",
        "pkg.mod:unused"}
    module = _import(root)
    codes = {
        "pkg.mod:decorated": module.decorated.__wrapped__.__code__,
        "pkg.mod:Box.size": module.Box.size.fget.__code__,
        "pkg.mod:Box.fetch": module.Box.fetch.__code__,
        "pkg.mod:unused": module.unused.__code__,
    }
    for qualname, code in codes.items():
        assert by_name[qualname] == (
            "pkg/mod.py", code.co_firstlineno, code.co_name), qualname
    # The decorator's line, not the def's.
    assert by_name["pkg.mod:decorated"][1] == FIXTURE.splitlines().index(
        "@functools.lru_cache(maxsize=None)") + 1
    assert asyncio.iscoroutinefunction(module.Box.fetch)


def test_check_fails_on_an_unlisted_unentered_def(tmp_path, capsys):
    root = _fixture(tmp_path)
    doc = tmp_path / "architecture.md"
    callers = [([sys.executable, "-c", CALLER], {})]
    doc.write_text("| def | class | caller |\n|---|---|---|\n")
    assert census.main(["--check", str(doc)], callers, root) == 1
    report = capsys.readouterr()
    assert "1 of 6 defs" in report.out
    assert "no row in" in report.err and "pkg.mod:unused" in report.err
    doc.write_text(doc.read_text()
                   + "| `pkg.mod:unused` | api | none |\n")
    assert census.main(["--check", str(doc)], callers, root) == 0


def test_check_fails_on_a_row_naming_a_deleted_def(tmp_path, capsys):
    root = _fixture(tmp_path)
    doc = tmp_path / "architecture.md"
    callers = [([sys.executable, "-c", CALLER], {})]
    doc.write_text("| def | class | caller |\n|---|---|---|\n"
                   "| `pkg.mod:unused` | api | none |\n"
                   "| `pkg.mod:Box.gone` | api | none |\n")
    assert census.main(["--check", str(doc)], callers, root) == 1
    report = capsys.readouterr()
    assert "row for a deleted def: pkg.mod:Box.gone" in report.err
    # A row for a def some caller enters is stale too, but not an error.
    doc.write_text(doc.read_text().replace("Box.gone", "used"))
    assert census.main(["--check", str(doc)], callers, root) == 0
    assert "row for an entered def: pkg.mod:used" in capsys.readouterr().err


def test_a_failing_caller_shows_what_it_printed(tmp_path):
    """A caller that fails ends the census with the tail of its output:
    pytest reports failures on stdout, so stdout must be in it."""
    root = _fixture(tmp_path)
    callers = [([sys.executable, "-c",
                 "print('census-marker: 1 failed'); raise SystemExit(1)"],
                {})]
    with pytest.raises(SystemExit) as failed:
        census.entered(callers, root)
    assert "census-marker: 1 failed" in str(failed.value)
