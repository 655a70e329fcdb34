"""List the lines of ``src/usc`` that the tier-1 suite never runs.

Runs the suite in this process under the standard library's ``trace``
module, tracing only the files of ``src/usc``, then prints each executable
line of ``src/usc/*.py`` that never ran, as ``path:line: source``. Exits 0
when the only such line is ``cli.py``'s ``sys.exit(main())``, which runs
only when the module is a script, and 1 otherwise or when pytest reports a
failure.

Run from the repository root (pytest does not collect this file):

    python3 tests/uncovered_lines.py [pytest arguments]

Arguments go to pytest; with none it runs all of ``tests``. Tracing slows
the suite several-fold, so Hypothesis deadlines are off for the run.
"""

import dis
import functools
import os
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "usc"

#: The one line the suite cannot run in its own process.
EXPECTED = [("cli.py", "sys.exit(main())")]


def executable_lines(path: Path) -> set:
    """Numbers of the lines that start a run of bytecode in the module or
    in any code object nested in it."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class _OutsidePackage:
    """``trace``'s ignore test: every file outside ``src/usc``. Its default
    test caches a verdict per module base name, so ``usc/io.py`` would
    share the one on the standard library's ``io``."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def names(filename, modulename):
        return os.path.dirname(os.path.realpath(filename)) != str(PACKAGE)


class _NoDeadlines:
    """A pytest plugin that turns Hypothesis deadlines off."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


def main(args) -> int:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    status = tracer.runfunc(
        pytest.main, ["-q", "-p", "no:cacheprovider",
                      *(args or [str(ROOT / "tests")])], plugins=[_NoDeadlines()])
    ran = {(Path(name).resolve(), line) for name, line in tracer.results().counts}
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (path.resolve(), line) not in ran:
                missed.append((path.name, source[line - 1].strip()))
                print(f"{path.relative_to(ROOT)}:{line}: {missed[-1][1]}")
    print(f"{len(missed)} executable line(s) of src/usc never ran; "
          f"pytest exit status {int(status)}")
    return 0 if missed == EXPECTED and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
