"""Statement reach of the ``gtt`` package over a pytest run.

A pytest plugin, not a test module::

    PYTHONPATH=src:tests python -m pytest -p reach

It traces, with ``sys.settrace``, every line run in a frame whose code
lives in ``src/gtt``, re-arming the tracer before each test (a test that
unsets it, or a ``RecursionError`` inside it, loses only the rest of that
test).  At the end it prints each statement line that no test ran: every
line that some code object's ``co_lines()`` names, module bodies included.
What runs in a subprocess is not seen.  The run is several times slower
than an untraced one.
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gtt"
_PREFIX = str(PACKAGE) + "/"
_ran: dict[str, set[int]] = {}


def _line(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _ran.setdefault(name, set())
    return _line(frame, event, arg)


def _statements(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


def pytest_configure(config):
    # armed before collection imports the package, so module bodies count
    sys.settrace(_call)


def pytest_runtest_setup(item):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = _ran.get(str(path), set())
        for n in sorted(_statements(compile(source, str(path), "exec")) - ran):
            terminalreporter.write_line(f"UNREACHED {path.name}:{n}: {lines[n - 1].strip()}")
            missed += 1
    terminalreporter.write_line(f"UNREACHED total {missed}")
