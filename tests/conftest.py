import sys

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def _report(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record every ``np.linalg.eigh`` / ``eigvalsh`` call as (name, code object of the caller)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, sys._getframe(1).f_code))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls
