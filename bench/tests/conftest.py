"""Make ``bench`` and the simulator sources importable for the benchmark tests."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def measured():
    """An untraced and a traced pass of a scaled-down fig5 point, in-process."""
    from bench.child import measure

    return (
        measure("fig5-alpu256-q256", 1, "pass", length=400),
        measure("fig5-alpu256-q256", 1, "traced", length=400),
    )
