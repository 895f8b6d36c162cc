"""Benchmark-suite fixtures.

Every figure benchmark regenerates the paper data through
``repro.experiments`` and records the emitted table under
``benchmarks/results/`` so the rows survive pytest's output capture; the
shape assertions inside each benchmark are the reproduction criteria
(EXPERIMENTS.md summarizes paper-vs-measured).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The ablations compare against the test-only oracles in tests/oracle.py.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir):
    """Write an ExperimentResult's table to results/<experiment>.txt."""

    def _record(result, name: str | None = None):
        path = results_dir / f"{name or result.experiment}.txt"
        path.write_text(result.format_table() + "\n")
        return result

    return _record


@pytest.fixture
def record_text(results_dir):
    """Write free-form benchmark output to results/<name>.txt."""

    def _record(name: str, text: str):
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record
