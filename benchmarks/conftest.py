"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The formatted
tables are collected in ``REPORTS`` and printed in the terminal summary (so
they appear even with output capture enabled) as well as written to
``artifacts/results/``.
"""

from __future__ import annotations

import pytest

from repro import knobs
from repro.experiments import Harness, artifacts_dir, get_profile
from repro.pipeline import ExecutionConfig

REPORTS: list[tuple[str, str]] = []


def pytest_addoption(parser):
    """Shared ``--num-workers`` / ``--compile`` flags for every ``bench_*.py``.

    ``--num-workers`` defaults to the ``REPRO_NUM_WORKERS`` environment
    variable (then 0 = serial); ``--compile`` defaults to the mirror-image
    ``REPRO_COMPILE`` variable — so both CLI flags and the fleet-wide env
    overrides reach each benchmark's inference pipelines.
    """
    parser.addoption(
        "--num-workers",
        action="store",
        type=int,
        default=None,
        help="worker processes for pipeline benchmarks (default: REPRO_NUM_WORKERS or 0)",
    )
    parser.addoption(
        "--compile",
        action="store_true",
        default=None,
        help="run model pipelines as fused inference graphs (default: REPRO_COMPILE or off)",
    )


@pytest.fixture(scope="session")
def execution_config(request) -> ExecutionConfig:
    """One execution document built from the run's CLI flags.

    Every benchmark derives its pipeline configuration from this single
    fixture instead of threading separate per-knob fixtures around.  Only
    the CLI-backed knobs are set; everything else stays ``None`` so each
    consumer's own defaults (harness profile batch size, ``REPRO_*``
    registry, then the built-in defaults) still apply; ``--num-workers``
    goes in as given and ``REPRO_NUM_WORKERS`` fills it at resolution.
    """
    compile_flag = request.config.getoption("--compile")
    if compile_flag is None:
        compile_flag = bool(knobs.read_flag("REPRO_COMPILE"))
    return ExecutionConfig(
        num_workers=request.config.getoption("--num-workers"),
        compile=bool(compile_flag),
    )


def record_report(title: str, text: str) -> None:
    """Register a formatted table for the terminal summary and write it to disk."""
    REPORTS.append((title, text))
    results_dir = artifacts_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    safe = title.lower().replace(" ", "_").replace("/", "-")
    (results_dir / f"{safe}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def harness() -> Harness:
    """One shared experiment harness (dataset/model caches) for the whole run."""
    return Harness(get_profile())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REPORTS:
        return
    terminalreporter.write_sep("=", "paper tables and figures (regenerated)")
    for title, text in REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
        terminalreporter.write_line("")
