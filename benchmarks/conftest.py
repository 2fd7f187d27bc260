"""Shared helpers for the paper-reproduction benches.

Every bench regenerates one of the paper's tables or figures from cold,
prints the series (visible under ``pytest -s``), and persists it under
``benchmarks/results/``.  EXPERIMENTS.md records the paper-vs-measured
comparison for each.
"""

import os

import pytest

from repro.analysis import ResultTable
from repro.exp import default_jobs, run_sweep

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def result_table():
    """Factory for paper-style result tables persisted to results/."""
    def factory(name, headers, title=None):
        return ResultTable(name, headers, title=title, output_dir=RESULTS_DIR)
    return factory


@pytest.fixture
def run_points():
    """Run sweep points through the parallel runner.

    ``REPRO_JOBS`` overrides the worker count (1 forces serial execution).
    """
    jobs_env = os.environ.get("REPRO_JOBS")
    jobs = int(jobs_env) if jobs_env else default_jobs()

    def run(points):
        return run_sweep(points, jobs=jobs)
    return run
