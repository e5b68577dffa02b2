"""Shared fixtures for the benchmark suite.

``test_paper_figures.py`` runs the paper's evaluation at the committed
scale and never writes.  Only the service soak still picks a sweep
from ``GRETEL_EVAL_SCALE`` (``small``, the default, or ``full``) and
writes its rendering under ``results/`` (full scale only) — it waits
on the ROADMAP's ``benchmark`` PR.  Speed is timed in one place, the
ledger under ``e2e/``.
"""

import os

import pytest

from repro.evaluation.common import default_characterization

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def full_scale() -> bool:
    return os.environ.get("GRETEL_EVAL_SCALE", "small") == "full"


@pytest.fixture(scope="session")
def character():
    return default_characterization()


@pytest.fixture(scope="session")
def save_result():
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def save(name: str, text: str) -> None:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print()
        print(text)

    return save
