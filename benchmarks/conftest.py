"""Shared fixtures for the benchmark / experiment-regeneration suite.

Every benchmark regenerates one of the paper's tables or figures and
writes its rendered report under ``results/`` so EXPERIMENTS.md can
reference stable artifacts.  Scale is controlled by the
``GRETEL_EVAL_SCALE`` environment variable:

* ``small`` (default) — reduced sweeps, minutes of wall clock;
* ``full`` — the paper's full grids (100–400 concurrency × 1–16
  faults, 60K-event streams), tens of minutes.
"""

import os

import pytest

from repro.evaluation.common import default_characterization, default_suite

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def full_scale() -> bool:
    return os.environ.get("GRETEL_EVAL_SCALE", "small") == "full"


@pytest.fixture(scope="session")
def character():
    return default_characterization()


@pytest.fixture(scope="session")
def suite():
    return default_suite()


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
