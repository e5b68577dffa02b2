"""The paper's evaluation, gated: every registry entry at paper scale.

Each experiment of ``repro.evaluation.registry`` is run once, held to
its own shape ``check``, and — unless it is a timing figure — its
rendering must equal the committed ``results/<name>.txt`` byte for
byte.  Nothing here writes into ``results/``: a figure that moved is
regenerated on purpose (``python -m repro evaluate NAME >
results/NAME.txt``) and the diff is the review artifact.
"""

import os

import pytest
from conftest import RESULTS_DIR

from repro.evaluation.registry import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_figure(name, character):
    experiment = EXPERIMENTS[name]
    result = experiment.run(character)
    text = experiment.render(result)
    print()
    print(text)
    experiment.check(result)
    if not experiment.timing:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, encoding="utf-8") as handle:
            assert text + "\n" == handle.read()
