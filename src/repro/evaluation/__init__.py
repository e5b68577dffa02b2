"""Evaluation harness: the paper's §7, one experiment per figure.

:mod:`repro.evaluation.registry` is the list: one
:class:`~repro.evaluation.registry.Experiment` per committed
``results/<name>.txt`` — its paper-scale ``run``, the ``render`` that
produces the committed text and the ``check`` holding the figure's
shape — keyed by the name ``repro evaluate`` takes.  The experiments
live in one module per figure (``table1``, ``fig5`` … ``fig8c``,
``overhead``, ``hansel_comparison``) plus ``ablations``;
``case_studies`` holds the §3.1 / §7.2 scenarios behind ``repro
demo``, and ``common`` the cached characterization, the monitored
cloud and the §7.3 fault workload they share.
"""

from repro.evaluation.common import (
    default_characterization,
    default_suite,
    make_monitored_analyzer,
)

__all__ = [
    "default_characterization",
    "default_suite",
    "make_monitored_analyzer",
]
