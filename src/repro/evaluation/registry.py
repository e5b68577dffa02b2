"""The one list of the paper's evaluation: an :class:`Experiment` per
committed figure.

An entry's key is three names at once — the ``results/<name>.txt``
stem, the ``repro evaluate <name>`` choice and the parametrize id in
``benchmarks/test_paper_figures.py`` — so adding a figure is adding an
entry here and committing its text.  ``run`` is the paper-scale
experiment (there is no reduced scale), ``render`` the text that is
committed, ``check`` the figure's shape assertions (``AssertionError``
on a shape the paper's claim does not survive).  Regenerating is::

    python -m repro evaluate NAME > results/NAME.txt

and the drift gate is the pytest file: a *quality* figure is
deterministic, so its rendering must equal the committed file byte for
byte; a *timing* figure reports wall-clock measurements of this
machine and is held to its ``check`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.core.characterize import CharacterizationResult
from repro.evaluation import (
    ablations,
    fig5,
    fig6,
    fig7,
    fig8a,
    fig8b,
    fig8c,
    hansel_comparison,
    overhead,
    table1,
)


@dataclass(frozen=True)
class Experiment:
    """One figure: how to produce, print and judge it."""

    artifact: str
    run: Callable[[CharacterizationResult], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], None]
    #: Wall-clock figure: shape-checked, never byte-compared.
    timing: bool = False


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 — Tempest characterization",
        table1.run, table1.format_report, table1.check),
    "fig5": Experiment(
        "Fig. 5 — Compute-operation overlap CDF",
        # The paper-scale projection reads the characterization, so it
        # travels with the series.
        lambda character: (fig5.run(character), character),
        lambda result: fig5.format_report(*result),
        lambda result: fig5.check(*result)),
    "fig6": Experiment(
        "Fig. 6 — Neutron API latency level shift",
        fig6.run, fig6.format_report, fig6.check),
    "fig7a": Experiment(
        "Fig. 7a — precision θ, concurrency × faults",
        fig7.run_fig7a, fig7.format_fig7a, fig7.check_fig7a),
    "fig7b": Experiment(
        "Fig. 7b — operations matched, API error vs snapshot",
        fig7.run_fig7b, fig7.format_fig7b, fig7.check_fig7b),
    "fig7c": Experiment(
        "Fig. 7c — matching with vs without RPC symbols",
        fig7.run_fig7c, fig7.format_fig7c, fig7.check_fig7c),
    "fig8a": Experiment(
        "Fig. 8a — 16 identical parallel faults",
        fig8a.run, fig8a.format_report, fig8a.check),
    "fig8b": Experiment(
        "Fig. 8b — injected-latency performance faults",
        fig8b.run, fig8b.format_report, fig8b.check),
    "fig8c": Experiment(
        "Fig. 8c — analyzer throughput vs fault frequency",
        fig8c.run, fig8c.format_report, fig8c.check, timing=True),
    "overhead": Experiment(
        "§7.4.2 — analyzer CPU/memory overhead",
        overhead.run, overhead.format_report, overhead.check, timing=True),
    "hansel_comparison": Experiment(
        "§9.2 — GRETEL vs HANSEL on identical traffic",
        hansel_comparison.run, hansel_comparison.format_report,
        hansel_comparison.check),
    "ablation_truncation": Experiment(
        "Ablation — Alg. 2 fingerprint truncation",
        ablations.run_truncation, ablations.format_truncation,
        ablations.check_truncation),
    "ablation_relaxed_match": Experiment(
        "Ablation — relaxed vs strict matching",
        ablations.run_relaxed_match, ablations.format_relaxed_match,
        ablations.check_relaxed_match),
    "ablation_context_buffer": Experiment(
        "Ablation — adaptive context buffer",
        ablations.run_context_buffer, ablations.format_context_buffer,
        ablations.check_context_buffer),
    "ablation_noise_filter": Experiment(
        "Ablation — Alg. 1 noise filter",
        ablations.run_noise_filter, ablations.format_noise_filter,
        ablations.check_noise_filter),
    "ablation_detector_choice": Experiment(
        "Ablation — LS vs static-threshold detection",
        ablations.run_detector_choice, ablations.format_detector_choice,
        ablations.check_detector_choice),
    "extension_correlation_ids": Experiment(
        "Extension — §5.3.1 correlation identifiers",
        ablations.run_correlation_ids, ablations.format_correlation_ids,
        ablations.check_correlation_ids),
}
