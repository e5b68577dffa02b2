"""GRETEL configuration: the paper's empirically-determined thresholds.

§7's "Empirical determination of thresholds" fixes the tuning once:
``FP_max = 384``, ``P_rate ≈ 150`` pps, ``t = 1 s`` →
``α = 2·max{FP_max, P_rate·t} = 768``; ``c1 = 0.1`` → ``β₀ = 80``;
``c2 = 0.04`` → ``δ = 30``.

:class:`GretelConfig` holds only what a caller varies: α or the
``P_rate`` it is calibrated from (concurrency sets the packet rate;
the service and the ledger pin α = 768), and the five switches the
Fig. 7c and ablation figures turn off.  Every other threshold has one
value in use, so it is a constant next to the code that reads it:
``T`` / ``C1`` / ``C2`` here, ``MATCH_COVERAGE`` / ``STOP_PATIENCE``
in :mod:`repro.core.detector`, ``LENGTH_TOLERANCE`` in
:mod:`repro.core.matching.engine`, the level-shift tuning
(``LS_*``, which both LS detectors read when built and the latency
tracker's checkpoint records) in :mod:`repro.core.outliers`,
``PERF_DEBOUNCE`` / ``PERF_BUFFER_CAP`` in :mod:`repro.core.analyzer`
and Algorithm 3's resource thresholds in :mod:`repro.core.rootcause`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Time horizon t (seconds) in α = 2·max{FP_max, P_rate·t}.
T = 1.0
#: Context-buffer start fraction: β₀ = c1·α.
C1 = 0.1
#: Context-buffer growth fraction: δ = c2·α.
C2 = 0.04


@dataclass
class GretelConfig:
    """The GRETEL analyzer settings callers vary."""

    #: Hard override of the sliding-window size α (``None`` → computed).
    alpha: Optional[int] = None
    #: Measured/assumed incoming message rate (packets per second).
    p_rate: float = 150.0

    #: Prune RPC symbols from fingerprints when matching (§6's
    #: performance optimization; Fig. 7c evaluates both settings).
    prune_rpcs: bool = True
    #: Use the relaxed match (state-change order preserved, reads
    #: optional).  Strict mode is the ablation baseline.
    relaxed_match: bool = True
    #: Enable fingerprint truncation at the offending API (Alg. 2).
    truncate_fingerprints: bool = True
    #: Enable the adaptive context buffer; when off, match against the
    #: whole sliding window at once (ablation).
    adaptive_context: bool = True

    #: §5.3.1 future work: "OpenStack is in the process of introducing
    #: a correlation identifier to tie together requests ... GRETEL can
    #: exploit these correlation identifiers to increase its precision
    #: by reducing the number of packets against which a fingerprint is
    #: matched."  When enabled, the context buffer is filtered to the
    #: offending message's correlation id before matching.  Off by
    #: default: Liberty-era deployments did not carry the header.
    use_correlation_ids: bool = False

    def sliding_window_size(self, fp_max: int) -> int:
        """α = 2·max{FP_max, P_rate·t} (§5.3.1), unless overridden."""
        if self.alpha is not None:
            return self.alpha
        return int(2 * max(fp_max, self.p_rate * T))

    def context_buffer_start(self, alpha: int) -> int:
        """β₀ = c1·α (at least 2 messages)."""
        return max(2, int(C1 * alpha))

    def context_buffer_step(self, alpha: int) -> int:
        """δ = c2·α (at least 1 message)."""
        return max(1, int(C2 * alpha))

    def invariants(self, library_fp_max: int = 0) -> List[Tuple[str, str]]:
        """Symbolic α sizing checks (CFG rules of ``repro lint``).

        Returns ``(code, message)`` pairs for every violated invariant:
        α = 2·max{FP_max, P_rate·t} must be positive and hold two
        copies of the largest fingerprint.  ``library_fp_max`` is the
        size of the largest fingerprint actually in the library.
        """
        alpha = self.sliding_window_size(library_fp_max)
        if alpha <= 0:
            return [(
                "alpha-positive",
                f"sliding window α = {alpha} is not positive "
                f"(alpha={self.alpha!r}, p_rate={self.p_rate}, t={T})",
            )]
        if alpha < 2 * library_fp_max:
            return [(
                "alpha-fp-max",
                f"sliding window α = {alpha} cannot hold two copies of "
                f"the largest fingerprint ({library_fp_max} symbols); "
                "α = 2·max{FP_max, P_rate·t} requires α ≥ 2·FP_max",
            )]
        return []
