"""Reference implementations: the slow halves of the twin oracles.

Every hot layer of the analyzer has exactly one production path
(``repro.core``, ``repro.analysis``, ``repro.service``).  What that
path must stay bit-identical to lives here: from-scratch candidate
selection and per-candidate context-buffer scoring over the
needle-oriented Hyyrö row ``prefix_lcs_lengths`` (``detector``), the
sort-per-sample level-shift detector (``levelshift``), and the
single-threaded inline-drain tenant router (``session``).

Nothing in the production packages imports this one at module level —
only the four oracles do, inside the call (``verify_selection``,
``verify_detection``, ``verify_levelshift``, ``verify_service``), plus
tests and benchmarks.  ``tests/test_import_hygiene.py`` holds that
line.  A production path that gets replaced is parked here as the new
path's oracle half, not kept beside it behind a switch.
"""

from repro.reference.detector import (
    ScanSelectionDetector,
    ScratchScoringDetector,
    prefix_lcs_lengths,
    prepare_from_scratch,
    score_buffer,
    upper_bound,
)
from repro.reference.levelshift import LevelShiftDetector
from repro.reference.session import SyncSession

__all__ = [
    "LevelShiftDetector",
    "ScanSelectionDetector",
    "ScratchScoringDetector",
    "SyncSession",
    "prefix_lcs_lengths",
    "prepare_from_scratch",
    "score_buffer",
    "upper_bound",
]
