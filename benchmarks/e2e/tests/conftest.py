"""Self-tests of the benchmark (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import harness  # noqa: E402

harness.enter_repo()
