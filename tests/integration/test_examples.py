"""Smoke tests: every example script runs green end to end."""

import os
import re
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name, timeout=600):
    # The session fixture has already warmed the characterization cache.
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart(full_character):
    out = run_example("quickstart.py")
    assert "Root cause (dead L2 agent) localized: True" in out


def test_dependency_failures(full_character):
    out = run_example("dependency_failures.py")
    assert "[PASS] failed_image_upload" in out
    assert "[PASS] ntp_failure" in out


def test_incident_export(full_character):
    out = run_example("incident_export.py")
    assert "Exported 2 incident(s)" in out


def test_parallel_fault_localization(full_character):
    out = run_example("parallel_fault_localization.py")
    assert "--- GRETEL ---" in out
    assert "ground-truth operation in set: True" in out
    assert "per-stage wall clock (StageTimer)" in out


@pytest.mark.slow
def test_performance_bottleneck(full_character):
    # The one tier-1 run of the §7.2.2 surge capture: the example
    # prints ``case_studies.neutron_api_latency``'s summary.
    out = run_example("performance_bottleneck.py")
    # [PASS]: at least one LS alarm and the CPU root cause on
    # neutron-ctl.
    assert "[PASS] neutron_api_latency" in out
    in_window = re.search(r"\((\d+) in surge window\)", out)
    assert in_window and int(in_window.group(1)) >= 1, out
    assert "Level-shift alarms" in out
