"""Smoke test of tools/cli_digest.py on one seed of each workload."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"

CASES = {
    # workload: (more lines than, exit codes, a line it prints); input
    # files are named relative to the scratch directory, and a grid check
    # of a wrong exponent exits 3 by design
    "growth-sweep": (100, "0", r" spectrum:spectrum\.json "),
    "metric-circle-certify": (5, "0", r"selftest exit=0"),
    "frequency-verify": (50, "[03]", r"verify-grid alpha=\S+ j=\d+ L/2pi="),
}


@pytest.mark.parametrize("workload", CASES)
def test_cli_digest(workload):
    min_lines, exits, marker = CASES[workload]
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--seeds", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    line = re.compile(rf"{workload} seed=1 (.+) exit={exits} ([0-9a-f]{{64}})")
    matches = [line.fullmatch(text) for text in lines]
    assert len(lines) > min_lines
    assert all(matches), [t for t, m in zip(lines, matches) if not m][:3]
    assert any(re.search(marker, text) for text in lines)
    # different queries print different reports
    assert len({m[2] for m in matches}) > min_lines
