"""Smoke test of tools/cli_digest.py on one seed of growth-sweep."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def test_cli_digest_growth_sweep():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "growth-sweep", "--seeds", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert len(lines) > 100
    line = re.compile(r"growth-sweep seed=1 (.+) exit=0 ([0-9a-f]{64})")
    matches = [line.fullmatch(text) for text in lines]
    assert all(matches), [t for t, m in zip(lines, matches) if not m][:3]
    # input files are named relative to the scratch directory
    assert any("spectrum:spectrum.json" in m[1] for m in matches)
    # different queries print different reports
    assert len({m[2] for m in matches}) > 100
