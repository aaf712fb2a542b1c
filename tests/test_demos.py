"""Smoke test: the quick demos run to completion.

Demos 03 (about 12 s) and 04 (about a minute) are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_topologies_and_partitions.py",
                                    "02_windows_and_attention.py"])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
