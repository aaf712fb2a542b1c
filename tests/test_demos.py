"""Smoke test: the demos run to completion.

Demo 03 (about 10 s) runs once, for its gradient-accumulation and checkpoint
round-trip lines and its full toy5 gradient battery through the public API.
Demo 04 (about 6 s) trains both streams and prints its score-fusion section.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# the header each demo prints for its last section
LAST_SECTION = {"01_topologies_and_partitions.py":
                "=== Masked + normalized adjacency stack (chain3, distance strategy) ===",
                "02_windows_and_attention.py": "=== A temporal stride shrinks T inside the block ===",
                "04_train_synthetic_fusion.py": "=== Score fusion ==="}


@pytest.mark.parametrize("script", sorted(LAST_SECTION))
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert LAST_SECTION[script] in result.stdout.splitlines()


CHAIN3_PARTITIONS = """\
  uniform (K=1): (0,0)->0, (0,1)->0, (1,0)->0, (1,1)->0, (1,2)->0, (2,1)->0, (2,2)->0
 distance (K=2): (0,0)->0, (0,1)->1, (1,0)->1, (1,1)->0, (1,2)->1, (2,1)->1, (2,2)->0
  spatial (K=3): (0,0)->0, (0,1)->2, (1,0)->1, (1,1)->0, (1,2)->2, (2,1)->1, (2,2)->0
 activity (K=3): (0,0)->1, (0,1)->1, (1,0)->1, (1,1)->1, (1,2)->0, (2,1)->1, (2,2)->0
"""


def test_demo_01_prints_the_chain3_partition_labels():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "01_topologies_and_partitions.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert CHAIN3_PARTITIONS in result.stdout


def test_demo_03_accumulates_gradients_and_round_trips_a_checkpoint():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "03_autodiff_and_gradcheck.py")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "two passes give twice the gradient: True" in result.stdout
    assert "payload round-trips exactly: True" in result.stdout
    assert "all within 1e-4: True" in result.stdout
