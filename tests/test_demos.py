"""The demos that exercise kernels, bootstrap, ``pushforward`` and
``propagate_tube`` run to completion.

Demos 01, 03, 04, 05 and 06 take about 1.3 s together (each a fresh process
on 2 cores).  Demo 02 is left out: its 100k-step single trajectory takes
about 6 s and calls none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_kernels_and_mmd", "03_operator_learning",
                                  "04_bootstrap_deviation", "05_ambiguity_tube",
                                  "06_concentration_bounds"])
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
