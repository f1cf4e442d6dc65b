"""The demos that call ``pushforward`` and ``propagate_tube`` run to completion.

Demos 03, 04 and 05 take about 2.3 s together.  Demo 02 is left out: its
100k-step single trajectory takes about 12 s and calls neither function.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["03_operator_learning", "04_bootstrap_deviation",
                                  "05_ambiguity_tube"])
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
