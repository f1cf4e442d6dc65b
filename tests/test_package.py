import inspect
import os
import subprocess
import sys
from pathlib import Path

import mmdtube

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_exported():
    public = {name for name, value in vars(mmdtube).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - set(mmdtube.__all__) == set()
    assert set(mmdtube.__all__) <= public


def test_library_does_not_import_scipy():
    code = ("import sys, mmdtube, mmdtube.cli, mmdtube.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
