"""Library set-up as every user process pays it.

Running this file imports numpy, scipy and mmdtube (the modules the CLI
loads), makes the first BLAS and LAPACK calls, then prints ``ready``.  The
time from process start to that line is one ``setup_s`` sample.  It then
prints the speed factor (``reference.py``) that scales the sample.
"""

import numpy as np
import scipy.linalg

import mmdtube.cli  # noqa: F401  (the import a CLI user pays)
import mmdtube.experiments  # noqa: F401


def first_blas_call() -> None:
    a = np.arange(64.0 * 64.0).reshape(64, 64) / 4096.0
    scipy.linalg.cho_factor(a @ a.T + np.eye(64))


if __name__ == "__main__":
    first_blas_call()
    print("ready", flush=True)
    from reference import speed_factor  # after "ready": not part of set-up

    print(speed_factor(), flush=True)
