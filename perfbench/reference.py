"""A fixed numpy/scipy computation that measures the machine's current speed.

On a shared virtual machine the speed of one core drifts by tens of percent
within minutes, and more over hours, whatever runs on it.  Each timing the
benchmark bounds is therefore scaled by ``NOMINAL_S / t_ref``, where
``t_ref`` is the time of this reference computation measured next to it:
the result is the time at the speed where the reference takes
``NOMINAL_S``.  The reference touches what the workloads use: LAPACK
(Cholesky and a symmetric eigensolver), the interpreter (one generator per
item, as in ``simulate_pairs``) and fresh memory (RBF Gram blocks).  Its
inputs are fixed and it uses nothing from mmdtube, so no change to the
library changes its work.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, eigvalsh
from scipy.spatial.distance import cdist

NOMINAL_S = 0.3  # about the reference's time on the 2-core box it was set on


def _reference_seconds() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    spd = a @ a.T + 400.0 * np.eye(400)
    points = rng.standard_normal((3000, 1))
    t0 = time.perf_counter()
    for _ in range(12):
        cho_factor(spd)
        eigvalsh(spd[:150, :150])
    streams = np.random.SeedSequence(1).spawn(4000)
    sum(float(np.random.default_rng(s).standard_normal()) for s in streams)
    for _ in range(3):
        k = cdist(points, points, metric="sqeuclidean")
        k *= -0.5
        np.exp(k, out=k)
    return time.perf_counter() - t0


def speed_factor() -> float:
    """``NOMINAL_S`` over the reference's time now: below 1 on a slow machine."""
    return NOMINAL_S / _reference_seconds()
