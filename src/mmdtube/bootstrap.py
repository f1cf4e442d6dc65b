"""Bootstrap quantile estimation of the operator estimation error.

Each replicate resamples the training pairs jointly with replacement, refits
the operator, and records the exact RKHS norm of its deviation from the base
operator.  The ``1 - alpha`` quantile of the sorted deviations estimates the
error level of the fitted operator.

Both operators vanish outside the span of the base input features, so the
deviation norm is computed on that span, as :func:`operators.operator_diff_norm`
on the concatenated anchors would (the tests assert so).  A resample enters
only through its multiplicities ``N = diag(n)``.  With the base eigenpairs
``K_XX = g g^T``, ``g = U Lambda^{1/2}`` (``r`` retained), Woodbury turns its
ridge system into the SPD ``H = g^T N g + m lam I_r``, and its output weights,
folded onto the base outputs, are ``N g H^{-1}``.  The quadratic form is
``D^T K_YY D = (L_Y^T D)^T (L_Y^T D)`` with ``D`` the weight difference and
``L_Y`` the base operator's output factor, so a replicate costs ``O(m r^2)``
and builds nothing ``m x m``.  The four-block sum ``A + B - C - C^T`` would
cancel to a ``sqrt(eps)`` floor in the norm.  A resample that repeats the base
pairs row for row is the same operator and gets exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh

from .kernels import KernelSpec
from .operators import FittedOperator, fit
from .sde import PairedDataset


@dataclass(frozen=True)
class BootstrapSummary:
    """Sorted replicate deviations and their upper quantile."""

    deviations: np.ndarray
    quantile_delta: float
    confidence_alpha: float
    seed: int

    def __post_init__(self):
        dev = np.asarray(self.deviations, dtype=float)
        if np.any(dev < 0) or np.any(np.diff(dev) < 0):
            raise ValueError("deviations must be sorted and nonnegative")
        object.__setattr__(self, "deviations", dev)

    @property
    def m_b(self) -> int:
        return self.deviations.shape[0]


def quantile_index(m_b: int, alpha: float) -> int:
    """0-based index of the ``ceil(m_b (1 - alpha))``-th order statistic."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    # the 1e-9 guard keeps FP noise in m_b*(1-alpha) from bumping the ceil
    return int(math.ceil(m_b * (1.0 - alpha) - 1e-9)) - 1


def _resample_deviation(base: FittedOperator, g: np.ndarray, v1: np.ndarray,
                        idx: np.ndarray) -> float:
    """Deviation norm between the base operator and one resample refit."""
    x, y = base.x_train, base.y_train
    if np.array_equal(x[idx], x) and np.array_equal(y[idx], y):
        return 0.0  # the resample is the base pairs row for row: the same operator
    n = np.bincount(idx, minlength=base.m).astype(float)
    ng = n[:, None] * g
    h = g.T @ ng
    h[np.diag_indices_from(h)] += base.m * base.lam
    d = cho_solve(cho_factor(h, check_finite=False), ng.T, check_finite=False).T - v1
    p = base.l_y.T @ d
    m_red = p.T @ p
    top = eigvalsh(0.5 * (m_red + m_red.T), check_finite=False)[-1]
    return float(np.sqrt(max(0.0, top)))


def bootstrap_deviation_quantile(data: PairedDataset, lam: float, spec: KernelSpec,
                                 m_b: int = 200, alpha: float = 0.05, seed: int = 0,
                                 base: FittedOperator | None = None) -> BootstrapSummary:
    """Estimate the ``1 - alpha`` quantile of the operator deviation.

    Replicate ``j`` draws its resample indices from substream ``j`` of the
    master seed, so results are reproducible.  ``base`` is the operator fit
    on ``(data, lam, spec)`` if the caller already has it; it is fit here
    otherwise.
    """
    if m_b < 1:
        raise ValueError(f"m_b must be >= 1, got {m_b}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if base is None:
        base = fit(data, lam, spec)
    elif not (base.lam == lam and base.spec == spec and np.array_equal(base.x_train, data.x)
              and np.array_equal(base.y_train, data.y)):
        raise ValueError("base operator was not fit on this data, lam and kernel")
    vals, vecs = base._kxx_eig
    g = vecs * np.sqrt(vals)                    # K_XX = g g^T on the retained space
    v1 = base.solve(g)

    deviations = np.array([_resample_deviation(base, g, v1, idx)
                           for idx in resample_indices(base.m, m_b, seed)])
    deviations.sort()
    delta = float(deviations[quantile_index(m_b, alpha)])
    return BootstrapSummary(deviations, delta, alpha, seed)


def resample_indices(data_m: int, m_b: int, seed: int) -> list[np.ndarray]:
    """The exact index draws a bootstrap run with this seed will use.

    Replicate ``j`` draws from substream ``j``.  Indices are sorted: the
    resampled operator only depends on the index multiset, and a draw that
    hits every index once is the base data row for row.
    """
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(m_b)]
    return [np.sort(rng.integers(0, data_m, size=data_m)) for rng in rngs]
