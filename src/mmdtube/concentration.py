"""Moment estimators and a concentration-based operator error bound.

The lag-time dependence of the operator estimation error enters through the
second moment and variance of the rank-one feature outer products formed
from a sample pair.  Both moments reduce to plain kernel averages and are
estimated here as V-statistics (the ``i = j`` terms are kept, matching the
integral forms directly; the resulting small-sample bias is accepted).

For Langevin dynamics whose invariant measure satisfies a Poincare
inequality with constant ``rate``, both moments admit envelopes that decay
exponentially in the lag time; combining them with a Bernstein inequality
yields a probabilistic bound on the operator deviation that can replace the
bootstrap quantile as the tube's ``F`` input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _BLOCK_ENTRIES, KernelSpec, _upper_bands
from .sde import PairedDataset


def estimate_second_moment(data: PairedDataset, spec: KernelSpec) -> float:
    """Monte-Carlo estimate ``(1/m) sum_i k(x_i, x_i) k(y_i, y_i)``.

    The Gaussian RBF kernel, the only one the library implements, has
    ``k(z, z) = 1`` for every state, so every summand is one and the
    estimate is exactly 1.0.
    """
    return 1.0


def estimate_hs_norm_cxy(data: PairedDataset, spec: KernelSpec) -> float:
    """V-statistic estimate of the Hilbert-Schmidt norm of the cross-covariance.

    Returns ``sqrt((1/m^2) sum_ij k(x_i, x_j) k(y_i, y_j))``.  The summand is
    symmetric in ``(i, j)``, so the accumulation walks the upper triangle in
    row blocks and never materializes full Gram matrices.
    """
    m = data.m
    total = float(m)  # diagonal: k(x_i, x_i) k(y_i, y_i) = 1 for gaussian-rbf
    # half the band size: a K_XX band and a K_YY band are held at once
    for _, _, k in _upper_bands((data.x, data.y), spec, _BLOCK_ENTRIES // 2):
        total += 2.0 * float(np.sum(k))
    return math.sqrt(total / (m * m))


@dataclass(frozen=True)
class MomentEstimates:
    """Second moment, cross-covariance HS norm, and the implied deviation scale."""

    m2_t: float
    hs_norm_cxy: float
    sigma_t: float
    lag: float

    def __post_init__(self):
        if self.m2_t < 0 or self.hs_norm_cxy < 0 or self.sigma_t < 0:
            raise ValueError("moment estimates must be nonnegative")


def estimate_moments(data: PairedDataset, spec: KernelSpec) -> MomentEstimates:
    """Bundle the two moment estimators into deviation inputs for the bound."""
    m2 = estimate_second_moment(data, spec)
    hs = estimate_hs_norm_cxy(data, spec)
    sigma = math.sqrt(max(0.0, m2 - hs * hs))
    return MomentEstimates(m2_t=m2, hs_norm_cxy=hs, sigma_t=sigma, lag=data.lag)


def _poincare_envelope(t: float, rate: float, beta_temp: float,
                       stationary_sq: float, centered_sq: float) -> float:
    if rate <= 0 or beta_temp <= 0:
        raise ValueError("rate and beta_temp must be positive")
    if t < 0 or stationary_sq < 0 or centered_sq < 0:
        raise ValueError("t and the norm inputs must be nonnegative")
    return stationary_sq + math.exp(-2.0 * rate * t / beta_temp) * centered_sq


def poincare_envelope_m2(t: float, rate: float, beta_temp: float,
                         phi1_l1: float, phi1_centered_l2: float) -> float:
    """Decay envelope for the second moment at lag ``t``.

    Evaluates ``phi1_l1^2 + exp(-2 rate t / beta_temp) * phi1_centered_l2^2``
    where ``phi1(x) = k(x, x)``, ``phi1_l1`` is its stationary mean and
    ``phi1_centered_l2`` the L2 norm of its centered part.
    """
    return _poincare_envelope(t, rate, beta_temp, phi1_l1**2, phi1_centered_l2**2)


def poincare_envelope_hs(t: float, rate: float, beta_temp: float,
                         k_l1: float, k_centered_l2: float) -> float:
    """Analogous envelope for the squared HS norm of the cross-covariance.

    Same formula with the two-argument kernel in place of its diagonal:
    ``k_l1`` is the stationary mean of ``k(x, x')`` over independent pairs and
    ``k_centered_l2`` the L2 norm of its centered part on the product space.
    """
    return _poincare_envelope(t, rate, beta_temp, k_l1**2, k_centered_l2**2)


def bernstein_bound(lam: float, m: int, delta_conf: float, sigma_t: float,
                    sigma_0: float, hs_norm_cyx: float, moment_const: float = 1.0) -> float:
    """Concentration bound on the operator deviation, valid w.p. >= 1 - 2 delta.

    Evaluates::

        (2 / (lam sqrt(m))) log(2 / delta)
            * [sigma_t + (hs/lam) sigma_0 + (1 + hs/lam) L / sqrt(m)]

    ``moment_const`` is the Bernstein moment constant L; 1.0 is valid for the
    Gaussian RBF, whose feature products are uniformly bounded by one.
    """
    if not 0.0 < delta_conf < 1.0:
        raise ValueError(f"delta_conf must lie in (0, 1), got {delta_conf}")
    if lam <= 0 or m < 1:
        raise ValueError("lam must be positive and m >= 1")
    if sigma_t < 0 or sigma_0 < 0 or hs_norm_cyx < 0 or moment_const < 0:
        raise ValueError("sigma_t, sigma_0, hs_norm_cyx, and L must be nonnegative")
    root_m = math.sqrt(m)
    ratio = hs_norm_cyx / lam
    bracket = sigma_t + ratio * sigma_0 + (1.0 + ratio) * moment_const / root_m
    return (2.0 / (lam * root_m)) * math.log(2.0 / delta_conf) * bracket
