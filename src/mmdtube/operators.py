"""Regularized empirical embedded transfer operators.

Fitting stores a Cholesky factorization of ``K_XX + m*lam*I`` (never an
explicit inverse).  Pushing an embedding forward is two triangular solves;
the operator norm and the norm of a difference of two operators are exact
suprema over the span of the training features, realized as symmetric
eigenproblems on that span.

Gram matrices of resampled data are generically singular (duplicated
anchors), so every constraint matrix is handled through a thresholded
eigendecomposition: eigenvalues below ``RANK_RTOL * lambda_max`` are
discarded and the pseudo-inverse square root is formed on the retained
eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, eigvalsh

from .kernels import Embedding, KernelSpec, as_points, gram
from .sde import PairedDataset

# relative eigenvalue cutoff for pseudo-inverses of (possibly singular) Grams
RANK_RTOL = 1e-10


def _truncated_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix above the relative rank cutoff."""
    vals, vecs = eigh(mat)
    cutoff = RANK_RTOL * max(vals[-1], 0.0)
    keep = vals > cutoff
    if not np.any(keep):
        raise np.linalg.LinAlgError("matrix is numerically zero")
    return vals[keep], vecs[:, keep]


class FittedOperator:
    """Empirical embedded transfer operator fit to ``m`` training pairs."""

    def __init__(self, x_train: np.ndarray, y_train: np.ndarray, lam: float,
                 spec: KernelSpec):
        x_train = as_points(x_train)
        y_train = as_points(y_train)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError("x_train and y_train must have equal length")
        if x_train.shape[0] < 2:
            raise ValueError(f"need m >= 2 training pairs, got {x_train.shape[0]}")
        if not np.isfinite(lam) or lam <= 0:
            raise ValueError(f"regularization lam must be positive, got {lam}")
        self.x_train = x_train
        self.y_train = y_train
        self.lam = float(lam)
        self.spec = spec
        self.m = x_train.shape[0]
        self.k_xx = gram(x_train, x_train, spec)
        self.k_yy = gram(y_train, y_train, spec)
        try:
            self.solver = cho_factor(self.k_xx + self.m * self.lam * np.eye(self.m))
        except np.linalg.LinAlgError as exc:  # only reachable via non-finite kernels
            raise RuntimeError(f"Cholesky factorization of the ridge system failed: {exc}")

    @cached_property
    def _kxx_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return _truncated_eig(self.k_xx)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``(K_XX + m*lam*I)^{-1}`` to a vector or matrix."""
        return cho_solve(self.solver, rhs)


def fit(data: PairedDataset, lam: float, spec: KernelSpec) -> FittedOperator:
    """Fit the regularized embedded operator on a paired dataset."""
    return FittedOperator(data.x, data.y, lam, spec)


def pushforward(op: FittedOperator, mu: Embedding) -> Embedding:
    """Apply the fitted operator to an embedding.

    The result is anchored on the training outputs with weights
    ``(K_XX + m*lam*I)^{-1} K_{X,Z} w``.
    """
    if mu.dim != op.x_train.shape[1]:
        raise ValueError(f"state dimension mismatch: {mu.dim} vs {op.x_train.shape[1]}")
    k_xz = gram(op.x_train, mu.anchors, op.spec)
    weights = op.solve(k_xz @ mu.weights)
    return Embedding(op.y_train, weights)


def _norm_problem(op: FittedOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Symmetric form of sup { a^T K S K a : a^T K a <= 1 } on the numerical
    # range of K, with S = (K + m lam I)^{-1} K_YY (K + m lam I)^{-1}.
    vals, vecs = op._kxx_eig
    sqrt_factor = vecs * np.sqrt(vals)          # columns of K^{1/2} restricted
    t = op.solve(sqrt_factor)
    m_red = t.T @ op.k_yy @ t
    m_red = 0.5 * (m_red + m_red.T)
    return m_red, vals, vecs


def operator_norm(op: FittedOperator) -> float:
    """Exact RKHS operator norm of the fitted operator."""
    m_red, _, _ = _norm_problem(op)
    top = eigvalsh(m_red)[-1]
    return float(np.sqrt(max(0.0, top)))


def operator_norm_maximizer(op: FittedOperator) -> tuple[float, Embedding]:
    """Operator norm together with a unit-norm embedding attaining it."""
    m_red, vals, vecs = _norm_problem(op)
    eigvals, eigvecs = eigh(m_red)
    alpha = (vecs / np.sqrt(vals)) @ eigvecs[:, -1]
    return float(np.sqrt(max(0.0, eigvals[-1]))), Embedding(op.x_train, alpha)


def _check_compatible(op1: FittedOperator, op2: FittedOperator) -> None:
    if op1.spec != op2.spec:
        raise ValueError(f"kernel specs differ: {op1.spec} vs {op2.spec}")
    if op1.x_train.shape[1] != op2.x_train.shape[1]:
        raise ValueError("operators act on different state dimensions")


def _diff_problem(op1: FittedOperator, op2: FittedOperator):
    # Quadratic form of ||(P1 - P2) mu||^2 for mu supported on the
    # concatenated anchors Z = [X1; X2], against the constraint Gram K_ZZ.
    z = np.vstack([op1.x_train, op2.x_train])
    t1 = op1.solve(gram(op1.x_train, z, op1.spec))
    t2 = op2.solve(gram(op2.x_train, z, op2.spec))
    a = t1.T @ op1.k_yy @ t1
    b = t2.T @ op2.k_yy @ t2
    c = t1.T @ gram(op1.y_train, op2.y_train, op1.spec) @ t2
    m_full = a + b - c - c.T
    m_full = 0.5 * (m_full + m_full.T)
    k_zz = gram(z, z, op1.spec)
    vals, vecs = _truncated_eig(k_zz)
    w = vecs / np.sqrt(vals)                    # pseudo-inverse square root
    m_red = w.T @ m_full @ w
    m_red = 0.5 * (m_red + m_red.T)
    return m_red, w, z


def operator_diff_norm(op1: FittedOperator, op2: FittedOperator) -> float:
    """Exact RKHS norm of the difference of two fitted operators."""
    _check_compatible(op1, op2)
    m_red, _, _ = _diff_problem(op1, op2)
    top = eigvalsh(m_red)[-1]
    return float(np.sqrt(max(0.0, top)))


def operator_diff_norm_maximizer(op1: FittedOperator,
                                 op2: FittedOperator) -> tuple[float, Embedding]:
    """Difference norm together with a unit-norm embedding attaining it."""
    _check_compatible(op1, op2)
    m_red, w, z = _diff_problem(op1, op2)
    eigvals, eigvecs = eigh(m_red)
    alpha = w @ eigvecs[:, -1]
    return float(np.sqrt(max(0.0, eigvals[-1]))), Embedding(z, alpha)


@dataclass(frozen=True)
class OperatorNorms:
    """The two scalars driving the tube recursion.

    ``e_norm`` is the norm of the fitted operator; ``f_norm`` estimates its
    deviation from the true operator (bootstrap quantile or concentration
    bound).
    """

    e_norm: float
    f_norm: float

    def __post_init__(self):
        if self.e_norm < 0 or self.f_norm < 0:
            raise ValueError("operator norms must be nonnegative")
