"""Regularized empirical embedded transfer operators.

Fitting runs one eigendecomposition ``K_XX = U diag(s) U^T`` and keeps it
with the ridge spectrum ``s + m*lam`` (never an explicit inverse).  Every
ridge solve is ``(K_XX + m*lam*I)^{-1} b = U ((U^T b) / (s + m*lam))``, and
the operator norm and the bootstrap read the retained eigenpairs of the
same factorisation.  The operator norm and the norm of a difference of two
operators are exact suprema over the span of the training features,
realized as symmetric eigenproblems on that span.

Gram matrices of resampled data are generically singular (duplicated
anchors), so every constraint matrix is handled through a thresholded
eigendecomposition: eigenvalues below ``RANK_RTOL * lambda_max`` are
discarded and the pseudo-inverse square root is formed on the retained
eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .kernels import Embedding, KernelSpec, as_points, gram
from .sde import PairedDataset

# relative eigenvalue cutoff for pseudo-inverses of (possibly singular) Grams
RANK_RTOL = 1e-10


def _truncated_eig(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix above the relative rank cutoff."""
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
        vals, self.eigvecs = eigh(self.k_xx)
        self.ridge = vals + self.m * self.lam   # ascending spectrum of K_XX + m lam I
        if self.ridge[0] <= 0:  # a round-off-negative eigenvalue outweighs m lam
            raise RuntimeError(f"ridge system is not positive definite: smallest "
                               f"eigenvalue {self.ridge[0]:.3g}; increase lam")
        self._kxx_eig = _truncated_eig(vals, self.eigvecs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``(K_XX + m*lam*I)^{-1}`` to a vector or matrix."""
        coef = self.eigvecs.T @ rhs
        return self.eigvecs @ (coef.T / self.ridge).T   # row i of coef over ridge[i]


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


def _top(m_red: np.ndarray, w: np.ndarray, anchors: np.ndarray) -> tuple[float, Embedding]:
    """Square root of the top eigenvalue of the quadratic form ``m_red`` and
    the embedding on ``anchors`` with weights ``w v`` attaining it, where ``v``
    is the top eigenvector and ``w`` maps reduced to anchor coordinates."""
    vals, vecs = eigh(0.5 * (m_red + m_red.T))
    return float(np.sqrt(max(0.0, vals[-1]))), Embedding(anchors, w @ vecs[:, -1])


def operator_norm_maximizer(op: FittedOperator) -> tuple[float, Embedding]:
    """Operator norm together with a unit-norm embedding attaining it."""
    # Symmetric form of sup { a^T K S K a : a^T K a <= 1 } on the numerical
    # range of K, with S = (K + m lam I)^{-1} K_YY (K + m lam I)^{-1}.
    vals, vecs = op._kxx_eig
    t = op.solve(vecs * np.sqrt(vals))          # columns of K^{1/2} restricted
    return _top(t.T @ op.k_yy @ t, vecs / np.sqrt(vals), op.x_train)


def operator_norm(op: FittedOperator) -> float:
    """Exact RKHS operator norm of the fitted operator."""
    return operator_norm_maximizer(op)[0]


def _check_compatible(op1: FittedOperator, op2: FittedOperator) -> None:
    if op1.spec != op2.spec:
        raise ValueError(f"kernel specs differ: {op1.spec} vs {op2.spec}")
    if op1.x_train.shape[1] != op2.x_train.shape[1]:
        raise ValueError("operators act on different state dimensions")


def operator_diff_norm_maximizer(op1: FittedOperator,
                                 op2: FittedOperator) -> tuple[float, Embedding]:
    """Difference norm together with a unit-norm embedding attaining it."""
    _check_compatible(op1, op2)
    # Quadratic form of ||(P1 - P2) mu||^2 for mu supported on the
    # concatenated anchors Z = [X1; X2], against the constraint Gram K_ZZ.
    z = np.vstack([op1.x_train, op2.x_train])
    t1 = op1.solve(gram(op1.x_train, z, op1.spec))
    t2 = op2.solve(gram(op2.x_train, z, op2.spec))
    c = t1.T @ gram(op1.y_train, op2.y_train, op1.spec) @ t2
    m_full = t1.T @ op1.k_yy @ t1 + t2.T @ op2.k_yy @ t2 - c - c.T
    vals, vecs = _truncated_eig(*eigh(gram(z, z, op1.spec)))
    w = vecs / np.sqrt(vals)                    # pseudo-inverse square root
    return _top(w.T @ m_full @ w, w, z)


def operator_diff_norm(op1: FittedOperator, op2: FittedOperator) -> float:
    """Exact RKHS norm of the difference of two fitted operators."""
    return operator_diff_norm_maximizer(op1, op2)[0]


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
