"""Regularized empirical embedded transfer operators.

Fitting runs one greedy pivoted-Cholesky factorisation of the stacked
training points ``Z = [X; Y]``, ``K_ZZ ~= L L^T`` with ``L = [L_X; L_Y]``
(``m x r`` each, ``r`` the numerical rank: 18-33 on OU and double-well
data from m=50 to m=20000).  So ``K_XX ~= L_X L_X^T``, ``K_XY ~= L_X L_Y^T``
and ``K_YY ~= L_Y L_Y^T``, and while ``r < m`` nothing ``m x m`` is kept.  The thin QR
``L_X = Q R`` and an ``r x r`` eigendecomposition ``R R^T = V diag(s) V^T``
give ``K_XX ~= U diag(s) U^T`` with ``U = Q V``; every ridge solve is

    (K_XX + m lam I)^{-1} b = U ((U^T b) / (s + m lam)) + (b - U U^T b) / (m lam),

the spectral formula plus the exact term on the complement of ``U``.  The
operator norm and the bootstrap read the retained eigenpairs of the same
factorisation and take every ``K_YY`` quadratic form as ``||L_Y^T w||^2``,
all in ``O(m r^2)``, and so does ``pushforward`` on anchors ``X`` or ``Y``.
The operator norm and the norm of a difference of two operators are exact
suprema over the span of the training features, realized as symmetric
eigenproblems on it; the difference norm is the dense reference with its own Grams.

Gram matrices of resampled data are generically singular (duplicated
anchors), so every constraint matrix is handled through a thresholded
eigendecomposition: eigenvalues below ``RANK_RTOL * lambda_max`` are
discarded and the pseudo-inverse square root is formed on the retained
eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Embedding, KernelSpec, as_points, gram, pivoted_cholesky
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
        factor = pivoted_cholesky(np.vstack([x_train, y_train]), spec)
        self.l_x, self.l_y = factor[:self.m], factor[self.m:]
        q, r = np.linalg.qr(self.l_x)
        vals, v = np.linalg.eigh(r @ r.T)
        self.eigvecs = q @ v    # m x min(m, r): K_XX ~= eigvecs diag(vals) eigvecs^T
        self.ridge = vals + self.m * self.lam   # ascending spectrum of K_XX + m lam I on eigvecs
        if self.ridge[0] <= 0:  # a round-off-negative eigenvalue outweighs m lam
            raise RuntimeError(f"ridge system is not positive definite: smallest "
                               f"eigenvalue {self.ridge[0]:.3g}; increase lam")
        self._kxx_eig = _truncated_eig(vals, self.eigvecs)

    @property
    def ridge_condition(self) -> float:
        """Condition number of ``K_XX + m*lam*I`` as factored.

        Off the span of ``eigvecs`` (when ``r < m``) its eigenvalue is ``m*lam``.
        """
        low = self.ridge[0] if self.ridge.size == self.m else min(self.ridge[0], self.m * self.lam)
        return float(self.ridge[-1] / low)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``(K_XX + m*lam*I)^{-1}`` to a vector or matrix."""
        coef = self.eigvecs.T @ rhs
        inside = self.eigvecs @ (coef.T / self.ridge).T   # row i of coef over ridge[i]
        return inside + (rhs - self.eigvecs @ coef) / (self.m * self.lam)


def fit(data: PairedDataset, lam: float, spec: KernelSpec) -> FittedOperator:
    """Fit the regularized embedded operator on a paired dataset."""
    return FittedOperator(data.x, data.y, lam, spec)


def pushforward(op: FittedOperator, mu: Embedding) -> Embedding:
    """Apply the fitted operator to an embedding.

    The result is anchored on the training outputs with weights
    ``(K_XX + m*lam*I)^{-1} K_{X,Z} w``.  On anchors ``Z`` equal to ``X`` or
    ``Y`` (tested as ``gram`` does) ``K_{X,Z} w`` is ``L_X (L_X^T w)`` or
    ``L_X (L_Y^T w)``; other anchors build the dense ``K_{X,Z}``.
    """
    if mu.dim != op.x_train.shape[1]:
        raise ValueError(f"state dimension mismatch: {mu.dim} vs {op.x_train.shape[1]}")
    if _same_points(mu.anchors, op.x_train):
        k_w = op.l_x @ (op.l_x.T @ mu.weights)
    elif _same_points(mu.anchors, op.y_train):
        k_w = op.l_x @ (op.l_y.T @ mu.weights)
    else:
        k_w = gram(op.x_train, mu.anchors, op.spec) @ mu.weights
    return Embedding(op.y_train, op.solve(k_w))


def _same_points(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.shape == b.shape and np.array_equal(a, b))


def _top(m_red: np.ndarray, w: np.ndarray, anchors: np.ndarray) -> tuple[float, Embedding]:
    """Square root of the top eigenvalue of the quadratic form ``m_red`` and
    the embedding on ``anchors`` with weights ``w v`` attaining it, where ``v``
    is the top eigenvector and ``w`` maps reduced to anchor coordinates."""
    vals, vecs = np.linalg.eigh(0.5 * (m_red + m_red.T))
    return float(np.sqrt(max(0.0, vals[-1]))), Embedding(anchors, w @ vecs[:, -1])


def operator_norm_maximizer(op: FittedOperator) -> tuple[float, Embedding]:
    """Operator norm together with a unit-norm embedding attaining it."""
    # Symmetric form of sup { a^T K S K a : a^T K a <= 1 } on the numerical
    # range of K, with S = (K + m lam I)^{-1} K_YY (K + m lam I)^{-1}.
    vals, vecs = op._kxx_eig
    t = op.l_y.T @ op.solve(vecs * np.sqrt(vals))   # L_Y^T (K + m lam I)^{-1} K^{1/2}
    return _top(t.T @ t, vecs / np.sqrt(vals), op.x_train)


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
    m_full = (t1.T @ gram(op1.y_train, op1.y_train, op1.spec) @ t1
              + t2.T @ gram(op2.y_train, op2.y_train, op2.spec) @ t2 - c - c.T)
    vals, vecs = _truncated_eig(*np.linalg.eigh(gram(z, z, op1.spec)))
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
