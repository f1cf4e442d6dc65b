"""Forward propagation of MMD ambiguity tubes.

Starting from an initial embedding with trusted radius ``rho_0``, each step
pushes the embedding through the fitted operator and grows the radius by

    rho_{i+1} = F * (||q_i|| + rho_i) + E * rho_i,

where ``E`` is the operator norm and ``F`` the operator deviation estimate.
Both scalars are evaluated once, before the loop.  The centres are ``T``
calls of ``pushforward``; from step 1 on they sit on the training outputs,
so those calls and their norms read the operator's factor and build no Gram.
The closed-form bounds below are the exact unrolling of this recursion
(computable variant) and the non-computable variant that requires the true
embedded norms; they exist for cross-checking and synthetic ground-truth studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import Embedding, rkhs_norm
from .operators import FittedOperator, OperatorNorms, pushforward


@dataclass(frozen=True)
class TubeStep:
    embedding: Embedding
    radius: float
    norm: float


@dataclass(frozen=True)
class AmbiguityTube:
    """Time-indexed sequence of (embedding, radius) pairs, t = 0..T."""

    steps: tuple[TubeStep, ...]

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ValueError("a tube needs at least steps t=0 and t=1")
        for s in self.steps:
            if not np.isfinite(s.radius) or s.radius < 0:
                raise ValueError("tube radii must be finite and nonnegative")

    @property
    def horizon(self) -> int:
        return len(self.steps) - 1

    @property
    def radii(self) -> np.ndarray:
        return np.array([s.radius for s in self.steps])

    @property
    def norms(self) -> np.ndarray:
        return np.array([s.norm for s in self.steps])


def radius_series(e_norm: float, f_norm: float, rho0: float,
                  embedding_norms) -> np.ndarray:
    """Radii ``rho_0..rho_T`` of the tube recursion for a given norm sequence.

    ``embedding_norms`` holds ``||q_t||`` for t = 0..T-1;
    the returned array has length ``T + 1``.
    """
    norms = np.asarray(embedding_norms, dtype=float)
    if rho0 < 0:
        raise ValueError(f"rho0 must be nonnegative, got {rho0}")
    if e_norm < 0 or f_norm < 0:
        raise ValueError("e_norm and f_norm must be nonnegative")
    radii = np.empty(norms.shape[0] + 1)
    radii[0] = rho0
    rho = rho0
    for i, n in enumerate(norms):
        rho = f_norm * (n + rho) + e_norm * rho
        radii[i + 1] = rho
    return radii


def propagate_tube(op: FittedOperator, initial: Embedding, rho0: float, T: int,
                   norms: OperatorNorms) -> AmbiguityTube:
    """Run the multistep propagation for ``T`` steps from an initial embedding."""
    if rho0 < 0:
        raise ValueError(f"rho0 must be nonnegative, got {rho0}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    # Steps t >= 1 sit on the training outputs, so their norms are ||L_Y^T w||;
    # the initial norm comes from a factor of the initial anchors (rkhs_norm).
    emb_norms = [rkhs_norm(initial, op.spec)]
    embeddings = [initial]
    for _ in range(T):
        embeddings.append(pushforward(op, embeddings[-1]))
        emb_norms.append(np.linalg.norm(op.l_y.T @ embeddings[-1].weights))
    radii = radius_series(norms.e_norm, norms.f_norm, rho0, emb_norms[:T])
    steps = tuple(
        TubeStep(embedding=q, radius=float(r), norm=float(n))
        for q, r, n in zip(embeddings, radii, emb_norms)
    )
    return AmbiguityTube(steps)


def closed_form_bound_computable(e_norm: float, f_norm: float, rho0: float,
                                 empirical_norms, T: int) -> float:
    """Closed form of the final tube radius from empirical embedding norms.

    Evaluates ``(E+F)^T rho0 + sum_{i=0}^{T-1} (E+F)^i F ||q_{T-1-i}||`` --
    the full unrolling of the recursion (the sum starts at i = 0, which the
    recursion generates; see the oracle variant for the i = 1 form).
    Powers accumulate sequentially so the F = 0 case reproduces the
    recursion bit for bit.
    """
    norms = np.asarray(empirical_norms, dtype=float)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if norms.shape[0] < T:
        raise ValueError(f"need ||q_t|| for t = 0..{T - 1}, got {norms.shape[0]} values")
    if rho0 < 0 or e_norm < 0 or f_norm < 0 or np.any(norms < 0):
        raise ValueError("all inputs must be nonnegative")
    growth = e_norm + f_norm
    lead = rho0
    power = 1.0
    total = 0.0
    for i in range(T):
        lead = lead * growth
        total += power * f_norm * norms[T - 1 - i]
        power *= growth
    return float(lead + total)


def closed_form_bound_oracle(e_norm: float, f_norm: float, mmd0: float,
                             true_norms, T: int) -> float:
    """Non-computable multistep bound from the true embedded norms.

    Evaluates ``E^T mmd0 + sum_{i=1}^{T-1} E^i F ||p_{T-i-1}||`` verbatim;
    ``true_norms[t]`` must supply ``||p_t||`` for t = 0..T-2 (synthetic
    ground truth only).
    """
    norms = np.asarray(true_norms, dtype=float)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if T > 1 and norms.shape[0] < T - 1:
        raise ValueError(f"need ||p_t|| for t = 0..{T - 2}, got {norms.shape[0]} values")
    total = e_norm**T * mmd0
    for i in range(1, T):
        total += e_norm**i * f_norm * norms[T - i - 1]
    return float(total)


def save_tube(tube: AmbiguityTube, radius_csv, weights_csv) -> tuple[Path, Path]:
    """Write the radius series and the per-step anchor weights as CSV files."""
    radius_csv, weights_csv = Path(radius_csv), Path(weights_csv)
    table = np.column_stack([np.arange(tube.horizon + 1), tube.radii, tube.norms])
    np.savetxt(radius_csv, table, delimiter=",", comments="",
               header="t,radius,embedding_norm", fmt=["%d", "%.17g", "%.17g"])
    # one joined string: the bytes np.savetxt writes with these formats, in
    # a fraction of its row-by-row time
    weights_csv.write_text("t,anchor_index,weight\n" + "".join(
        "%d,%d,%.17g\n" % (t, i, w) for t, step in enumerate(tube.steps)
        for i, w in enumerate(step.embedding.weights.tolist())))
    return radius_csv, weights_csv


def load_tube_radii(radius_csv) -> np.ndarray:
    """Read back a ``t,radius,embedding_norm`` CSV as an array."""
    return np.loadtxt(radius_csv, delimiter=",", skiprows=1, ndmin=2)
