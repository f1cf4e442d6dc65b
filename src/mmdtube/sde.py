"""Paired lag-time samples from SDE models.

The Ornstein-Uhlenbeck process ``dX = -alpha X dt + sqrt(2/beta_temp) dW``
is sampled through its exact Gaussian transition; other drifts go through
Euler-Maruyama.  Every dataset is reproducible: pair ``i`` consumes only the
``i``-th substream spawned from the master seed, so serial and blocked
generation produce identical results.

``beta_temp`` is the inverse temperature of the Langevin form
``dX = -grad V(X) dt + sqrt(2/beta_temp) dW`` (named to avoid a collision
with embedding weights).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import as_points

# pairs processed per noise block when integrating ensembles
_PAIR_BLOCK = 4096


@dataclass(frozen=True)
class SdeModel:
    """Time-homogeneous SDE ``dX = drift(X) dt + diffusion_const dW``.

    ``drift`` must be vectorised: it is applied to arrays of shape ``(d,)``
    and ``(n, d)`` and must act elementwise over the leading axis.
    ``ou_rate`` is set for Ornstein-Uhlenbeck models and enables exact
    transition sampling instead of time discretisation.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion_const: float
    name: str = "sde"
    ou_rate: float | None = None

    def __post_init__(self):
        # zero is allowed: the deterministic degenerate case is a useful oracle
        if not np.isfinite(self.diffusion_const) or self.diffusion_const < 0:
            raise ValueError(f"diffusion_const must be nonnegative, got {self.diffusion_const}")


def ou_model(alpha: float, beta_temp: float) -> SdeModel:
    """Ornstein-Uhlenbeck model with rate ``alpha`` and inverse temperature ``beta_temp``."""
    if alpha <= 0 or beta_temp <= 0:
        raise ValueError("alpha and beta_temp must be positive")
    return SdeModel(
        drift=lambda x: -alpha * x,
        diffusion_const=math.sqrt(2.0 / beta_temp),
        name="ou",
        ou_rate=alpha,
    )


def langevin_model(grad_potential: Callable[[np.ndarray], np.ndarray],
                   beta_temp: float, name: str = "langevin") -> SdeModel:
    """Langevin model ``dX = -grad V(X) dt + sqrt(2/beta_temp) dW``."""
    if beta_temp <= 0:
        raise ValueError("beta_temp must be positive")
    return SdeModel(
        drift=lambda x: -grad_potential(x),
        diffusion_const=math.sqrt(2.0 / beta_temp),
        name=name,
    )


def double_well_model(beta_temp: float = 4.0) -> SdeModel:
    """Langevin dynamics in the double-well potential ``V(x) = (x^2 - 1)^2``."""
    return langevin_model(lambda x: 4.0 * x * (x * x - 1.0), beta_temp, name="double-well")


@dataclass(frozen=True)
class GaussianInitial:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(n)


@dataclass(frozen=True)
class UniformInitial:
    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("require low < high")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, n)


@dataclass(frozen=True)
class PointInitial:
    x: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.x))


InitialSampler = GaussianInitial | UniformInitial | PointInitial


@dataclass(frozen=True)
class PairedDataset:
    """``m`` sample pairs: ``y[i]`` is the state reached from ``x[i]`` after ``lag``."""

    x: np.ndarray
    y: np.ndarray
    lag: float
    seed: int
    model_name: str = ""
    dt: float | None = None

    def __post_init__(self):
        x = as_points(self.x)
        y = as_points(self.y)
        if x.shape != y.shape:
            raise ValueError(f"x/y shape mismatch: {x.shape} vs {y.shape}")
        if self.lag <= 0:
            raise ValueError(f"lag must be positive, got {self.lag}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _ou_transition(lag: float, alpha: float, beta_temp: float) -> tuple[float, float]:
    """Mean factor and standard deviation of the exact OU transition over ``lag``."""
    if lag <= 0 or alpha <= 0 or beta_temp <= 0:
        raise ValueError("lag, alpha, and beta_temp must all be positive")
    decay = math.exp(-alpha * lag)
    return decay, math.sqrt((1.0 - decay * decay) / (alpha * beta_temp))


def ou_exact_step(x0: float, lag: float, alpha: float, beta_temp: float,
                  rng: np.random.Generator) -> float:
    """One exact Ornstein-Uhlenbeck transition.

    Draws from ``N(x0 e^{-alpha lag}, (1 - e^{-2 alpha lag}) / (alpha beta_temp))``.
    """
    decay, sd = _ou_transition(lag, alpha, beta_temp)
    return float(x0 * decay + sd * rng.standard_normal())


def _em_step(model: SdeModel, state: np.ndarray, dt: float, noise: np.ndarray,
             k: int) -> np.ndarray:
    """One Euler-Maruyama increment; ``k`` is the step index for the error message."""
    b = np.asarray(model.drift(state), dtype=float)
    if not np.all(np.isfinite(b)):
        raise FloatingPointError(f"drift produced non-finite values at step {k}")
    return state + b * dt + model.diffusion_const * math.sqrt(dt) * noise


def euler_maruyama(model: SdeModel, x0, dt: float, steps: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Integrate one trajectory; returns a ``(steps + 1, d)`` array with row 0 = x0."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    out = np.empty((steps + 1, state.shape[0]))
    out[0] = state
    for k in range(steps):
        state = _em_step(model, state, dt, rng.standard_normal(state.shape), k)
        out[k + 1] = state
    return out


def simulate_pairs(model: SdeModel, initial: InitialSampler, lag: float, m: int,
                   dt: float = 1e-3, seed: int = 0) -> PairedDataset:
    """Draw ``m`` independent ``(x, y)`` pairs separated by lag time ``lag``.

    OU models use the exact transition; everything else takes ``n = ceil(lag /
    dt)`` Euler-Maruyama steps of ``lag / n``, and the dataset records ``dt``,
    the largest step.  Pair ``i`` uses substream ``i`` of the master seed:
    first the initial draw, then the transition noise (one normal for OU).
    """
    if m < 2:
        raise ValueError(f"need at least 2 pairs (Gram ridge degenerates), got m={m}")
    if lag <= 0:
        raise ValueError(f"lag must be positive, got {lag}")
    if not (math.isfinite(dt) and dt > 0):  # checked for OU too, which does not use it
        raise ValueError(f"dt must be finite and positive, got {dt}")
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(m)]
    ou = model.ou_rate is not None
    if ou:
        decay, sd = _ou_transition(lag, model.ou_rate, 2.0 / model.diffusion_const**2)
    steps = 1 if ou else max(1, math.ceil(lag / dt))
    x = np.empty(m)
    y = np.empty(m)
    for start in range(0, m, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, m)
        noise = np.empty((stop - start, steps))
        for j, rng in enumerate(rngs[start:stop]):
            x[start + j] = initial.sample(rng, 1)[0]
            rng.standard_normal(out=noise[j])
        if ou:
            y[start:stop] = x[start:stop] * decay + sd * noise[:, 0]
            continue
        state = x[start:stop, None]
        for k in range(steps):
            state = _em_step(model, state, lag / steps, noise[:, k, None], k)
        y[start:stop] = state[:, 0]
    return PairedDataset(x[:, None], y[:, None], lag, seed, model.name, None if ou else dt)


def save_dataset(data: PairedDataset, csv_path, sidecar_path=None) -> tuple[Path, Path]:
    """Write pairs as CSV (``x_0..x_{d-1}, y_0..y_{d-1}``) plus a JSON metadata sidecar."""
    csv_path = Path(csv_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else csv_path.with_suffix(".json")
    d = data.dim
    header = ",".join([f"x_{j}" for j in range(d)] + [f"y_{j}" for j in range(d)])
    np.savetxt(csv_path, np.hstack([data.x, data.y]), delimiter=",",
               header=header, comments="", fmt="%.17g")
    meta = {
        "model": data.model_name,
        "lag": data.lag,
        "seed": data.seed,
        "dt": data.dt,
        "m": data.m,
    }
    sidecar_path.write_text(json.dumps(meta, indent=2) + "\n")
    return csv_path, sidecar_path


def load_dataset(csv_path, sidecar_path=None) -> PairedDataset:
    """Inverse of :func:`save_dataset`."""
    csv_path = Path(csv_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else csv_path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text())
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] % 2:
        raise ValueError(f"{csv_path} has {table.shape[1]} columns; x and y need an even count")
    if table.shape[0] != meta["m"]:
        raise ValueError(f"{csv_path} has {table.shape[0]} rows but {sidecar_path} "
                         f"says m = {meta['m']}")
    d = table.shape[1] // 2
    return PairedDataset(table[:, :d], table[:, d:], lag=float(meta["lag"]),
                         seed=int(meta["seed"]), model_name=str(meta["model"]),
                         dt=None if meta.get("dt") is None else float(meta["dt"]))
