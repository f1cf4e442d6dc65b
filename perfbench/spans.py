"""Out-of-process layer tracing: spans recorded around the library's functions.

The library is not edited.  While a :class:`Tracer` is active, each function
in :data:`WRAPPED` is replaced, at the module attribute its caller looks up
at call time, by a wrapper that records one :class:`Span` (layer label, start,
end, parent span).  Spans stay in memory; :func:`layer_metrics` turns the
spans of one workload call into the per-layer metrics, where ``*.s`` is self
time: the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT_LABEL = "experiments"

# (module, attribute looked up at call time, layer label).  A function that is
# imported by name into another module is wrapped under every name a caller
# uses, all with one label.
WRAPPED = (
    ("mmdtube.sde", "simulate_pairs", "sde.simulate_pairs"),
    ("mmdtube.sde", "save_dataset", "sde.save_dataset"),
    ("mmdtube.experiments", "median_bandwidth", "kernels.median_bandwidth"),
    ("mmdtube.experiments", "embed_sample", "kernels.embed_sample"),
    ("mmdtube.experiments", "mmd", "kernels.mmd"),
    ("mmdtube.tube", "rkhs_norm", "kernels.rkhs_norm"),
    ("mmdtube.kernels", "gram", "kernels.gram"),
    ("mmdtube.operators", "gram", "kernels.gram"),
    ("mmdtube.operators", "fit", "operators.fit"),
    ("mmdtube.bootstrap", "fit", "operators.fit"),
    ("mmdtube.operators", "operator_norm", "operators.operator_norm"),
    ("mmdtube.operators", "pushforward", "operators.pushforward"),
    ("mmdtube.tube", "pushforward", "operators.pushforward"),
    ("mmdtube.bootstrap", "bootstrap_deviation_quantile", "bootstrap"),
    ("mmdtube.concentration", "estimate_moments", "concentration.estimate_moments"),
    ("mmdtube.concentration", "estimate_hs_norm_cxy", "concentration.estimate_hs_norm_cxy"),
    ("mmdtube.tube", "propagate_tube", "tube.propagate_tube"),
    ("mmdtube.tube", "save_tube", "tube.save_tube"),
)

# labels whose bound arguments and result the output checks read afterwards
CAPTURED = frozenset({"bootstrap", "tube.propagate_tube"})


@dataclass
class Span:
    label: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def data_key(data, seed, m_b) -> tuple:
    """Identity of a bootstrap's work: its dataset, seed and replicate count."""
    digest = hashlib.sha1(data.x.tobytes() + data.y.tobytes()).hexdigest()
    return digest, seed, m_b


def _note(label: str, args: dict, result) -> dict:
    """Counts taken at the layer boundary, from the call's arguments and result."""
    if label == "sde.simulate_pairs":
        return {"pairs": result.m}
    if label == "kernels.gram":
        return {"entries": result.size}
    if label == "operators.fit":
        return {"m": result.m, "x": result.x_train, "spec": result.spec}
    if label == "bootstrap":
        data = args["data"]
        return {"m": data.m, "replicates": result.m_b,
                "key": data_key(data, args["seed"], args["m_b"])}
    if label == "tube.propagate_tube":
        return {"steps": result.horizon}
    if label == "tube.save_tube":
        return {"bytes": sum(Path(p).stat().st_size for p in result)}
    return {}


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``labels`` limits the wrapping to those layer labels; the default wraps
    every entry of :data:`WRAPPED`.
    """

    def __init__(self, labels: frozenset[str] | None = None):
        self.labels = labels
        self.spans: list[Span] = []
        self.calls: dict[str, list[tuple[dict, object]]] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, label in WRAPPED:
            if self.labels is not None and label not in self.labels:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _begin(self, label: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(label, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, original, label: str):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._finish(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.info = _note(label, bound.arguments, result)
            if label in CAPTURED:
                self.calls.setdefault(label, []).append((bound.arguments, result))
            return result

        return wrapper

    def run(self, fn, *args):
        """Call ``fn`` under the root span of the experiments layer."""
        span = self._begin(ROOT_LABEL)
        try:
            return fn(*args)
        finally:
            self._finish(span)

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"id": i, "name": s.label, "parent": s.parent,
                 "start_s": s.start - t0, "end_s": s.end - t0}
                for i, s in enumerate(self.spans)]


# per-layer metric names, in report order
TIMED = (
    ("experiments.self_s", ROOT_LABEL),
    ("sde.simulate_pairs.s", "sde.simulate_pairs"),
    ("sde.save_dataset.s", "sde.save_dataset"),
    ("kernels.gram.s", "kernels.gram"),
    ("kernels.mmd.s", "kernels.mmd"),
    ("kernels.rkhs_norm.s", "kernels.rkhs_norm"),
    ("kernels.median_bandwidth.s", "kernels.median_bandwidth"),
    ("operators.fit.s", "operators.fit"),
    ("operators.operator_norm.s", "operators.operator_norm"),
    ("operators.pushforward.s", "operators.pushforward"),
    ("bootstrap.s", "bootstrap"),
    ("concentration.estimate_moments.s", "concentration.estimate_moments"),
    ("concentration.estimate_hs_norm_cxy.s", "concentration.estimate_hs_norm_cxy"),
    ("tube.propagate_tube.s", "tube.propagate_tube"),
    ("tube.save_tube.s", "tube.save_tube"),
)


def _inside(spans: list[Span], span: Span, label: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].label == label:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times and boundary counts of one traced workload call."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time: dict[str, float] = {}
    by_label: dict[str, list[Span]] = {}
    for s, covered in zip(spans, child_time):
        self_time[s.label] = self_time.get(s.label, 0.0) + s.duration - covered
        by_label.setdefault(s.label, []).append(s)

    def total(label: str, key: str) -> float:
        return float(sum(s.info[key] for s in by_label.get(label, [])))

    def calls(label: str) -> int:
        return len(by_label.get(label, []))

    metrics = {name: self_time.get(label, 0.0) for name, label in TIMED}
    boots = by_label.get("bootstrap", [])
    replicates = total("bootstrap", "replicates")
    metrics.update({
        "experiments.simulate_calls": calls("sde.simulate_pairs"),
        "experiments.bootstrap_calls": len(boots),
        # 1 when every bootstrap call does work no earlier call did
        "experiments.bootstrap_unique_ratio":
            len({s.info["key"] for s in boots}) / len(boots) if boots else 1.0,
        "sde.pairs": total("sde.simulate_pairs", "pairs"),
        "kernels.gram.calls": calls("kernels.gram"),
        "kernels.gram.entries": total("kernels.gram", "entries"),
        "operators.fit.calls": calls("operators.fit"),
        # computed from shapes: one m x m Cholesky factorisation is m^3/3 flops
        "operators.fit.cholesky_flops":
            float(sum(s.info["m"] ** 3 / 3 for s in by_label.get("operators.fit", []))),
        "operators.pushforward.calls": calls("operators.pushforward"),
        "bootstrap.replicates": replicates,
        "bootstrap.replicate_ms":
            1e3 * self_time.get("bootstrap", 0.0) / replicates if replicates else 0.0,
        "bootstrap.cholesky_flops":
            float(sum(s.info["replicates"] * s.info["m"] ** 3 / 3 for s in boots)),
        "tube.steps": total("tube.propagate_tube", "steps"),
        "tube.gram_entries": float(sum(
            s.info["entries"] for s in by_label.get("kernels.gram", [])
            if _inside(spans, s, "tube.propagate_tube"))),
        "tube.bytes_written": total("tube.save_tube", "bytes"),
    })
    return metrics
