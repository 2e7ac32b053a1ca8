"""medqnn's layers as the traced run sees them, and the per-layer metrics.

The layers are the package's modules. Every public function of each
module becomes a span named ``<module>.<function>``; the hooks below add
the model kind to the span name where one function serves all three
kinds, and count the rows a call works on.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np

from spans import Tracer
from workloads import KINDS

LAYERS = (
    "cli", "data", "rng", "pca", "models", "statevector",
    "gaussian", "training", "metrics", "saliency", "stats",
)
GATE_CONSTRUCTORS = (
    "displacement_vector", "rotation_symplectic", "squeeze_symplectic", "beamsplitter_symplectic",
)


def load_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"medqnn.{layer}") for layer in LAYERS}


class Hooks:
    """Describe hooks for ``spans.instrumented``, plus the state they keep."""

    def __init__(self):
        self.normal_fields: set[str] = set()  # digests of (seeds, draws) drawn
        self.epochs = {kind: 0 for kind in KINDS}

    def table(self) -> dict[str, object]:
        return {
            "models.loss_and_grad": lambda model, features, *a, **k: (model.kind, len(features)),
            "models.predict_batch": lambda model, features, *a, **k: (model.kind, len(features)),
            "models.logit_input_jacobian": lambda model, *a, **k: (model.kind, 1),
            "statevector.run_circuit": self._circuit_rows,
            "training.train_model": self._train_model,
            "rng.normal_field": self._normal_field,
        }

    @staticmethod
    def _circuit_rows(circuit, params, inputs, *args, **kwargs):
        return None, int(np.prod(np.shape(inputs)[:-1]))

    def _train_model(self, kind, *args, **kwargs):
        config = kwargs.get("config", args[5] if len(args) > 5 else None)
        self.epochs[kind] += config.epochs
        return kind, 0

    def _normal_field(self, seeds, draws):
        seeds = np.asarray(seeds, dtype=np.uint64)
        digest = hashlib.sha256(seeds.tobytes() + str(draws).encode()).hexdigest()
        self.normal_fields.add(digest)
        return None, len(seeds)


# name -> unit, in the order they are printed
PER_LAYER_UNITS: dict[str, str] = {}
for _kind in KINDS:
    PER_LAYER_UNITS |= {
        f"models.loss_and_grad.{_kind}.self_s": "s",
        f"models.loss_and_grad.{_kind}.total_s": "s",
        f"models.loss_and_grad.{_kind}.calls": "count",
        f"models.loss_and_grad.{_kind}.rows": "count",
    }
for _kind in KINDS:
    PER_LAYER_UNITS |= {
        f"models.predict_batch.{_kind}.self_s": "s",
        f"models.predict_batch.{_kind}.rows": "count",
        f"models.logit_input_jacobian.{_kind}.self_s": "s",
        f"models.logit_input_jacobian.{_kind}.calls": "count",
    }
PER_LAYER_UNITS |= {
    "models.with_params.self_s": "s",
    "statevector.run_circuit.self_s": "s",
    "statevector.run_circuit.total_s": "s",
    "statevector.run_circuit.calls": "count",
    "statevector.run_circuit.rows": "count",
    "statevector.param_shift_grad_all.self_s": "s",
    "statevector.param_shift_grad_all.total_s": "s",
    "gaussian.gate_builds": "count",
    "gaussian.gate_build.self_s": "s",
    "pca.fit.self_s": "s",
    "pca.fit.calls": "count",
    "pca.transform.self_s": "s",
}
PER_LAYER_UNITS |= {f"training.train_model.epoch_s.{_kind}": "s" for _kind in KINDS}
PER_LAYER_UNITS |= {
    "training.adam_step.self_s": "s",
    "training.adam_step.calls": "count",
    "training.stratified_kfold.self_s": "s",
    "rng.normal_field.self_s": "s",
    "rng.normal_field.calls": "count",
    "rng.normal_field.distinct_ratio": "ratio",
    "data.inject_gaussian_noise.self_s": "s",
    "data.load_archive.self_s": "s",
    "data.load_archive.calls": "count",
    "metrics.roc_curve.calls": "count",
    "metrics.pr_curve.calls": "count",
    "metrics.ovr_areas.self_s": "s",
    "metrics.curves_used_ratio": "ratio",
    "saliency.input_gradient_map.self_s": "s",
    "saliency.render_pgm.self_s": "s",
    "saliency.render_pgm.calls": "count",
    "stats.compare_models.self_s": "s",
}
PER_LAYER_UNITS |= {f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"}
PER_LAYER_UNITS |= {"cli.self_s": "s", "trace.overhead_frac": "ratio"}


def _ratio(numerator: float, denominator: float) -> float:
    """0 when nothing was attempted, so the metric stays a number."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, hooks: Hooks, curves_written: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``."""
    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        base, _, field = name.rpartition(".")
        if field in ("self_s", "total_s", "calls", "rows"):
            values[name] = getattr(tracer.get(base), field)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s.self_s for name, s in tracer.stats.items() if name.startswith(layer + ".")
        )
    gates = [tracer.get(f"gaussian.{name}") for name in GATE_CONSTRUCTORS]
    values["gaussian.gate_builds"] = sum(g.calls for g in gates)
    values["gaussian.gate_build.self_s"] = sum(g.self_s for g in gates)
    for kind in KINDS:
        values[f"training.train_model.epoch_s.{kind}"] = _ratio(
            tracer.get(f"training.train_model.{kind}").total_s, hooks.epochs[kind]
        )
    normal = tracer.get("rng.normal_field")
    values["rng.normal_field.distinct_ratio"] = _ratio(len(hooks.normal_fields), normal.calls)
    computed = tracer.get("metrics.roc_curve").calls + tracer.get("metrics.pr_curve").calls
    values["metrics.curves_used_ratio"] = _ratio(curves_written, computed)
    return values
