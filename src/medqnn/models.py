"""The three 42-parameter classifiers: CV circuit, DV circuit, classical net.

All share one shape: 4 input features -> a 32-parameter feature extractor
-> a linear head (num_classes x 4 weights + biases), 42 trainable values
in the binary case. Inputs are z-scored with training-fold statistics
stored on the model, so a checkpoint is self-contained.

Feature extractors, layer by layer (two layers, 16 parameters each):

* CV: 4-mode vacuum, encode feature i as displacement D(z_i, 0); each
  layer applies trainable displacements D(d_i, 0), rotations R(phi_i),
  squeezes S(r_i) per mode, then beamsplitters BS(theta, phi) on mode
  pairs (0,1) and (2,3); outputs are the four <x_i>.
* DV: |0000>, encode RY(pi * clamp(z_i, -1, 1)) per qubit; each layer is
  RY, RZ, RY, RZ per qubit followed by CNOT(0->1) and CNOT(2->3);
  outputs are the four <Z_i>.
* Classical: two bias-free 4x4 dense maps with tanh after each.

Every kind runs through one batched path, ``predict_batch``, which
training, evaluation and saliency all use; ``cv_final_state`` and
``dv_final_state`` expose one sample's full circuit state for dumps.
Head gradients are analytic (softmax cross-entropy closed form), the DV
circuit differentiates by the parameter-shift rule, the CV circuit by
central finite differences (the shift rules for squeezing are not worth
their complexity at 32 parameters), and the classical net by backprop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gaussian, statevector
from .errors import DataError, NumericError
from .rng import Rng

NUM_MODES = 4
NUM_LAYERS = 2
PARAMS_PER_LAYER = 16
NUM_CIRCUIT_PARAMS = NUM_LAYERS * PARAMS_PER_LAYER  # 32

KINDS = ("cv", "dv", "classical")

CV_FD_EPSILON = 1e-4

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class HybridModel:
    kind: str
    num_classes: int
    circuit_params: np.ndarray  # (32,)
    head_weights: np.ndarray    # (num_classes, 4)
    head_bias: np.ndarray       # (num_classes,)
    feature_mean: np.ndarray    # (4,) z-score statistics of the training fold
    feature_std: np.ndarray     # (4,)


def num_params(model: HybridModel) -> int:
    return NUM_CIRCUIT_PARAMS + (NUM_MODES + 1) * model.num_classes


def init_model(
    kind: str,
    num_classes: int,
    rng: Rng,
    feature_mean: np.ndarray | None = None,
    feature_std: np.ndarray | None = None,
) -> HybridModel:
    """Fresh model: circuit params ~ U(-0.1, 0.1) (near-identity gates keep
    early training stable), head ~ U(-0.5, 0.5). Draw order is circuit,
    weights row-major, bias."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    circuit = rng.uniform_vector(-0.1, 0.1, NUM_CIRCUIT_PARAMS)
    weights = rng.uniform_vector(-0.5, 0.5, num_classes * NUM_MODES).reshape(num_classes, NUM_MODES)
    bias = rng.uniform_vector(-0.5, 0.5, num_classes)
    return HybridModel(
        kind=kind,
        num_classes=num_classes,
        circuit_params=circuit,
        head_weights=weights,
        head_bias=bias,
        feature_mean=np.zeros(NUM_MODES) if feature_mean is None else np.asarray(feature_mean, float),
        feature_std=np.ones(NUM_MODES) if feature_std is None else np.asarray(feature_std, float),
    )


def standardize(model: HybridModel, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - model.feature_mean) / model.feature_std


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _check_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != NUM_MODES:
        raise ValueError(f"expected {NUM_MODES} features, got {features.shape[-1]}")
    if not np.all(np.isfinite(features)):
        raise DataError("non-finite feature values")
    return features


def _require_kind(model: HybridModel, kind: str) -> None:
    if model.kind != kind:
        raise ValueError(f"expected a {kind!r} model, got {model.kind!r}")


def _head(model: HybridModel, outputs: np.ndarray) -> np.ndarray:
    return outputs @ model.head_weights.T + model.head_bias


# --- CV ----------------------------------------------------------------------

def _cv_layer_gates(layer_params: np.ndarray):
    """Yield (symplectic, displacement) pairs in application order."""
    n = NUM_MODES
    for mode in range(n):
        yield None, gaussian.displacement_vector(n, mode, layer_params[mode], 0.0)
    for mode in range(n):
        yield gaussian.rotation_symplectic(n, mode, layer_params[4 + mode]), None
    for mode in range(n):
        yield gaussian.squeeze_symplectic(n, mode, layer_params[8 + mode]), None
    yield gaussian.beamsplitter_symplectic(n, 0, 1, layer_params[12], layer_params[13]), None
    yield gaussian.beamsplitter_symplectic(n, 2, 3, layer_params[14], layer_params[15]), None


def _cv_transform(circuit_params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated affine action (S, d) of the variational layers on the mean."""
    n2 = 2 * NUM_MODES
    s_total = np.eye(n2)
    d_total = np.zeros(n2)
    try:
        for layer in range(NUM_LAYERS):
            chunk = circuit_params[layer * PARAMS_PER_LAYER : (layer + 1) * PARAMS_PER_LAYER]
            for s_gate, d_gate in _cv_layer_gates(chunk):
                if s_gate is not None:
                    s_total = s_gate @ s_total
                    d_total = s_gate @ d_total
                if d_gate is not None:
                    d_total = d_total + d_gate
    except ValueError as exc:  # the squeeze overflow guard, the gates' only check
        raise NumericError(str(exc)) from exc
    return s_total, d_total


def _cv_outputs_batch(circuit_params: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<x_i> for standardized inputs z of shape (..., 4)."""
    s_total, d_total = _cv_transform(circuit_params)
    block = s_total[:NUM_MODES, :NUM_MODES]  # encoding means live on x only
    return np.sqrt(2.0) * z @ block.T + d_total[:NUM_MODES]


def cv_final_state(model: HybridModel, features: np.ndarray) -> gaussian.GaussianState:
    """Final Gaussian state for one sample, in closed form from ``_cv_transform``.

    The vacuum covariance is the identity and displacements leave the
    covariance alone, so the circuit's state is mean = S [sqrt(2) z; 0] + d
    and cov = S S^T.
    """
    _require_kind(model, "cv")
    z = standardize(model, _check_features(features))
    s_total, d_total = _cv_transform(model.circuit_params)
    encoded = np.concatenate([np.sqrt(2.0) * z, np.zeros(NUM_MODES)])
    return gaussian.GaussianState(NUM_MODES, s_total @ encoded + d_total, s_total @ s_total.T)


# --- DV ----------------------------------------------------------------------

def build_dv_circuit() -> statevector.Circuit:
    ops = [
        statevector.Op("ry", (q,), input_slot=q, scale=np.pi) for q in range(NUM_MODES)
    ]
    for layer in range(NUM_LAYERS):
        base = layer * PARAMS_PER_LAYER
        for stage, gate in enumerate(("ry", "rz", "ry", "rz")):
            for q in range(NUM_MODES):
                ops.append(statevector.Op(gate, (q,), param=base + stage * NUM_MODES + q))
        ops.append(statevector.Op("cnot", (0, 1)))
        ops.append(statevector.Op("cnot", (2, 3)))
    return statevector.Circuit(num_qubits=NUM_MODES, ops=tuple(ops))


_DV_CIRCUIT = build_dv_circuit()


def _dv_encoding(z: np.ndarray) -> np.ndarray:
    return np.clip(z, -1.0, 1.0)


def _dv_outputs_batch(circuit_params: np.ndarray, z: np.ndarray) -> np.ndarray:
    return statevector.circuit_expectations(_DV_CIRCUIT, circuit_params, _dv_encoding(z))


def dv_final_state(model: HybridModel, features: np.ndarray) -> statevector.QubitState:
    _require_kind(model, "dv")
    z = standardize(model, _check_features(features))
    amps = statevector.run_circuit(_DV_CIRCUIT, model.circuit_params, _dv_encoding(z))
    return statevector.QubitState(NUM_MODES, amps)


# --- classical ----------------------------------------------------------------

def _classical_hidden(circuit_params: np.ndarray, z: np.ndarray):
    w1 = circuit_params[:16].reshape(NUM_MODES, NUM_MODES)
    w2 = circuit_params[16:].reshape(NUM_MODES, NUM_MODES)
    h1 = np.tanh(z @ w1.T)
    h2 = np.tanh(h1 @ w2.T)
    return h1, h2


def _classical_outputs_batch(circuit_params: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _classical_hidden(circuit_params, z)[1]


# --- shared entry points --------------------------------------------------

_OUTPUTS_BY_KIND = {
    "cv": _cv_outputs_batch,
    "dv": _dv_outputs_batch,
    "classical": _classical_outputs_batch,
}


def predict_batch(model: HybridModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits, probabilities) for a (m, 4) feature matrix."""
    z = standardize(model, _check_features(features))
    logits = _head(model, _OUTPUTS_BY_KIND[model.kind](model.circuit_params, z))
    return logits, softmax(logits)


def batch_loss_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    return float(np.mean(logz - logits[np.arange(len(labels)), labels]))


def loss_and_grad(
    model: HybridModel, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(mean loss, gradient vector, logits) over a batch.

    Gradient layout: circuit params (32), head weights row-major, head bias.
    """
    features = _check_features(np.atleast_2d(np.asarray(features, dtype=float)))
    labels = np.asarray(labels, dtype=int)
    if len(features) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("label out of range")
    z = standardize(model, features)
    outputs = _OUTPUTS_BY_KIND[model.kind](model.circuit_params, z)
    logits = _head(model, outputs)
    probs = softmax(logits)
    loss = batch_loss_from_logits(logits, labels)

    batch = len(features)
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    grad_bias = dlogits.sum(axis=0)
    grad_weights = dlogits.T @ outputs
    d_outputs = dlogits @ model.head_weights  # (m, 4)

    if model.kind == "classical":
        grad_circuit = _classical_circuit_grad(model.circuit_params, z, d_outputs)
    elif model.kind == "dv":
        grad_circuit = _dv_circuit_grad(model.circuit_params, z, d_outputs)
    else:
        grad_circuit = _cv_circuit_grad(model, z, labels)

    grad = np.concatenate([grad_circuit, grad_weights.reshape(-1), grad_bias])
    return loss, grad, logits


def _classical_circuit_grad(
    circuit_params: np.ndarray, z: np.ndarray, d_outputs: np.ndarray
) -> np.ndarray:
    w2 = circuit_params[16:].reshape(NUM_MODES, NUM_MODES)
    h1, h2 = _classical_hidden(circuit_params, z)
    d_pre2 = d_outputs * (1.0 - h2**2)
    grad_w2 = d_pre2.T @ h1
    d_h1 = d_pre2 @ w2
    d_pre1 = d_h1 * (1.0 - h1**2)
    grad_w1 = d_pre1.T @ z
    return np.concatenate([grad_w1.reshape(-1), grad_w2.reshape(-1)])


def _dv_circuit_grad(
    circuit_params: np.ndarray, z: np.ndarray, d_outputs: np.ndarray
) -> np.ndarray:
    d_expectations = statevector.param_shift_grad_all(
        _DV_CIRCUIT, circuit_params, _dv_encoding(z)
    )  # (32, m, 4)
    return np.einsum("jmq,mq->j", d_expectations, d_outputs)


def _cv_circuit_grad(model: HybridModel, z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    grad = np.empty(NUM_CIRCUIT_PARAMS)
    params = model.circuit_params
    for index in range(NUM_CIRCUIT_PARAMS):
        shifted = params.copy()
        shifted[index] += CV_FD_EPSILON
        up = batch_loss_from_logits(_head(model, _cv_outputs_batch(shifted, z)), labels)
        shifted[index] -= 2.0 * CV_FD_EPSILON
        down = batch_loss_from_logits(_head(model, _cv_outputs_batch(shifted, z)), labels)
        grad[index] = (up - down) / (2.0 * CV_FD_EPSILON)
    return grad


# --- input gradients (saliency support) -------------------------------------

def logit_input_jacobian(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """d logits / d features, shape (num_classes, 4).

    Analytic backprop for the classical net, the shift rule on encoding
    angles for DV, and the closed form of the CV circuit's affine map.
    The clamp in the DV encoding contributes zero gradient where it
    saturates.
    """
    features = _check_features(np.asarray(features, dtype=float))
    z = standardize(model, features)
    if model.kind == "classical":
        w1 = model.circuit_params[:16].reshape(NUM_MODES, NUM_MODES)
        w2 = model.circuit_params[16:].reshape(NUM_MODES, NUM_MODES)
        h1, h2 = _classical_hidden(model.circuit_params, z)
        jac_outputs = (w2 * (1.0 - h2**2)[:, None]) @ (w1 * (1.0 - h1**2)[:, None])
        d_out_d_features = jac_outputs / model.feature_std[None, :]
        return model.head_weights @ d_out_d_features
    if model.kind == "dv":
        d_exp = statevector.param_shift_grad_all(
            _DV_CIRCUIT, model.circuit_params, _dv_encoding(z), wrt="input_slot"
        )  # (4 features, 4 outputs)
        active = (np.abs(z) < 1.0).astype(float)
        return model.head_weights @ (d_exp.T * active / model.feature_std)
    # cv: the outputs sqrt(2) z S[:4, :4]^T + d are affine in the features
    s_total, _ = _cv_transform(model.circuit_params)
    block = s_total[:NUM_MODES, :NUM_MODES]
    return model.head_weights @ (np.sqrt(2.0) * block / model.feature_std)


# --- persistence -------------------------------------------------------------

def save_checkpoint(model: HybridModel, path: str | Path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "num_classes": model.num_classes,
        "circuit_params": model.circuit_params.tolist(),
        "head_weights": model.head_weights.tolist(),
        "head_bias": model.head_bias.tolist(),
        "feature_stats": {
            "mean": model.feature_mean.tolist(),
            "std": model.feature_std.tolist(),
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> HybridModel:
    """Read a checkpoint, checking every key, shape and value before use."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
        or payload.get("kind") not in KINDS
    ):
        raise DataError(f"{path} is not a version-{CHECKPOINT_VERSION} model checkpoint")
    try:
        num_classes = payload["num_classes"]
        if not isinstance(num_classes, int) or num_classes < 2:
            raise ValueError(f"num_classes {num_classes!r} is not an integer >= 2")
        arrays = {
            "circuit_params": (payload["circuit_params"], (NUM_CIRCUIT_PARAMS,)),
            "head_weights": (payload["head_weights"], (num_classes, NUM_MODES)),
            "head_bias": (payload["head_bias"], (num_classes,)),
            "feature_mean": (payload["feature_stats"]["mean"], (NUM_MODES,)),
            "feature_std": (payload["feature_stats"]["std"], (NUM_MODES,)),
        }
        values = {}
        for name, (raw, shape) in arrays.items():
            values[name] = np.array(raw, dtype=float)
            if values[name].shape != shape:
                raise ValueError(f"{name} has shape {values[name].shape}, expected {shape}")
            if not np.all(np.isfinite(values[name])):
                raise ValueError(f"{name} holds non-finite values")
        if np.any(values["feature_std"] <= 0):
            raise ValueError("feature_std must be positive")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from exc
    return HybridModel(kind=payload["kind"], num_classes=num_classes, **values)


def with_params(model: HybridModel, flat: np.ndarray) -> HybridModel:
    """Model with all trainable values replaced from one flat vector."""
    c = NUM_CIRCUIT_PARAMS
    heads = model.num_classes * NUM_MODES
    if len(flat) != num_params(model):
        raise ValueError(f"expected {num_params(model)} values, got {len(flat)}")
    return replace(
        model,
        circuit_params=flat[:c].copy(),
        head_weights=flat[c : c + heads].reshape(model.num_classes, NUM_MODES).copy(),
        head_bias=flat[c + heads :].copy(),
    )


def flat_params(model: HybridModel) -> np.ndarray:
    return np.concatenate(
        [model.circuit_params, model.head_weights.reshape(-1), model.head_bias]
    )
