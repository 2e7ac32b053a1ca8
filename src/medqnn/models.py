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

Every kind runs through one forward function that returns the outputs
and two backward closures, to the circuit parameters and to the inputs z;
``predict_batch`` (training, evaluation and saliency), ``loss_and_grad``
and ``logit_input_jacobian`` all use it. The input-side closure works
only when called, so training pays nothing for it. ``cv_final_state``
and ``dv_final_state`` expose one sample's full circuit state for dumps.
Neither circuit's variational block depends on the batch, so each is
compiled once per call and all gradients are exact:

* CV: the block is an affine map (S, d) of the quadrature means
  (Weedbrook et al., RMP 84, 621, arXiv:1110.3234). Each layer is four
  stages of commuting gates on distinct modes (displacements, rotations,
  squeezes, the beamsplitter pair), each one vector or 8 x 8 matrix. The
  loss reaches the parameters only through A = S[:4, :4] and b = d[:4],
  so one reverse sweep through the 8 stages gives every partial
  derivative, each gate's read from its own modes' block.
* DV: the encoding is a real product state psi and the block one 16 x 16
  unitary U, so <Z_q> = |U psi|^2 . z_q. U is the product of 10 moments
  (per layer four rotation stages, then the CNOT pair), and one adjoint
  sweep over them gives every parameter gradient for the whole batch.
* Head: softmax cross-entropy in closed form; classical net: backprop.
* Inputs: CV's Jacobian is constant (its outputs are affine in z), DV's
  chains through the product state, the classical net's is backprop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gaussian, statevector
from .errors import DataError, NumericError, checked_arrays
from .rng import Rng

NUM_MODES = 4
NUM_LAYERS = 2
PARAMS_PER_LAYER = 16
NUM_CIRCUIT_PARAMS = NUM_LAYERS * PARAMS_PER_LAYER  # 32

KINDS = ("cv", "dv", "classical")

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

_CV_MODES = tuple(range(NUM_MODES))
_BS_A, _BS_B = (0, 2), (1, 3)  # each layer's beamsplitters mix modes (0, 1) and (2, 3)
# (theta, phi) offsets of a beamsplitter stage's variants: the stage itself,
# then theta + and - pi/2, then phi + and - pi/2
_BS_SHIFTS = np.pi / 2.0 * np.array([[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]])
_SYMPLECTIC_STAGES = ("rotation", "squeeze", "beamsplitter")  # after each layer's displacements


def _cv_stages(circuit_params: np.ndarray) -> dict[str, np.ndarray]:
    """Each kind of stage for every layer, stacked over the layers.

    A layer applies displacements (vectors, shape (layers, 2n)), then
    rotations, squeezes and the beamsplitter pair (symplectic matrices,
    (layers, 2n, 2n)). A stage's gates act on distinct modes, so one
    constructor call builds one kind of stage for all layers. "shifted"
    holds the four beamsplitter stages with one angle moved by +-pi/2
    that the gradient needs, (layers, 4, 2n, 2n).
    """
    n = NUM_MODES
    layers = circuit_params.reshape(NUM_LAYERS, PARAMS_PER_LAYER)
    try:
        squeezes = gaussian.squeeze_symplectic(n, _CV_MODES, layers[:, 8:12])
    except ValueError as exc:  # the squeeze overflow guard
        raise NumericError(str(exc)) from exc
    beamsplitters = gaussian.beamsplitter_symplectic(
        n, _BS_A, _BS_B,
        layers[:, None, 12:16:2] + _BS_SHIFTS[0][:, None],
        layers[:, None, 13:16:2] + _BS_SHIFTS[1][:, None],
    )
    return {
        "displacement": gaussian.displacement_vector(n, _CV_MODES, layers[:, 0:4], 0.0),
        "rotation": gaussian.rotation_symplectic(n, _CV_MODES, layers[:, 4:8]),
        "squeeze": squeezes,
        "beamsplitter": beamsplitters[:, 0],
        "shifted": beamsplitters[:, 1:],
    }


def _cv_transform(circuit_params: np.ndarray):
    """Accumulated affine action (S, d) of the variational layers on the
    mean, and the record the backward pass needs: the stages, and the
    [S | d] each symplectic stage was applied to, in order."""
    stages = _cv_stages(circuit_params)
    affine = np.eye(2 * NUM_MODES, 2 * NUM_MODES + 1)  # [S | d]
    inputs = []
    for layer in range(NUM_LAYERS):
        affine = affine.copy()
        affine[:, -1] += stages["displacement"][layer]
        for kind in _SYMPLECTIC_STAGES:
            inputs.append(affine)
            affine = stages[kind][layer] @ affine
    return affine[:, :-1], affine[:, -1], (stages, inputs)


def _mode_blocks(matrices: np.ndarray) -> np.ndarray:
    """(..., 2n, 2n) -> (..., 2, 2, n): [..., :, :, i] is mode i's block on (x_i, p_i)."""
    n = matrices.shape[-1] // 2
    return matrices.reshape(matrices.shape[:-2] + (2, n, 2, n)).diagonal(axis1=-3, axis2=-1)


def _cv_forward(circuit_params: np.ndarray, z: np.ndarray):
    """<x_i> for standardized inputs z of shape (m, 4), and the backward passes.

    The encoded means sqrt(2) z live on x only, so the outputs are
    sqrt(2) z A^T + b with A = S[:4, :4], b = d[:4]; only those entries
    of [S | d] reach the loss.
    """
    s_total, d_total, (stages, inputs) = _cv_transform(circuit_params)
    outputs = np.sqrt(2.0) * z @ s_total[:NUM_MODES, :NUM_MODES].T + d_total[:NUM_MODES]

    def backward(d_outputs: np.ndarray) -> np.ndarray:
        n = NUM_MODES
        bar = np.zeros((2 * n, 2 * n + 1))  # dL / d[S | d]
        bar[:n, :n] = np.sqrt(2.0) * d_outputs.T @ z
        bar[:n, -1] = d_outputs.sum(axis=0)
        grad = np.zeros((NUM_LAYERS, PARAMS_PER_LAYER))
        adjoints = []  # dL / d(output of each symplectic stage), last stage first
        for layer in reversed(range(NUM_LAYERS)):
            for kind in reversed(_SYMPLECTIC_STAGES):
                adjoints.append(bar)
                bar = stages[kind][layer].T @ bar
            grad[layer, 0:4] = np.sqrt(2.0) * bar[:n, -1]  # d/dr of sqrt(2) r (cos 0, sin 0)
        # dL / dstage, (layer, stage, 2n, 2n); each gate's partials read only its own modes' entries
        bar_stages = np.array(adjoints[::-1]) @ np.array(inputs).transpose(0, 2, 1)
        bar_stages = bar_stages.reshape(NUM_LAYERS, len(_SYMPLECTIC_STAGES), 2 * n, 2 * n)
        g, b = _mode_blocks(stages["rotation"]), _mode_blocks(bar_stages[:, 0])
        cos, sin = g[:, 0, 0], g[:, 1, 0]  # [[cos, -sin], [sin, cos]]
        grad[:, 4:8] = cos * (b[:, 1, 0] - b[:, 0, 1]) - sin * (b[:, 0, 0] + b[:, 1, 1])
        g, b = _mode_blocks(stages["squeeze"]), _mode_blocks(bar_stages[:, 1])  # diag(e^-r, e^r)
        grad[:, 8:12] = g[:, 1, 1] * b[:, 1, 1] - g[:, 0, 0] * b[:, 0, 0]
        # Each beamsplitter entry is a cos(t) + b sin(t) + c in either angle
        # t, so [G(t + pi/2) - G(t - pi/2)] / 2 is the exact derivative; it
        # is nonzero only in the rows of the pair that t belongs to.
        shifted = stages["shifted"]
        slopes = (shifted[:, 0::2] - shifted[:, 1::2]) / 2.0  # (layer, d/dtheta | d/dphi, 2n, 2n)
        rows = (slopes * bar_stages[:, 2:]).reshape(NUM_LAYERS, 2, 2, n, 2 * n).sum(axis=(2, 4))
        grad[:, 12:16] = (rows[..., _BS_A] + rows[..., _BS_B]).swapaxes(1, 2).reshape(NUM_LAYERS, 4)
        return grad.reshape(-1)

    def input_backward(d_outputs: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0) * d_outputs @ s_total[:NUM_MODES, :NUM_MODES]

    return outputs, backward, input_backward


def cv_final_state(model: HybridModel, features: np.ndarray) -> gaussian.GaussianState:
    """Final Gaussian state for one sample, in closed form from ``_cv_transform``.

    The vacuum covariance is the identity and displacements leave the
    covariance alone, so the circuit's state is mean = S [sqrt(2) z; 0] + d
    and cov = S S^T.
    """
    _require_kind(model, "cv")
    z = standardize(model, _check_features(features))
    s_total, d_total, _ = _cv_transform(model.circuit_params)
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


def _dv_angles(z: np.ndarray) -> np.ndarray:
    return np.pi * np.clip(z, -1.0, 1.0)


def _dv_forward(circuit_params: np.ndarray, z: np.ndarray):
    """<Z_q> for standardized inputs z of shape (m, 4), and the backward passes.

    The encoding ops of ``_DV_CIRCUIT`` make the real product state
    RY(pi * clip z)|0000>; the block after them is compiled once.
    """
    angles = _dv_angles(z)
    states = statevector.ry_product_state(angles)
    block = statevector.compile_block(_DV_CIRCUIT, circuit_params)
    outputs = statevector.block_expectations(block, states)

    def backward(d_outputs: np.ndarray) -> np.ndarray:
        # W_q = sum_m d_outputs[m, q] psi_m psi_m^T: the batch in four 16 x 16 matrices
        weights = (states.T * d_outputs.T[:, None, :]) @ states
        return statevector.block_adjoint_grad(block, weights)

    def input_backward(d_outputs: np.ndarray) -> np.ndarray:
        # d<Z_q>/dpsi = 2 Re(conj(U psi) * z_q) U; the clamp passes no
        # gradient where it saturates
        amps = states @ block.transfer
        d_amps = np.pi * statevector.ry_product_state_jacobian(angles) @ block.transfer
        d_exp = 2.0 * (amps.conj()[:, None] * d_amps).real @ statevector.z_eigenvalues(NUM_MODES)
        return (d_exp @ d_outputs[..., None])[..., 0] * (np.abs(z) < 1.0)

    return outputs, backward, input_backward


def dv_final_state(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """The circuit's 16 amplitudes for one sample's features."""
    _require_kind(model, "dv")
    z = standardize(model, _check_features(features))
    block = statevector.compile_block(_DV_CIRCUIT, model.circuit_params)
    return statevector.ry_product_state(_dv_angles(z)) @ block.transfer


# --- classical ----------------------------------------------------------------

def _classical_forward(circuit_params: np.ndarray, z: np.ndarray):
    w1 = circuit_params[:16].reshape(NUM_MODES, NUM_MODES)
    w2 = circuit_params[16:].reshape(NUM_MODES, NUM_MODES)
    h1 = np.tanh(z @ w1.T)
    h2 = np.tanh(h1 @ w2.T)

    def backward(d_outputs: np.ndarray) -> np.ndarray:
        d_pre2 = d_outputs * (1.0 - h2**2)
        grad_w2 = d_pre2.T @ h1
        d_pre1 = (d_pre2 @ w2) * (1.0 - h1**2)
        grad_w1 = d_pre1.T @ z
        return np.concatenate([grad_w1.reshape(-1), grad_w2.reshape(-1)])

    def input_backward(d_outputs: np.ndarray) -> np.ndarray:
        return ((d_outputs * (1.0 - h2**2)) @ w2 * (1.0 - h1**2)) @ w1

    return h2, backward, input_backward


# --- shared entry points --------------------------------------------------

_FORWARD_BY_KIND = {
    "cv": _cv_forward,
    "dv": _dv_forward,
    "classical": _classical_forward,
}


def predict_batch(model: HybridModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits, probabilities) for a (m, 4) feature matrix."""
    z = standardize(model, _check_features(features))
    outputs, _, _ = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
    logits = _head(model, outputs)
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
    outputs, backward, _ = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
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
    grad = np.concatenate([backward(d_outputs), grad_weights.reshape(-1), grad_bias])
    return loss, grad, logits


# --- input gradients (saliency support) -------------------------------------

def logit_input_jacobian(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """d logits / d features at one sample's features, shape (num_classes, 4).

    A one-row forward, then the head weights pulled back through its
    input-side closure and the z-scoring.
    """
    z = standardize(model, _check_features(features)).reshape(1, NUM_MODES)
    _, _, input_backward = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
    return input_backward(model.head_weights) / model.feature_std


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
        or (type(payload.get("version")), payload.get("version")) != (int, CHECKPOINT_VERSION)
        or payload.get("kind") not in KINDS
    ):
        raise DataError(f"{path} is not a version-{CHECKPOINT_VERSION} model checkpoint")
    try:
        num_classes = payload["num_classes"]
        if not isinstance(num_classes, int) or num_classes < 2:
            raise ValueError(f"num_classes {num_classes!r} is not an integer >= 2")
        values = checked_arrays({
            "circuit_params": (payload["circuit_params"], (NUM_CIRCUIT_PARAMS,)),
            "head_weights": (payload["head_weights"], (num_classes, NUM_MODES)),
            "head_bias": (payload["head_bias"], (num_classes,)),
            "feature_mean": (payload["feature_stats"]["mean"], (NUM_MODES,)),
            "feature_std": (payload["feature_stats"]["std"], (NUM_MODES,)),
        })
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
