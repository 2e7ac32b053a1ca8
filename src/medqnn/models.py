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
* DV: |0000>, encode RY(2 arctan z_i) per qubit (``dv_encoding``), one
  state per value: no clamp, so no two feature values share a state;
  each layer is RY, RZ, RY, RZ per qubit followed by CNOT(0->1) and
  CNOT(2->3); outputs are the four <Z_i>.
* Classical: two bias-free 4x4 dense maps with tanh after each.

Every kind runs through one forward function that returns the outputs
and two backward closures, to the circuit parameters and to the inputs z;
``predict_batch`` (the one scorer: logits of any number of rows, in row
blocks; eval's curves and saliency take ``softmax`` of them),
``loss_and_grad`` and ``logit_input_jacobian`` all use it. The input-side
closure works only when called, so training pays nothing for it.
``final_state`` gives one sample's full state for dumps: a CV circuit's
Gaussian moments, a DV circuit's amplitudes, the classical net's logits.
Neither circuit's variational block depends on the batch, so each is
compiled once per call and all gradients are exact:

* CV: the block is an affine map (S, d) of the quadrature means
  (Weedbrook et al., RMP 84, 621, arXiv:1110.3234). In any one parameter
  it is a + c f(t) + s g(t) with (f, g) = (t, 1), (cos, sin) or
  (cosh, sinh), so the exact shift rule (Schuld et al., arXiv:1811.11184)
  with one shift per gate kind gives every partial from one stacked
  (S, d) at the 64 shifted parameter vectors.
* DV: the encoding is a real product state psi and the block one 16 x 16
  unitary U, so <Z_q> = |U psi|^2 . z_q. U is the product of 10 moments
  (per layer four rotation stages, then the CNOT pair), and one adjoint
  sweep over them gives every parameter gradient for the whole batch.
* Head: softmax cross-entropy in closed form; classical net: backprop.
* Inputs: CV's Jacobian is constant (its outputs are affine in z), DV's
  chains through the product state, the classical net's is backprop.

The simulators load with the first call that runs them: the CV paths
import ``gaussian`` and the DV paths ``statevector``, whose circuit is
built once, on first use. So a command loads only its kind's simulator.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError, checked_arrays
from .pca import row_blocks
from .rng import Rng

NUM_MODES = 4
NUM_LAYERS = 2
PARAMS_PER_LAYER = 16
NUM_CIRCUIT_PARAMS = NUM_LAYERS * PARAMS_PER_LAYER  # 32

KINDS = ("cv", "dv", "classical")

CHECKPOINT_VERSION = 2

# Rows per block of predict_batch; noise-sweep also draws its noise field
# in these row blocks.
SCORE_ROWS = 1024


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
    """z-scores under the model's statistics: ValueError unless the last axis
    holds the 4 features, DataError unless every z-score is finite (a NaN or
    inf feature never gives one: a model's means are finite, its stds > 0)."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1:] != (NUM_MODES,):
        raise ValueError(f"expected {NUM_MODES} features on the last axis, got shape {features.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        z = (features - model.feature_mean) / model.feature_std
    if not np.all(np.isfinite(z)):
        raise DataError("a standardized feature is not finite: a non-finite feature, or feature_stats that do not fit")
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _head(model: HybridModel, outputs: np.ndarray) -> np.ndarray:
    return outputs @ model.head_weights.T + model.head_bias


# --- CV ----------------------------------------------------------------------

_CV_MODES = tuple(range(NUM_MODES))
_BS_A, _BS_B = (0, 2), (1, 3)  # each layer's beamsplitters mix modes (0, 1) and (2, 3)
# The shift rule's h for each parameter of a layer (displacements, rotations,
# squeezes, beamsplitter (theta, phi) pairs). In any one parameter t, S and d
# are a + c f(t) + s g(t) with (f, g) = (t, 1), (cos, sin) or (cosh, sinh),
# so [F(t + h) - F(t - h)] / 2 = F'(t) exactly for h = 1, pi/2, asinh 1.
_CV_SHIFTS = np.tile(np.repeat([1.0, np.pi / 2, np.arcsinh(1.0), np.pi / 2], NUM_MODES), NUM_LAYERS)


def _cv_transform(circuit_params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine action (S, d) of the variational layers on the quadrature
    means, for parameters of shape (..., 32): S (..., 2n, 2n), d (..., 2n).

    A layer applies displacements, then rotations, squeezes and the
    beamsplitter pair. A stage's gates act on distinct modes, so one
    constructor call builds one kind of stage for every layer and row.
    A squeeze past ``gaussian.SQUEEZE_LIMIT`` raises ``NumericError``.
    """
    from . import gaussian

    n = NUM_MODES
    layers = circuit_params.reshape(circuit_params.shape[:-1] + (NUM_LAYERS, PARAMS_PER_LAYER))
    try:
        squeezes = gaussian.squeeze_symplectic(n, _CV_MODES, layers[..., 8:12])
    except ValueError as exc:  # the squeeze overflow guard
        raise NumericError(str(exc)) from exc
    displacements = gaussian.displacement_vector(n, _CV_MODES, layers[..., 0:4], 0.0)
    theta, phi = layers[..., 12:16:2], layers[..., 13:16:2]
    symplectic_stages = (
        gaussian.rotation_symplectic(n, _CV_MODES, layers[..., 4:8]),
        squeezes,
        gaussian.beamsplitter_symplectic(n, _BS_A, _BS_B, theta, phi),
    )
    lead = circuit_params.shape[:-1]
    affine = np.broadcast_to(np.eye(2 * n, 2 * n + 1), lead + (2 * n, 2 * n + 1))  # [S | d]
    for layer in range(NUM_LAYERS):
        affine = affine.copy()
        affine[..., -1] += displacements[..., layer, :]
        for stage in symplectic_stages:
            affine = stage[..., layer, :, :] @ affine
    return affine[..., :-1], affine[..., -1]


def _cv_forward(circuit_params: np.ndarray, z: np.ndarray):
    """<x_i> for standardized inputs z of shape (m, 4), and the backward passes.

    The encoded means sqrt(2) z live on x only, so the outputs are
    sqrt(2) z A^T + b with A = S[:4, :4], b = d[:4]. The loss reaches the
    parameters only through them, so its gradient is that of the linear
    l = <sqrt(2) d_out^T z, A> + <sum d_out, b>, which the shift rule on
    one stacked ``_cv_transform`` gives exactly. The shifted squeezes pass
    the guard too: a gradient raises ``NumericError`` once a squeeze is
    past ``SQUEEZE_LIMIT - asinh 1`` (about 19.12), a prediction only past
    ``SQUEEZE_LIMIT``.
    """
    s_total, d_total = _cv_transform(circuit_params)
    outputs = np.sqrt(2.0) * z @ s_total[:NUM_MODES, :NUM_MODES].T + d_total[:NUM_MODES]

    def backward(d_outputs: np.ndarray) -> np.ndarray:
        n, shifts = NUM_MODES, np.diag(_CV_SHIFTS)
        s_shifted, d_shifted = _cv_transform(circuit_params + np.stack([shifts, -shifts]))
        # l at each shifted transform, shape (+ or - shift, parameter)
        loss = (s_shifted[..., :n, :n] * (np.sqrt(2.0) * d_outputs.T @ z)).sum(axis=(-2, -1))
        loss += d_shifted[..., :n] @ d_outputs.sum(axis=0)
        return (loss[0] - loss[1]) / 2.0

    def input_backward(d_outputs: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0) * d_outputs @ s_total[:NUM_MODES, :NUM_MODES]

    return outputs, backward, input_backward


# --- DV ----------------------------------------------------------------------

def build_dv_circuit() -> statevector.Circuit:
    """The DV circuit gate by gate; input slot q is qubit q's ``dv_encoding`` angle."""
    from . import statevector

    ops = [statevector.Op("ry", (q,), input_slot=q) for q in range(NUM_MODES)]
    for layer in range(NUM_LAYERS):
        base = layer * PARAMS_PER_LAYER
        for stage, gate in enumerate(("ry", "rz", "ry", "rz")):
            for q in range(NUM_MODES):
                ops.append(statevector.Op(gate, (q,), param=base + stage * NUM_MODES + q))
        ops.append(statevector.Op("cnot", (0, 1)))
        ops.append(statevector.Op("cnot", (2, 3)))
    return statevector.Circuit(num_qubits=NUM_MODES, ops=tuple(ops))


_dv_circuit = functools.cache(build_dv_circuit)  # built on first DV use


def dv_encoding(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RY angles 2 arctan(z) of standardized features, in (-pi, pi), and
    their derivative in z, 2 / (1 + z^2): injective and smooth, so every
    value keeps its own state and its gradient."""
    with np.errstate(over="ignore"):  # z^2 past the float range: the slope's limit, 0
        return 2.0 * np.arctan(z), 2.0 / (1.0 + z * z)


def _dv_forward(circuit_params: np.ndarray, z: np.ndarray):
    """<Z_q> for standardized inputs z of shape (m, 4), and the backward passes.

    The encoding ops of ``_dv_circuit()`` make the real product state of
    the ``dv_encoding`` angles; the block after them is compiled once.
    """
    from . import statevector

    angles, slopes = dv_encoding(z)
    states = statevector.ry_product_state(angles)
    block = statevector.compile_block(_dv_circuit(), circuit_params)
    outputs = statevector.block_expectations(block, states)

    def backward(d_outputs: np.ndarray) -> np.ndarray:
        # W_q = sum_m d_outputs[m, q] psi_m psi_m^T: the batch in four 16 x 16 matrices
        weights = (states.T * d_outputs.T[:, None, :]) @ states
        return statevector.block_adjoint_grad(block, weights)

    def input_backward(d_outputs: np.ndarray) -> np.ndarray:
        # d<Z_q>/dpsi = 2 Re(conj(U psi) * z_q) U, chained through the angles
        amps = states @ block.transfer
        d_amps = slopes[..., None] * statevector.ry_product_state_jacobian(angles) @ block.transfer
        d_exp = 2.0 * (amps.conj()[:, None] * d_amps).real @ statevector.z_eigenvalues(NUM_MODES)
        return (d_exp @ d_outputs[..., None])[..., 0]

    return outputs, backward, input_backward


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


def predict_batch(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """The (m, num_classes) logits of a (m, 4) feature matrix of any number
    of rows, scored a block of at most ``SCORE_ROWS`` at a time, so no
    prediction temporary grows with the rows; callers that want
    probabilities take ``softmax`` of them. No block has a single row
    (``pca.row_blocks``), so each row gets the bits it would get in one
    batch wherever BLAS gives a row of a batch the same bits. DataError
    unless every logit is finite."""
    if np.ndim(features) != 2:  # one row's (4,) would fill every row of the output
        raise ValueError(f"expected an (m, {NUM_MODES}) feature matrix, got shape {np.shape(features)}")
    logits = np.empty((len(features), model.num_classes))
    for rows in row_blocks(len(features), SCORE_ROWS):
        logits[rows] = _score_block(model, features[rows])
    return logits


def _score_block(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """``predict_batch`` of one block; its temporaries go when it returns."""
    z = standardize(model, features)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        outputs, _, _ = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
        logits = _head(model, outputs)
    if not np.all(np.isfinite(logits)):
        raise DataError("a logit is not finite: the checkpoint does not fit the features")
    return logits


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
    z = standardize(model, np.atleast_2d(features))
    labels = np.asarray(labels, dtype=int)
    if len(z) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("label out of range")
    outputs, backward, _ = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
    logits = _head(model, outputs)
    probs = softmax(logits)
    loss = batch_loss_from_logits(logits, labels)

    batch = len(z)
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    grad_bias = dlogits.sum(axis=0)
    grad_weights = dlogits.T @ outputs
    d_outputs = dlogits @ model.head_weights  # (m, 4)
    grad = np.concatenate([backward(d_outputs), grad_weights.reshape(-1), grad_bias])
    return loss, grad, logits


def final_state(model: HybridModel, features: np.ndarray) -> dict:
    """One sample's state as JSON values, for ``eval --dump-state``: CV's
    quadrature moments {"mean", "cov"} (cov flattened), DV's 16 {"amplitudes"}
    as (re, im) pairs, the classical net's {"logits"}. The CV moments come in
    closed form from ``_cv_transform``: the vacuum covariance is the identity
    and displacements leave it alone, so mean = S [sqrt(2) z; 0] + d, cov = S S^T."""
    if model.kind == "classical":
        return {"logits": predict_batch(model, np.reshape(features, (1, -1)))[0].tolist()}  # 1-row batch
    z = standardize(model, features)
    if model.kind == "cv":
        s_total, d_total = _cv_transform(model.circuit_params)
        encoded = np.concatenate([np.sqrt(2.0) * z, np.zeros(NUM_MODES)])
        mean, cov = s_total @ encoded + d_total, s_total @ s_total.T
        return {"mean": mean.tolist(), "cov": cov.reshape(-1).tolist()}
    from . import statevector

    block = statevector.compile_block(_dv_circuit(), model.circuit_params)
    amplitudes = statevector.ry_product_state(dv_encoding(z)[0]) @ block.transfer
    return {"amplitudes": np.column_stack([amplitudes.real, amplitudes.imag]).tolist()}


# --- input gradients (saliency support) -------------------------------------

def logit_input_jacobian(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """d logits / d features at one sample's features, shape (num_classes, 4).

    A one-row forward, then the head weights pulled back through its
    input-side closure and the z-scoring; DataError unless every entry is
    finite.
    """
    z = standardize(model, features).reshape(1, NUM_MODES)
    _, _, input_backward = _FORWARD_BY_KIND[model.kind](model.circuit_params, z)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        jac = input_backward(model.head_weights) / model.feature_std
    if not np.all(np.isfinite(jac)):
        raise DataError("a logit gradient is not finite: feature_stats do not fit the features")
    return jac


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
    except (OSError, RecursionError, ValueError) as exc:  # ValueError: bad UTF-8, JSON or digits
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
