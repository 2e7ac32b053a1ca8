import itertools
import json

import numpy as np
import pytest

from medqnn import gaussian, models, pca, statevector
from medqnn.errors import DataError, NumericError
from medqnn.rng import Rng

from conftest import counted_blocks


def batch_loss(model, features, labels):
    logits = models.predict_batch(model, features)
    return models.batch_loss_from_logits(logits, np.asarray(labels, dtype=int))


def fd_loss_gradient(model, features, labels, eps=1e-5):
    """Central finite differences of the batch loss over every parameter."""
    flat = models.flat_params(model)
    grad = np.empty(len(flat))
    for i in range(len(flat)):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (
            batch_loss(models.with_params(model, up), features, labels)
            - batch_loss(models.with_params(model, down), features, labels)
        ) / (2 * eps)
    return grad


def make_model(kind, rng_seed=0, num_classes=2):
    return models.init_model(kind, num_classes, Rng(rng_seed))


def single_logits(model, features):
    """Logits of one sample through the batched path, as a 1-row batch."""
    logits = models.predict_batch(model, np.asarray(features, dtype=float)[None, :])
    return logits[0]


def dv_amplitudes(model, features):
    """The 16 complex amplitudes of ``final_state``'s (re, im) pairs."""
    pairs = np.array(models.final_state(model, features)["amplitudes"])
    return pairs[:, 0] + 1j * pairs[:, 1]


def gate_by_gate_cv_state(model, features):
    """Oracle: the CV circuit applied one gate at a time to the vacuum."""
    z = models.standardize(model, features)
    state = gaussian.vacuum_state(4)
    for mode in range(4):
        state = gaussian.apply_displacement(state, mode, z[mode], 0.0)
    for layer in range(2):
        p = model.circuit_params[16 * layer : 16 * (layer + 1)]
        for mode in range(4):
            state = gaussian.apply_displacement(state, mode, p[mode], 0.0)
        for mode in range(4):
            state = gaussian.apply_rotation(state, mode, p[4 + mode])
        for mode in range(4):
            state = gaussian.apply_squeeze(state, mode, p[8 + mode])
        state = gaussian.apply_beamsplitter(state, 0, 1, p[12], p[13])
        state = gaussian.apply_beamsplitter(state, 2, 3, p[14], p[15])
    return state


def identity_head(model):
    """Head whose weight rows are the canonical basis and zero bias."""
    weights = np.zeros((model.num_classes, 4))
    for row in range(model.num_classes):
        weights[row, row % 4] = 1.0
    return models.HybridModel(
        kind=model.kind,
        num_classes=model.num_classes,
        circuit_params=np.zeros(32),
        head_weights=weights,
        head_bias=np.zeros(model.num_classes),
        feature_mean=np.zeros(4),
        feature_std=np.ones(4),
    )


class TestParameterCounts:
    def test_binary_models_have_42(self):
        for kind in models.KINDS:
            assert models.num_params(make_model(kind)) == 42

    def test_eleven_class_head(self):
        model = make_model("cv", num_classes=11)
        assert models.num_params(model) == 32 + 5 * 11

    def test_circuit_params_are_32(self):
        assert models.NUM_CIRCUIT_PARAMS == 32
        assert make_model("dv").circuit_params.shape == (32,)


class TestForwardCv:
    def test_zero_params_pass_encoding_through(self):
        model = identity_head(make_model("cv", num_classes=4))
        features = np.array([0.3, -0.7, 1.1, 0.0])
        expected = np.sqrt(2.0) * features
        np.testing.assert_allclose(single_logits(model, features), expected, atol=1e-12)

    def test_zero_features_give_bias(self):
        model = make_model("cv")
        model = models.HybridModel(
            kind="cv",
            num_classes=2,
            circuit_params=model.circuit_params * 0.0,
            head_weights=model.head_weights,
            head_bias=np.array([0.4, -0.2]),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        np.testing.assert_allclose(single_logits(model, np.zeros(4)), [0.4, -0.2], atol=1e-14)

    def test_logits_affine_in_features(self):
        model = make_model("cv", rng_seed=3)
        rng = Rng(4)
        for _ in range(5):
            f1 = np.array([rng.uniform(-1, 1) for _ in range(4)])
            f2 = np.array([rng.uniform(-1, 1) for _ in range(4)])
            lhs = (
                single_logits(model, f1)
                + single_logits(model, f2)
                - single_logits(model, np.zeros(4))
            )
            rhs = single_logits(model, f1 + f2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_batch_path_matches_state_evolution(self):
        model = make_model("cv", rng_seed=5)
        features = np.array([[0.2, -0.5, 0.9, 0.1], [1.2, 0.0, -0.3, 0.4]])
        logits = models.predict_batch(model, features)
        for row in range(2):
            oracle = gate_by_gate_cv_state(model, features[row])
            expected = model.head_weights @ oracle.mean[:4] + model.head_bias
            np.testing.assert_allclose(logits[row], expected, atol=1e-12)
            closed_form = models.final_state(model, features[row])
            np.testing.assert_allclose(closed_form["mean"], oracle.mean, atol=1e-12)
            np.testing.assert_allclose(np.reshape(closed_form["cov"], (8, 8)), oracle.cov, atol=1e-12)

    def test_non_finite_features_rejected(self):
        bad = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(DataError):
            models.predict_batch(make_model("cv"), bad[None, :])
        with pytest.raises(DataError):
            models.final_state(make_model("cv"), bad)


class TestForwardDv:
    def test_zero_everything_measures_plus_one(self):
        model = make_model("dv", rng_seed=6)
        frozen = models.HybridModel(
            kind="dv",
            num_classes=2,
            circuit_params=np.zeros(32),
            head_weights=model.head_weights,
            head_bias=model.head_bias,
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        expected = frozen.head_weights @ np.ones(4) + frozen.head_bias
        np.testing.assert_allclose(single_logits(frozen, np.zeros(4)), expected, atol=1e-12)

    def test_single_feature_encoding_angle(self):
        # <Z> after RY(2 arctan z)|0> is cos(2 arctan z) = (1 - z^2) / (1 + z^2)
        model = identity_head(make_model("dv", num_classes=4))
        for value in (0.25, -0.6, 0.95, 1.0, -2.5, 40.0):
            logits = single_logits(model, np.array([value, 0, 0, 0]))
            assert logits[0] == pytest.approx((1 - value**2) / (1 + value**2), abs=1e-12)

    def test_encoding_separates_values_past_one_sigma(self):
        # No clamp: values at and beyond |z| = 1, of either sign, give distinct
        # states, which RY(pi)|0> and RY(-pi)|0> would not be (one up to phase).
        model = identity_head(make_model("dv", num_classes=4))
        values = (-40.0, -2.5, -1.0, 1.0, 2.5, 40.0)
        states = [dv_amplitudes(model, np.array([value, 0, 0, 0])) for value in values]
        for a, b in itertools.combinations(range(len(values)), 2):
            assert abs(np.vdot(states[a], states[b])) < 1 - 1e-4, (values[a], values[b])

    def test_encoding_slope_vanishes_past_the_float_range(self):
        # z^2 overflows past |z| ~ 1.3e154; the slope is its limit, 0, with no warning
        angles, slopes = models.dv_encoding(np.array([1e200, -1e200, 1e150]))
        np.testing.assert_allclose(angles, [np.pi, -np.pi, np.pi], rtol=1e-15)
        np.testing.assert_allclose(slopes, [0.0, 0.0, 2e-300], rtol=1e-15, atol=0)

    def test_batch_matches_single(self):
        model = make_model("dv", rng_seed=7)
        features = np.array([[0.2, -0.5, 0.9, 0.1], [0.6, 0.3, -0.2, -0.8]])
        logits = models.predict_batch(model, features)
        for row in range(2):
            state = dv_amplitudes(model, features[row])
            outputs = np.abs(state) ** 2 @ statevector.z_eigenvalues(4)
            expected = model.head_weights @ outputs + model.head_bias
            np.testing.assert_allclose(logits[row], expected, atol=1e-12)


class TestForwardClassical:
    def test_zero_weights_give_bias(self):
        model = make_model("classical")
        frozen = models.HybridModel(
            kind="classical",
            num_classes=2,
            circuit_params=np.zeros(32),
            head_weights=np.zeros((2, 4)),
            head_bias=np.array([1.5, -0.5]),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        logits = single_logits(frozen, np.array([3.0, 1.0, -2.0, 0.5]))
        np.testing.assert_allclose(logits, [1.5, -0.5], atol=1e-14)

    def test_identity_blocks_compose_tanh(self):
        identity_params = np.concatenate([np.eye(4).ravel(), np.eye(4).ravel()])
        model = models.HybridModel(
            kind="classical",
            num_classes=2,
            circuit_params=identity_params,
            head_weights=np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
            head_bias=np.zeros(2),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        features = np.array([0.1, -0.08, 0.05, 0.02])
        expected = np.tanh(np.tanh(features))[:2]
        np.testing.assert_allclose(single_logits(model, features), expected, atol=1e-12)

    def test_parameter_count_is_42(self):
        assert models.num_params(make_model("classical")) == 32 + 4 * 2 + 2 == 42


class TestLoss:
    def test_uniform_binary(self):
        loss = models.batch_loss_from_logits(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2.0))

    def test_confident_correct_tends_to_zero(self):
        assert models.batch_loss_from_logits(np.array([[30.0, 0.0]]), np.array([0])) < 1e-12

    def test_batch_mean(self):
        model = make_model("classical")
        frozen = models.with_params(model, np.zeros(42))
        features = np.zeros((2, 4))
        labels = np.array([0, 1])
        assert batch_loss(frozen, features, labels) == pytest.approx(np.log(2.0))
        assert models.loss_and_grad(frozen, features, labels)[0] == pytest.approx(np.log(2.0))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            models.loss_and_grad(make_model("classical"), np.zeros((1, 4)), np.array([2]))


class TestGradients:
    def test_zero_head_bias_gradient_closed_form(self):
        model = make_model("cv", rng_seed=8)
        zeroed = models.HybridModel(
            kind="cv",
            num_classes=2,
            circuit_params=model.circuit_params,
            head_weights=np.zeros((2, 4)),
            head_bias=np.array([0.3, -0.1]),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        features = np.array([[0.5, 0, 0, 0], [-0.5, 0, 0, 0]])
        _, grad, _ = models.loss_and_grad(zeroed, features, np.array([0, 1]))
        probs = models.softmax(zeroed.head_bias)
        expected_bias = probs - np.array([0.5, 0.5])  # mean of (probs - onehot)
        np.testing.assert_allclose(grad[-2:], expected_bias, atol=1e-12)

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_matches_finite_difference(self, kind):
        rng = Rng(100)
        for trial in range(10):
            model = make_model(kind, rng_seed=200 + trial)
            features = np.array(
                [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)]
            )
            labels = np.array([rng.integer(2) for _ in range(3)])
            _, grad, _ = models.loss_and_grad(model, features, labels)
            oracle = fd_loss_gradient(model, features, labels)
            scale = max(np.abs(oracle).max(), 1e-8)
            assert np.abs(grad - oracle).max() / scale < 1e-4

    def test_unused_cv_parameter_has_zero_gradient(self):
        # zero head columns for modes 2 and 3: nothing couples them to
        # modes 0/1, so their squeeze parameters cannot move the loss
        model = make_model("cv", rng_seed=9)
        weights = model.head_weights.copy()
        weights[:, 2] = 0.0
        weights[:, 3] = 0.0
        decoupled = models.HybridModel(
            kind="cv",
            num_classes=2,
            circuit_params=model.circuit_params,
            head_weights=weights,
            head_bias=model.head_bias,
            feature_mean=model.feature_mean,
            feature_std=model.feature_std,
        )
        features = np.array([[0.4, -0.2, 0.7, 0.1]])
        _, grad, _ = models.loss_and_grad(decoupled, features, np.array([1]))
        squeeze_mode2_layer0 = 8 + 2
        squeeze_mode3_layer1 = 16 + 8 + 3
        assert grad[squeeze_mode2_layer0] == 0.0
        assert grad[squeeze_mode3_layer1] == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            models.loss_and_grad(make_model("cv"), np.zeros((0, 4)), np.zeros(0, dtype=int))


def random_model(kind, num_classes, seed):
    """A model with spread-out parameters and feature statistics."""
    rng = np.random.default_rng(seed)
    model = models.init_model(
        kind, num_classes, Rng(seed), rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
    )
    return models.with_params(model, rng.uniform(-1.5, 1.5, models.num_params(model)))


def random_batch(model, rows, seed):
    """Features around the model's statistics, a share of them past the DV clamp."""
    rng = np.random.default_rng(seed + 1)
    features = model.feature_mean + model.feature_std * rng.normal(scale=1.2, size=(rows, 4))
    return features, rng.integers(0, model.num_classes, size=rows)


def output_adjoint(model, features, labels):
    """d loss / d circuit outputs, the vector the circuit gradient contracts."""
    dlogits = models.softmax(models.predict_batch(model, features))
    dlogits[np.arange(len(labels)), labels] -= 1.0
    return dlogits / len(labels) @ model.head_weights


def old_dv_circuit_grad(model, features, labels):
    """The DV circuit gradient before compiling the block: the stacked
    shift rule on every sample, contracted with the output adjoint."""
    angles, _ = models.dv_encoding(models.standardize(model, features))
    shifted = statevector.param_shift_grad_all(models.build_dv_circuit(), model.circuit_params, angles)
    return np.einsum("jmq,mq->j", shifted, output_adjoint(model, features, labels))


def old_cv_fd_grad(model, features, labels):
    """The CV circuit gradient before the reverse sweep: central finite
    differences with epsilon 1e-4."""
    return fd_loss_gradient(model, features, labels, eps=1e-4)[: models.NUM_CIRCUIT_PARAMS]


def old_cv_circuit_grad(model, features, labels):
    """The CV circuit gradient before the gates were fused into stages: a
    reverse sweep through the 28 gates one at a time, each built by a
    scalar constructor call, contracted with the output adjoint."""
    n, params = 4, model.circuit_params
    gates = []  # (kind, parameter index, mode, vector or symplectic matrix)
    for base in (0, 16):
        p = params[base : base + 16]
        gates += [("displacement", base + m, m, gaussian.displacement_vector(n, m, p[m], 0.0))
                  for m in range(n)]
        gates += [("rotation", base + 4 + m, m, gaussian.rotation_symplectic(n, m, p[4 + m]))
                  for m in range(n)]
        gates += [("squeeze", base + 8 + m, m, gaussian.squeeze_symplectic(n, m, p[8 + m]))
                  for m in range(n)]
        gates += [("beamsplitter", base + j, m,
                   gaussian.beamsplitter_symplectic(n, m, m + 1, p[j], p[j + 1]))
                  for j, m in ((12, 0), (14, 2))]
    s_total, d_total, steps = np.eye(2 * n), np.zeros(2 * n), []
    for gate in gates:
        steps.append((gate, s_total, d_total))
        if gate[0] == "displacement":
            d_total = d_total + gate[3]
        else:
            s_total, d_total = gate[3] @ s_total, gate[3] @ d_total
    z = models.standardize(model, features)
    d_outputs = output_adjoint(model, features, labels)
    bar_s = np.zeros((2 * n, n))
    bar_s[:n] = np.sqrt(2.0) * d_outputs.T @ z
    bar_d = np.zeros(2 * n)
    bar_d[:n] = d_outputs.sum(axis=0)
    grad = np.zeros(models.NUM_CIRCUIT_PARAMS)
    for (kind, index, mode, gate), s_before, d_before in reversed(steps):
        if kind == "displacement":
            grad[index] = np.sqrt(2.0) * bar_d[mode]
            continue
        bar_gate = bar_s @ s_before[:, :n].T + bar_d[:, None] * d_before
        x, p = mode, n + mode
        if kind == "squeeze":
            grad[index] = gate[p, p] * bar_gate[p, p] - gate[x, x] * bar_gate[x, x]
        elif kind == "rotation":
            cos, sin = gate[x, x], gate[p, x]
            grad[index] = (cos * (bar_gate[p, x] - bar_gate[x, p])
                           - sin * (bar_gate[x, x] + bar_gate[p, p]))
        else:
            theta, phi, h = params[index], params[index + 1], np.pi / 2.0
            def bs(t, f):
                return gaussian.beamsplitter_symplectic(n, mode, mode + 1, t, f)
            grad[index] = np.vdot(bs(theta + h, phi) - bs(theta - h, phi), bar_gate) / 2.0
            grad[index + 1] = np.vdot(bs(theta, phi + h) - bs(theta, phi - h), bar_gate) / 2.0
        bar_s = gate.T @ bar_s
        bar_d = gate.T @ bar_d
    return grad


def richardson_cv_grad(model, features, labels, eps=1e-3):
    """Central differences at eps and eps / 2 combined to cancel their
    eps^2 error term, leaving O(eps^4)."""
    coarse = fd_loss_gradient(model, features, labels, eps)
    fine = fd_loss_gradient(model, features, labels, eps / 2)
    return ((4.0 * fine - coarse) / 3.0)[: models.NUM_CIRCUIT_PARAMS]


COMPILED_CASES = [(classes, rows) for classes in (2, 11) for rows in (1, 32, 128)]


class TestCompiledPathOracles:
    @pytest.mark.parametrize("num_classes, rows", COMPILED_CASES)
    def test_dv_gradient_matches_shift_rule(self, num_classes, rows):
        model = random_model("dv", num_classes, seed=rows + num_classes)
        features, labels = random_batch(model, rows, seed=rows)
        _, grad, _ = models.loss_and_grad(model, features, labels)
        oracle = old_dv_circuit_grad(model, features, labels)
        np.testing.assert_allclose(grad[: models.NUM_CIRCUIT_PARAMS], oracle, rtol=0, atol=1e-12)

    def test_dv_block_is_ten_moments(self):
        # per layer: RY, RZ, RY, RZ on all four qubits, then the CNOT pair
        plan = models.build_dv_circuit().block_plan
        assert len(plan.steps) == 10 and plan.num_moments == 8

    @pytest.mark.parametrize("num_classes, rows", COMPILED_CASES)
    def test_dv_predictions_match_gate_by_gate_circuit(self, num_classes, rows):
        model = random_model("dv", num_classes, seed=rows + num_classes)
        features, _ = random_batch(model, rows, seed=rows)
        angles, _ = models.dv_encoding(models.standardize(model, features))
        outputs = statevector.circuit_expectations(models.build_dv_circuit(), model.circuit_params, angles)
        logits = models.predict_batch(model, features)
        expected = outputs @ model.head_weights.T + model.head_bias
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_classes, rows", COMPILED_CASES)
    def test_dv_input_jacobian_matches_shift_rule(self, num_classes, rows):
        model = random_model("dv", num_classes, seed=rows + num_classes)
        features, _ = random_batch(model, rows, seed=rows)
        angles, slopes = models.dv_encoding(models.standardize(model, features))
        shifted = statevector.param_shift_grad_all(
            models.build_dv_circuit(), model.circuit_params, angles, wrt="input_slot"
        )  # d outputs / d angles: (4 features, rows, 4 outputs)
        assert np.all(np.isfinite(slopes)) and np.all(slopes > 0)  # no dead zone: every input is live
        for row in range(rows):
            oracle = model.head_weights @ (shifted[:, row].T * slopes[row] / model.feature_std)
            jac = models.logit_input_jacobian(model, features[row])
            np.testing.assert_allclose(jac, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_classes, rows", COMPILED_CASES)
    def test_cv_gradient_beats_the_finite_differences_it_replaced(self, num_classes, rows):
        model = random_model("cv", num_classes, seed=rows + num_classes)
        features, labels = random_batch(model, rows, seed=rows)
        _, grad, _ = models.loss_and_grad(model, features, labels)
        grad = grad[: models.NUM_CIRCUIT_PARAMS]
        reference = richardson_cv_grad(model, features, labels)
        scale = np.abs(reference).max()
        new_error = np.abs(grad - reference).max() / scale
        old_error = np.abs(old_cv_fd_grad(model, features, labels) - reference).max() / scale
        assert new_error < 1e-7
        assert new_error < old_error

    @pytest.mark.parametrize("num_classes, rows", COMPILED_CASES)
    def test_cv_stage_sweep_matches_gate_by_gate_sweep(self, num_classes, rows):
        model = random_model("cv", num_classes, seed=rows + num_classes)
        features, labels = random_batch(model, rows, seed=rows)
        _, grad, _ = models.loss_and_grad(model, features, labels)
        oracle = old_cv_circuit_grad(model, features, labels)
        np.testing.assert_allclose(grad[: models.NUM_CIRCUIT_PARAMS], oracle, rtol=0, atol=1e-12)

    def test_cv_squeeze_past_the_guard_is_a_numeric_error(self):
        model = random_model("cv", 2, seed=0)
        params = models.flat_params(model)
        params[8] = gaussian.SQUEEZE_LIMIT * 1.01
        with pytest.raises(NumericError):
            models.loss_and_grad(models.with_params(model, params), np.zeros((1, 4)), np.array([0]))

    def test_cv_gradient_guard_covers_the_shifted_squeezes(self):
        # the shift rule also builds each squeeze at r +- asinh 1
        model = random_model("cv", 2, seed=0)
        features, labels = np.zeros((2, 4)), np.array([0, 1])
        params = models.flat_params(model)
        params[8] = gaussian.SQUEEZE_LIMIT - 0.5
        near = models.with_params(model, params)
        assert np.all(np.isfinite(models.predict_batch(near, features)))
        with pytest.raises(NumericError):
            models.loss_and_grad(near, features, labels)
        params[8] = gaussian.SQUEEZE_LIMIT - np.arcsinh(1.0) - 0.01
        inside = models.with_params(model, params)
        assert np.all(np.isfinite(models.predict_batch(inside, features)))
        assert np.all(np.isfinite(models.loss_and_grad(inside, features, labels)[1]))


class TestPrediction:
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_probabilities_sum_to_one(self, kind):
        model = make_model(kind, rng_seed=11)
        rng = Rng(12)
        for _ in range(10):
            features = np.array([rng.uniform(-2, 2) for _ in range(4)])
            logits = models.predict_batch(model, features[None, :])
            probabilities = models.softmax(logits)
            assert probabilities[0].sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probabilities > 0)
            assert np.argmax(logits[0]) == np.argmax(probabilities[0])

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_features_not_a_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="feature matrix"):
            models.predict_batch(make_model("classical"), np.zeros(shape))

    def test_deterministic(self):
        model = make_model("dv", rng_seed=13)
        features = np.array([0.1, 0.2, 0.3, 0.4])
        a = single_logits(model, features)
        b = single_logits(model, features)
        np.testing.assert_array_equal(a, b)


FINAL_STATE_KEYS = {"cv": {"mean", "cov"}, "dv": {"amplitudes"}, "classical": {"logits"}}


class TestFinalState:
    """``final_state``: one sample's state as JSON values, by the model's kind."""

    @pytest.mark.parametrize("classes", [2, 11])
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_keys_are_its_kinds(self, kind, classes):
        model = random_model(kind, classes, seed=30 + classes)
        features, _ = random_batch(model, 1, seed=30 + classes)
        state = models.final_state(model, features[0])
        assert set(state) == FINAL_STATE_KEYS[kind]
        json.dumps(state, allow_nan=False)  # JSON values only

    @pytest.mark.parametrize("classes", [2, 11])
    def test_cv_covariance_is_symmetric_and_pure(self, classes):
        model = random_model("cv", classes, seed=32 + classes)
        features, _ = random_batch(model, 1, seed=32 + classes)
        state = models.final_state(model, features[0])
        assert len(state["mean"]) == 8
        cov = np.reshape(state["cov"], (8, 8))
        np.testing.assert_allclose(cov, cov.T, rtol=0, atol=1e-14 * np.abs(cov).max())
        np.testing.assert_allclose(gaussian.symplectic_eigenvalues(cov), np.ones(4), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("classes", [2, 11])
    def test_dv_amplitudes_are_the_circuit_run_gate_by_gate(self, classes):
        model = random_model("dv", classes, seed=34 + classes)
        features, _ = random_batch(model, 1, seed=34 + classes)
        angles = models.dv_encoding(models.standardize(model, features[0]))[0]
        expected = statevector.run_circuit(models.build_dv_circuit(), model.circuit_params, angles)
        amplitudes = dv_amplitudes(model, features[0])
        np.testing.assert_allclose(amplitudes, expected, rtol=0, atol=1e-13)
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("classes", [2, 11])
    def test_classical_logits_are_a_one_row_batch(self, classes):
        model = random_model("classical", classes, seed=36 + classes)
        features, _ = random_batch(model, 1, seed=36 + classes)
        logits = models.final_state(model, features[0])["logits"]
        assert logits == models.predict_batch(model, features)[0].tolist()  # bit for bit


FEATURE_ENTRY_POINTS = {  # each given one sample's features
    "standardize": models.standardize,
    "final_state": models.final_state,
    "predict_batch": lambda model, features: models.predict_batch(model, features[None, :]),
    "loss_and_grad": lambda model, features: models.loss_and_grad(model, features[None, :], [0]),
}


class TestFeatureCheck:
    """``standardize`` is the one feature check of every entry point."""

    @pytest.mark.parametrize("width", [3, 5])
    @pytest.mark.parametrize("entry", FEATURE_ENTRY_POINTS)
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_width_other_than_4_rejected(self, kind, entry, width):
        with pytest.raises(ValueError, match="expected 4 features"):
            FEATURE_ENTRY_POINTS[entry](make_model(kind), np.zeros(width))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", FEATURE_ENTRY_POINTS)
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_non_finite_feature_rejected(self, kind, entry, value):
        features = np.array([0.5, value, -0.2, 0.1])
        with pytest.raises(DataError, match="standardized feature is not finite"):
            FEATURE_ENTRY_POINTS[entry](make_model(kind), features)


class TestScoringBlocks:
    """``predict_batch`` scores any number of rows in ``pca.row_blocks``
    blocks of at most ``models.SCORE_ROWS``, with the bits of one block of
    all of them. That holds while BLAS gives a row of a block of 2 or more
    rows the bits it gives the same row in the whole batch, which can
    depend on the thread count: CI also runs these tests on one BLAS
    thread."""

    @pytest.mark.parametrize("rows", [1, 2, models.SCORE_ROWS, models.SCORE_ROWS + 1, 2 * models.SCORE_ROWS + 1])
    @pytest.mark.parametrize("classes", [2, 11])
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_blocks_have_the_bits_of_one_batch_and_check_every_block(self, monkeypatch, kind, classes, rows):
        model = random_model(kind, classes, seed=rows)
        features, _ = random_batch(model, rows, seed=rows)
        blocks = [b.stop - b.start for b in pca.row_blocks(rows, models.SCORE_ROWS)]
        assert len(blocks) == -(-rows // models.SCORE_ROWS)
        sizes = counted_blocks(monkeypatch)
        logits = models.predict_batch(model, features)
        assert sizes == blocks
        assert logits.shape == models.softmax(logits).shape == (rows, classes)

        score_rows = models.SCORE_ROWS
        monkeypatch.setattr(models, "SCORE_ROWS", rows + 1)  # one block of all rows
        whole_logits = models.predict_batch(model, features)
        assert sizes[len(blocks):] == [rows]
        assert np.array_equal(logits, whole_logits)
        assert np.array_equal(models.softmax(logits), models.softmax(whole_logits))

        monkeypatch.setattr(models, "SCORE_ROWS", score_rows)
        del sizes[:]
        features[-1, 2] = np.nan
        with pytest.raises(DataError):
            models.predict_batch(model, features)
        assert sizes == blocks  # the last block raised


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model("dv", rng_seed=14)
        path = tmp_path / "checkpoint.json"
        models.save_checkpoint(model, path)
        loaded = models.load_checkpoint(path)
        assert loaded.kind == model.kind
        np.testing.assert_array_equal(loaded.circuit_params, model.circuit_params)
        np.testing.assert_array_equal(loaded.head_weights, model.head_weights)
        np.testing.assert_array_equal(loaded.feature_std, model.feature_std)

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_rejects_a_version_1_checkpoint_of_every_kind(self, tmp_path, kind):
        # version 1 encoded DV inputs as pi * clip(z, -1, 1); the version is one for every kind
        path = tmp_path / "old.json"
        models.save_checkpoint(make_model(kind), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "version": 1}))
        with pytest.raises(DataError, match="version-2"):
            models.load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(DataError):
            models.load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.pop("feature_stats"),
            lambda p: p.pop("head_bias"),
            lambda p: p.update(num_classes="2"),
            lambda p: p.update(circuit_params=p["circuit_params"][:31]),
            lambda p: p.update(head_weights=[row[:3] for row in p["head_weights"]]),
            lambda p: p.update(head_bias=p["head_bias"] + [0.0]),
            lambda p: p["feature_stats"].update(std=[1.0, 1.0, 1.0]),
            lambda p: p["feature_stats"].update(std=[1.0, 0.0, 1.0, 1.0]),
            lambda p: p["circuit_params"].__setitem__(3, float("nan")),
            lambda p: p["head_weights"][0].__setitem__(0, float("inf")),
        ],
    )
    def test_rejects_missing_keys_bad_shapes_and_non_finite_values(self, tmp_path, damage):
        path = tmp_path / "checkpoint.json"
        models.save_checkpoint(make_model("cv", rng_seed=16), path)
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            models.load_checkpoint(path)


class TestFlatParams:
    def test_round_trip(self):
        model = make_model("cv", rng_seed=15)
        flat = models.flat_params(model)
        assert flat.shape == (42,)
        rebuilt = models.with_params(model, flat)
        np.testing.assert_array_equal(models.flat_params(rebuilt), flat)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            models.with_params(make_model("cv"), np.zeros(41))
