import numpy as np
import pytest

from medqnn import models, pca, saliency
from medqnn.rng import Rng


@pytest.fixture(scope="module")
def fitted_pca():
    rng = np.random.default_rng(0)
    images = rng.uniform(0.0, 1.0, size=(120, 784))
    return pca.fit(images, 4)


def make_model(kind, seed=0, spread=4.0):
    """A model whose feature statistics keep |z| well inside the DV clamp."""
    base = models.init_model(kind, 2, Rng(seed))
    return models.HybridModel(
        kind=kind,
        num_classes=2,
        circuit_params=base.circuit_params,
        head_weights=base.head_weights,
        head_bias=base.head_bias,
        feature_mean=np.zeros(4),
        feature_std=np.full(4, spread),
    )


def one_logit(model, features, target):
    logits = models.predict_batch(model, features[None, :])  # 1-row batch
    return logits[0, target]


def pixel_fd_gradient(model, pca_model, image, target, eps=1e-4):
    """End-to-end central differences of one logit over all 784 pixels."""
    grad = np.empty(image.size)
    for i in range(image.size):
        up, down = image.copy(), image.copy()
        up[i] += eps
        down[i] -= eps
        logit_up = one_logit(model, pca.transform(pca_model, up), target)
        logit_down = one_logit(model, pca.transform(pca_model, down), target)
        grad[i] = (logit_up - logit_down) / (2 * eps)
    return grad


class TestInputGradientMap:
    def test_zero_head_gives_zero_map(self, fitted_pca):
        base = make_model("classical")
        frozen = models.HybridModel(
            kind="classical",
            num_classes=2,
            circuit_params=base.circuit_params,
            head_weights=np.zeros((2, 4)),
            head_bias=np.array([0.2, -0.2]),
            feature_mean=base.feature_mean,
            feature_std=base.feature_std,
        )
        image = np.random.default_rng(1).uniform(0, 1, 784)
        result = saliency.input_gradient_map(frozen, fitted_pca, image)
        assert np.all(result.heat == 0.0)

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_matches_pixel_finite_differences(self, fitted_pca, kind):
        rng = np.random.default_rng(2)
        model = make_model(kind, seed=3)
        for _ in range(10):
            image = rng.uniform(0, 1, 784)
            target = int(rng.integers(0, 2))
            result = saliency.input_gradient_map(model, fitted_pca, image, target)
            oracle = pixel_fd_gradient(model, fitted_pca, image, target)
            chain = result.signed.reshape(-1)
            scale = max(np.abs(oracle).max(), 1e-12)
            assert np.abs(chain - oracle).max() / scale < 1e-4

    def test_cv_map_is_input_independent(self, fitted_pca):
        model = make_model("cv", seed=4)
        rng = np.random.default_rng(5)
        a = saliency.input_gradient_map(model, fitted_pca, rng.uniform(0, 1, 784), 0)
        b = saliency.input_gradient_map(model, fitted_pca, rng.uniform(0, 1, 784), 0)
        np.testing.assert_allclose(a.signed, b.signed, atol=1e-10)

    def test_bias_shift_leaves_map_unchanged(self, fitted_pca):
        model = make_model("classical", seed=6)
        shifted = models.HybridModel(
            kind="classical",
            num_classes=2,
            circuit_params=model.circuit_params,
            head_weights=model.head_weights,
            head_bias=model.head_bias + 5.0,
            feature_mean=model.feature_mean,
            feature_std=model.feature_std,
        )
        image = np.random.default_rng(7).uniform(0, 1, 784)
        a = saliency.input_gradient_map(model, fitted_pca, image, 1)
        b = saliency.input_gradient_map(shifted, fitted_pca, image, 1)
        np.testing.assert_allclose(a.signed, b.signed, atol=1e-12)
        np.testing.assert_allclose(a.heat, b.heat, atol=1e-12)

    def test_head_scaling_leaves_heat_unchanged(self, fitted_pca):
        model = make_model("classical", seed=8)
        scaled = models.HybridModel(
            kind="classical",
            num_classes=2,
            circuit_params=model.circuit_params,
            head_weights=3.0 * model.head_weights,
            head_bias=model.head_bias,
            feature_mean=model.feature_mean,
            feature_std=model.feature_std,
        )
        image = np.random.default_rng(9).uniform(0, 1, 784)
        a = saliency.input_gradient_map(model, fitted_pca, image, 0)
        b = saliency.input_gradient_map(scaled, fitted_pca, image, 0)
        np.testing.assert_allclose(b.signed, 3.0 * a.signed, rtol=1e-8)
        np.testing.assert_allclose(a.heat, b.heat, atol=1e-10)

    def test_map_properties(self, fitted_pca):
        model = make_model("dv", seed=10)
        image = np.random.default_rng(11).uniform(0, 1, 784)
        result = saliency.input_gradient_map(model, fitted_pca, image)
        assert result.heat.shape == (28, 28)
        assert result.heat.max() == pytest.approx(1.0)
        assert result.heat.min() >= 0.0
        assert 0.0 < result.confidence < 1.0
        assert result.predicted_class in (0, 1)

    def test_target_out_of_range(self, fitted_pca):
        model = make_model("cv")
        with pytest.raises(ValueError):
            saliency.input_gradient_map(model, fitted_pca, np.zeros(784), 7)


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        values = np.rint(rng.uniform(0, 255, (28, 28))) / 255.0
        path = tmp_path / "map.pgm"
        saliency.render_pgm(values, path)
        back = saliency.read_pgm(path)
        np.testing.assert_array_equal(back, values)

    def test_zero_map_writes_zero_pixels(self, tmp_path):
        path = tmp_path / "zero.pgm"
        saliency.render_pgm(np.zeros((28, 28)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n28 28\n255\n")
        assert set(raw[len(b"P5\n28 28\n255\n") :]) == {0}

    def test_normalized_map_has_a_full_white_pixel(self, tmp_path):
        heat = np.zeros((28, 28))
        heat[3, 4] = 1.0
        path = tmp_path / "peak.pgm"
        saliency.render_pgm(heat, path)
        assert saliency.read_pgm(path).max() == 1.0

    def test_signed_to_unit(self):
        signed = np.array([[-2.0, 0.0], [1.0, 2.0]])
        unit = saliency.signed_to_unit(signed)
        np.testing.assert_allclose(unit, [[0.0, 0.5], [0.75, 1.0]])
        flat = saliency.signed_to_unit(np.zeros((2, 2)))
        np.testing.assert_array_equal(flat, np.full((2, 2), 0.5))
