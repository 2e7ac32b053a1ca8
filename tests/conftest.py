import io
import zipfile

import numpy as np
import pytest

from medqnn import models
from medqnn.rng import Rng


def make_class_images(
    m: int, num_classes: int, rng: np.random.Generator, balanced: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic 28x28 uint8 images with a class-dependent bright patch.

    Classes are separable after a 4-component PCA, so tiny training runs
    can actually learn something. ``balanced`` guarantees every class
    appears (round-robin labels, shuffled).
    """
    if balanced:
        labels = np.arange(m) % num_classes
        rng.shuffle(labels)
    else:
        labels = rng.integers(0, num_classes, size=m)
    images = rng.integers(0, 60, size=(m, 28, 28))
    for i, label in enumerate(labels):
        row = 2 + 5 * (label % 5)
        col = 2 + 8 * (label // 5)
        images[i, row : row + 6, col : col + 8] += 160
    return np.clip(images, 0, 255).astype(np.uint8), labels.astype(np.uint8)


def counted_blocks(monkeypatch) -> list[int]:
    """The sizes of the row blocks ``models.predict_batch`` scores from now
    on, in the order it scores them."""
    sizes = []
    score_block = models._score_block

    def counting(model, features):
        sizes.append(len(features))
        return score_block(model, features)

    monkeypatch.setattr(models, "_score_block", counting)
    return sizes


def pixels_with_spectrum(rng: np.random.Generator, m: int, eigvals) -> np.ndarray:
    """m samples around 0.5 whose sample covariance has exactly ``eigvals``.

    The centered scores are orthonormal columns orthogonal to the ones
    vector, scaled to each variance and rotated by a random orthogonal basis.
    """
    dim = len(eigvals)
    q, _ = np.linalg.qr(np.column_stack([np.ones(m), rng.normal(size=(m, dim))]))
    scores = q[:, 1:] * np.sqrt((m - 1) * np.asarray(eigvals))
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return 0.5 + scores @ basis.T


def write_archive(
    path, m_train=90, m_val=30, m_test=30, num_classes=2, seed=0, compressed=False, balanced=False
):
    rng = np.random.default_rng(seed)
    arrays = {}
    for split, m in (("train", m_train), ("val", m_val), ("test", m_test)):
        images, labels = make_class_images(m, num_classes, rng, balanced=balanced)
        arrays[f"{split}_images"] = images
        arrays[f"{split}_labels"] = labels.reshape(-1, 1)
    saver = np.savez_compressed if compressed else np.savez
    saver(path, **arrays)
    return path


@pytest.fixture(scope="session")
def toy_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toyset.npz"
    return write_archive(path, seed=7)


@pytest.fixture
def rng():
    return Rng(12345)


def random_features(rng: Rng, n: int = 4) -> np.ndarray:
    return np.array([rng.uniform(-1.5, 1.5) for _ in range(n)])


def stored_npz_bytes(**arrays) -> bytes:
    """An uncompressed (ZIP_STORED) archive, the other container variant."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.save(member, array)
            archive.writestr(f"{name}.npy", member.getvalue())
    return buffer.getvalue()
