"""Principal component analysis on flattened images.

A fit is built from moments: a sample count, a mean and a scatter
matrix, the sum of (x - mean)(x - mean)^T. ``moments`` walks its rows in
blocks of ``BLOCK_ROWS``, converting stored bytes one block at a time
(``data.unit_floats``), and folds each block into a running total with
``pool``, which combines the moments of disjoint blocks exactly (the
pairwise formulae of Chan, Golub & LeVeque, 1979). So a fit holds one
block and one running scatter however many rows it sees, and a
cross-validation fold's moments come from the other folds' moments
without gathering its rows. ``from_moments`` then takes the top-k
eigenpairs from one symmetric eigendecomposition (``np.linalg.eigh``) of
the pooled scatter, accurate to rounding however close the eigenvalues
lie; the scatter of 28 x 28 images is only 784 x 784. ``fit`` is the two
steps on one matrix, and every result is a pure deterministic function
of the input bytes.

Component signs are fixed by making each row's largest-magnitude entry
positive. Explained-variance ratios divide by the scatter's trace, the
sum of all its eigenvalues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data
from .errors import DataError, checked_arrays

# moments() sanity guard; noise-injected images can leave [0, 1] but only
# clean training pixels ever reach a fit.
_PIXEL_LO, _PIXEL_HI = -0.5, 1.5
# Rows that moments() converts and centers at once: 3.2 MB of floats at 784 columns.
BLOCK_ROWS = 512

MAGIC = "PCA1"


@dataclass(frozen=True)
class PcaModel:
    input_dim: int
    k: int
    mean: np.ndarray                      # (input_dim,)
    components: np.ndarray                # (k, input_dim), rows orthonormal
    explained_variance_ratio: np.ndarray  # (k,), non-increasing


@dataclass(frozen=True)
class Moments:
    count: int
    mean: np.ndarray     # (input_dim,)
    scatter: np.ndarray  # (input_dim, input_dim), sum of (x - mean)(x - mean)^T


def moments(images: np.ndarray) -> Moments:
    """The moments of the rows of ``images`` (m x input_dim, m >= 1): stored
    unsigned bytes, or floats."""
    images = np.asarray(images)
    if images.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got shape {images.shape}")
    if len(images) == 0:
        raise DataError("no samples to fit")
    total = None
    for start in range(0, len(images), BLOCK_ROWS):
        block = data.unit_floats(images[start : start + BLOCK_ROWS])
        if not np.all(np.isfinite(block)):
            raise DataError("non-finite pixel values in fit input")
        if block.min() < _PIXEL_LO or block.max() > _PIXEL_HI:
            raise DataError(
                f"pixel values outside [{_PIXEL_LO}, {_PIXEL_HI}]; normalize to [0, 1] before fit"
            )
        mean = block.mean(axis=0)
        centered = block - mean
        part = Moments(count=len(block), mean=mean, scatter=centered.T @ centered)
        total = part if total is None else pool([total, part])
    return total


def pool(parts: list[Moments]) -> Moments:
    """The moments of the union of disjoint blocks, from each block's moments.

    Exact in exact arithmetic: each block's scatter about the pooled mean
    is its own scatter plus count * (block mean - pooled mean) outer itself.
    """
    counts = np.array([part.count for part in parts], dtype=float)
    means = np.stack([part.mean for part in parts])
    count = int(counts.sum())
    mean = counts @ means / count
    offsets = means - mean
    scatter = (offsets.T * counts) @ offsets
    for part in parts:
        scatter += part.scatter
    return Moments(count=count, mean=mean, scatter=scatter)


def from_moments(stats: Moments, k: int) -> PcaModel:
    """The top-k model of the rows that ``stats`` describes."""
    dim = len(stats.mean)
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")
    if stats.count <= k:
        raise DataError(f"need more than k={k} samples to fit, got {stats.count}")
    # The scatter is (count - 1) x the covariance: same eigenvectors, same ratios.
    eigvals, eigvecs = np.linalg.eigh(stats.scatter)  # ascending
    eigvals = eigvals[::-1][:k]
    components = eigvecs[:, ::-1][:, :k].T.copy()  # (k, dim), descending

    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    ratios = eigvals / np.trace(stats.scatter)
    return PcaModel(
        input_dim=dim,
        k=k,
        mean=stats.mean,
        components=components,
        explained_variance_ratio=ratios,
    )


def fit(images: np.ndarray, k: int) -> PcaModel:
    """Fit a top-k model on rows of ``images`` (m x input_dim), bytes or floats."""
    return from_moments(moments(images), k)


def transform(model: PcaModel, image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    if image.shape[-1] != model.input_dim:
        raise ValueError(f"expected length {model.input_dim}, got {image.shape[-1]}")
    if not np.all(np.isfinite(image)):
        raise DataError("non-finite values in transform input")
    return (image - model.mean) @ model.components.T


def inverse_transform(model: PcaModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != model.k:
        raise ValueError(f"expected length {model.k}, got {features.shape[-1]}")
    if not np.all(np.isfinite(features)):
        raise DataError("non-finite values in inverse_transform input")
    return model.mean + features @ model.components


def save(model: PcaModel, path: str | Path) -> None:
    payload = {
        "magic": MAGIC,
        "input_dim": model.input_dim,
        "k": model.k,
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "explained_variance_ratio": model.explained_variance_ratio.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load(path: str | Path) -> PcaModel:
    """Read a PCA file, checking every key, shape and value before use."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read PCA model from {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise DataError(f"{path} is not a {MAGIC} model file")
    try:
        input_dim, k = payload["input_dim"], payload["k"]
        if not (isinstance(input_dim, int) and isinstance(k, int) and 1 <= k <= input_dim):
            raise ValueError(f"need integers 1 <= k <= input_dim, got {k!r} and {input_dim!r}")
        values = checked_arrays({
            "mean": (payload["mean"], (input_dim,)),
            "components": (payload["components"], (k, input_dim)),
            "explained_variance_ratio": (payload["explained_variance_ratio"], (k,)),
        })
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed PCA file: {exc!r}") from exc
    return PcaModel(input_dim=input_dim, k=k, **values)
