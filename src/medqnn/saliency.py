"""Pixel-space attribution maps by exact chain rule through the PCA map.

None of the models has convolutional feature maps, so attribution is the
input-gradient of one class logit: d logit / d pixels factorizes exactly
into (d logit / d features) @ components, PCA being affine. The absolute
gradient is used by default so influential dark regions also light up; a
signed variant is available for callers that want direction.

The predicted class and its confidence are read from the softmax of
``models.predict_batch`` on a 1-row batch, the scorer evaluation uses.

A consequence worth knowing: the CV circuit acts affinely on the encoded
features, so its map does not depend on which image is attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import models, pca
from .data import IMAGE_SIDE
from .errors import DataError


@dataclass(frozen=True)
class SaliencyMap:
    heat: np.ndarray  # (28, 28) in [0, 1], max entry 1 unless identically zero
    predicted_class: int
    confidence: float
    signed: np.ndarray  # (28, 28) raw signed gradient, unnormalized


def input_gradient_map(
    model: models.HybridModel,
    pca_model: pca.PcaModel,
    image: np.ndarray,
    target_class: int | None = None,
) -> SaliencyMap:
    """Attribution of one logit (default: the predicted class) to pixels."""
    image = np.asarray(image, dtype=float).reshape(-1)
    if image.shape[0] != pca_model.input_dim:
        raise ValueError(f"expected {pca_model.input_dim} pixels, got {image.shape[0]}")
    features = pca.transform(pca_model, image)
    probabilities = models.softmax(models.predict_batch(model, features[None, :]))[0]  # 1-row batch
    predicted = int(np.argmax(probabilities))
    if target_class is None:
        target_class = predicted
    if not 0 <= target_class < model.num_classes:
        raise ValueError(f"target class {target_class} out of range")

    jac = models.logit_input_jacobian(model, features)  # (C, 4)
    grad_pixels = jac[target_class] @ pca_model.components  # (784,)
    signed = grad_pixels.reshape(IMAGE_SIDE, IMAGE_SIDE)
    magnitude = np.abs(signed)
    peak = magnitude.max()
    heat = magnitude / peak if peak > 0 else np.zeros_like(magnitude)
    return SaliencyMap(
        heat=heat,
        predicted_class=predicted,
        confidence=float(probabilities[predicted]),
        signed=signed,
    )


def render_pgm(values: np.ndarray, path: str | Path) -> None:
    """Write a [0, 1] matrix as binary 8-bit grayscale PGM (P5)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("PGM rendering needs a 2-d matrix")
    pixels = np.rint(255.0 * np.clip(values, 0.0, 1.0)).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 file back into a [0, 1] float matrix."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise DataError(f"{path}: not a binary P5 file")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    data = parts[3][: width * height]
    if len(data) != width * height:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return pixels.astype(float) / maxval


def signed_to_unit(signed: np.ndarray) -> np.ndarray:
    """Map a signed gradient onto [0, 1] with zero at mid-gray."""
    peak = np.abs(signed).max()
    if peak == 0:
        return np.full_like(signed, 0.5)
    return 0.5 * (signed / peak + 1.0)
