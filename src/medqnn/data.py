"""MedMNIST-style archive loading and noise injection.

Archives are zip files of .npy members named train_images, train_labels,
val_images, val_labels, test_images, test_labels with unsigned-byte
pixels. The reader below parses exactly that subset of the format (v1/v2
headers, C order, 1-3 dimensional u1 arrays, stored or deflated members)
so no array-serialization library is needed at load time.

Noise injection adds independent N(0, sigma^2) draws on the [0, 1] pixel
scale and intentionally does not clip: clipping would censor the noise
distribution asymmetrically near 0 and 1, and the downstream PCA
projection is defined on all reals. Each image gets its own PRNG
substream (seed XOR image index), so the standard-normal field is
independent of sigma and two sigmas under one seed differ only by scale.
"""

from __future__ import annotations

import ast
import hashlib
import warnings
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import normal_field, substream_seed

IMAGE_SIDE = 28
NUM_PIXELS = IMAGE_SIDE * IMAGE_SIDE

# Counts pinned for the known datasets; organamnist sample counts are not
# validated because published figures for it disagree with shipped archives.
KNOWN_DATASETS = {
    "pneumoniamnist": {"num_classes": 2, "train": 4708},
    "breastmnist": {"num_classes": 2, "train": 546},
    "organamnist": {"num_classes": 11},
}

_SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class ImageDataset:
    name: str
    images: np.ndarray  # (m, 28, 28) floats, [0, 1] until noise is injected
    labels: np.ndarray  # (m,) ints
    num_classes: int
    split: str

    def __len__(self) -> int:
        return len(self.labels)

    def flat_images(self) -> np.ndarray:
        return self.images.reshape(len(self.labels), -1)


def _parse_npy(raw: bytes, member: str) -> np.ndarray:
    if raw[:6] != b"\x93NUMPY":
        raise DataError(f"{member}: not an npy array")
    major = raw[6]
    if major == 1:
        header_len = int.from_bytes(raw[8:10], "little")
        header_start = 10
    elif major in (2, 3):
        header_len = int.from_bytes(raw[8:12], "little")
        header_start = 12
    else:
        raise DataError(f"{member}: unsupported npy version {major}")
    header = raw[header_start : header_start + header_len].decode("latin1")
    try:
        meta = ast.literal_eval(header)
    except (ValueError, SyntaxError) as exc:
        raise DataError(f"{member}: malformed npy header") from exc
    descr, fortran, shape = meta["descr"], meta["fortran_order"], meta["shape"]
    if descr not in ("|u1", "u1", "<u1"):
        raise DataError(f"{member}: expected unsigned-byte data, got {descr!r}")
    if fortran:
        raise DataError(f"{member}: fortran-order arrays not supported")
    if not 1 <= len(shape) <= 3:
        raise DataError(f"{member}: expected 1-3 dimensions, got {shape}")
    count = int(np.prod(shape)) if shape else 1
    data = raw[header_start + header_len :]
    if len(data) < count:
        raise DataError(f"{member}: truncated data ({len(data)} < {count} bytes)")
    return np.frombuffer(data[:count], dtype=np.uint8).reshape(shape).copy()


def _read_members(path: str | Path) -> dict[str, np.ndarray]:
    try:
        archive = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot open archive {path}: {exc}") from exc
    arrays = {}
    with archive:
        for info in archive.infolist():
            name = info.filename
            if not name.endswith(".npy"):
                continue
            arrays[name[:-4]] = _parse_npy(archive.read(info), name)
    return arrays


def load_archive(path: str | Path, dataset_name: str) -> tuple[ImageDataset, ImageDataset, ImageDataset]:
    """Load (train, val, test) from an archive, normalizing pixels to [0, 1]."""
    arrays = _read_members(path)
    name = dataset_name.lower()
    datasets = []
    labels_by_split = {}
    for split in _SPLITS:
        try:
            images = arrays[f"{split}_images"]
            labels = arrays[f"{split}_labels"]
        except KeyError as exc:
            raise DataError(f"{path}: missing array {exc.args[0]}") from exc
        if images.ndim != 3 or images.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE):
            raise DataError(
                f"{path}: {split}_images shape {images.shape}, expected (m, 28, 28)"
            )
        labels = labels.reshape(-1).astype(int)
        if len(labels) != len(images):
            raise DataError(f"{path}: {split} image/label count mismatch")
        labels_by_split[split] = labels
        datasets.append((split, images.astype(float) / 255.0, labels))

    num_classes = int(max(lbl.max() for lbl in labels_by_split.values())) + 1
    expected = KNOWN_DATASETS.get(name)
    if expected is None:
        warnings.warn(f"unknown dataset {dataset_name!r}; loading without count validation")
    else:
        if num_classes != expected["num_classes"]:
            raise DataError(
                f"{dataset_name}: found {num_classes} classes, expected {expected['num_classes']}"
            )
        if "train" in expected and len(labels_by_split["train"]) != expected["train"]:
            raise DataError(
                f"{dataset_name}: train split has {len(labels_by_split['train'])} samples,"
                f" expected {expected['train']}"
            )
    return tuple(
        ImageDataset(name=name, images=images, labels=labels, num_classes=num_classes, split=split)
        for split, images, labels in datasets
    )


def inject_gaussian_noise(
    dataset: ImageDataset, sigma: float, noise: np.ndarray, clip: bool = False
) -> ImageDataset:
    """``sigma * noise`` added to every image, labels untouched.

    ``noise`` is the standard-normal field from ``unit_noise_field``; a
    sweep draws it once and scales it for every sigma.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return replace(dataset, images=dataset.images.copy())
    noisy = dataset.images + sigma * noise
    if clip:
        noisy = np.clip(noisy, 0.0, 1.0)
    return replace(dataset, images=noisy)


def unit_noise_field(dataset: ImageDataset, seed: int) -> np.ndarray:
    """The sigma-independent standard-normal field used by noise injection."""
    m = len(dataset)
    seeds = np.array([substream_seed(seed, i) for i in range(m)], dtype=np.uint64)
    return normal_field(seeds, NUM_PIXELS).reshape(m, IMAGE_SIDE, IMAGE_SIDE)


def noise_sweep_grid() -> list[float]:
    """sigma = 0 baseline plus 0.10 to 1.00 in steps of 0.05 (20 values)."""
    return [0.0] + [(10 + 5 * i) / 100.0 for i in range(19)]


def sha256_of_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_checksums(manifest_path: str | Path, archives: dict[str, str | Path]) -> None:
    """Check archives against a text manifest of '<name> <sha256>' lines."""
    expected = {}
    for line in Path(manifest_path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, digest = line.partition(" ")
        expected[name] = digest.strip()
    for name, path in archives.items():
        if name not in expected:
            raise DataError(f"checksum manifest has no entry for {name}")
        actual = sha256_of_file(path)
        if actual != expected[name]:
            raise DataError(
                f"{name}: sha256 mismatch (archive {actual}, manifest {expected[name]})"
            )
