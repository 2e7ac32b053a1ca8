"""MedMNIST-style archive loading and noise injection.

Archives are .npz files (zip files of .npy members) named train_images,
train_labels, val_images, val_labels, test_images, test_labels with
unsigned-byte pixels. numpy's own reader loads them with pickles refused;
every way it can fail on a damaged or foreign file becomes a DataError.
Every member is read and checked on load, and a split keeps its bytes;
no dataset holds floats. The commands read the bytes a block at a time:
PCA moments are integer byte sums, ``pca.transform`` makes each block of
rows floats on [0, 1] (``unit_floats``: ``astype(float) / 255.0``) before
projecting it, and ``noise-sweep`` converts a block of columns at a time.

Noise injection adds independent N(0, sigma^2) draws on the [0, 1] pixel
scale and intentionally does not clip: clipping would censor the noise
distribution asymmetrically near 0 and 1, and the downstream PCA
projection is defined on all reals. Each image gets its own PRNG
substream (seed XOR image index, ``noise_seeds``), so the standard-normal
field is independent of sigma and two sigmas under one seed differ only
by scale.
"""

from __future__ import annotations

import hashlib
import lzma
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import substream_seed

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
_MEMBERS = tuple(f"{split}_{part}" for split in _SPLITS for part in ("images", "labels"))
# np.load and zipfile on a damaged file, e.g. flipped zip flags (RuntimeError), corrupt
# deflate or lzma data, an npy header with an unclosed bracket (tokenize)
_READ_ERRORS = (OSError, EOFError, ValueError, TypeError, MemoryError, RuntimeError,
                zipfile.BadZipFile, zlib.error, lzma.LZMAError, tokenize.TokenError)


def unit_floats(pixels: np.ndarray) -> np.ndarray:
    """Stored unsigned bytes as floats on [0, 1]; floats are returned as they are."""
    if pixels.dtype == np.uint8:
        return pixels.astype(float) / 255.0
    return np.asarray(pixels, dtype=float)


@dataclass(frozen=True)
class ImageDataset:
    name: str
    pixels: np.ndarray  # (m, 28, 28) unsigned bytes as stored
    labels: np.ndarray  # (m,) ints
    num_classes: int
    split: str

    def __len__(self) -> int:
        return len(self.labels)

    def flat_images(self) -> np.ndarray:
        """(m, 784) floats on [0, 1]; the commands read ``pixels`` instead."""
        return unit_floats(self.pixels).reshape(len(self.labels), -1)


def _read_members(path: str | Path) -> dict[str, np.ndarray]:
    try:
        archive = np.load(path, allow_pickle=False)  # refuses pickles and object arrays
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataError(f"{path} holds a single array, not an npz archive")
        with archive:
            arrays = {name: archive[name] for name in archive.files if name in _MEMBERS}
    except _READ_ERRORS as exc:
        raise DataError(f"cannot read archive {path}: {exc!r}") from exc
    for name, array in arrays.items():
        if not isinstance(array, np.ndarray) or array.dtype != np.uint8:  # bytes: no .npy magic
            raise DataError(f"{path}: {name} is not unsigned-byte data")
    return arrays


def load_archive(path: str | Path, dataset_name: str) -> tuple[ImageDataset, ImageDataset, ImageDataset]:
    """Load (train, val, test) from an archive of unsigned-byte pixels."""
    arrays = _read_members(path)
    name = dataset_name.lower()
    splits = {}
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
        if len(labels) == 0:
            raise DataError(f"{path}: {split} split is empty")
        splits[split] = (images, labels)

    num_classes = int(max(labels.max() for _, labels in splits.values())) + 1
    train_count = len(splits["train"][1])
    expected = KNOWN_DATASETS.get(name)
    if expected is None:
        warnings.warn(f"unknown dataset {dataset_name!r}; loading without count validation")
    else:
        if num_classes != expected["num_classes"]:
            raise DataError(
                f"{dataset_name}: found {num_classes} classes, expected {expected['num_classes']}"
            )
        if "train" in expected and train_count != expected["train"]:
            raise DataError(
                f"{dataset_name}: train split has {train_count} samples,"
                f" expected {expected['train']}"
            )
    return tuple(
        ImageDataset(name=name, pixels=pixels, labels=labels, num_classes=num_classes, split=split)
        for split, (pixels, labels) in splits.items()
    )


def inject_gaussian_noise(
    images: np.ndarray, sigma: float, noise: np.ndarray, clip: bool = False
) -> np.ndarray:
    """``images + sigma * noise``, clipped to [0, 1] if ``clip``, as a new
    array. ``noise`` is standard normal, drawn once for every sigma."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    noisy = images + sigma * noise
    return np.clip(noisy, 0.0, 1.0, out=noisy) if clip else noisy


def noise_seeds(m: int, seed: int) -> np.ndarray:
    """The seed of each of ``m`` images' noise substreams."""
    return np.array([substream_seed(seed, i) for i in range(m)], dtype=np.uint64)


def noise_sweep_grid() -> list[float]:
    """sigma = 0 baseline plus 0.10 to 1.00 in steps of 0.05 (20 values)."""
    return [0.0] + [(10 + 5 * i) / 100.0 for i in range(19)]


def sha256_of_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_checksums(manifest_path: str | Path, digests: dict[str, str]) -> None:
    """Check sha256 digests, by archive name, against a manifest of '<name> <sha256>' lines."""
    try:
        text = Path(manifest_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read checksum manifest {manifest_path}: {exc}") from exc
    expected = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, digest = line.partition(" ")
        expected[name] = digest.strip()
    for name, actual in digests.items():
        if name not in expected:
            raise DataError(f"checksum manifest has no entry for {name}")
        if actual != expected[name]:
            raise DataError(
                f"{name}: sha256 mismatch (archive {actual}, manifest {expected[name]})"
            )
