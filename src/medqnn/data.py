"""MedMNIST-style archive loading and noise injection.

Archives are .npz files (zip files of .npy members) named train_images,
train_labels, val_images, val_labels, test_images, test_labels with
unsigned-byte pixels and one label per image. Each member's header is
parsed by numpy's own .npy reader (``np.lib.format``), so pickles and
object arrays are refused; every way a damaged or foreign file can fail
becomes a DataError. Every member is read to its end and checked on
load, but only the splits asked for keep their bytes: a command gets the
one split it reads, and the other image members stream past, 256 KB at a
time; ``sha256_of_file`` reads the archive through one 256 KB buffer too.
No dataset holds floats. The commands read the bytes a block at a time:
PCA moments are integer byte sums, ``pca.transform`` converts each block
of rows into one reused buffer of floats on [0, 1] (the bits of
``unit_floats``: ``astype(float) / 255.0``) before projecting it, and
``noise-sweep`` converts a block of rows and columns at a time.

Noise injection adds independent N(0, sigma^2) draws on the [0, 1] pixel
scale and intentionally does not clip: clipping would censor the noise
distribution asymmetrically near 0 and 1, and the downstream PCA
projection is defined on all reals. Each image gets its own PRNG
substream (seed XOR image index, ``noise_seeds``), so the standard-normal
field is independent of sigma and two sigmas under one seed differ only
by scale.
"""

from __future__ import annotations

import lzma
import math
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
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")  # np.load's test for an npz (the second: empty)
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}
_READ_BYTES = 1 << 18  # 256 KB, np.load's own read size
# zipfile and numpy's header readers on a damaged file, e.g. flipped zip flags
# (RuntimeError), corrupt deflate or lzma data or a bad CRC, an npy header with
# an unclosed bracket (tokenize)
_READ_ERRORS = (OSError, EOFError, ValueError, TypeError, MemoryError, RuntimeError,
                zipfile.BadZipFile, zlib.error, lzma.LZMAError, tokenize.TokenError)


def unit_floats(pixels: np.ndarray) -> np.ndarray:
    """Stored unsigned bytes as floats on [0, 1]."""
    return pixels.astype(float) / 255.0


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


def _read_member(
    archive: zipfile.ZipFile, path, name: str, check, keep: bool
) -> tuple[tuple[int, ...], np.ndarray | None]:
    """The shape of member ``name``, unsigned bytes whose shape passes
    ``check``, and its array if ``keep``. The member is read to its end
    either way, so zipfile checks its CRC; a member that is not kept
    streams past ``_READ_BYTES`` at a time and is dropped."""
    names = archive.namelist()
    entry = name if name in names else f"{name}.npy"  # np.load's lookup: as named, else .npy
    if entry not in names:
        raise DataError(f"{path}: missing array {name}")
    with archive.open(entry) as member:
        version = np.lib.format.read_magic(member)
        if version not in _HEADER_READERS:
            raise DataError(f"{path}: {name} has .npy format version {version}")
        shape, fortran_order, dtype = _HEADER_READERS[version](member)
        if dtype != np.uint8:
            raise DataError(f"{path}: {name} is not unsigned-byte data")
        check(shape)
        count = math.prod(shape)
        if count > archive.getinfo(entry).file_size:  # before allocating what a header claims
            raise DataError(f"{path}: {name} declares {count} bytes, more than the member holds")
        array = np.empty(count, np.uint8) if keep else None
        filled = 0
        while filled < count:
            size = min(_READ_BYTES, count - filled)
            got = member.readinto(array[filled : filled + size]) if keep else len(member.read(size))
            if not got:
                raise DataError(f"{path}: {name} ends after {filled} of {count} bytes")
            filled += got
        while member.read(_READ_BYTES):  # bytes past the array are ignored, as np.load does
            pass
    if keep:
        array = array.reshape(shape, order="F" if fortran_order else "C")
    return shape, array


def _read_split(
    archive: zipfile.ZipFile, path, split: str, keep: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """A split's images (if ``keep``) and labels, each member checked."""

    def images_check(shape):
        if len(shape) != 3 or shape[1:] != (IMAGE_SIDE, IMAGE_SIDE):
            raise DataError(f"{path}: {split}_images shape {shape}, expected (m, 28, 28)")

    def labels_check(shape):
        if len(shape) not in (1, 2) or shape[1:] not in ((), (1,)):
            raise DataError(
                f"{path}: {split}_labels shape {shape}, expected (m,) or (m, 1):"
                " multi-label data (one column per finding, as in ChestMNIST) is not supported"
            )

    (count, *_), pixels = _read_member(archive, path, f"{split}_images", images_check, keep)
    _, labels = _read_member(archive, path, f"{split}_labels", labels_check, True)
    if len(labels) != count:
        raise DataError(f"{path}: {split} image/label count mismatch")
    if count == 0:
        raise DataError(f"{path}: {split} split is empty")
    return pixels, labels.reshape(-1).astype(int)


def load_archive(
    path: str | Path, dataset_name: str, keep: tuple[str, ...] = _SPLITS
) -> tuple[ImageDataset, ...]:
    """The datasets of the splits in ``keep``, in that order: (train, val,
    test) by default. Every member is read and checked, kept or not, but
    only the kept splits' images are held."""
    if not set(keep) <= set(_SPLITS):
        raise ValueError(f"splits must be among {_SPLITS}, got {keep}")
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(np.lib.format.MAGIC_PREFIX))
            if magic == np.lib.format.MAGIC_PREFIX:
                raise DataError(f"{path} holds a single array, not an npz archive")
            if not magic.startswith(_ZIP_MAGIC):  # np.load would try it as a pickle
                raise DataError(f"{path} is not an npz archive")
            handle.seek(0)
            with zipfile.ZipFile(handle) as archive:
                splits = {split: _read_split(archive, path, split, split in keep) for split in _SPLITS}
    except _READ_ERRORS as exc:
        raise DataError(f"cannot read archive {path}: {exc!r}") from exc

    name = dataset_name.lower()
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
        ImageDataset(name=name, pixels=splits[split][0], labels=splits[split][1],
                     num_classes=num_classes, split=split)
        for split in keep
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
    """The file's sha256, read ``_READ_BYTES`` at a time into one reused buffer."""
    import hashlib  # maps OpenSSL's libcrypto; cli takes the digest after a command's work

    digest, buffer = hashlib.sha256(), memoryview(bytearray(_READ_BYTES))
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()


def verify_checksums(manifest_path: str | Path, digests: dict[str, str]) -> None:
    """Check sha256 digests, by archive name, against a manifest of
    '<name> <sha256>' lines (any whitespace between; digests in either case)."""
    try:
        text = Path(manifest_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read checksum manifest {manifest_path}: {exc}") from exc
    expected = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise DataError(
                f"{manifest_path}:{line_no}: expected '<name> <sha256>', got {len(fields)} fields"
            )
        expected[fields[0]] = fields[1].lower()
    for name, actual in digests.items():
        if name not in expected:
            raise DataError(f"checksum manifest has no entry for {name}")
        if actual.lower() != expected[name]:
            raise DataError(
                f"{name}: sha256 mismatch (archive {actual}, manifest {expected[name]})"
            )
