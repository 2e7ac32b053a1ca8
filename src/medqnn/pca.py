"""Principal component analysis on flattened images.

A fit is built from moments in byte units, y = 255 x: the row count n,
the column sums s = sum y and the Gram matrix G = sum y y^T.
``moments`` gathers the rows it is given by index, ``BLOCK_ROWS`` at a
time, into the block buffers of a ``Workspace``, so a cross-validation
fold's training rows are read in place and never copied whole. A block
of stored bytes is converted there to float32 and gives its Gram in
column panels of ``PANEL_COLUMNS``: panel [c0, c1) is
block[:, c0:c1]^T block[:, :c1], the Gram's rows c0:c1 left of column
c1, so only the lower panels are formed and added into the float64 Gram,
and the upper triangle is mirrored from the lower once, at the end. Each
panel is exact, since every partial sum is an integer of at most
256 * 255^2 < 2^24; added into float64, the sums stay exact while below
2^53 (fewer than 1.3e11 rows). Floats take the same loop in float64:
unit floats of bytes become the same integers, so they give
bit-identical sums, and other floats round as any float sum does. A
workspace holds the Gram, the sums, the block buffers and one panel
(0.6 MB at 784 columns), and each call overwrites what the last one
returned, so ``training.cross_validate`` fits every fold in one.

For bytes the sums are exact, so they do not depend on the order of the
rows, on how the rows fall into blocks, or on the number of BLAS threads:
the moments of any partition of the rows add up to the whole's, bit for
bit. ``from_moments`` forms the scatter,
sum (x - mean)(x - mean)^T = (n G - s s^T) / (255^2 n), in place of G;
for bytes the numerator is an exact integer while n^2 * 255^2 < 2^53, so
the division is the one rounding step. For other floats the difference
cancels: a column loses about log10(1 + mean^2 / variance) digits, under
one for pixels spread over [0, 1]. LAPACK's ``dsyevr`` then gives the
top-k eigenpairs of the 784 x 784 scatter and no others: it reduces the
scatter itself, in place, to tridiagonal form, finds the k eigenpairs of
that (by bisection and inverse iteration for k < n, by MRRR for k = n:
Dhillon, Parlett & Voemel, ACM TOMS 32(4), 2006) and transforms back
only their k vectors, in O(n) workspace, accurate to rounding however
close the eigenvalues lie. It is called through ctypes from the LAPACK
that numpy itself links (``_dsyevr``); where numpy's build exports no
``dsyevr`` of its integer width, the fit falls back to
``np.linalg.eigh``, all n eigenpairs. The build decides the path, so
components agree to rounding, not bit for bit, across numpy builds.
``fit`` is the two steps on one matrix.

``transform`` converts at most ``TRANSFORM_ROWS`` rows at a time into one
reused float buffer, centres them there and projects them into the
output, so a split of any size costs its features and 0.4 MB of floats.

Component signs are fixed by making each row's largest-magnitude entry
positive. Explained-variance ratios divide by the scatter's trace, the
sum of all its eigenvalues; rows that are all equal have a trace of 0
and are rejected.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError, checked_arrays

# moments() sanity guard for floats; noise-injected images can leave [0, 1]
# but only clean training pixels ever reach a fit.
_PIXEL_LO, _PIXEL_HI = -0.5, 1.5
# Rows per block of moments(): the float32 Gram of 256 byte rows is exact.
BLOCK_ROWS = 256
# Columns per panel of a block's Gram in moments(): a quarter of 784.
PANEL_COLUMNS = 196
# Rows per block of transform(): its one reused float64 buffer of 784-pixel
# rows takes 0.4 MB. The value is part of every artifact's bytes: on OpenBLAS
# 0.3.31 one product of about 513 or more rows gives other bits than blocks of
# up to 256, so a change to it shows only against the earlier artifacts' bytes.
TRANSFORM_ROWS = 64

MAGIC = "PCA1"


@dataclass(frozen=True)
class PcaModel:
    input_dim: int
    k: int
    mean: np.ndarray                      # (input_dim,)
    components: np.ndarray                # (k, input_dim), rows orthonormal
    explained_variance_ratio: np.ndarray  # (k,), non-increasing


@dataclass
class Moments:
    """Sums over rows in byte units, y = 255 x."""

    count: int
    sums: np.ndarray  # (input_dim,), sum of y
    gram: np.ndarray  # (input_dim, input_dim), sum of y y^T

    @property
    def mean(self) -> np.ndarray:
        """The row mean in unit pixels: for bytes, the exact total divided once."""
        return self.sums / (255.0 * self.count)


class Workspace:
    """The buffers of ``moments`` for rows of ``dim`` values of ``dtype``: the
    float64 sums and Gram it returns, a block of gathered rows, the block as
    floats (float32 for bytes, else float64) and one panel of its Gram."""

    def __init__(self, dim: int, dtype):
        self.dtype = np.dtype(dtype)
        floats = np.dtype(np.float32 if self.dtype == np.uint8 else np.float64)
        self.sums, self.gram = np.empty(dim), np.empty((dim, dim))
        self.gathered = np.empty((BLOCK_ROWS, dim), self.dtype)
        self.block = self.gathered if self.dtype == floats else np.empty((BLOCK_ROWS, dim), floats)
        self.panel = np.empty(min(PANEL_COLUMNS, dim) * dim, floats)  # viewed as (c1 - c0, c1)


def moments(images: np.ndarray, rows: np.ndarray | None = None, workspace: Workspace | None = None) -> Moments:
    """The moments of the rows of ``images`` (m x input_dim), stored unsigned
    bytes or floats, that ``rows`` indexes (at least one; all of them by
    default), in the sums and Gram of ``workspace`` (a new one by default),
    which the next call on it overwrites. The rows are gathered and
    converted ``BLOCK_ROWS`` at a time in the workspace's buffers, and each
    block's Gram is added a column panel at a time (see the module
    docstring), so a call on a reused workspace allocates nothing large.
    For bytes every sum is an exact integer."""
    images = np.asarray(images)
    if images.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got shape {images.shape}")
    rows = np.arange(len(images)) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise DataError("no samples to fit")
    if rows.min() < -len(images) or rows.max() >= len(images):
        raise IndexError(f"a row index lies outside the {len(images)} rows")
    dim = images.shape[1]
    work = Workspace(dim, images.dtype) if workspace is None else workspace
    if work.gram.shape != (dim, dim) or work.dtype != images.dtype:
        raise ValueError(f"the workspace holds {work.dtype} rows of {len(work.gram)}, not {images.dtype} of {dim}")
    sums, gram = work.sums, work.gram
    sums.fill(0.0)
    gram.fill(0.0)
    panels = [(c0, min(c0 + PANEL_COLUMNS, dim)) for c0 in range(0, dim, PANEL_COLUMNS)]
    for start in range(0, len(rows), BLOCK_ROWS):
        index = rows[start : start + BLOCK_ROWS]
        block = work.block[: len(index)]
        # "wrap" is Python's indexing for the rows checked above, and, unlike
        # the default "raise", writes into the buffer without a copy.
        np.take(images, index, axis=0, out=work.gathered[: len(index)], mode="wrap")
        if work.block is not work.gathered:
            np.copyto(block, work.gathered[: len(index)])
        if block.dtype == np.float64:
            if not np.all(np.isfinite(block)):
                raise DataError("non-finite pixel values in fit input")
            if block.min() < _PIXEL_LO or block.max() > _PIXEL_HI:
                raise DataError(
                    f"pixel values outside [{_PIXEL_LO}, {_PIXEL_HI}]; normalize to [0, 1] before fit"
                )
            block *= 255.0
        sums += block.sum(axis=0)
        for c0, c1 in panels:
            panel = work.panel[: (c1 - c0) * c1].reshape(c1 - c0, c1)
            gram[c0:c1, :c1] += np.matmul(block[:, c0:c1].T, block[:, :c1], out=panel)
    for i in range(dim - 1):  # the upper triangle, from the lower
        gram[i, i + 1 :] = gram[i + 1 :, i]
    return Moments(count=len(rows), sums=sums, gram=gram)


def from_moments(stats: Moments, k: int) -> PcaModel:
    """The top-k model of the rows that ``stats`` describes. The scatter is
    formed in place of ``stats.gram``, so ``stats`` cannot be used again."""
    dim = len(stats.sums)
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")
    if stats.count <= k:
        raise DataError(f"need more than k={k} samples to fit, got {stats.count}")
    mean = stats.mean
    # The scatter is (count - 1) x the covariance: same eigenvectors, same ratios.
    scatter = stats.gram
    scatter *= stats.count
    for row, total in zip(scatter, stats.sums):  # s s^T a row at a time: no second Gram
        row -= total * stats.sums
    scatter /= 255.0**2 * stats.count
    total_variance = np.trace(scatter)
    if not total_variance > 0:
        raise DataError(f"all {stats.count} rows of the fit input are equal: there is no variance to fit")
    eigvals, components = _top_eigenpairs(scatter, k)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    return PcaModel(
        input_dim=dim,
        k=k,
        mean=mean,
        components=components,
        explained_variance_ratio=eigvals / total_variance,
    )


@functools.cache
def _dsyevr():
    """numpy's own LAPACK ``dsyevr``, typed for ctypes, and the integer dtype
    of numpy's build; None where the build exports no symbol of that width."""
    import ctypes

    from numpy.linalg import _umath_linalg

    ilp64 = getattr(_umath_linalg, "_ilp64", None)
    if ilp64 is None:
        return None
    integer = np.int64 if ilp64 else np.int32
    names = ("scipy_dsyevr_64_", "dsyevr_64_") if ilp64 else ("scipy_dsyevr_", "dsyevr_")
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)  # its symbols and those of the LAPACK it links
    except OSError:
        return None
    function = next((getattr(library, name) for name in names if hasattr(library, name)), None)
    if function is None:
        return None
    floats, ints = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS") for dtype in (np.float64, integer))
    # JOBZ RANGE UPLO, N A LDA VL VU IL IU ABSTOL M W Z LDZ ISUPPZ WORK LWORK
    # IWORK LIWORK INFO, then the hidden lengths of the three strings
    function.argtypes = [ctypes.c_char_p] * 3 + [
        ints, floats, ints, floats, floats, ints, ints, floats, ints,
        floats, floats, ints, ints, floats, ints, ints, ints, ints,
    ] + [ctypes.c_size_t] * 3
    function.restype = None
    return function, integer


def _top_eigenpairs(scatter: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric ``scatter``, descending, and
    their unit eigenvectors as the rows of a (k, n) array. ``dsyevr`` works
    on ``scatter`` in place, so it cannot be used again."""
    lapack = _dsyevr()
    if lapack is None:
        eigvals, eigvecs = np.linalg.eigh(scatter)  # ascending, all n
        return eigvals[::-1][:k], eigvecs[:, ::-1][:, :k].T.copy()
    function, integer = lapack
    n = len(scatter)
    # dsyevr destroys one triangle of its input, here the scatter itself. The
    # matrix is symmetric, so its C-order bytes, read column-major, are the
    # same matrix.
    eigvals, vectors = np.empty(n), np.empty((k, n))  # column-major n x k: row j is vector j
    count, info = np.zeros(1, integer), np.zeros(1, integer)
    dim, unused = np.array([n], integer), np.zeros(1)
    work, iwork = np.empty(26 * n), np.empty(10 * n, integer)  # the documented minimums
    function(
        b"V", b"I", b"L", dim, scatter, dim, unused, unused, np.array([n - k + 1], integer), dim, unused,
        count, eigvals, vectors, dim, np.empty(2 * k, integer),
        work, np.array([len(work)], integer), iwork, np.array([len(iwork)], integer), info, 1, 1, 1,
    )
    if info[0] != 0 or count[0] != k:
        raise NumericError(f"LAPACK dsyevr failed (INFO={info[0]}) or found {count[0]} of the top {k} eigenpairs")
    return eigvals[k - 1 :: -1], vectors[::-1].copy()  # ascending: reversed


def fit(images: np.ndarray, k: int) -> PcaModel:
    """Fit a top-k model on rows of ``images`` (m x input_dim), bytes or floats."""
    return from_moments(moments(images), k)


def row_blocks(count: int, most: int) -> list[slice]:
    """``count`` rows as the fewest near-equal blocks of at most ``most``
    rows (``np.array_split``'s sizes), so that no block has a single row
    unless ``count`` is 1: a 1-row product takes BLAS's matrix-vector path,
    whose bits differ from those of the same row in a batch."""
    n = max(1, -(-count // most))
    size, extra = divmod(count, n)
    starts = [i * size + min(i, extra) for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def transform(model: PcaModel, images: np.ndarray) -> np.ndarray:
    """The (..., k) features of ``images`` (..., input_dim): stored unsigned
    bytes, projected as their unit floats (``data.unit_floats``), or floats.
    The rows are converted into one reused float buffer a block of at most
    ``TRANSFORM_ROWS`` at a time (``row_blocks``), centred there and
    projected into the output, so only one block of them is ever floats.
    Bytes are finite; floats are checked."""
    images = np.asarray(images)
    if images.shape[-1] != model.input_dim:
        raise ValueError(f"expected length {model.input_dim}, got {images.shape[-1]}")
    rows = images.reshape(-1, model.input_dim)
    features = np.empty((len(rows), model.k))
    buffer = np.empty((min(TRANSFORM_ROWS, len(rows)), model.input_dim))
    for block in row_blocks(len(rows), TRANSFORM_ROWS):
        floats = buffer[: block.stop - block.start]
        if rows.dtype == np.uint8:
            np.divide(rows[block], 255.0, out=floats)  # the bits of unit_floats
        else:
            floats[...] = rows[block]
            if not np.all(np.isfinite(floats)):
                raise DataError("non-finite values in transform input")
        floats -= model.mean
        np.matmul(floats, model.components.T, out=features[block])
    return features.reshape(*images.shape[:-1], model.k)


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
    except (OSError, RecursionError, ValueError) as exc:  # ValueError: bad UTF-8, JSON or digits
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
