import hashlib
import io
import pickle
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqnn import cli, data
from medqnn.errors import DataError
from medqnn.rng import normal_field

from conftest import stored_npz_bytes, write_archive


def small_arrays(m, seed=3):
    rng = np.random.default_rng(seed)
    arrays = {}
    for split in ("train", "val", "test"):
        arrays[f"{split}_images"] = rng.integers(0, 255, (m, 28, 28), dtype=np.uint8)
        arrays[f"{split}_labels"] = (np.arange(m, dtype=np.uint8) % 2).reshape(-1, 1)
    return arrays


def npy_bytes(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def zip_bytes(members, compression=zipfile.ZIP_STORED):
    """A zip of raw member bytes, so a member can hold anything."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, raw in members.items():
            archive.writestr(f"{name}.npy", raw)
    return buffer.getvalue()


def huge_header_archive(count):
    """train_images whose header declares ``count`` bytes over a 100-byte payload."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "|u1", "fortran_order": False, "shape": (count,)}
    )
    members = {name: npy_bytes(array) for name, array in small_arrays(2).items()}
    members["train_images"] = header.getvalue() + bytes(100)
    return zip_bytes(members)


def unclosed_header_archive():
    """train_images whose version-1 header dict never closes its shape tuple."""
    header = b"{'descr': '|u1', 'fortran_order': False, 'shape': (2, 28, 28"
    header = header.ljust(118) + b"\n"  # 10 magic and length bytes + 118 = 128
    members = {name: npy_bytes(array) for name, array in small_arrays(2).items()}
    members["train_images"] = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
    return zip_bytes(members)


def central_directory_patch(offset, value):
    """A valid stored archive with one byte of its first central-directory entry set."""
    raw = bytearray(stored_npz_bytes(**small_arrays(40)))
    raw[raw.find(b"PK\x01\x02") + offset] = value
    return bytes(raw)


def corrupt_deflate():
    """A deflated archive whose first member's data opens with a reserved block type."""
    raw = bytearray(zip_bytes(
        {name: npy_bytes(a) for name, a in small_arrays(2).items()}, zipfile.ZIP_DEFLATED
    ))
    name_len, extra_len = (int.from_bytes(raw[i : i + 2], "little") for i in (26, 28))
    raw[30 + name_len + extra_len] = 0xFF
    return bytes(raw)


HOSTILE_FILES = {
    "empty file": lambda: b"",
    "text file": lambda: b"train_images,train_labels\n1,0\n",
    "pickle": lambda: pickle.dumps(small_arrays(2)),
    "bare npy": lambda: npy_bytes(small_arrays(2)["train_images"]),
    "object member": lambda: zip_bytes(
        {"train_images": npy_bytes(np.array([1, "a"], dtype=object), allow_pickle=True)}
    ),
    "4e9-byte header": lambda: huge_header_archive(4_000_000_000),
    "1e11-byte header": lambda: huge_header_archive(100_000_000_000),
    "unclosed npy header": unclosed_header_archive,
    "member flagged encrypted": lambda: central_directory_patch(8, 0x01),
    "unknown compression method": lambda: central_directory_patch(10, 99),
    "lzma method over stored bytes": lambda: central_directory_patch(10, 14),
    "corrupt deflate stream": corrupt_deflate,
    "empty splits": lambda: stored_npz_bytes(**small_arrays(0)),
    "multi-label labels": lambda: stored_npz_bytes(
        **small_arrays(2) | {"train_labels": np.zeros((2, 14), dtype=np.uint8)}
    ),
}


STORED = stored_npz_bytes(**small_arrays(2))


def with_train_images(raw, compression=zipfile.ZIP_STORED):
    """small_arrays(4) as raw members, with train_images replaced by ``raw``."""
    members = {name: npy_bytes(array) for name, array in small_arrays(4).items()}
    members["train_images"] = raw
    return zip_bytes(members, compression)


def train_images_bytes():
    return npy_bytes(small_arrays(4)["train_images"])


def bad_crc():
    """A byte of train_images' pixels flipped after its CRC was written."""
    raw = bytearray(with_train_images(train_images_bytes()))
    raw[raw.find(b"\x93NUMPY") + 200] ^= 0xFF
    return bytes(raw)


def stream_short_of_its_recorded_size():
    """train_images deflated 100 bytes short of its header's count, with the
    central directory recording the full size, so only the read runs out."""
    raw = bytearray(with_train_images(train_images_bytes()[:-100], zipfile.ZIP_DEFLATED))
    entry = raw.find(b"PK\x01\x02")  # train_images' central-directory entry comes first
    size = int.from_bytes(raw[entry + 24 : entry + 28], "little")
    raw[entry + 24 : entry + 28] = (size + 100).to_bytes(4, "little")
    return bytes(raw)


# damage to train_images or train_labels, which a load of only the test split does not keep
DAMAGED_TRAIN = {
    "wrong dtype": lambda: with_train_images(npy_bytes(np.zeros((4, 28, 28), dtype=np.float32))),
    "wrong shape": lambda: with_train_images(npy_bytes(np.zeros((4, 32, 32), dtype=np.uint8))),
    "short byte count": lambda: with_train_images(train_images_bytes()[:-100]),
    "stream short of its recorded size": stream_short_of_its_recorded_size,
    "bad CRC": bad_crc,
    "multi-label labels": lambda: stored_npz_bytes(
        **small_arrays(4) | {"train_labels": np.zeros((4, 14), dtype=np.uint8)}
    ),
}


def load_or_none(path, keep=("train", "val", "test")):
    """load_archive's datasets for the splits in ``keep``, or None on a DataError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return data.load_archive(path, "toyset", keep)
        except DataError:
            return None


def write_damaged(path, cut, flips):
    """STORED cut to ``cut`` bytes, each (position, mask) of ``flips`` xored in."""
    raw = bytearray(STORED[:cut])
    for position, mask in flips:
        if raw:
            raw[position % len(raw)] ^= mask
    path.write_bytes(bytes(raw))
    return path


DAMAGE = {
    "cut": st.integers(0, len(STORED)),
    "flips": st.lists(st.tuples(st.integers(0, len(STORED) - 1), st.integers(1, 255)), max_size=4),
}


class TestLoadArchive:
    def test_round_trip_deflated(self, tmp_path):
        path = write_archive(tmp_path / "toy.npz", m_train=40, m_val=10, m_test=12, compressed=True)
        with pytest.warns(UserWarning):
            train, val, test = data.load_archive(path, "toyset")
        assert (len(train), len(val), len(test)) == (40, 10, 12)
        assert train.flat_images().min() >= 0.0 and train.flat_images().max() <= 1.0
        assert train.num_classes == 2
        assert (train.split, val.split, test.split) == ("train", "val", "test")

    def test_round_trip_stored(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {}
        for split, m in (("train", 20), ("val", 6), ("test", 6)):
            arrays[f"{split}_images"] = rng.integers(0, 255, (m, 28, 28), dtype=np.uint8)
            arrays[f"{split}_labels"] = rng.integers(0, 2, (m, 1), dtype=np.uint8)
        path = tmp_path / "stored.npz"
        path.write_bytes(stored_npz_bytes(**arrays))
        with pytest.warns(UserWarning):
            train, _, _ = data.load_archive(path, "whatever")
        np.testing.assert_allclose(
            data.unit_floats(train.pixels), arrays["train_images"].astype(float) / 255.0
        )

    def test_pixels_divided_by_255(self, tmp_path):
        path = write_archive(tmp_path / "toy.npz", m_train=10, m_val=4, m_test=4)
        with pytest.warns(UserWarning):
            train, _, _ = data.load_archive(path, "toyset")
        assert train.flat_images().dtype == float
        assert train.flat_images().max() <= 1.0

    def test_images_bit_identical_to_float_conversion(self, tmp_path):
        path = write_archive(tmp_path / "toy.npz", m_train=30, m_val=8, m_test=9, seed=4)
        with np.load(path) as archive:
            arrays = dict(archive)
        with pytest.warns(UserWarning):
            splits = data.load_archive(path, "toyset")
        for dataset in splits:
            assert dataset.pixels.dtype == np.uint8  # bytes as stored, converted by the reader
            expected = arrays[f"{dataset.split}_images"].astype(float) / 255.0
            assert dataset.flat_images().dtype == expected.dtype
            assert dataset.flat_images().tobytes() == expected.tobytes()

    def test_missing_member_is_format_error(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {
            "train_images": rng.integers(0, 255, (5, 28, 28), dtype=np.uint8),
            "train_labels": rng.integers(0, 2, (5, 1), dtype=np.uint8),
        }
        path = tmp_path / "partial.npz"
        path.write_bytes(stored_npz_bytes(**arrays))
        with pytest.raises(DataError, match="missing array"):
            data.load_archive(path, "toyset")

    def test_wrong_shape_is_format_error(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {}
        for split in ("train", "val", "test"):
            arrays[f"{split}_images"] = rng.integers(0, 255, (5, 32, 32), dtype=np.uint8)
            arrays[f"{split}_labels"] = rng.integers(0, 2, (5, 1), dtype=np.uint8)
        path = tmp_path / "wrongshape.npz"
        path.write_bytes(stored_npz_bytes(**arrays))
        with pytest.raises(DataError, match="expected \\(m, 28, 28\\)"):
            data.load_archive(path, "toyset")

    def test_non_byte_dtype_rejected(self, tmp_path):
        arrays = {"train_images": np.zeros((5, 28, 28), dtype=np.float32)}
        path = tmp_path / "floats.npz"
        path.write_bytes(stored_npz_bytes(**arrays))
        with pytest.raises(DataError, match="unsigned-byte"):
            data.load_archive(path, "toyset")

    def test_known_dataset_count_validation(self, tmp_path):
        # a file claiming to be pneumoniamnist must carry 4708 training samples
        path = write_archive(tmp_path / "fake.npz", m_train=100, m_val=10, m_test=10)
        with pytest.raises(DataError, match="4708"):
            data.load_archive(path, "pneumoniamnist")

    def test_known_dataset_class_validation(self, tmp_path):
        path = write_archive(
            tmp_path / "fake.npz", m_train=546, m_val=78, m_test=156, num_classes=3
        )
        with pytest.raises(DataError, match="classes"):
            data.load_archive(path, "breastmnist")

    def test_multi_label_archive_is_rejected_by_name(self, tmp_path):
        arrays = small_arrays(6) | {"test_labels": np.zeros((6, 14), dtype=np.uint8)}  # ChestMNIST-shaped
        path = tmp_path / "chest.npz"
        path.write_bytes(stored_npz_bytes(**arrays))
        with pytest.raises(DataError, match="multi-label"):
            data.load_archive(path, "toyset")

    def test_kept_splits_are_those_of_a_full_load_in_the_order_asked(self, tmp_path):
        path = write_archive(tmp_path / "toy.npz", m_train=30, m_val=8, m_test=9, seed=5)
        with pytest.warns(UserWarning):
            full = dict(zip(("train", "val", "test"), data.load_archive(path, "toyset")))
        for keep in (("test",), ("val",), ("train",), ("test", "train")):
            with pytest.warns(UserWarning):
                kept = data.load_archive(path, "toyset", keep)
            assert [d.split for d in kept] == list(keep)
            for dataset in kept:
                assert np.array_equal(dataset.pixels, full[dataset.split].pixels)
                assert np.array_equal(dataset.labels, full[dataset.split].labels)
                assert dataset.num_classes == full[dataset.split].num_classes
        with pytest.raises(ValueError):
            data.load_archive(path, "toyset", ("validation",))

    @pytest.mark.parametrize("case", DAMAGED_TRAIN)
    def test_damage_to_a_split_that_is_not_kept_is_a_data_error(self, tmp_path, case):
        path = tmp_path / "damaged.npz"
        path.write_bytes(DAMAGED_TRAIN[case]())
        for keep in (("test",), ("val", "test"), ("train", "val", "test")):
            with pytest.raises(DataError):
                data.load_archive(path, "toyset", keep)
        path.write_bytes(stored_npz_bytes(**small_arrays(4)))  # the undamaged archive loads
        assert load_or_none(path, ("test",)) is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            data.load_archive(tmp_path / "nothing.npz", "toyset")

    @pytest.mark.parametrize("case", HOSTILE_FILES)
    def test_hostile_file_is_a_data_error(self, tmp_path, case):
        path = tmp_path / "hostile.npz"
        path.write_bytes(HOSTILE_FILES[case]())
        with pytest.raises(DataError):
            data.load_archive(path, "toyset")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([
                "train", "--archive", str(path), "--dataset", "toyset", "--model", "classical",
                "--out", str(tmp_path / "out"), "--epochs", "1",
            ])
        assert code == 2
        assert not (tmp_path / "out").exists()

    @settings(max_examples=300, deadline=None)
    @given(**DAMAGE)
    def test_damaged_archive_loads_or_is_a_data_error(self, tmp_path_factory, cut, flips):
        load_or_none(write_damaged(tmp_path_factory.getbasetemp() / "damaged.npz", cut, flips))

    @settings(max_examples=300, deadline=None)
    @given(**DAMAGE)
    def test_keeping_one_split_rejects_exactly_what_keeping_all_rejects(self, tmp_path_factory, cut, flips):
        path = write_damaged(tmp_path_factory.getbasetemp() / "damaged.npz", cut, flips)
        full = load_or_none(path)
        for index, split in enumerate(("train", "val", "test")):
            kept = load_or_none(path, (split,))
            assert (kept is None) == (full is None), split
            if kept is not None:
                assert np.array_equal(kept[0].pixels, full[index].pixels)
                assert np.array_equal(kept[0].labels, full[index].labels)


class TestNoiseInjection:
    @pytest.fixture
    def images(self, tmp_path):
        path = write_archive(tmp_path / "noise.npz", m_train=1300, m_val=4, m_test=4)
        with pytest.warns(UserWarning):
            return data.load_archive(path, "toyset")[0].flat_images()

    @staticmethod
    def field(images, seed):
        return normal_field(data.noise_seeds(len(images), seed), data.NUM_PIXELS)

    def test_zero_sigma_is_identity(self, images):
        noisy = data.inject_gaussian_noise(images, 0.0, self.field(images, 5))
        assert np.array_equal(noisy, images)
        assert noisy is not images

    def test_moments_at_a_million_pixels(self, images):
        # 1300 images x 784 pixels > 1e6 draws
        sigma = 0.25
        noisy = data.inject_gaussian_noise(images, sigma, self.field(images, 11))
        delta = (noisy - images).ravel()
        n = delta.size
        assert n > 1_000_000
        assert abs(delta.mean()) < 4.0 * sigma / np.sqrt(n)
        assert abs(delta.std() - sigma) / sigma < 0.01

    def test_same_seed_scales_linearly(self, images):
        a = data.inject_gaussian_noise(images, 0.2, self.field(images, 3))
        b = data.inject_gaussian_noise(images, 0.8, self.field(images, 3))
        np.testing.assert_allclose(
            (a - images) / 0.2,
            (b - images) / 0.8,
            atol=1e-12,
        )

    def test_no_clipping_by_default(self, images):
        noisy = data.inject_gaussian_noise(images, 1.0, self.field(images, 4))
        assert noisy.min() < 0.0 or noisy.max() > 1.0

    def test_clip_flag(self, images):
        noise = self.field(images, 4)
        noisy = data.inject_gaussian_noise(images, 1.0, noise, clip=True)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_negative_sigma_rejected(self, images):
        with pytest.raises(ValueError):
            data.inject_gaussian_noise(images, -0.1, self.field(images, 0))

    def test_deterministic_under_seed(self, images):
        a = data.inject_gaussian_noise(images, 0.3, self.field(images, 9))
        b = data.inject_gaussian_noise(images, 0.3, self.field(images, 9))
        assert np.array_equal(a, b)


class TestNoiseGrid:
    def test_grid_contents(self):
        grid = data.noise_sweep_grid()
        assert len(grid) == 20
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(0.10)
        assert grid[-1] == pytest.approx(1.00)

    def test_uniform_increments(self):
        grid = data.noise_sweep_grid()
        diffs = np.diff(grid[1:])
        np.testing.assert_allclose(diffs, 0.05, atol=1e-12)


class TestChecksums:
    def test_verify_roundtrip(self, tmp_path):
        path = write_archive(tmp_path / "c.npz", m_train=10, m_val=4, m_test=4)
        digest = data.sha256_of_file(path)
        manifest = tmp_path / "checksums.txt"
        manifest.write_text(f"# archives\ntoyset {digest}\n")
        data.verify_checksums(manifest, {"toyset": digest})

    def test_mismatch_raises(self, tmp_path):
        path = write_archive(tmp_path / "c.npz", m_train=10, m_val=4, m_test=4)
        manifest = tmp_path / "checksums.txt"
        manifest.write_text("toyset " + "0" * 64 + "\n")
        with pytest.raises(DataError, match="mismatch"):
            data.verify_checksums(manifest, {"toyset": data.sha256_of_file(path)})

    def test_missing_entry_raises(self, tmp_path):
        path = write_archive(tmp_path / "c.npz", m_train=10, m_val=4, m_test=4)
        manifest = tmp_path / "checksums.txt"
        manifest.write_text("# empty\n")
        with pytest.raises(DataError, match="no entry"):
            data.verify_checksums(manifest, {"toyset": data.sha256_of_file(path)})

    @pytest.mark.parametrize("size", [
        0, 1, data._READ_BYTES - 1, data._READ_BYTES, data._READ_BYTES + 1, 3 * data._READ_BYTES,
    ])
    def test_digest_of_every_buffer_fill(self, tmp_path, size):
        blob = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(blob)
        assert data.sha256_of_file(path) == hashlib.sha256(blob).hexdigest()

    def test_traced_memory_of_a_digest(self, tmp_path):
        # The file is read into one reused 256 KB buffer, not as 1 MB bytes objects.
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(44).integers(0, 256, 17 * data._READ_BYTES, dtype=np.uint8).tobytes())
        data.sha256_of_file(path)  # first-call allocations
        tracemalloc.start()
        try:
            data.sha256_of_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
