import ast
import ctypes
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from medqnn import data, pca
from medqnn.errors import DataError, NumericError

from conftest import make_class_images, pixels_with_spectrum


def random_pixel_matrix(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(m, dim))


def pool(images: np.ndarray, parts: list[np.ndarray]) -> pca.Moments:
    """The moments of the rows of ``images``, summed over the moments of each
    part of rows, read in place by index."""
    stats = [pca.moments(images, rows) for rows in parts]
    return pca.Moments(
        count=sum(s.count for s in stats), sums=sum(s.sums for s in stats), gram=sum(s.gram for s in stats)
    )


def scatter(stats: pca.Moments) -> np.ndarray:
    """sum (x - mean)(x - mean)^T in unit pixels, from the byte-unit sums."""
    return (stats.count * stats.gram - np.outer(stats.sums, stats.sums)) / (255.0**2 * stats.count)


def subspace_iteration_fit(images: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference (components, ratios) by orthogonal subspace iteration from the
    canonical basis plus a Rayleigh-Ritz step, with the sign rule of ``pca.fit``."""
    centered = images - images.mean(axis=0)
    cov = (centered.T @ centered) / (len(images) - 1)
    basis = np.eye(cov.shape[0])[:, :k]
    for _ in range(5000):
        new_basis, _ = np.linalg.qr(cov @ basis)
        residual = new_basis - basis @ (basis.T @ new_basis)
        basis = new_basis
        if np.abs(residual).max() < 1e-10:
            break
    small = basis.T @ cov @ basis
    eigvals, eigvecs = np.linalg.eigh(0.5 * (small + small.T))
    order = np.argsort(eigvals)[::-1]
    components = (basis @ eigvecs[:, order]).T
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components, eigvals[order] / np.trace(cov)


class TestFit:
    def test_rank_one_data(self):
        # points on a single line through the origin, plus an offset
        rng = np.random.default_rng(0)
        direction = np.array([0.6, 0.8])
        t = rng.uniform(-0.2, 0.2, size=40)
        data = 0.5 + np.outer(t, direction)
        model = pca.fit(data, 1)
        np.testing.assert_allclose(np.abs(model.components[0]), np.abs(direction), atol=1e-10)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-10)

    def test_five_point_toy(self):
        data = 0.5 + 0.25 * np.array(
            [[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
        )
        model = pca.fit(data, 2)
        np.testing.assert_allclose(model.components[0], [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(model.explained_variance_ratio, [0.8, 0.2], atol=1e-12)

    def test_orthonormal_components_and_sign_rule(self):
        rng = np.random.default_rng(1)
        model = pca.fit(random_pixel_matrix(rng, 80, 30), 5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_ratios_non_increasing_and_bounded(self):
        rng = np.random.default_rng(2)
        model = pca.fit(random_pixel_matrix(rng, 60, 20), 4)
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert np.all(ratios > 0) and np.all(ratios <= 1)

    def test_full_rank_cumulative_variance_is_one(self):
        rng = np.random.default_rng(3)
        model = pca.fit(random_pixel_matrix(rng, 60, 50), 50)
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = random_pixel_matrix(rng, 50, 25)
        a = pca.fit(data, 4)
        b = pca.fit(data.copy(), 4)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.explained_variance_ratio, b.explained_variance_ratio)

    def test_matches_subspace_iteration_on_separated_spectrum(self):
        rng = np.random.default_rng(11)
        images = pixels_with_spectrum(rng, 300, 0.01 * 0.5 ** np.arange(20))
        model = pca.fit(images, 4)
        components, ratios = subspace_iteration_fit(images, 4)
        np.testing.assert_allclose(model.components, components, atol=1e-8)
        np.testing.assert_allclose(model.explained_variance_ratio, ratios, atol=1e-8)

    def test_eigen_residual_on_near_degenerate_spectrum(self):
        # the 4th and 5th eigenvalues differ by 1e-6 relative: subspace
        # iteration cannot separate them, an eigendecomposition must
        rng = np.random.default_rng(12)
        eigvals = 0.01 * np.array([1.0, 0.9, 0.8, 0.7, 0.7 * (1 - 1e-6), 0.3, 0.2, 0.1])
        images = pixels_with_spectrum(rng, 200, np.concatenate([eigvals, np.full(12, 1e-4)]))
        model = pca.fit(images, 4)
        centered = images - images.mean(axis=0)
        cov = (centered.T @ centered) / (len(images) - 1)
        lam = model.explained_variance_ratio * np.trace(cov)
        for value, vector in zip(lam, model.components):
            assert np.abs(cov @ vector - value * vector).max() <= 1e-12 * lam[0]

    def test_k_outside_one_to_input_dim_rejected(self):
        data = np.full((10, 5), 0.5)
        for k in (0, 6):
            with pytest.raises(ValueError):
                pca.fit(data, k)

    def test_insufficient_samples(self):
        with pytest.raises(DataError):
            pca.fit(np.zeros((4, 10)), 4)

    def test_non_finite_rejected(self):
        data = np.zeros((10, 5))
        data[3, 2] = np.nan
        with pytest.raises(DataError):
            pca.fit(data, 2)

    def test_out_of_range_pixels_rejected(self):
        data = np.full((10, 5), 7.0)
        with pytest.raises(DataError):
            pca.fit(data, 2)

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_equal_rows_have_no_variance_to_fit(self, dtype):
        # More than one block: the pooled sums still cancel exactly.
        rows = np.tile(np.arange(0, 240, 20, dtype=np.uint8), (pca.BLOCK_ROWS + 9, 1))
        with pytest.raises(DataError, match="no variance"):
            pca.fit(data.unit_floats(rows) if dtype is float else rows, 4)


class TestMoments:
    def test_rows_indexed_in_any_order_match_the_whole(self):
        rng = np.random.default_rng(13)
        images = random_pixel_matrix(rng, 100, 12)
        parts = np.split(np.arange(100), [1, 8, 38])  # 1, 7, 30 and 62 rows
        whole = pca.moments(images)
        for order in itertools.permutations(range(len(parts))):
            for got in (pca.moments(images, np.concatenate([parts[i] for i in order])),
                        pool(images, [parts[i] for i in order])):
                assert got.count == whole.count == 100
                np.testing.assert_allclose(got.mean, whole.mean, rtol=0, atol=1e-15)
                np.testing.assert_allclose(scatter(got), scatter(whole), rtol=1e-12, atol=1e-13)

    def test_stored_bytes_indexed_in_any_order_or_pooled_in_parts_give_the_whole_bit_for_bit(self):
        # A fold's moments are those of its training rows, indexed in place;
        # the sum of the other parts' moments, pooled, is the same bits.
        rng = np.random.default_rng(19)
        m = 2 * pca.BLOCK_ROWS + 5
        stored = rng.integers(0, 256, size=(m, 12)).astype(np.uint8)
        whole = pca.moments(stored)
        expected = pca.from_moments(pca.moments(stored), 4)
        parts = np.split(rng.permutation(m), [1, 8, pca.BLOCK_ROWS + 3])  # scattered, uneven rows
        for order in itertools.permutations(range(len(parts))):
            for got in (pca.moments(stored, np.concatenate([parts[i] for i in order])),
                        pool(stored, [parts[i] for i in order])):
                assert got.count == m
                assert np.array_equal(got.sums, whole.sums)
                assert np.array_equal(got.gram, whole.gram)
                got = pca.from_moments(got, 4)
                for name in ("mean", "components", "explained_variance_ratio"):
                    assert np.array_equal(getattr(got, name), getattr(expected, name)), name

    def test_indexed_rows_give_the_moments_of_their_copy_bit_for_bit(self):
        # Gathering by index makes the same blocks as copying the rows first.
        rng = np.random.default_rng(20)
        stored = rng.integers(0, 256, size=(3 * pca.BLOCK_ROWS, 12)).astype(np.uint8)
        rows = np.sort(rng.choice(len(stored), 2 * pca.BLOCK_ROWS + 7, replace=False))
        for images in (stored, random_pixel_matrix(rng, len(stored), 12)):
            got, copied = pca.moments(images, rows), pca.moments(images[rows])
            assert got.count == copied.count == len(rows)
            assert np.array_equal(got.sums, copied.sums)
            assert np.array_equal(got.gram, copied.gram)

    def test_sample_count_check_applies_to_the_indexed_count(self):
        rng = np.random.default_rng(14)
        images = random_pixel_matrix(rng, 5, 6)
        with pytest.raises(DataError):
            pca.from_moments(pca.moments(images, np.arange(4)), 4)
        with pytest.raises(DataError):
            pca.from_moments(pool(images, [np.arange(2), np.arange(2, 4)]), 4)
        expected = pca.fit(images, 4).components
        for stats in (pca.moments(images, [4, 0, 3, 1, 2]), pool(images, [np.arange(2), np.arange(2, 5)])):
            np.testing.assert_allclose(pca.from_moments(stats, 4).components, expected, atol=1e-10)

    def test_byte_moments_equal_an_int64_reference(self):
        # Whole blocks of 255 put the float32 block Grams at their bound,
        # 256 * 255^2, and blocks of random high and low bytes give odd
        # partial sums, which float32 would round past 2^24.
        rng = np.random.default_rng(22)
        b = pca.BLOCK_ROWS
        stored = np.concatenate([
            np.zeros((b, 40)), np.full((b, 40), 255),
            rng.integers(224, 256, size=(b + 7, 40)), rng.integers(0, 32, size=(b, 40)),
        ]).astype(np.uint8)
        got = pca.moments(stored)
        assert got.count == len(stored)
        wide = stored.astype(np.int64)
        assert np.array_equal(got.sums, wide.sum(axis=0))
        assert np.array_equal(got.gram, wide.T @ wide)

    def test_no_rows_rejected(self):
        with pytest.raises(DataError):
            pca.moments(np.zeros((0, 5)))
        with pytest.raises(DataError):
            pca.moments(np.zeros((3, 5)), np.arange(0))

    @pytest.mark.parametrize("offset", [-1, 0, 1, pca.BLOCK_ROWS + 1])
    def test_rows_across_block_boundaries_match_an_unblocked_two_pass_reference(self, offset):
        m = pca.BLOCK_ROWS + offset
        images = random_pixel_matrix(np.random.default_rng(30 + offset), m, 12)
        got = pca.moments(images)
        mean = images.mean(axis=0)
        centered = images - mean
        assert got.count == m
        np.testing.assert_allclose(got.mean, mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(scatter(got), centered.T @ centered, rtol=1e-12, atol=1e-13)

    def test_bytes_and_their_unit_floats_give_equal_moments_across_blocks(self):
        stored = np.random.default_rng(31).integers(0, 256, size=(2 * pca.BLOCK_ROWS + 1, 12))
        stored = stored.astype(np.uint8)
        from_bytes, from_floats = pca.moments(stored), pca.moments(data.unit_floats(stored))
        assert from_bytes.count == from_floats.count
        assert np.array_equal(from_bytes.mean, from_floats.mean)
        assert np.array_equal(scatter(from_bytes), scatter(from_floats))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.6])
    def test_bad_value_past_the_first_block_rejected(self, bad):
        images = random_pixel_matrix(np.random.default_rng(32), pca.BLOCK_ROWS + 5, 6)
        images[pca.BLOCK_ROWS + 2, 3] = bad
        with pytest.raises(DataError):
            pca.moments(images)

    def test_scatter_formed_in_place_is_the_outer_product_formula_bit_for_bit(self, monkeypatch):
        # floats, so the scatter rounds: each entry is still count * G - s_i s_j, divided once
        stats = pca.moments(random_pixel_matrix(np.random.default_rng(34), 50, 30))
        expected = scatter(pca.Moments(stats.count, stats.sums.copy(), stats.gram.copy()))
        received = []
        solve = pca._top_eigenpairs

        def capturing(matrix, k):  # dsyevr overwrites the scatter it is given
            received.append((matrix, matrix.copy()))
            return solve(matrix, k)

        monkeypatch.setattr(pca, "_top_eigenpairs", capturing)
        pca.from_moments(stats, 3)
        [(matrix, formed)] = received
        assert matrix is stats.gram  # from_moments forms the scatter in place of the Gram
        assert np.array_equal(formed, expected)

    @pytest.mark.parametrize("dim", [1, pca.PANEL_COLUMNS - 1, pca.PANEL_COLUMNS + 1, 2 * pca.PANEL_COLUMNS + 5])
    @pytest.mark.parametrize("m", [1, pca.BLOCK_ROWS - 1, 2 * pca.BLOCK_ROWS + 3])
    def test_panel_gram_is_the_outer_product_formula_bit_for_bit(self, dim, m):
        # Widths that are not a multiple of the panel width leave a narrow last
        # panel, row counts that are not a multiple of BLOCK_ROWS a short last
        # block; the largest bytes put every panel at its float32 bound.
        rng = np.random.default_rng(dim * 1000 + m)
        stored = rng.integers(0, 256, size=(m, dim)).astype(np.uint8)
        stored[: pca.BLOCK_ROWS : 2] = 255
        wide = stored.astype(np.int64)
        gram = sum(np.outer(row, row) for row in wide)  # sum y y^T, exactly
        for images in (stored, data.unit_floats(stored)):
            got = pca.moments(images)
            assert got.count == m
            assert np.array_equal(got.sums, wide.sum(axis=0))
            assert np.array_equal(got.gram, gram)
            if m > 4 and dim >= 4:  # and so the fit, on this eigensolver path
                expected = pca.from_moments(pca.Moments(m, wide.sum(axis=0).astype(float), gram.astype(float)), 4)
                fitted = pca.from_moments(got, 4)
                for name in ("mean", "components", "explained_variance_ratio"):
                    assert np.array_equal(getattr(fitted, name), getattr(expected, name)), name

    def test_a_reused_workspace_gives_the_bits_of_a_new_one(self):
        # One workspace serves every fold: each call overwrites the last one's
        # sums and Gram, even after from_moments has formed a scatter there.
        rng = np.random.default_rng(35)
        stored = rng.integers(0, 256, size=(3 * pca.BLOCK_ROWS, 30)).astype(np.uint8)
        workspace = pca.Workspace(30, np.uint8)
        for rows in (np.arange(2 * pca.BLOCK_ROWS + 9), rng.permutation(len(stored))[:100], [5, 0, 7, 3, 9]):
            expected = pca.moments(stored, rows)
            got = pca.moments(stored, rows, workspace)
            assert got.gram is workspace.gram and got.sums is workspace.sums
            assert got.count == expected.count
            assert np.array_equal(got.sums, expected.sums)
            assert np.array_equal(got.gram, expected.gram)
            pca.from_moments(got, 4)

    @pytest.mark.parametrize("images, workspace", [
        (np.zeros((5, 6), np.uint8), (7, np.uint8)),
        (np.zeros((5, 6), np.uint8), (6, np.float64)),
        (np.zeros((5, 6)), (6, np.uint8)),
    ])
    def test_a_workspace_of_another_width_or_dtype_rejected(self, images, workspace):
        with pytest.raises(ValueError, match="workspace"):
            pca.moments(images, workspace=pca.Workspace(*workspace))

    @pytest.mark.parametrize("rows", [[0, 5], [-6, 1]])
    def test_a_row_index_out_of_range_rejected(self, rows):
        with pytest.raises(IndexError):
            pca.moments(np.zeros((5, 6), np.uint8), rows)

    def test_negative_row_indices_count_from_the_end(self):
        stored = np.random.default_rng(36).integers(0, 256, size=(9, 6)).astype(np.uint8)
        got, expected = pca.moments(stored, [-1, -9, 4]), pca.moments(stored, [8, 0, 4])
        assert np.array_equal(got.gram, expected.gram) and np.array_equal(got.sums, expected.sums)

    def test_traced_memory_of_a_fit_on_stored_bytes(self):
        # As floats, the 4708 x 784 split alone takes 29.5 MB and a centered
        # copy as much again. A fit on its bytes holds its workspace: the
        # float64 Gram (4.9 MB) that becomes the scatter, one block gathered
        # (0.2 MB) and as float32 (0.8 MB), and one Gram panel (0.6 MB); 6.8 MB
        # in all on the dsyevr path. np.linalg.eigh adds a copy of the scatter
        # and all 784 eigenvectors (9.9 MB in all).
        images, _ = make_class_images(4708, 2, np.random.default_rng(33))
        stored = images.reshape(len(images), -1)
        tracemalloc.start()
        try:
            pca.fit(stored, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (7.5e6 if pca._dsyevr() is not None else 10.5e6)

    def test_traced_memory_of_moments_on_a_reused_workspace(self):
        # A fold after the first gathers, converts and multiplies in the
        # workspace's buffers: 0.2 MB of ufunc buffers and per-block sums.
        images, _ = make_class_images(4708, 2, np.random.default_rng(37))
        stored = images.reshape(len(images), -1)
        workspace = pca.Workspace(stored.shape[1], stored.dtype)
        pca.moments(stored, np.arange(0, 4708, 3), workspace)
        tracemalloc.start()
        try:
            pca.moments(stored, np.arange(1, 4708, 3), workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


@pytest.fixture
def eigh_fallback(monkeypatch):
    """The ``np.linalg.eigh`` path, which numpy builds exporting no ``dsyevr``
    of their integer width take."""
    monkeypatch.setattr(pca, "_dsyevr", lambda: None)


@pytest.mark.usefixtures("eigh_fallback")
class TestFitOnTheEighFallback(TestFit):
    pass


@pytest.mark.usefixtures("eigh_fallback")
class TestMomentsOnTheEighFallback(TestMoments):
    pass


def dsyevr_or_skip():
    if pca._dsyevr() is None:
        pytest.skip("numpy's build exports no dsyevr of its integer width: every fit takes np.linalg.eigh")


class TestEigensolver:
    def test_dsyevr_is_taken_where_numpy_exports_it(self):
        from numpy.linalg import _umath_linalg

        ilp64 = getattr(_umath_linalg, "_ilp64", None)
        names = {True: ["scipy_dsyevr_64_", "dsyevr_64_"], False: ["scipy_dsyevr_", "dsyevr_"]}.get(ilp64, [])
        library = ctypes.CDLL(_umath_linalg.__file__)
        exported = [name for name in names if hasattr(library, name)]
        if not exported:
            assert pca._dsyevr() is None
        dsyevr_or_skip()
        function, integer = pca._dsyevr()
        assert function.__name__ == exported[0]
        assert integer == (np.int64 if ilp64 else np.int32)

    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_both_paths_agree_for_every_k_up_to_input_dim(self, request, k):
        dsyevr_or_skip()
        images = random_pixel_matrix(np.random.default_rng(40), 80, 30)
        got = pca.fit(images, k)
        request.getfixturevalue("eigh_fallback")
        expected = pca.fit(images, k)
        np.testing.assert_allclose(got.components, expected.components, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.explained_variance_ratio, expected.explained_variance_ratio, rtol=1e-12)
        np.testing.assert_allclose(got.components @ got.components.T, np.eye(k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("info, found", [(1, 4), (-6, 4), (0, 3)])
    def test_a_lapack_failure_raises_numeric_error(self, monkeypatch, info, found):
        def failing(*args):  # args[11] is M, the count found, and args[20] INFO
            args[11][0], args[20][0] = found, info

        monkeypatch.setattr(pca, "_dsyevr", lambda: (failing, np.int64))
        with pytest.raises(NumericError, match="dsyevr"):
            pca.fit(random_pixel_matrix(np.random.default_rng(41), 20, 8), 4)

    def test_traced_memory_of_a_784_dim_solve(self):
        # dsyevr works on the scatter in place: its workspace and the k
        # vectors, no copy of the 4.9 MB scatter and no n eigenvectors.
        dsyevr_or_skip()
        stats = pca.moments(make_class_images(300, 2, np.random.default_rng(42))[0].reshape(300, -1))
        tracemalloc.start()
        try:
            pca.from_moments(stats, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_ctypes_is_imported_only_by_the_resolver(self):
        tree = ast.parse(inspect.getsource(pca))
        resolver = next(node for node in tree.body if getattr(node, "name", None) == "_dsyevr")
        inside = {id(node) for node in ast.walk(resolver)}
        imports = [
            node for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(alias.name == "ctypes" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "ctypes")
        ]
        assert imports and all(id(node) in inside for node in imports)


class TestTransform:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(5)
        return pca.fit(random_pixel_matrix(rng, 70, 40), 4)

    def test_mean_maps_to_zero(self, model):
        np.testing.assert_allclose(pca.transform(model, model.mean), np.zeros(4), atol=1e-12)

    def test_component_maps_to_basis_vector(self, model):
        image = model.mean + model.components[0]
        np.testing.assert_allclose(pca.transform(model, image), [1, 0, 0, 0], atol=1e-8)

    def test_round_trip_from_feature_space(self, model):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rng.normal(size=4)
            back = pca.transform(model, pca.inverse_transform(model, z))
            np.testing.assert_allclose(back, z, atol=1e-8)

    def test_stored_bytes_project_as_their_unit_floats(self, model):
        stored = np.random.default_rng(23).integers(0, 256, size=(50, 40)).astype(np.uint8)
        from_bytes = pca.transform(model, stored)
        assert np.array_equal(from_bytes, pca.transform(model, data.unit_floats(stored)))
        assert np.abs(from_bytes).max() < 10  # not the raw 0-255 values

    def test_length_mismatch(self, model):
        with pytest.raises(ValueError):
            pca.transform(model, np.zeros(3))
        with pytest.raises(ValueError):
            pca.transform(model, np.zeros((pca.BLOCK_ROWS + 1, 3)))
        with pytest.raises(ValueError):
            pca.inverse_transform(model, np.zeros(7))


class TestTransformBlocks:
    """``transform`` walks its rows a block at a time into one output."""

    @pytest.fixture(scope="class")
    def model(self):
        images, _ = make_class_images(300, 2, np.random.default_rng(34))
        return pca.fit(images.reshape(len(images), -1), 4)

    @pytest.mark.parametrize("shape", [
        (pca.BLOCK_ROWS - 1,), (pca.BLOCK_ROWS,), (pca.BLOCK_ROWS + 1,), (2 * pca.BLOCK_ROWS + 1,),
        (), (3, pca.BLOCK_ROWS // 2 + 1),  # one image; a leading shape whose rows cross a block
    ])
    def test_rows_across_block_boundaries_match_a_per_row_reference(self, model, shape):
        images = np.random.default_rng(35).uniform(0.0, 1.0, size=(*shape, model.input_dim))
        got = pca.transform(model, images)
        assert got.shape == (*shape, model.k)
        rows = images.reshape(-1, model.input_dim)
        expected = np.array([model.components @ (row - model.mean) for row in rows])
        np.testing.assert_allclose(got.reshape(-1, model.k), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2 * pca.BLOCK_ROWS + 1,), (3, pca.BLOCK_ROWS // 2 + 1)])
    def test_stored_bytes_project_as_their_unit_floats_bit_for_bit(self, model, shape):
        stored = np.random.default_rng(36).integers(0, 256, size=(*shape, model.input_dim)).astype(np.uint8)
        from_bytes = pca.transform(model, stored)
        assert from_bytes.shape == (*shape, model.k)
        assert np.array_equal(from_bytes, pca.transform(model, data.unit_floats(stored)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_in_the_last_block_rejected(self, model, bad):
        images = np.random.default_rng(37).uniform(0.0, 1.0, size=(2 * pca.TRANSFORM_ROWS + 1, model.input_dim))
        images[-1, 5] = bad
        with pytest.raises(DataError):
            pca.transform(model, images)

    @pytest.mark.parametrize("m", [1, pca.TRANSFORM_ROWS - 1, pca.TRANSFORM_ROWS, pca.TRANSFORM_ROWS + 1, 4708])
    def test_rows_get_the_bits_of_one_batch(self, model, m):
        """Bytes and their unit floats both give ``(unit_floats(x) - mean) @ C^T``
        bit for bit. Up to a few hundred rows that product is one batch. BLAS
        can give a larger batch other bits (this OpenBLAS does from about 513
        rows of 784 on), so 4,708 rows are compared with it in moments'
        256-row blocks: a row's bits do not depend on the block it is in."""
        stored = np.random.default_rng(39).integers(0, 256, size=(m, model.input_dim)).astype(np.uint8)
        batch = min(m, pca.BLOCK_ROWS)
        expected = np.concatenate([
            (data.unit_floats(stored[start : start + batch]) - model.mean) @ model.components.T
            for start in range(0, m, batch)
        ])
        assert np.array_equal(pca.transform(model, stored), expected)
        assert np.array_equal(pca.transform(model, data.unit_floats(stored)), expected)

    def test_traced_memory_of_a_transform_on_stored_bytes(self, model):
        # As floats the 4708 x 784 split takes 29.5 MB and a centred copy as
        # much again; projected a block at a time, it costs one reused float
        # buffer of 0.4 MB and the 0.15 MB of features.
        images, _ = make_class_images(4708, 2, np.random.default_rng(38))
        stored = images.reshape(len(images), -1)
        tracemalloc.start()
        try:
            pca.transform(model, stored)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestInverseTransform:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(7)
        return pca.fit(random_pixel_matrix(rng, 70, 40), 4)

    def test_zero_features_give_mean(self, model):
        np.testing.assert_allclose(pca.inverse_transform(model, np.zeros(4)), model.mean, atol=1e-12)

    def test_reconstruction_error_is_out_of_subspace_energy(self, model):
        rng = np.random.default_rng(8)
        image = rng.uniform(0, 1, size=40)
        recon = pca.inverse_transform(model, pca.transform(model, image))
        centered = image - model.mean
        in_subspace = model.components.T @ (model.components @ centered)
        residual = centered - in_subspace
        err = np.sum((image - recon) ** 2)
        assert err >= 0
        assert err == pytest.approx(np.sum(residual**2), rel=1e-10)
        # Pythagoras in pixel space
        assert np.sum(centered**2) == pytest.approx(
            np.sum(in_subspace**2) + np.sum(residual**2), rel=1e-10
        )

    def test_projection_idempotent(self, model):
        rng = np.random.default_rng(9)
        image = rng.uniform(0, 1, size=40)
        once = pca.inverse_transform(model, pca.transform(model, image))
        twice = pca.inverse_transform(model, pca.transform(model, once))
        np.testing.assert_allclose(twice, once, atol=1e-10)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    model = pca.fit(rng.uniform(0, 1, size=(30, 12)), 3)
    path = tmp_path / "model.json"
    pca.save(model, path)
    loaded = pca.load(path)
    assert loaded.input_dim == model.input_dim and loaded.k == model.k
    np.testing.assert_array_equal(loaded.components, model.components)
    np.testing.assert_array_equal(loaded.mean, model.mean)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"magic": "NOPE"}')
    with pytest.raises(DataError):
        pca.load(path)
