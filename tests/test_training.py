import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from medqnn import cli, data, metrics, models, pca, training
from medqnn.errors import ConfigError, DataError
from medqnn.rng import Rng

from conftest import counted_blocks, make_class_images, pixels_with_spectrum


def separable_toy(m=48, seed=0):
    """Two linearly separable classes along the first two features.

    The class priors are unbalanced on purpose: with 50/50 priors any
    separable feature standardizes its two clusters to z = +/-1, where
    the DV encoding cos(pi z) is blind to the sign and only deeper
    circuit layers can separate the classes.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=m) < 0.7).astype(int)
    features = rng.normal(scale=0.15, size=(m, 4))
    features[:, 0] += np.where(labels == 1, 1.2, -0.4)
    features[:, 1] += np.where(labels == 1, 0.3, -0.6)
    return features, labels


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        splits = training.stratified_kfold([0, 0, 0, 1, 1, 1], 3, seed=1)
        for _, val in splits:
            assert len(val) == 2

    def test_partition_property(self):
        labels = np.random.default_rng(2).integers(0, 3, 60)
        splits = training.stratified_kfold(labels, 3, seed=3)
        all_val = np.concatenate([val for _, val in splits])
        assert sorted(all_val) == list(range(60))
        for i, (_, val_i) in enumerate(splits):
            for j, (_, val_j) in enumerate(splits):
                if i != j:
                    assert not set(val_i) & set(val_j)
        for train, val in splits:
            assert sorted(np.concatenate([train, val])) == list(range(60))

    def test_pigeonhole_sizes(self):
        labels = [0] * 7
        # 7 samples of one class over 3 folds -> per-fold sizes {3, 2, 2}
        with pytest.raises(DataError):
            training.stratified_kfold([0, 0], 3, seed=0)
        splits = training.stratified_kfold(labels, 3, seed=4)
        sizes = sorted(len(val) for _, val in splits)
        assert sizes == [2, 2, 3]

    def test_per_class_balance(self):
        rng = np.random.default_rng(5)
        labels = np.concatenate([np.zeros(11, int), np.ones(25, int)])
        rng.shuffle(labels)
        splits = training.stratified_kfold(labels, 3, seed=6)
        for _, val in splits:
            count0 = int(np.sum(labels[val] == 0))
            assert count0 in (3, 4)

    @pytest.mark.parametrize("folds, seed, digest", [
        (3, 0, "2bda6fcdd3b7d75e3fdd6f2b4ac544f044db0f68c1aa03b039141b320e99e888"),
        (4, 7, "47011f5011b9aa6c72209dd595cd5b6bf9ecbb5f02c5e31ea5a7be455661a1cc"),
    ])
    def test_splits_are_pinned(self, folds, seed, digest):
        labels = np.random.default_rng(21).integers(0, 3, 200)
        h = hashlib.sha256()
        for train, val in training.stratified_kfold(labels, folds, seed):
            h.update(train.astype("<i8").tobytes() + b"|" + val.astype("<i8").tobytes() + b";")
        assert h.hexdigest() == digest

    def test_deterministic(self):
        labels = np.random.default_rng(7).integers(0, 2, 40)
        a = training.stratified_kfold(labels, 4, seed=8)
        b = training.stratified_kfold(labels, 4, seed=8)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "values",
        [
            {"batch_size": 0},
            {"folds": 1},
            {"epochs": -1},
            {"learning_rate": -1e-3},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_unusable_values_raise_config_error(self, values):
        with pytest.raises(ConfigError):
            training.TrainConfig(**values)

    def test_zero_learning_rate_allowed(self):
        assert training.TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_cli_defaults_are_its_defaults(self):
        defaults = dataclasses.asdict(training.TrainConfig())
        assert len(defaults) == 5
        assert {name: cli._CONFIG_DEFAULTS[name] for name in defaults} == defaults


class TestAdam:
    def config(self, lr=1e-3):
        return training.TrainConfig(learning_rate=lr, seed=0)

    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = training.AdamState.zeros(2)
        out = training.adam_step(params, np.zeros(2), state, 1, self.config())
        np.testing.assert_array_equal(out, params)
        assert np.all(state.m == 0) and np.all(state.v == 0)

    def test_first_step_hand_value(self):
        # t=1, g=1: m_hat = v_hat = 1, step = -lr / (1 + eps)
        params = np.zeros(1)
        state = training.AdamState.zeros(1)
        out = training.adam_step(params, np.ones(1), state, 1, self.config())
        expected = -1e-3 / (1.0 + 1e-8)
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(9)
        grads = rng.normal(size=(20, 5))
        trajectories = []
        for _ in range(2):
            params = np.zeros(5)
            state = training.AdamState.zeros(5)
            for t, g in enumerate(grads, start=1):
                params = training.adam_step(params, g, state, t, self.config())
            trajectories.append(params)
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            training.adam_step(np.zeros(2), np.zeros(3), training.AdamState.zeros(2), 1, self.config())


class TestTrainModel:
    def run(self, kind, lr, epochs=3, seed=0):
        features, labels = separable_toy()
        config = training.TrainConfig(
            batch_size=16, learning_rate=lr, epochs=epochs, seed=seed
        )
        rng = Rng(seed)
        return training.train_model(
            kind, features, labels, features[:10], labels[:10], 2, config, rng
        )

    def test_zero_learning_rate_freezes_params(self):
        model, _ = self.run("classical", lr=0.0)
        fresh = models.init_model("classical", 2, Rng(0),
                                  model.feature_mean, model.feature_std)
        np.testing.assert_array_equal(models.flat_params(model), models.flat_params(fresh))

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_toy_problem_loss_drops(self, kind):
        # 150 optimizer steps total, so the toy run uses a rate matched to
        # its budget rather than the dataset-scale default
        features, labels = separable_toy()
        config = training.TrainConfig(batch_size=16, learning_rate=0.05, epochs=50, seed=1)
        model, curves = training.train_model(
            kind, features, labels, features, labels, 2, config, Rng(1)
        )
        final_train = [c for c in curves if c.split == "train"][-1]
        assert final_train.loss < 0.1

    def test_curve_bookkeeping(self):
        _, curves = self.run("classical", lr=1e-3, epochs=4)
        assert len([c for c in curves if c.split == "train"]) == 4
        assert len([c for c in curves if c.split == "val"]) == 4
        for record in curves:
            for value in (record.acc, record.precision, record.recall, record.f1):
                assert 0.0 <= value <= 1.0

    def test_epoch_orders_are_pinned(self, monkeypatch):
        """Each epoch visits the rows in the Fisher-Yates order the fold's
        stream draws after the model's initial values, whatever type the
        shuffled items have."""
        m = 300
        features = np.zeros((m, 4))
        features[:, 0] = np.arange(m)  # each batch row names its index
        batches = []
        loss_and_grad = models.loss_and_grad

        def recording(model, batch, labels):
            batches.append(batch[:, 0].astype(int))
            return loss_and_grad(model, batch, labels)

        monkeypatch.setattr(models, "loss_and_grad", recording)
        config = training.TrainConfig(batch_size=64, learning_rate=0.0, epochs=3, seed=4)
        labels = np.arange(m) % 2
        training.train_model("classical", features, labels, features[:10], labels[:10], 2, config, Rng(4))
        orders = np.concatenate(batches).reshape(3, m)
        assert orders[:, :8].tolist() == [
            [249, 185, 175, 98, 159, 255, 116, 126],
            [15, 234, 43, 288, 101, 213, 85, 198],
            [124, 160, 225, 169, 163, 118, 3, 175],
        ]
        assert all(np.array_equal(np.sort(order), np.arange(m)) for order in orders)
        digest = hashlib.sha256(orders.astype("<i8").tobytes()).hexdigest()
        assert digest == "ec4fdc202b711220c2fcb866e4f068b50c272cb115b73638515c55afde2591f9"

    def test_single_epoch_single_batch_is_one_adam_step(self):
        features, labels = separable_toy(m=12)
        config = training.TrainConfig(batch_size=64, epochs=1, seed=2)
        rng = Rng(2)
        model, _ = training.train_model(
            "classical", features, labels, features, labels, 2, config, rng
        )
        # replay by hand: same init, one gradient, one Adam step
        replay_rng = Rng(2)
        fmean = features.mean(axis=0)
        fstd = features.std(axis=0)
        init = models.init_model("classical", 2, replay_rng, fmean, fstd)
        order = list(range(12))
        replay_rng.shuffle(order)
        _, grad, _ = models.loss_and_grad(init, features[order], labels[order])
        state = training.AdamState.zeros(42)
        expected = training.adam_step(models.flat_params(init), grad, state, 1, config)
        np.testing.assert_array_equal(models.flat_params(model), expected)


class TestCrossValidate:
    def test_perfectly_separable_gives_zero_std(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 60)
        images = np.full((60, 64), 0.5)
        images[labels == 1, :8] = 0.9
        images[labels == 0, :8] = 0.1
        config = training.TrainConfig(
            batch_size=8, learning_rate=0.05, epochs=15, seed=5
        )
        result = training.cross_validate("classical", images, labels, 2, config)
        assert all(f.val_metrics["f1"] == 1.0 for f in result.folds)
        assert result.summary["val_f1"]["std"] == 0.0

    def test_one_class_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(pca, "moments", lambda *args: fits.append(args))
        images = np.random.default_rng(16).integers(0, 256, size=(30, 49), dtype=np.uint8)
        config = training.TrainConfig(batch_size=8, epochs=1, seed=3)
        with pytest.raises(DataError, match="at least 2"):
            training.cross_validate("classical", images, np.zeros(30, dtype=int), 1, config)
        assert fits == []

    def test_best_fold_selection(self):
        assert training.select_best_fold([0.7, 0.9, 0.8]) == 1
        assert training.select_best_fold([0.9, 0.9, 0.8]) == 0

    def test_full_run_determinism(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 2, 36)
        images = rng.uniform(0, 1, size=(36, 49))
        config = training.TrainConfig(batch_size=8, epochs=2, seed=9)
        a = training.cross_validate("dv", images, labels, 2, config)
        b = training.cross_validate("dv", images, labels, 2, config)
        for fold_a, fold_b in zip(a.folds, b.folds):
            assert np.array_equal(
                models.flat_params(fold_a.model), models.flat_params(fold_b.model)
            )
            assert fold_a.val_metrics == fold_b.val_metrics

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_fold_metrics_are_one_pass_of_its_final_model(self, kind, epochs):
        images, labels = make_class_images(90, 3, np.random.default_rng(15), balanced=True)
        flat, labels = images.reshape(len(images), -1), labels.astype(int)
        config = training.TrainConfig(batch_size=16, learning_rate=0.05, epochs=epochs, seed=4)
        result = training.cross_validate(kind, flat, labels, 3, config)
        splits = training.stratified_kfold(labels, config.folds, config.seed)
        for fold, (train_idx, val_idx) in zip(result.folds, splits):
            logits = models.predict_batch(fold.model, pca.transform(fold.pca_model, flat))
            for rows, expected in ((train_idx, fold.train_metrics), (val_idx, fold.val_metrics)):
                cm = metrics.confusion_matrix(labels[rows], logits[rows].argmax(axis=1), 3)
                assert metrics.metric_set(cm) == expected
            if epochs:
                last_val = [record for record in fold.curves if record.split == "val"][-1]
                assert {k: getattr(last_val, k) for k in fold.val_metrics} == fold.val_metrics
            else:
                assert fold.curves == []

    def test_summary_shape(self):
        rng = np.random.default_rng(14)
        labels = rng.integers(0, 2, 30)
        images = rng.uniform(0, 1, size=(30, 36))
        config = training.TrainConfig(batch_size=8, epochs=2, seed=11)
        result = training.cross_validate("classical", images, labels, 2, config)
        for split in ("train", "val"):
            for metric in ("acc", "precision", "recall", "f1"):
                entry = result.summary[f"{split}_{metric}"]
                assert set(entry) == {"mean", "std"}


class TestFoldPca:
    """Each fold's PCA comes from the moments of its own training rows, read
    by index; for bytes, these are the other folds' parts' moments pooled."""

    # 3100 rows: each of 3 parts spans more than two blocks of pca.BLOCK_ROWS.
    @pytest.mark.parametrize("folds, m", [
        pytest.param(3, 150, id="3"), pytest.param(5, 150, id="5"), pytest.param(3, 3100, id="3-3100"),
    ])
    def test_matches_a_fit_on_the_fold_training_rows(self, folds, m):
        assert m < 2 * pca.BLOCK_ROWS or m // folds > 2 * pca.BLOCK_ROWS
        rng = np.random.default_rng(15)
        images = pixels_with_spectrum(rng, m, 0.01 * 0.5 ** np.arange(20))
        labels = np.arange(m) % 2
        config = training.TrainConfig(epochs=0, folds=folds, seed=3)
        result = training.cross_validate("classical", images, labels, 2, config)
        splits = training.stratified_kfold(labels, folds, config.seed)
        for fold, (train_idx, _) in zip(result.folds, splits):
            expected = pca.fit(images[train_idx], models.NUM_MODES)
            got = fold.pca_model
            np.testing.assert_allclose(got.mean, expected.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                got.explained_variance_ratio, expected.explained_variance_ratio, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(got.components, expected.components, rtol=0, atol=1e-10)
            # the projection pass put every row's features under this fold's model
            np.testing.assert_allclose(
                fold.model.feature_mean,
                pca.transform(got, images[train_idx]).mean(axis=0),
                rtol=0,
                atol=1e-12,
            )

    @pytest.mark.parametrize("stored", [False, True], ids=["floats", "bytes"])
    def test_a_validation_row_leaves_its_own_fold_pca_unchanged(self, stored):
        # A fold's moments never add its own part's rows, so the row cannot
        # reach that fold's PCA, in floats as in bytes.
        rng = np.random.default_rng(16)
        if stored:
            images, largest = rng.integers(0, 200, size=(60, 30)).astype(np.uint8), 255
        else:
            images, largest = rng.uniform(0.0, 1.0, size=(60, 30)), 1.5  # the largest value a fit accepts
        labels = np.arange(60) % 2
        config = training.TrainConfig(epochs=0, seed=4)
        before = training.cross_validate("classical", images, labels, 2, config)
        val_row = training.stratified_kfold(labels, config.folds, config.seed)[0][1][0]
        images[val_row] = largest
        after = training.cross_validate("classical", images, labels, 2, config)
        own, other = before.folds[0].pca_model, after.folds[0].pca_model
        for name in ("mean", "components", "explained_variance_ratio"):
            assert np.array_equal(getattr(own, name), getattr(other, name)), name
        for index in (1, 2):  # the folds that train on the row do see it
            assert not np.array_equal(before.folds[index].pca_model.mean, after.folds[index].pca_model.mean)

    def test_stored_bytes_train_as_their_unit_floats(self):
        images, labels = make_class_images(60, 2, np.random.default_rng(17), balanced=True)
        flat = images.reshape(60, -1)
        config = training.TrainConfig(batch_size=8, epochs=1, seed=5)
        from_bytes = training.cross_validate("classical", flat, labels, 2, config)
        from_floats = training.cross_validate("classical", data.unit_floats(flat), labels, 2, config)
        for a, b in zip(from_bytes.folds, from_floats.folds):
            assert np.array_equal(a.pca_model.components, b.pca_model.components)
            assert np.array_equal(models.flat_params(a.model), models.flat_params(b.model))
            assert a.curves == b.curves

    def test_stored_byte_fold_pca_is_the_pooled_other_parts_bit_for_bit(self):
        # A fold's training rows are the other folds' parts. Their byte sums
        # are exact, so the fold's PCA fitted from its rows in place is the
        # one pooled from the other parts' moments, in either order.
        m = 6 * pca.BLOCK_ROWS + 5  # each of 3 parts spans more than two blocks
        images = np.random.default_rng(19).integers(0, 256, size=(m, 30)).astype(np.uint8)
        labels = np.arange(m) % 2
        config = training.TrainConfig(epochs=0, seed=7)
        result = training.cross_validate("classical", images, labels, 2, config)
        parts = [val_idx for _, val_idx in training.stratified_kfold(labels, config.folds, config.seed)]
        for own, fold in enumerate(result.folds):
            others = [pca.moments(images, rows) for index, rows in enumerate(parts) if index != own]
            for order in (others, others[::-1]):
                pooled = pca.Moments(
                    count=sum(s.count for s in order),
                    sums=sum(s.sums for s in order),
                    gram=sum(s.gram for s in order),
                )
                expected = pca.from_moments(pooled, models.NUM_MODES)
                for name in ("mean", "components", "explained_variance_ratio"):
                    assert np.array_equal(getattr(fold.pca_model, name), getattr(expected, name)), name

    @staticmethod
    def traced_peak(images, labels, config, kind="classical") -> int:
        tracemalloc.start()
        try:
            training.cross_validate(kind, images, labels, 2, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_memory_of_a_pneumonia_sized_split(self):
        # The split's 4708 rows take 3.7 MB as bytes and 29.5 MB as floats, and
        # a fold's 3139 training rows 19.7 MB as floats: converting the split,
        # then gathering and centering a fold's rows, needs about 75 MB. Rows
        # become floats a block at a time, so three copies of the split must
        # cost only their bytes and a little more. The largest live arrays are
        # one fold's 784 x 784 float64 sums (4.9 MB), then the scatter they
        # become, with one block as floats and one Gram panel beside them.
        images, labels = make_class_images(4708, 2, np.random.default_rng(18))
        flat = images.reshape(len(images), -1)
        config = training.TrainConfig(epochs=0, seed=6)
        self.traced_peak(flat[:60], labels[:60], config)  # first-call allocations
        peaks = [
            self.traced_peak(np.concatenate([flat] * copies), np.tile(labels, copies), config)
            for copies in (1, 3)
        ]
        assert peaks[0] < 15e6
        assert peaks[1] - peaks[0] < 10e6

    def test_traced_memory_does_not_grow_with_the_fold_count(self):
        # Every fold fits its PCA in one workspace, dropped before training, so
        # one fold's sums are alive at a time, however many folds there are,
        # and training scores its rows in blocks.
        images, labels = make_class_images(4708, 2, np.random.default_rng(18))
        flat = images.reshape(len(images), -1)
        for kind, epochs in (("classical", 0), ("dv", 1)):
            self.traced_peak(flat[:60], labels[:60], training.TrainConfig(epochs=epochs, seed=6), kind)  # first calls
            peaks = [
                self.traced_peak(flat, labels, training.TrainConfig(epochs=epochs, folds=folds, seed=6), kind)
                for folds in (3, 6)
            ]
            assert abs(peaks[1] - peaks[0]) < 1e6, kind
            assert max(peaks) < 12.5e6, kind

    @pytest.mark.parametrize("kind", ["dv", "cv"])
    def test_traced_memory_of_training_grows_only_by_per_row_results(self, monkeypatch, kind):
        # Every fold's PCA is fitted in one workspace (6.5 MB: one Gram, its
        # block buffers and one Gram panel), which is dropped before the first
        # fold trains; a new Gram for each fold, beside one block's float32
        # Gram, put the peak at 9.4 MB. train_model then trains on per-row
        # features, labels and predictions, about 150 bytes a row, and scores
        # its rows a block of at most models.SCORE_ROWS at a time: scoring a
        # whole fold at once added about 770 bytes for each of a fold's
        # training rows with DV. The fold's final pass over the whole split,
        # after train_model returns, is also scored in blocks and falls under
        # the bounds of the whole run.
        images, labels = make_class_images(4708, 2, np.random.default_rng(18))
        flat = images.reshape(len(images), -1)
        config = training.TrainConfig(epochs=1, seed=6)
        train_model = training.train_model

        def peaks(copies) -> tuple[int, int]:
            """The traced peak of cross_validate, and that of its folds' training."""
            peak, training_peak = 0, 0

            def traced(*args, **kwargs):
                nonlocal peak, training_peak
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                result = train_model(*args, **kwargs)
                training_peak = max(training_peak, tracemalloc.get_traced_memory()[1])
                return result

            monkeypatch.setattr(training, "train_model", traced)
            split, split_labels = np.concatenate([flat] * copies), np.tile(labels, copies)
            tracemalloc.start()
            try:
                training.cross_validate(kind, split, split_labels, 2, config)
                return max(peak, tracemalloc.get_traced_memory()[1]), training_peak
            finally:
                tracemalloc.stop()

        self.traced_peak(flat[:60], labels[:60], config, kind)  # first calls
        (once, training_once), (thrice, training_thrice) = peaks(1), peaks(3)
        extra_rows = 2 * len(flat)
        assert once < 7.6e6
        assert thrice - once < 64 * extra_rows
        assert training_thrice - training_once < 250 * extra_rows


class TestScoringBlocks:
    """Training scores a fold's rows through ``models.predict_batch``, a
    block of at most ``models.SCORE_ROWS`` rows at a time, with the bits of
    one block of all of them. That holds while BLAS gives a row of
    a block of 2 or more rows the bits it gives the same row in the whole
    batch, which can depend on the thread count: CI also runs these tests
    on one BLAS thread."""

    M = 2112  # 192 rows of each of 11 classes: two folds of 1,056 rows, so blocks of 528, then 704 of the split

    @pytest.mark.parametrize("classes", [2, 11])
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_training_scores_in_blocks_with_the_bits_of_one_batch(self, monkeypatch, kind, classes):
        images, labels = make_class_images(self.M, classes, np.random.default_rng(classes), balanced=True)
        flat = images.reshape(self.M, -1)
        config = training.TrainConfig(batch_size=64, learning_rate=0.01, epochs=1, folds=2, seed=classes)
        batches = counted_blocks(monkeypatch)
        blocks = training.cross_validate(kind, flat, labels, classes, config)
        # per fold: the epoch's validation pass, then one pass of the whole split
        assert batches == [528, 528, 704, 704, 704] * 2
        monkeypatch.setattr(models, "SCORE_ROWS", self.M)  # one block of all of the split's rows
        whole = training.cross_validate(kind, flat, labels, classes, config)
        assert batches[10:] == [1056, 2112] * 2
        for got, expected in zip(blocks.folds, whole.folds):
            assert got.curves == expected.curves
            assert got.train_metrics == expected.train_metrics
            assert got.val_metrics == expected.val_metrics
            assert np.array_equal(models.flat_params(got.model), models.flat_params(expected.model))
