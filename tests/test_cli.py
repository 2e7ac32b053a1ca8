import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqnn import cli, data, metrics, models, pca
from medqnn import rng as rng_module
from medqnn.rng import Rng, normal_field

from conftest import counted_blocks, make_class_images, write_archive


def run_cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unknown-dataset warnings from toy archives
        return cli.main(list(argv))


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_data") / "toyset.npz"
    return str(write_archive(path, m_train=60, m_val=18, m_test=24, seed=3))


@pytest.fixture(scope="module")
def trained(tmp_path_factory, archive):
    """One fast training run per model kind, shared across CLI tests."""
    runs = {}
    for kind in models.KINDS:
        out = tmp_path_factory.mktemp(f"run_{kind}")
        code = run_cli(
            "train",
            "--archive", archive,
            "--dataset", "toyset",
            "--model", kind,
            "--out", str(out),
            "--seed", "5",
            "--epochs", "2",
            "--folds", "3",
            "--batch-size", "16",
        )
        assert code == 0
        runs[kind] = out
    return runs


def run_every_command(root, archive):
    """Each subcommand once under ``root``; every file but the manifests, by path."""
    source = ("--archive", archive, "--dataset", "toyset")
    for kind in models.KINDS:
        train = root / f"train_{kind}"
        assert run_cli(
            "train", *source, "--model", kind, "--out", str(train), "--seed", "11", "--epochs", "2",
        ) == 0
        model = (
            "--checkpoint", str(train / "model_fold0.json"), "--pca", str(train / "pca_fold0.json")
        )
        out = root / f"eval_{kind}"
        assert run_cli(
            "eval", *source, *model, "--out", str(out), "--dump-state", str(out / "state.json")
        ) == 0
        assert run_cli(
            "saliency", *source, *model, "--indices", "0,3", "--signed",
            "--out", str(root / f"saliency_{kind}"),
        ) == 0
    sweep = []
    for kind in models.KINDS:
        train = root / f"train_{kind}"
        sweep += [f"--{kind}-checkpoint", str(train / "model_fold0.json")]
        sweep += [f"--{kind}-pca", str(train / "pca_fold0.json")]
    assert run_cli(
        "noise-sweep", *source, *sweep, "--seed", "21", "--out", str(root / "sweep")
    ) == 0
    assert run_cli(
        "noise-sweep", *source, *sweep, "--seed", "21", "--clip", "--out", str(root / "sweep_clip")
    ) == 0
    folds = []
    for kind in models.KINDS:
        folds += [f"--{kind}", str(root / f"train_{kind}" / "fold_metrics.csv")]
    assert run_cli("stats", *folds, "--out", str(root / "stats")) == 0
    assert run_cli("pca-report", *source, "--k", "4", "--out", str(root / "pca_report")) == 0
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def best_fold_paths(run_dir):
    payload = json.loads((run_dir / "metrics.json").read_text())
    best = payload["best_fold"]
    return run_dir / f"model_fold{best}.json", run_dir / f"pca_fold{best}.json"


class TestTrain:
    def test_artifacts_exist(self, trained):
        out = trained["cv"]
        for fold in range(3):
            assert (out / f"model_fold{fold}.json").exists()
            assert (out / f"pca_fold{fold}.json").exists()
            assert (out / f"curves_fold{fold}.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "fold_metrics.csv").exists()
        assert (out / "manifest.json").exists()

    def test_metrics_shape(self, trained):
        payload = json.loads((trained["dv"] / "metrics.json").read_text())
        assert payload["model_kind"] == "dv"
        assert len(payload["folds"]) == 3
        assert payload["best_fold"] in (0, 1, 2)
        assert "val_f1" in payload["summary"]

    def test_manifest_names_existing_artifacts(self, trained):
        out = trained["classical"]
        manifest = json.loads((out / "manifest.json").read_text())
        for artifact in manifest["artifacts"]:
            assert (out / artifact).exists()
        assert manifest["config"]["epochs"] == 2
        assert "toyset" in manifest["dataset_checksums"]

    def test_curves_csv_schema(self, trained):
        with open(trained["cv"] / "curves_fold0.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert set(rows[0]) == {"epoch", "split", "loss", "acc", "p", "r", "f1"}
        assert len(rows) == 2 * 2  # two epochs, train + val

    def test_missing_archive_exits_2(self, tmp_path):
        code = run_cli(
            "train", "--archive", str(tmp_path / "nope.npz"), "--dataset", "toyset",
            "--model", "cv", "--out", str(tmp_path / "o"), "--epochs", "1",
        )
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path, archive):
        first = run_every_command(tmp_path / "a", archive)
        second = run_every_command(tmp_path / "b", archive)
        assert list(first) == list(second)
        for name in first:
            assert first[name] == second[name], name
        expected = [f"train_{kind}/metrics.json" for kind in models.KINDS]
        expected += [f"eval_{kind}/state.json" for kind in models.KINDS]
        expected += [f"saliency_{kind}/sample00003_saliency_signed.pgm" for kind in models.KINDS]
        expected += ["sweep/noise_sweep.csv", "sweep_clip/noise_sweep.csv", "stats/stats.json"]
        expected += ["pca_report/pca_report.csv"]
        assert set(expected) <= set(first)

    def test_bad_flag_exits_3(self, tmp_path, archive):
        code = run_cli(
            "train", "--archive", archive, "--dataset", "toyset",
            "--model", "warp-drive", "--out", str(tmp_path / "o"),
        )
        assert code == 3

    def test_config_file_merging(self, tmp_path, archive):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 1\nbatch-size = 8\n")
        out = tmp_path / "cfg_run"
        code = run_cli(
            "train", "--archive", archive, "--dataset", "toyset",
            "--model", "classical", "--out", str(out),
            "--config", str(config), "--epochs", "2",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag beats file
        assert manifest["config"]["batch_size"] == 8  # file beats default

    def test_unknown_config_key_exits_3(self, tmp_path, archive):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_factor = 9\n")
        code = run_cli(
            "train", "--archive", archive, "--dataset", "toyset",
            "--model", "classical", "--out", str(tmp_path / "o"),
            "--config", str(config),
        )
        assert code == 3


class TestEval:
    def test_eval_trained_checkpoint(self, tmp_path, archive, trained):
        model_path, pca_path = best_fold_paths(trained["cv"])
        out = tmp_path / "eval_cv"
        code = run_cli(
            "eval", "--archive", archive, "--dataset", "toyset",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--split", "test", "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        for key in ("acc", "precision", "recall", "f1", "auroc", "auprc", "confusion_matrix"):
            assert key in payload
        assert payload["acc"] == payload["recall"] == payload["f1"]
        for name in ("curve_roc.csv", "curve_pr.csv"):
            with open(out / name, newline="") as handle:
                points = list(csv.DictReader(handle))
            assert points, name
            for row in points:  # numeric round-trip, no stray type tags
                assert 0.0 <= float(row["x"]) <= 1.0
                assert 0.0 <= float(row["y"]) <= 1.0
                assert row["threshold"] == "inf" or np.isfinite(float(row["threshold"]))

    def test_eval_fresh_init_model_succeeds(self, tmp_path, archive):
        # an untrained model still evaluates to finite metrics
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, (40, 784))
        pca_model = pca.fit(images, 4)
        model = models.init_model("dv", 2, Rng(1))
        model_path = tmp_path / "fresh.json"
        pca_path = tmp_path / "fresh_pca.json"
        models.save_checkpoint(model, model_path)
        pca.save(pca_model, pca_path)
        out = tmp_path / "eval_fresh"
        code = run_cli(
            "eval", "--archive", archive, "--dataset", "toyset",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert np.isfinite(payload["acc"]) and np.isfinite(payload["auroc"])

    def test_eval_eleven_class_dataset_uses_ovr(self, tmp_path):
        archive = write_archive(
            tmp_path / "organ_like.npz", m_train=110, m_val=33, m_test=55,
            num_classes=11, seed=17, balanced=True,
        )
        rng = np.random.default_rng(1)
        pca_model = pca.fit(rng.uniform(0, 1, (40, 784)), 4)
        model = models.init_model("cv", 11, Rng(2))
        model_path = tmp_path / "organ_model.json"
        pca_path = tmp_path / "organ_pca.json"
        models.save_checkpoint(model, model_path)
        pca.save(pca_model, pca_path)
        out = tmp_path / "eval_organ"
        code = run_cli(
            "eval", "--archive", str(archive), "--dataset", "toyset11",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert len(payload["auroc_per_class"]) == 11
        assert len(payload["auprc_per_class"]) == 11
        for cls in range(11):
            assert (out / f"curve_roc_class{cls}.csv").exists()
            assert (out / f"curve_pr_class{cls}.csv").exists()
        assert 0.0 <= payload["auroc"] <= 1.0

    def test_eval_with_a_class_missing_from_the_split(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {}
        for split, m, classes in (("train", 110, 11), ("val", 33, 11), ("test", 50, 10)):
            images, labels = make_class_images(m, classes, rng, balanced=True)
            arrays[f"{split}_images"], arrays[f"{split}_labels"] = images, labels.reshape(-1, 1)
        archive = tmp_path / "missing_class.npz"
        np.savez(archive, **arrays)
        pca_model = pca.fit(np.random.default_rng(6).uniform(0, 1, (40, 784)), 4)
        model_path, pca_path = tmp_path / "model.json", tmp_path / "pca.json"
        models.save_checkpoint(models.init_model("dv", 11, Rng(3)), model_path)
        pca.save(pca_model, pca_path)
        out = tmp_path / "eval_missing"
        code = run_cli(
            "eval", "--archive", str(archive), "--dataset", "toyset11",
            "--checkpoint", str(model_path), "--pca", str(pca_path), "--out", str(out),
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"bare {constant} in eval.json")

        payload = json.loads((out / "eval.json").read_text(), parse_constant=reject)
        assert payload["auroc_per_class"][10] is None
        assert payload["auprc_per_class"][10] is None
        present = payload["auroc_per_class"][:10]
        assert payload["auroc"] == pytest.approx(np.mean(present), abs=1e-12)
        assert not (out / "curve_roc_class10.csv").exists()
        assert not (out / "curve_pr_class10.csv").exists()
        for cls in range(10):
            assert (out / f"curve_roc_class{cls}.csv").exists()
            assert (out / f"curve_pr_class{cls}.csv").exists()

    def test_dump_state(self, tmp_path, archive, trained):
        for kind in models.KINDS:
            model_path, pca_path = best_fold_paths(trained[kind])
            out = tmp_path / f"dump_{kind}"
            dump = tmp_path / f"state_{kind}.json"
            code = run_cli(
                "eval", "--archive", archive, "--dataset", "toyset",
                "--checkpoint", str(model_path), "--pca", str(pca_path),
                "--out", str(out), "--dump-state", str(dump),
            )
            assert code == 0
            payload = json.loads(dump.read_text())
            if kind == "cv":
                assert len(payload["mean"]) == 8
                assert len(payload["cov"]) == 64
            elif kind == "classical":
                # the first image of the split, projected as its unit floats
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    image = data.load_archive(archive, "toyset")[2].flat_images()[0]
                features = pca.transform(pca.load(pca_path), image)
                logits = models.predict_batch(models.load_checkpoint(model_path), features[None, :])
                assert payload["logits"] == logits[0].tolist()
            else:
                assert len(payload["amplitudes"]) == 16
                assert all(len(pair) == 2 for pair in payload["amplitudes"])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory, archive, trained):
    out = tmp_path_factory.mktemp("sweep")
    argv = ["noise-sweep", "--archive", archive, "--dataset", "toyset",
            "--out", str(out), "--seed", "21"]
    for kind in models.KINDS:
        model_path, pca_path = best_fold_paths(trained[kind])
        argv += [f"--{kind}-checkpoint", str(model_path), f"--{kind}-pca", str(pca_path)]
    assert run_cli(*argv) == 0
    with open(out / "noise_sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return out, rows


class TestNoiseSweep:
    def test_row_count(self, sweep):
        _, rows = sweep
        assert len(rows) == 60  # 20 sigmas x 3 models

    def test_sigma_zero_matches_eval(self, sweep, tmp_path, archive, trained):
        _, rows = sweep
        model_path, pca_path = best_fold_paths(trained["dv"])
        out = tmp_path / "eval_for_sweep"
        assert run_cli(
            "eval", "--archive", archive, "--dataset", "toyset",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--split", "test", "--out", str(out),
        ) == 0
        eval_f1 = json.loads((out / "eval.json").read_text())["f1"]
        sweep_f1 = [
            float(r["f1"]) for r in rows if r["model_kind"] == "dv" and float(r["sigma"]) == 0.0
        ]
        assert sweep_f1 == [eval_f1]

    def test_deterministic(self, sweep, tmp_path_factory, archive, trained):
        out_dir, _ = sweep
        repeat = tmp_path_factory.mktemp("sweep_repeat")
        argv = ["noise-sweep", "--archive", archive, "--dataset", "toyset",
                "--out", str(repeat), "--seed", "21"]
        for kind in models.KINDS:
            model_path, pca_path = best_fold_paths(trained[kind])
            argv += [f"--{kind}-checkpoint", str(model_path), f"--{kind}-pca", str(pca_path)]
        assert run_cli(*argv) == 0
        assert (repeat / "noise_sweep.csv").read_bytes() == (out_dir / "noise_sweep.csv").read_bytes()

    @pytest.mark.parametrize("seed", [21, 2**63 + 3])
    @pytest.mark.parametrize("clip", [False, True])
    def test_rows_match_per_sigma_projection(self, tmp_path, trained, clip, seed):
        """The F1 rows of a loop that draws the whole field, injects it and
        projects every noisy copy."""
        # a larger test split than the shared archive's, for finer F1 values
        archive = str(write_archive(tmp_path / "toyset.npz", m_train=20, m_val=6, m_test=300, seed=9))
        out = tmp_path / "sweep"
        argv = ["noise-sweep", "--archive", archive, "--dataset", "toyset",
                "--out", str(out), "--seed", str(seed)] + (["--clip"] if clip else [])
        loaded = []
        for kind in models.KINDS:
            model_path, pca_path = best_fold_paths(trained[kind])
            argv += [f"--{kind}-checkpoint", str(model_path), f"--{kind}-pca", str(pca_path)]
            loaded.append((kind, models.load_checkpoint(model_path), pca.load(pca_path)))
        assert run_cli(*argv) == 0
        with open(out / "noise_sweep.csv", newline="") as handle:
            rows = [(float(r["sigma"]), r["model_kind"], float(r["f1"])) for r in csv.DictReader(handle)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, test = data.load_archive(archive, "toyset")
        images = test.flat_images()
        noise = normal_field(data.noise_seeds(len(test), seed), data.NUM_PIXELS)
        expected = []
        for sigma in data.noise_sweep_grid():
            noisy = data.inject_gaussian_noise(images, sigma, noise, clip=clip)
            for kind, model, pca_model in loaded:
                logits = models.predict_batch(model, pca.transform(pca_model, noisy))
                cm = metrics.confusion_matrix(test.labels, logits.argmax(axis=1), test.num_classes)
                expected.append((sigma, kind, metrics.micro_metrics(cm)[3]))
        assert rows == expected


class TestScoringBlocks:
    """eval and noise-sweep score a 2,049-row test split in three blocks of
    683 rows, and noise-sweep draws its noise field in the same row blocks;
    each gives the bits of one batch over all rows. That holds while BLAS
    gives a row of a block of 2 or more rows the bits it gives the same row
    in the whole batch, which can depend on the thread count: CI also runs
    these tests on one BLAS thread."""

    M = 2049

    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory):
        """A 2-class and an 11-class archive with 2,049 test rows, by class count."""
        root = tmp_path_factory.mktemp("blocks")
        return {
            classes: write_archive(root / f"toyset{classes}.npz", m_train=44, m_val=11, m_test=self.M,
                                   num_classes=classes, seed=12, balanced=True)
            for classes in (2, 11)
        }

    @pytest.mark.parametrize("classes", [2, 11])
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_eval_scores_in_blocks_with_the_bits_of_one_batch(self, tmp_path, monkeypatch, archives, kind, classes):
        archive = archives[classes]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (train,) = data.load_archive(archive, "toyset", ("train",))
        pixels = train.pixels.reshape(len(train), -1)
        pca_model = pca.fit(pixels, models.NUM_MODES)
        features = pca.transform(pca_model, pixels)
        model = models.init_model(kind, classes, Rng(classes), features.mean(axis=0), features.std(axis=0))
        models.save_checkpoint(model, tmp_path / "model.json")
        pca.save(pca_model, tmp_path / "pca.json")
        argv = ["eval", "--archive", str(archive), "--dataset", "toyset",
                "--checkpoint", str(tmp_path / "model.json"), "--pca", str(tmp_path / "pca.json")]

        batches = counted_blocks(monkeypatch)
        assert run_cli(*argv, "--out", str(tmp_path / "blocks")) == 0
        assert batches == [683] * 3
        monkeypatch.setattr(models, "SCORE_ROWS", self.M)  # one block of all rows
        assert run_cli(*argv, "--out", str(tmp_path / "batch")) == 0
        assert batches[3:] == [self.M]
        names = sorted(p.name for p in (tmp_path / "batch").iterdir() if p.name != "manifest.json")
        assert len(names) == 1 + 2 * (1 if classes == 2 else classes)
        for name in names:
            assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "batch" / name).read_bytes(), name

    @pytest.mark.parametrize("classes", [2, 11])
    @pytest.mark.parametrize("clip", [False, True])
    def test_noise_sweep_scores_in_blocks_with_the_bits_of_one_batch(self, tmp_path, monkeypatch, archives, clip, classes):
        """Each row block is scored as soon as its walk ends, and its
        confusion counts are added to those of the blocks before it."""
        archive = archives[classes]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (train,) = data.load_archive(archive, "toyset", ("train",))
        pixels = train.pixels.reshape(len(train), -1)
        pca_model = pca.fit(pixels, models.NUM_MODES)
        pca.save(pca_model, tmp_path / "pca.json")
        features = pca.transform(pca_model, pixels)
        argv = ["noise-sweep", "--archive", str(archive), "--dataset", "toyset", "--seed", "7"]
        for index, kind in enumerate(models.KINDS):
            model = models.init_model(kind, classes, Rng(index), features.mean(axis=0), features.std(axis=0))
            models.save_checkpoint(model, tmp_path / f"{kind}.json")
            argv += [f"--{kind}-checkpoint", str(tmp_path / f"{kind}.json"), f"--{kind}-pca", str(tmp_path / "pca.json")]
        argv += ["--clip"] if clip else []

        batches = counted_blocks(monkeypatch)
        assert run_cli(*argv, "--out", str(tmp_path / "blocks")) == 0
        assert batches == [683] * 3 * 20 * 3
        monkeypatch.setattr(models, "SCORE_ROWS", self.M)  # one walk block, one scored block of all rows
        assert run_cli(*argv, "--out", str(tmp_path / "batch")) == 0
        assert batches[180:] == [self.M] * 20 * 3
        sweep = "noise_sweep.csv"
        assert (tmp_path / "blocks" / sweep).read_bytes() == (tmp_path / "batch" / sweep).read_bytes()

    @pytest.mark.parametrize("clip", [False, True])
    def test_noise_walk_in_row_blocks_is_the_whole_field_projection(self, archives, clip):
        """The whole field from ``rng.normal_field``, projected in the walk's
        32-column blocks: one 784-long product sums in another order."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (test,) = data.load_archive(archives[2], "toyset", ("test",))
        pixels = test.pixels.reshape(self.M, -1)
        components = np.linalg.qr(np.random.default_rng(45).normal(size=(data.NUM_PIXELS, 12)))[0].T.copy()
        sigmas = data.noise_sweep_grid()
        seeds = data.noise_seeds(self.M, 2**63 + 3)
        got = np.zeros((len(sigmas) if clip else 1, self.M, len(components)))
        for rows in pca.row_blocks(self.M, models.SCORE_ROWS):  # noise-sweep's three blocks of 683
            cli._noise_sums(pixels[rows], components, seeds[rows], sigmas, clip, got[..., rows, :])

        field = normal_field(data.noise_seeds(self.M, 2**63 + 3), data.NUM_PIXELS)
        copies = [data.inject_gaussian_noise(test.flat_images(), sigma, field, clip=True) for sigma in sigmas]
        expected = np.zeros((len(sigmas) if clip else 1, self.M, len(components)))
        for start in range(0, data.NUM_PIXELS, rng_module._BLOCK_COLUMNS):
            cols = slice(start, start + rng_module._BLOCK_COLUMNS)
            projected = [copy[:, cols] for copy in copies] if clip else field[:, cols]
            expected += np.asarray(projected) @ components[:, cols].T
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def learning_archive(tmp_path_factory):
    """600 train and 100 val rows of generator seed 1, and 2,000 test rows,
    so that a sweep's F1 has binomial standard errors of at most 0.011."""
    path = tmp_path_factory.mktemp("learning") / "toyset.npz"
    return str(write_archive(path, m_train=600, m_val=100, m_test=2000, seed=1))


@pytest.fixture(scope="module")
def learned(tmp_path_factory, learning_archive):
    """The run directory of ``train --epochs 10 --learning-rate 0.01`` for a
    (kind, seed), trained once."""

    @functools.cache
    def run(kind, seed):
        out = tmp_path_factory.mktemp(f"learned_{kind}_{seed}")
        assert run_cli(
            "train", "--archive", learning_archive, "--dataset", "toyset", "--model", kind,
            "--out", str(out), "--seed", str(seed), "--epochs", "10", "--learning-rate", "0.01",
        ) == 0
        return out

    return run


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", models.KINDS)
def test_every_kind_learns(learned, kind, seed):
    """Thresholding one PCA feature separates the generator's classes, so
    every fold of a working kind scores at least 0.95."""
    with open(learned(kind, seed) / "fold_metrics.csv", newline="") as handle:
        f1 = [float(row["f1"]) for row in csv.DictReader(handle) if row["split"] == "val"]
    assert len(f1) == 3 and min(f1) >= 0.95, f1


def cv_margins(model, pca_model, pixels, labels):
    """Each row's margin, its true class's logit less the other's, of a binary
    CV checkpoint, and the norm of the margin's gradient in the unit pixels.
    With <x> readout the logits are affine in the features, and these in the
    pixels, so the gradient is the same at every row: the logits at 0 and at
    each unit feature give it."""
    logits = models.predict_batch(model, pca.transform(pca_model, pixels))
    corners = models.predict_batch(model, np.vstack([np.zeros(4), np.eye(4)]))
    slopes = corners[1:] - corners[0]  # (4 features, 2 classes)
    rows = np.arange(len(labels))
    margins = logits[rows, labels] - logits[rows, 1 - labels]
    return margins, np.linalg.norm(pca_model.components.T @ (slopes[:, 1] - slopes[:, 0]))


def expected_cv_f1(margins, norm, sigma):
    """The closed-form expected micro F1, the accuracy here, under the unclipped
    noise x + sigma n: a row's margin is normal, with mean its clean margin
    and deviation sigma times the gradient's norm."""
    if sigma == 0:
        return float(np.mean(margins > 0))
    return float(np.mean([0.5 * math.erfc(-m / (math.sqrt(2.0) * sigma * norm)) for m in margins]))


@pytest.mark.parametrize("seed", [7, 2**63 + 3])
def test_cv_sweep_matches_its_closed_form_expectation(tmp_path, learning_archive, learned, seed):
    """Each row draws its own noise substream, so at every sigma the sampled
    CV F1 lies within 4 binomial standard errors of the closed form."""
    source = learned("cv", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (test,) = data.load_archive(learning_archive, "toyset", keep=("test",))
    pixels = test.pixels.reshape(len(test), -1)
    model, pca_model = models.load_checkpoint(source / "model_fold0.json"), pca.load(source / "pca_fold0.json")
    # Trained, the model keeps every row several noise units from its
    # boundary, and the curve would stay near 1. Its bias moved, the boundary
    # runs half a unit (pixel-space distance) inside class 1, so the F1 falls
    # over the whole grid.
    margins, norm = cv_margins(model, pca_model, pixels, test.labels)
    shift = np.median(margins[test.labels == 1]) - 0.5 * norm
    model = replace(model, head_bias=model.head_bias + np.array([0.5, -0.5]) * shift)
    checkpoint = tmp_path / "cv_moved.json"
    models.save_checkpoint(model, checkpoint)
    argv = ["noise-sweep", "--archive", learning_archive, "--dataset", "toyset",
            "--out", str(tmp_path / "sweep"), "--seed", str(seed),
            "--cv-checkpoint", str(checkpoint), "--cv-pca", str(source / "pca_fold0.json")]
    for kind in ("dv", "classical"):
        argv += [f"--{kind}-checkpoint", str(learned(kind, 0) / "model_fold0.json"),
                 f"--{kind}-pca", str(learned(kind, 0) / "pca_fold0.json")]
    assert run_cli(*argv) == 0
    with open(tmp_path / "sweep" / "noise_sweep.csv", newline="") as handle:
        sampled = {float(r["sigma"]): float(r["f1"]) for r in csv.DictReader(handle) if r["model_kind"] == "cv"}
    margins, norm = cv_margins(model, pca_model, pixels, test.labels)
    assert sorted(sampled) == data.noise_sweep_grid()
    assert sampled[0.0] == 1.0 and sampled[1.0] < 0.9  # the curve the check needs to see
    for sigma, f1 in sampled.items():
        expected = expected_cv_f1(margins, norm, sigma)
        assert abs(f1 - expected) <= 4 * math.sqrt(expected * (1 - expected) / len(test)), (sigma, f1, expected)


def test_traced_memory_of_eval_and_noise_sweep_grows_with_the_split_bytes(tmp_path, trained):
    """Tripling the test split adds its bytes and little more to eval (of
    each kind) and to both sweeps.

    As floats each 1,000 extra rows take 6.3 MB, as bytes 0.8 MB. The split
    is projected from its bytes through one reused buffer of rows and both
    commands score it a block of rows at a time, so per row eval keeps only
    features, predictions, probabilities and curve points. Both sweeps walk
    the noise field a block of rows and columns at a time into one reused
    buffer, score each block as soon as its walk ends and add its confusion
    counts to those of the blocks before it, so no prediction outlives its
    block: per row the unclipped sweep keeps only the clean features and the
    clipped sweep nothing. (Keeping every sigma's predictions, 480 bytes a
    row, put the clipped sweep's growth at 1.66 times the extra bytes, and
    the unclipped sweep's whole-split noise projection put its growth at
    1.36 times.)
    """
    images, labels = make_class_images(1000, 2, np.random.default_rng(40), balanced=True)
    small, small_labels = make_class_images(20, 2, np.random.default_rng(41), balanced=True)
    sweep, commands = [], {}  # commands: name: (argv, bound on the growth in extra bytes)
    for kind in models.KINDS:
        model_path, pca_path = best_fold_paths(trained[kind])
        sweep += [f"--{kind}-checkpoint", str(model_path), f"--{kind}-pca", str(pca_path)]
        commands[f"eval-{kind}"] = (["eval", "--checkpoint", str(model_path), "--pca", str(pca_path)], 1.5)
    commands |= {
        "noise-sweep": (["noise-sweep", *sweep, "--seed", "3"], 1.25),
        "noise-sweep-clip": (["noise-sweep", *sweep, "--seed", "3", "--clip"], 1.25),
    }
    peaks = {command: [] for command in commands}
    for copies in (1, 3):
        archive = tmp_path / f"test_x{copies}.npz"
        np.savez(
            archive, train_images=small, train_labels=small_labels, val_images=small, val_labels=small_labels,
            test_images=np.concatenate([images] * copies), test_labels=np.tile(labels, copies),
        )
        for command, (argv, _) in commands.items():
            source = ["--archive", str(archive), "--dataset", "toyset", "--out", str(tmp_path / f"{command}{copies}")]
            tracemalloc.start()
            try:
                assert run_cli(*argv, *source) == 0
                peaks[command].append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    extra_bytes = 2 * images.nbytes
    for command, (once, thrice) in peaks.items():
        assert thrice - once < commands[command][1] * extra_bytes, command


def test_traced_memory_does_not_grow_with_the_splits_a_command_does_not_read(tmp_path, trained):
    """10,000 more rows (7.8 MB of bytes) in the splits a command does not
    read add less than a tenth of their bytes to its traced peak: those
    members are checked as they stream past, 256 KB at a time, and dropped.

    Every archive is over 1 MB, so each one's checksum fills its one 256 KB
    buffer several times.
    """
    pool, pool_labels = make_class_images(11_500, 2, np.random.default_rng(42), balanced=True)
    small, small_labels = make_class_images(20, 2, np.random.default_rng(43), balanced=True)

    def archive(**rows):
        """The first ``rows[split]`` rows of the pool in each named split, 20 other rows elsewhere."""
        path, arrays = tmp_path / ("_".join(f"{split}{count}" for split, count in rows.items()) + ".npz"), {}
        for split in ("train", "val", "test"):
            count = rows.get(split)
            images, labels = (pool[:count], pool_labels[:count]) if count else (small, small_labels)
            arrays |= {f"{split}_images": images, f"{split}_labels": labels}
        np.savez(path, **arrays)
        return path

    sweep = []
    for kind in models.KINDS:
        model_path, pca_path = best_fold_paths(trained[kind])
        sweep += [f"--{kind}-checkpoint", str(model_path), f"--{kind}-pca", str(pca_path)]
    model_path, pca_path = best_fold_paths(trained["dv"])
    model = ["--checkpoint", str(model_path), "--pca", str(pca_path)]
    test_readers = (archive(train=1_500), archive(train=11_500))
    train_readers = (archive(val=1_500, test=1_500), archive(val=6_500, test=6_500))
    commands = {  # name: (argv, the archive without and with the extra rows)
        "eval": (["eval", *model], test_readers),
        "saliency": (["saliency", *model, "--indices", "0"], test_readers),
        "noise-sweep": (["noise-sweep", *sweep, "--seed", "3"], test_readers),
        "train": (["train", "--model", "classical", "--epochs", "1", "--folds", "2"], train_readers),
        "pca-report": (["pca-report"], train_readers),
    }
    for command, (argv, archives) in commands.items():
        peaks = []
        for index, path in enumerate(archives):
            out = str(tmp_path / f"{command}{index}")
            source = ["--archive", str(path), "--dataset", "toyset", "--out", out]
            tracemalloc.start()
            try:
                assert run_cli(*argv, *source) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.1 * 10_000 * data.NUM_PIXELS, command


def checkout_python(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter that imports this checkout's
    medqnn, with stdout into a pipe block-buffered, as by default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


COMMAND_MODULES = ("medqnn.metrics", "medqnn.training", "medqnn.saliency", "medqnn.stats")
SIMULATORS = ("medqnn.gaussian", "medqnn.statevector")
OPENSSL = "_hashlib"  # hashlib's OpenSSL binding, loaded by the archive's digest


def loaded_modules(*argv) -> list[str]:
    """Which of the command modules, the simulators and OpenSSL a fresh
    interpreter has loaded after importing medqnn.cli and medqnn.models,
    and after ``cli.main(argv)`` when argv is given."""
    code = "import sys, medqnn.cli, medqnn.models\n"
    if argv:
        code += f"assert medqnn.cli.main({list(argv)!r}) == 0\n"
    code += f"print(*sorted(m for m in {(*COMMAND_MODULES, *SIMULATORS, OPENSSL)!r} if m in sys.modules))"
    result = checkout_python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_leaves_command_modules_unloaded():
    """metrics, training, saliency and stats load only inside the commands
    that use them, models loads a simulator only for the kind it runs, and
    OpenSSL loads only where an archive's digest is taken."""
    assert loaded_modules() == []


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("kind, simulators", [
    ("classical", []), ("cv", ["medqnn.gaussian"]), ("dv", ["medqnn.statevector"]),
])
def test_a_command_loads_only_its_kinds_simulator(tmp_path, archive, trained, command, kind, simulators):
    argv = ["--archive", archive, "--dataset", "toyset", "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--checkpoint", str(trained[kind] / "model_fold0.json"), "--pca", str(trained[kind] / "pca_fold0.json")]
        expected = [OPENSSL, "medqnn.metrics", *simulators]
    else:
        argv += ["--model", kind, "--epochs", "1"]
        expected = [OPENSSL, "medqnn.metrics", "medqnn.training", *simulators]
    assert loaded_modules(command, *argv) == sorted(expected)


def test_stats_and_pca_report_load_no_simulator(tmp_path, archive, trained):
    """stats reads no archive, so it does not load OpenSSL either."""
    folds = [flag for kind in models.KINDS for flag in (f"--{kind}", str(trained[kind] / "fold_metrics.csv"))]
    assert loaded_modules("stats", *folds, "--out", str(tmp_path / "stats")) == ["medqnn.stats"]
    report = ["pca-report", "--archive", archive, "--dataset", "toyset", "--out", str(tmp_path / "report")]
    assert loaded_modules(*report) == [OPENSSL]


def test_train_leaves_numpy_ma_unloaded(tmp_path, archive):
    """numpy.ma costs a train process about 18 ms to import; no step of train needs it."""
    argv = ["train", "--archive", archive, "--dataset", "toyset", "--model", "classical",
            "--epochs", "1", "--out", str(tmp_path / "out")]
    code = (  # numpy before 2.0 imports numpy.ma with numpy itself; train must not add it
        "import sys, numpy, medqnn.cli\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"assert medqnn.cli.main({argv!r}) == 0\n"
        "print(before, 'numpy.ma' in sys.modules)"
    )
    result = checkout_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2:] in (["False", "False"], ["True", "True"])


# ``python -m medqnn.cli`` and the medqnn console script end in ``cli.run``,
# which skips interpreter finalization; only a new process takes that path.

def test_the_command_exits_with_mains_code_and_stderr_line(tmp_path, archive, trained):
    model = ("--checkpoint", str(trained["cv"] / "model_fold0.json"), "--pca", str(trained["cv"] / "pca_fold0.json"))
    source = ("--archive", archive, "--dataset", "toyset")
    (tmp_path / "afile").touch()
    cases = [
        (0, "acc ", ["eval", *source, *model, "--out", str(tmp_path / "eval")]),
        (2, "data error: archive not found", ["eval", "--archive", str(tmp_path / "missing.npz"),
                                              "--dataset", "toyset", *model, "--out", str(tmp_path / "e2")]),
        (3, "config error: cannot create --out", ["pca-report", *source, "--out", str(tmp_path / "afile" / "out")]),
        (4, "numeric failure: squeeze magnitude", ["train", *source, "--model", "cv", "--learning-rate", "1e6",
                                                   "--out", str(tmp_path / "train")]),
    ]
    for code, line, argv in cases:
        result = checkout_python("-m", "medqnn.cli", *argv)
        assert result.returncode == code, (argv, result.stderr)
        assert line in result.stderr.splitlines()[-1], (argv, result.stderr)
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["train", "eval", "saliency"])
def test_the_command_writes_what_main_writes(tmp_path, archive, trained, command):
    """Every file is complete when the process exits: the same non-manifest
    bytes as an in-process run, and a manifest that names them all."""
    model = ("--checkpoint", str(trained["dv"] / "model_fold0.json"), "--pca", str(trained["dv"] / "pca_fold0.json"))
    argv = {
        "train": ["train", "--model", "dv", "--epochs", "2", "--seed", "3"],
        "eval": ["eval", *model],
        "saliency": ["saliency", *model, "--indices", "0,5", "--signed"],
    }[command] + ["--archive", archive, "--dataset", "toyset", "--out", "{out}"]
    written = {}
    for how in ("main", "process"):
        out = tmp_path / how
        filled = [token.format(out=out) for token in argv]
        if how == "main":
            assert run_cli(*filled) == 0
        else:
            result = checkout_python("-m", "medqnn.cli", *filled)
            assert result.returncode == 0, result.stderr
        written[how] = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(written["process"].pop("manifest.json"))
    written["main"].pop("manifest.json")
    assert written["process"] == written["main"]
    assert manifest["command"] == [token.format(out=tmp_path / "process") for token in argv]
    assert "finished_at" in manifest
    assert set(manifest["artifacts"]) == set(written["process"])


def test_help_reaches_a_pipe():
    """stdout into a pipe is block-buffered: the exit must flush it."""
    result = checkout_python("-m", "medqnn.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: medqnn")


def test_an_exception_that_escapes_main_exits_1_with_a_traceback():
    result = checkout_python("-c", "import medqnn.cli as cli; cli.main = lambda: 1 / 0; cli.run()")
    assert result.returncode == 1
    assert "Traceback" in result.stderr and "ZeroDivisionError" in result.stderr


class TestSaliencyCommand:
    def test_artifacts_per_sample(self, tmp_path, archive, trained):
        model_path, pca_path = best_fold_paths(trained["classical"])
        out = tmp_path / "sal"
        code = run_cli(
            "saliency", "--archive", archive, "--dataset", "toyset",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--indices", "0,3", "--out", str(out), "--signed",
        )
        assert code == 0
        for index in (0, 3):
            prefix = out / f"sample{index:05d}"
            assert prefix.with_name(prefix.name + "_recon.pgm").exists()
            assert prefix.with_name(prefix.name + "_saliency.pgm").exists()
            assert prefix.with_name(prefix.name + "_saliency_signed.pgm").exists()
            sidecar = json.loads(prefix.with_name(prefix.name + ".json").read_text())
            assert set(sidecar) == {"predicted_class", "confidence", "true_class", "model_kind"}

    def test_invalid_index_exits_2(self, tmp_path, archive, trained):
        model_path, pca_path = best_fold_paths(trained["classical"])
        code = run_cli(
            "saliency", "--archive", archive, "--dataset", "toyset",
            "--checkpoint", str(model_path), "--pca", str(pca_path),
            "--indices", "9999", "--out", str(tmp_path / "sal_bad"),
        )
        assert code == 2


class TestStats:
    def test_identical_scores_retain_h0(self, tmp_path, trained):
        # reuse one fold_metrics.csv for all three models: identical scores
        source = trained["classical"] / "fold_metrics.csv"
        out = tmp_path / "stats_same"
        code = run_cli(
            "stats", "--classical", str(source), "--dv", str(source),
            "--cv", str(source), "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "stats.json").read_text())
        assert payload["alpha_corrected"] == pytest.approx(0.05 / 3)
        assert round(payload["alpha_corrected"], 4) == 0.0167
        for metric_entry in payload["metrics"].values():
            assert metric_entry["friedman_h0_retained"]
            assert set(metric_entry["pairwise"]) == {"C-DV", "C-CV", "DV-CV"}
            for pair in metric_entry["pairwise"].values():
                assert pair["h0_retained"]

    def test_real_runs(self, tmp_path, trained):
        out = tmp_path / "stats_real"
        code = run_cli(
            "stats",
            "--classical", str(trained["classical"] / "fold_metrics.csv"),
            "--dv", str(trained["dv"] / "fold_metrics.csv"),
            "--cv", str(trained["cv"] / "fold_metrics.csv"),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "stats.json").read_text())
        for metric_entry in payload["metrics"].values():
            assert 0.0 <= metric_entry["friedman_p"] <= 1.0
            for pair in metric_entry["pairwise"].values():
                assert 0.0 <= pair["p"] <= 1.0


def test_commands_that_fit_nothing_never_resolve_dsyevr(tmp_path, archive, trained):
    """Only train and pca-report fit a PCA; the others never look up LAPACK."""
    source = ("--archive", archive, "--dataset", "toyset")
    model = ("--checkpoint", str(trained["cv"] / "model_fold0.json"), "--pca", str(trained["cv"] / "pca_fold0.json"))
    sweep = [flag for kind in models.KINDS for flag in (
        f"--{kind}-checkpoint", str(trained[kind] / "model_fold0.json"),
        f"--{kind}-pca", str(trained[kind] / "pca_fold0.json"),
    )]
    pca._dsyevr.cache_clear()
    assert run_cli("eval", *source, *model, "--out", str(tmp_path / "eval")) == 0
    assert run_cli("saliency", *source, *model, "--indices", "0", "--out", str(tmp_path / "saliency")) == 0
    assert run_cli("noise-sweep", *source, *sweep, "--out", str(tmp_path / "sweep")) == 0
    folds = [flag for kind in models.KINDS for flag in (f"--{kind}", str(trained[kind] / "fold_metrics.csv"))]
    assert run_cli("stats", *folds, "--out", str(tmp_path / "stats")) == 0
    assert pca._dsyevr.cache_info().misses == 0
    assert run_cli("pca-report", *source, "--out", str(tmp_path / "report")) == 0
    assert pca._dsyevr.cache_info().misses == 1


@pytest.mark.parametrize("command", ["train", "pca-report"])
def test_a_failed_eigensolve_exits_4(tmp_path, archive, monkeypatch, command):
    def failing(*args):  # INFO, args[20], > 0: no convergence
        args[20][0] = 1

    monkeypatch.setattr(pca, "_dsyevr", lambda: (failing, np.int64))
    extra = ["--model", "classical", "--epochs", "1"] if command == "train" else []
    code = run_cli(command, "--archive", archive, "--dataset", "toyset", *extra, "--out", str(tmp_path / "out"))
    assert code == 4


class TestPcaReport:
    def test_report_contents(self, tmp_path, archive):
        out = tmp_path / "pca_report"
        code = run_cli(
            "pca-report", "--archive", archive, "--dataset", "toyset",
            "--out", str(out), "--k", "4",
        )
        assert code == 0
        payload = json.loads((out / "pca_report.json").read_text())
        assert payload["k"] == 4
        assert payload["num_samples"] == 60
        assert len(payload["explained_variance_ratio"]) == 4
        assert 0.0 < payload["cumulative_variance"] <= 1.0
        with open(out / "pca_report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4

    def test_checksums_hash_the_archive_once(self, tmp_path, archive, monkeypatch):
        digest = data.sha256_of_file(archive)
        manifest = tmp_path / "checksums.txt"
        manifest.write_text(f"toyset {digest}\n")
        calls = []

        def counting_sha256(path):
            calls.append(path)
            return digest

        monkeypatch.setattr(data, "sha256_of_file", counting_sha256)
        out = tmp_path / "pca_report"
        assert run_cli(
            "pca-report", "--archive", archive, "--dataset", "toyset",
            "--checksums", str(manifest), "--out", str(out),
        ) == 0
        assert len(calls) == 1
        recorded = json.loads((out / "manifest.json").read_text())["dataset_checksums"]
        assert recorded == {"toyset": digest}


def bad_input_files(tmp_path, archive, trained):
    """Every file the bad-input table names, keyed by its placeholder."""
    checkpoint, pca_path = best_fold_paths(trained["classical"])
    files = {"archive": archive, "checkpoint": str(checkpoint), "pca": str(pca_path)}
    damages = {
        "no_stats": lambda d: d.pop("feature_stats"),
        "short_circuit": lambda d: d["circuit_params"].pop(),
        "nan_weight": lambda d: d["head_weights"][1].__setitem__(2, float("nan")),
        # The version must be the int CHECKPOINT_VERSION: 2.0 == 2 in Python,
        # and True == 1 would pass a value-only check against a version 1.
        "version_true": lambda d: d.__setitem__("version", True),
        "version_float": lambda d: d.__setitem__("version", float(models.CHECKPOINT_VERSION)),
        "version_1": lambda d: d.__setitem__("version", 1),  # before the arctan DV encoding
        "huge_weight": lambda d: d["head_weights"][1].__setitem__(2, 10**400),  # past the float range
        "string_mean": lambda d: d["feature_stats"].__setitem__("mean", ["1", "2", "3", "4"]),
        "bool_mean": lambda d: d["feature_stats"].__setitem__("mean", [True] * 4),
    }
    stats_damages = {  # positive and finite, yet the z-scores overflow
        "tiny_std": {"std": [1e-320] * 4},  # subnormal
        "far_mean": {"mean": [1e308] * 4, "std": [1e-300] * 4},
    }
    for name, stats in stats_damages.items():
        damages[name] = lambda d, stats=stats: d["feature_stats"].update(stats)
    # z = 0 at test row 0, so its logits are finite, yet d logits / d features overflow
    (test_split,) = data.load_archive(archive, "toyset", ("test",))
    row0 = pca.transform(pca.load(pca_path), data.unit_floats(test_split.pixels[0].reshape(-1)))
    damages["row0_tiny_std"] = lambda d: d["feature_stats"].update(mean=row0.tolist(), std=[1e-320] * 4)
    for name, damage in damages.items():
        payload = json.loads(checkpoint.read_text())
        damage(payload)
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    # z near 1.7e308 is finite, but sqrt(2) z overflows, so the CV logits do not exist
    cv_stats_damages = stats_damages | {"overflow": {"mean": [-1e308] * 4, "std": [0.6] * 4}}
    cv_checkpoint = best_fold_paths(trained["cv"])[0]
    for name, stats in cv_stats_damages.items():
        payload = json.loads(cv_checkpoint.read_text())
        payload["feature_stats"].update(stats)
        files[f"cv_{name}"] = str(tmp_path / f"cv_{name}.json")
        (tmp_path / f"cv_{name}.json").write_text(json.dumps(payload))
    pca_damages = {
        "pca_no_k": lambda d: d.pop("k"),
        "pca_short_mean": lambda d: d["mean"].pop(),
        "pca_k3": lambda d: d.__setitem__("k", 3),  # beside 4 components
        "pca_huge_mean": lambda d: d["mean"].__setitem__(0, 10**400),  # past the float range
        "pca_string_mean": lambda d: d.__setitem__("mean", [repr(v) for v in d["mean"]]),
        "pca_bool_component": lambda d: d["components"][0].__setitem__(0, True),
    }
    for name, damage in pca_damages.items():
        payload = json.loads(pca_path.read_text())
        damage(payload)
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files["pca_list"] = str(tmp_path / "pca_list.json")
    (tmp_path / "pca_list.json").write_text(json.dumps([json.loads(pca_path.read_text())]))
    rng = np.random.default_rng(9)
    for name, shape, k in (("pca_k5", (40, 784), 5), ("pca_100px", (40, 100), 4)):
        files[name] = str(tmp_path / f"{name}.json")
        pca.save(pca.fit(rng.uniform(0, 1, shape), k), files[name])
    for kind in models.KINDS:
        files[f"{kind}_folds"] = str(trained[kind] / "fold_metrics.csv")
        model_path, kind_pca = best_fold_paths(trained[kind])
        files[f"{kind}_checkpoint"], files[f"{kind}_pca"] = str(model_path), str(kind_pca)
    configs = {
        "threads_cfg": "threads = 2\n",
        "nan_cfg": "learning_rate = nan\n",
        "pca_cfg": "pca_components = 8\n",
        "seed_cfg": "seed = 7\n",
    }
    for name, text in configs.items():
        files[name] = str(tmp_path / f"{name}.cfg")
        (tmp_path / f"{name}.cfg").write_text(text)
    files["corrupt"] = str(tmp_path / "corrupt.npz")
    (tmp_path / "corrupt.npz").write_bytes(b"PK\x03\x04 this is not a zip archive")
    files["latin1_cfg"] = str(tmp_path / "latin1.cfg")
    (tmp_path / "latin1.cfg").write_bytes("seed = 7  # \u00e9\n".encode("latin-1"))
    files["latin1_json"] = str(tmp_path / "latin1.json")
    (tmp_path / "latin1.json").write_bytes('{"magic": "\u00e9"}'.encode("latin-1"))
    files["deep_json"] = str(tmp_path / "deep.json")
    (tmp_path / "deep.json").write_text("[" * 200_000)  # nested past the recursion limit
    files["long_int_json"] = str(tmp_path / "long_int.json")
    (tmp_path / "long_int.json").write_text("[" + "9" * 5000 + "]")  # past int's digit limit
    files["nope"] = str(tmp_path / "nope.csv")
    files["a_dir"] = str(tmp_path)
    files["out_link"] = str(tmp_path / "out_link")
    (tmp_path / "e3").mkdir()
    (tmp_path / "out_link").symlink_to(tmp_path / "e3", target_is_directory=True)
    files["missing_archive"] = str(tmp_path / "missing.npz")
    rng = np.random.default_rng(8)
    arrays = {}
    for split, m, classes in (("train", 40, 2), ("val", 10, 2), ("test", 10, 1)):
        images, labels = make_class_images(m, classes, rng, balanced=True)
        arrays[f"{split}_images"], arrays[f"{split}_labels"] = images, labels.reshape(-1, 1)
    files["one_class"] = str(tmp_path / "one_class.npz")
    np.savez(files["one_class"], **arrays)
    with np.load(archive) as stored:  # every training image equal to the first
        arrays = dict(stored)
    arrays["train_images"][:] = arrays["train_images"][0]
    files["flat_train"] = str(tmp_path / "flat_train.npz")
    np.savez(files["flat_train"], **arrays)
    files["single_class"] = str(write_archive(tmp_path / "single_class.npz", num_classes=1))
    files["eleven_class"] = str(write_archive(
        tmp_path / "eleven_class.npz", m_train=22, m_val=11, m_test=11, num_classes=11, balanced=True
    ))
    files["eleven_checkpoint"] = str(tmp_path / "eleven_checkpoint.json")
    models.save_checkpoint(models.init_model("classical", 11, Rng(4)), files["eleven_checkpoint"])
    folds_text = Path(files["classical_folds"]).read_text().splitlines()
    val_rows = [row for row in csv.reader(folds_text) if row[1] == "val"]
    fold_files = {  # name: (validation rows, the score put in the first row's f1)
        "folds2": (val_rows[:2], None), "folds1": (val_rows[:1], None), "nan_folds": (val_rows, "nan"),
        "long_field_folds": (val_rows, "1" * 131_073),  # past csv's field size limit
    }
    for name, (rows, score) in fold_files.items():
        rows = [list(row) for row in rows]
        if score is not None:
            rows[0][-1] = score
        files[name] = str(tmp_path / f"{name}.csv")
        with open(files[name], "w", newline="") as handle:
            csv.writer(handle).writerows([["fold", "split", "acc", "p", "r", "f1"], *rows])
    return files


TRAIN = "train --dataset toyset --archive {archive}"
SALIENCY = "saliency --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca {pca}"
EVAL = "eval --dataset toyset --archive {archive} --pca {pca}"
EVAL_WITH_PCA = "eval --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca"
SWEEP_WITH_CV_PCA = (
    "noise-sweep --dataset toyset --archive {archive} --dv-checkpoint {dv_checkpoint}"
    " --dv-pca {dv_pca} --classical-checkpoint {classical_checkpoint}"
    " --classical-pca {classical_pca} --cv-checkpoint {cv_checkpoint} --cv-pca"
)
SALIENCY_WITH_PCA = "saliency --dataset toyset --archive {archive} --checkpoint {checkpoint} --indices 0 --pca"
SALIENCY_WITH_CHECKPOINT = "saliency --dataset toyset --archive {archive} --pca {pca} --indices 0 --checkpoint"
SWEEP_WITH_CV_CHECKPOINT = (
    "noise-sweep --dataset toyset --archive {archive} --dv-checkpoint {dv_checkpoint}"
    " --dv-pca {dv_pca} --classical-checkpoint {classical_checkpoint}"
    " --classical-pca {classical_pca} --cv-pca {cv_pca} --cv-checkpoint"
)
STATS = "stats --classical {classical_folds} --dv {dv_folds} --cv {cv_folds}"
PCA_REPORT = "pca-report --dataset toyset --archive {archive}"
BAD_INPUTS = [  # (case, documented exit code, argv template)
    ("batch size 0", 3, f"{TRAIN} --model classical --batch-size 0"),
    ("batch size 0 with a missing archive", 3,
     "train --dataset toyset --archive {missing_archive} --model classical --batch-size 0"),
    ("one fold", 3, f"{TRAIN} --model classical --folds 1"),
    ("negative epochs", 3, f"{TRAIN} --model classical --epochs -1"),
    ("nan learning rate", 3, f"{TRAIN} --model dv --learning-rate nan"),
    ("removed --threads", 3, f"{TRAIN} --model dv --threads 0"),
    ("'--' as the value of --epochs", 3, f"{TRAIN} --model classical --epochs=--"),
    ("'--' as the value of --archive", 3, "train --dataset toyset --archive=-- --model classical"),
    ("'--' as the value of --model", 3, f"{TRAIN} --model=--"),
    ("'--' as the value of saliency --indices", 3, f"{SALIENCY} --indices=--"),
    ("removed --pca-components", 3, f"{TRAIN} --model dv --pca-components 8"),
    ("threads in config file", 3, f"{TRAIN} --model dv --config {{threads_cfg}}"),
    ("nan learning rate in config file", 3, f"{TRAIN} --model dv --config {{nan_cfg}}"),
    ("pca_components in train config file", 3, f"{TRAIN} --model dv --config {{pca_cfg}}"),
    ("corrupt archive", 2, "train --dataset toyset --archive {corrupt} --model dv"),
    ("directory as --archive", 2, "pca-report --dataset toyset --archive {a_dir}"),
    ("classical overflow", 4, f"{TRAIN} --model classical --learning-rate 1e308 --epochs 1"),
    ("squeeze overflow", 4, f"{TRAIN} --model cv --learning-rate 1e308 --epochs 1"),
    ("checkpoint without feature_stats", 2, f"{EVAL} --checkpoint {{no_stats}}"),
    ("checkpoint with 31 circuit params", 2, f"{EVAL} --checkpoint {{short_circuit}}"),
    ("checkpoint with a nan weight", 2, f"{EVAL} --checkpoint {{nan_weight}}"),
    ("checkpoint with version true", 2, f"{EVAL} --checkpoint {{version_true}}"),
    ("checkpoint with the current version as a float", 2, f"{EVAL} --checkpoint {{version_float}}"),
    ("version-1 checkpoint", 2, f"{EVAL} --checkpoint {{version_1}}"),
    ("checkpoint with a 400-digit weight", 2, f"{EVAL} --checkpoint {{huge_weight}}"),
    ("checkpoint with numeric-string feature means", 2, f"{EVAL} --checkpoint {{string_mean}}"),
    ("checkpoint with boolean feature means", 2, f"{EVAL} --checkpoint {{bool_mean}}"),
    ("checkpoint with feature std 1e-320", 2, f"{EVAL} --checkpoint {{tiny_std}}"),
    ("checkpoint with feature mean 1e308 and std 1e-300", 2, f"{EVAL} --checkpoint {{far_mean}}"),
    ("saliency of row 0 with feature mean row 0's features and std 1e-320", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {row0_tiny_std} --pca {pca} --indices 0"),
    ("PCA file without k", 2, f"{EVAL_WITH_PCA} {{pca_no_k}}"),
    ("PCA file with a short mean", 2, f"{EVAL_WITH_PCA} {{pca_short_mean}}"),
    ("PCA file holding a JSON list", 2, f"{EVAL_WITH_PCA} {{pca_list}}"),
    ("PCA file with k 3 beside 4 components", 2, f"{EVAL_WITH_PCA} {{pca_k3}}"),
    ("PCA file with a 400-digit mean", 2, f"{EVAL_WITH_PCA} {{pca_huge_mean}}"),
    ("PCA file with a numeric-string mean", 2, f"{EVAL_WITH_PCA} {{pca_string_mean}}"),
    ("PCA file with a boolean component", 2, f"{EVAL_WITH_PCA} {{pca_bool_component}}"),
    ("eval with a 5-component PCA", 2, f"{EVAL_WITH_PCA} {{pca_k5}}"),
    ("eval with a 100-pixel PCA", 2, f"{EVAL_WITH_PCA} {{pca_100px}}"),
    ("saliency with a 5-component PCA", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {checkpoint} --indices 0"
     " --pca {pca_k5}"),
    ("saliency with a 100-pixel PCA", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {checkpoint} --indices 0"
     " --pca {pca_100px}"),
    ("noise-sweep with a 5-component PCA", 2, f"{SWEEP_WITH_CV_PCA} {{pca_k5}}"),
    ("noise-sweep with a 100-pixel PCA", 2, f"{SWEEP_WITH_CV_PCA} {{pca_100px}}"),
    ("non-numeric --indices", 3, f"{SALIENCY} --indices 0,x"),
    ("non-numeric --indices with a missing archive", 3,
     "saliency --dataset toyset --archive {missing_archive} --checkpoint {checkpoint}"
     " --pca {pca} --indices a,b"),
    ("out-of-range --indices", 2, f"{SALIENCY} --indices 0,9999"),
    ("repeated --indices", 3, f"{SALIENCY} --indices 3,3"),
    ("repeated --indices with a missing archive", 3,
     "saliency --dataset toyset --archive {missing_archive} --checkpoint {checkpoint}"
     " --pca {pca} --indices 3,3"),
    ("no --indices", 3, f"{SALIENCY} --indices ,"),
    ("no --indices with a missing archive", 3,
     "saliency --dataset toyset --archive {missing_archive} --checkpoint {checkpoint}"
     " --pca {pca} --indices ,"),
    ("binary test split with one class", 2,
     "eval --dataset toyset --archive {one_class} --checkpoint {checkpoint} --pca {pca}"),
    ("pca-report --k 0", 3, f"{PCA_REPORT} --k 0"),
    ("pca-report --k 0 with a missing archive", 3,
     "pca-report --dataset toyset --archive {missing_archive} --k 0"),
    ("pca-report --k above the pixel count", 3, f"{PCA_REPORT} --k 785"),
    ("pca-report on equal training images", 2, "pca-report --dataset toyset --archive {flat_train}"),
    ("train on equal training images", 2,
     "train --dataset toyset --archive {flat_train} --model classical --epochs 1"),
    ("train on a one-class archive", 2,
     "train --dataset toyset --archive {single_class} --model classical --epochs 1"),
    ("pca-report --k above the pixel count with a missing archive", 3,
     "pca-report --dataset toyset --archive {missing_archive} --k 785"),
    ("missing fold metrics", 2, "stats --classical {nope} --dv {nope} --cv {nope}"),
    ("stats --alpha 1.5", 3, f"{STATS} --alpha 1.5"),
    ("stats --alpha 0", 3, f"{STATS} --alpha 0"),
    ("stats --alpha nan", 3, f"{STATS} --alpha nan"),
    ("removed eval --seed", 3, f"{EVAL} --checkpoint {{checkpoint}} --seed 1"),
    ("removed saliency --seed", 3, f"{SALIENCY} --indices 0 --seed 1"),
    ("removed stats --seed", 3, f"{STATS} --seed 1"),
    ("removed pca-report --seed", 3, f"{PCA_REPORT} --seed 1"),
    ("--config given to eval, which has no config key", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --config {{seed_cfg}}"),
    ("seed in pca-report config file", 3, f"{PCA_REPORT} --config {{seed_cfg}}"),
    ("--out naming a file", 3, f"{STATS} --out {{seed_cfg}}"),
    ("--out under a file", 3, f"{PCA_REPORT} --out {{seed_cfg}}/out"),
    ("--dump-state in a missing directory", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --dump-state {{nope}}/state.json"),
    ("--dump-state naming a directory", 3, f"{EVAL} --checkpoint {{checkpoint}} --dump-state {{a_dir}}"),
    ("--dump-state naming a directory with a missing archive", 3,
     "eval --dataset toyset --archive {missing_archive} --checkpoint {checkpoint} --pca {pca}"
     " --dump-state {a_dir}"),
    ("--out under a file with a missing archive", 3,
     "pca-report --dataset toyset --archive {missing_archive} --out {seed_cfg}/out"),
    ("--dump-state in a missing directory with a missing archive", 3,
     "eval --dataset toyset --archive {missing_archive} --checkpoint {checkpoint} --pca {pca}"
     " --dump-state {nope}/state.json"),
    ("--dump-state naming eval's own eval.json", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --out {{a_dir}}/e --dump-state {{a_dir}}/e/eval.json"),
    ("--dump-state naming eval's own manifest.json", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --out {{a_dir}}/e2 --dump-state {{a_dir}}/e2/manifest.json"),
    ("--dump-state naming eval's own eval.json through a link to --out", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --out {{a_dir}}/e3 --dump-state {{out_link}}/eval.json"),
    ("stats with different fold counts", 2, "stats --classical {folds2} --dv {dv_folds} --cv {cv_folds}"),
    ("stats with one validation row per file", 2, "stats --classical {folds1} --dv {folds1} --cv {folds1}"),
    ("stats with a nan score", 2, "stats --classical {nan_folds} --dv {dv_folds} --cv {cv_folds}"),
    ("stats with a field past the csv size limit", 2,
     "stats --classical {long_field_folds} --dv {dv_folds} --cv {cv_folds}"),
    ("eval of a binary checkpoint on an 11-class archive", 2,
     "eval --dataset toyset --archive {eleven_class} --checkpoint {checkpoint} --pca {pca}"),
    ("eval of an 11-class checkpoint on a binary archive", 2,
     f"{EVAL} --checkpoint {{eleven_checkpoint}}"),
    ("saliency of an 11-class checkpoint on a binary archive", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {eleven_checkpoint} --pca {pca}"
     " --indices 0"),
    ("noise-sweep with an 11-class checkpoint on a binary archive", 2,
     "noise-sweep --dataset toyset --archive {archive} --cv-checkpoint {cv_checkpoint}"
     " --cv-pca {cv_pca} --dv-checkpoint {dv_checkpoint} --dv-pca {dv_pca}"
     " --classical-checkpoint {eleven_checkpoint} --classical-pca {classical_pca}"),
    ("non-UTF-8 config file", 3, f"{TRAIN} --model dv --config {{latin1_cfg}}"),
    ("missing --checksums manifest", 2, f"{TRAIN} --model dv --checksums {{nope}}"),
    ("--checksums naming a directory", 2, f"{TRAIN} --model dv --checksums {{a_dir}}"),
    ("non-UTF-8 --checksums manifest", 2, f"{TRAIN} --model dv --checksums {{latin1_cfg}}"),
] + [
    (f"{command} with a {damage} {file}", 2, f"{template} {{{name}}}")
    for command, file, template in (
        ("eval", "checkpoint", f"{EVAL} --checkpoint"),
        ("eval", "PCA file", EVAL_WITH_PCA),
        ("saliency", "checkpoint", SALIENCY_WITH_CHECKPOINT),
        ("saliency", "PCA file", SALIENCY_WITH_PCA),
        ("noise-sweep", "checkpoint", SWEEP_WITH_CV_CHECKPOINT),
        ("noise-sweep", "PCA file", SWEEP_WITH_CV_PCA),
    )
    for damage, name in (
        ("non-UTF-8", "latin1_json"), ("deeply nested", "deep_json"), ("5000-digit integer", "long_int_json"),
    )
] + [
    (f"{command} of a CV checkpoint with {damage}", 2, f"{template} {{{name}}}")
    for command, template in (
        ("eval", "eval --dataset toyset --archive {archive} --pca {cv_pca} --checkpoint"),
        ("saliency", "saliency --dataset toyset --archive {archive} --pca {cv_pca} --indices 0 --checkpoint"),
        ("noise-sweep", SWEEP_WITH_CV_CHECKPOINT),
    )
    for damage, name in (
        ("feature std 1e-320", "cv_tiny_std"),
        ("feature mean 1e308 and std 1e-300", "cv_far_mean"),
        ("logits past the float range", "cv_overflow"),
    )
]


@pytest.mark.parametrize(
    "expected, template", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exits_with_documented_code(
    tmp_path, capsys, archive, trained, expected, template
):
    files = bad_input_files(tmp_path, archive, trained)
    argv = [token.format(**files) for token in template.split()]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pca-report", "train --model classical --epochs 1"])
def test_equal_training_images_have_no_variance_to_fit(tmp_path, capsys, archive, trained, command):
    flat_train = bad_input_files(tmp_path, archive, trained)["flat_train"]
    argv = [*command.split(), "--dataset", "toyset", "--archive", flat_train, "--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    assert "no variance to fit" in capsys.readouterr().err


FAILING_COMMANDS = [  # (case, exit code, argv template); each fails after its arguments parse
    ("data error", 2,
     "eval --dataset toyset --archive {missing_archive} --checkpoint {checkpoint} --pca {pca}"),
    ("config error", 3, "pca-report --dataset toyset --archive {missing_archive} --k 0"),
    ("stats --alpha 1.5", 3, f"{STATS} --alpha 1.5"),
    ("saliency with a missing checkpoint", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {nope} --pca {pca} --indices 0"),
    ("eval with a missing PCA file", 2,
     "eval --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca {nope}"),
    ("train on a one-class archive", 2,
     "train --dataset toyset --archive {single_class} --model classical --epochs 1"),
]


@pytest.mark.parametrize(
    "expected, template",
    [case[1:] for case in FAILING_COMMANDS],
    ids=[case[0] for case in FAILING_COMMANDS],
)
def test_failed_command_leaves_no_output_directory(
    tmp_path, monkeypatch, archive, trained, expected, template
):
    files = bad_input_files(tmp_path, archive, trained)
    argv = [token.format(**files) for token in template.split()]
    fresh = tmp_path / "fresh"  # created by the command, with the --out below it
    assert run_cli(*argv, "--out", str(fresh / "out")) == expected
    assert not fresh.exists()

    # a concurrent run writes its own --out under the same fresh parent
    sibling, real_mkdir, made = fresh / "other" / "ckpt.json", Path.mkdir, []

    def mkdir_then_sibling(self, *args, **kwargs):
        real_mkdir(self, *args, **kwargs)
        if self == fresh / "out" and not made:
            real_mkdir(sibling.parent, parents=True)
            sibling.write_text("theirs")
            made.append(self)

    monkeypatch.setattr(Path, "mkdir", mkdir_then_sibling)
    assert run_cli(*argv, "--out", str(fresh / "out")) == expected
    monkeypatch.undo()
    assert not (fresh / "out").exists()
    assert fresh.exists() == bool(made)
    if made:
        assert [path.name for path in fresh.iterdir()] == ["other"]
        assert sibling.read_text() == "theirs"
    kept = tmp_path / "kept"  # existed before the command: it and its contents stay
    kept.mkdir()
    (kept / "notes.txt").write_text("keep me")
    assert run_cli(*argv, "--out", str(kept)) == expected
    assert [path.name for path in kept.iterdir()] == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "keep me"


# --- the exit-code contract over generated bad inputs --------------------------

TEXT = st.text(alphabet="abcxyz019_.+- ", max_size=12)  # no "=", "#", "," or braces


def unparsable_by(kind):
    """Text that ``kind`` (int or float) rejects."""

    def rejects(text):
        try:
            kind(text)
        except ValueError:
            return True
        return False

    return TEXT.filter(rejects)


def flag_case(command, flag, values):
    """A command whose ``flag`` gets each drawn value: exit 3 before the missing archive is read."""
    return values.map(lambda value: (3, [*command.split(), f"{flag}={value}"], {}))


TRAIN_ON_MISSING = "train --dataset toyset --archive {missing_archive} --model classical"
MISSING_ARCHIVE = "--dataset toyset --archive {missing_archive}"
BAD_FLAGS = st.one_of(
    flag_case(TRAIN_ON_MISSING, "--batch-size", st.integers(max_value=0) | unparsable_by(int)),
    flag_case(TRAIN_ON_MISSING, "--folds", st.integers(max_value=1) | unparsable_by(int)),
    flag_case(TRAIN_ON_MISSING, "--epochs", st.integers(max_value=-1) | unparsable_by(int)),
    flag_case(
        TRAIN_ON_MISSING, "--learning-rate",
        st.floats(min_value=5e-324).map(lambda x: repr(-x))
        | st.sampled_from(["nan", "inf", "-inf"]) | unparsable_by(float),
    ),
    flag_case(TRAIN_ON_MISSING, "--model", TEXT.filter(lambda t: t not in models.KINDS)),
    flag_case(TRAIN_ON_MISSING, "--threads", st.integers()),
    flag_case(
        f"pca-report {MISSING_ARCHIVE}", "--k",
        st.integers().filter(lambda k: not 1 <= k <= data.NUM_PIXELS) | unparsable_by(int),
    ),
    flag_case(
        f"saliency {MISSING_ARCHIVE} --checkpoint {{checkpoint}} --pca {{pca}}", "--indices",
        st.tuples(st.lists(st.integers(0, 9).map(str)), unparsable_by(int).filter(str.strip))
        .map(lambda parts: ",".join([*parts[0], parts[1]]))
        | st.lists(st.integers(0, 9).map(str), min_size=1)
        .map(lambda parts: ",".join([*parts, parts[-1]]))  # a repeated index
        | st.lists(st.sampled_from(["", " "])).map(",".join),  # no index
    ),
    flag_case(
        f"eval {MISSING_ARCHIVE} --checkpoint {{checkpoint}} --pca {{pca}}", "--split",
        TEXT.filter(lambda t: t not in ("train", "val", "test")),
    ),
    flag_case(
        "stats --classical {nope} --dv {nope} --cv {nope}", "--alpha",
        st.floats().filter(lambda a: not 0 < a < 1).map(repr) | unparsable_by(float),
    ),
)

TRAIN_KEYS = {"seed": int, "epochs": int, "batch_size": int, "learning_rate": float, "folds": int}
BAD_CONFIG_LINE = st.one_of(
    TEXT.filter(lambda t: t.strip()),  # no "=": not a "key = value" line
    st.tuples(TEXT.filter(lambda k: k.strip().replace("-", "_") not in TRAIN_KEYS), TEXT)
    .map(" = ".join),
    st.sampled_from(sorted(TRAIN_KEYS))
    .flatmap(lambda key: unparsable_by(TRAIN_KEYS[key]).map(lambda value: f"{key} = {value}")),
    st.one_of(
        st.integers(max_value=0).map("batch_size = {}".format),
        st.integers(max_value=1).map("folds = {}".format),
        st.integers(max_value=-1).map("epochs = {}".format),
        st.sampled_from(["nan", "inf", "-1e-3"]).map("learning_rate = {}".format),
    ),
)
# comments and blank lines only: a later line with the bad line's key would replace it
NEUTRAL_LINES = st.lists(st.sampled_from(["", "  ", "# epochs = 1", "#seed=3"]), max_size=3)


def config_case(blob):
    return 3, [*TRAIN_ON_MISSING.split(), "--config", "{config}"], {"config": lambda base: blob}


def undecodable(blob):
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


BAD_CONFIGS = st.one_of(
    st.tuples(NEUTRAL_LINES, BAD_CONFIG_LINE, NEUTRAL_LINES)
    .map(lambda parts: "\n".join([*parts[0], parts[1], *parts[2]]).encode()),
    st.binary(min_size=1, max_size=16).filter(undecodable),
).map(config_case)


EVAL_ARGV = "eval --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca {pca}".split()
# the commands that read a checkpoint and a PCA file; noise-sweep's classical
# model is {checkpoint} and {pca}, its other two the trained cv and dv runs
MODEL_ARGVS = [
    EVAL_ARGV,
    "saliency --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca {pca} --indices 0".split(),
    ("noise-sweep --dataset toyset --archive {archive} --cv-checkpoint {cv_checkpoint} --cv-pca {cv_pca}"
     " --dv-checkpoint {dv_checkpoint} --dv-pca {dv_pca} --classical-checkpoint {checkpoint}"
     " --classical-pca {pca}").split(),
]


def truncated(offset, base):
    blob = Path(base["archive"]).read_bytes()
    return blob[: offset % len(blob)]


TRUNCATED_ARCHIVES = st.tuples(
    st.sampled_from([*MODEL_ARGVS, "pca-report --dataset toyset --archive {archive}".split()]),
    st.integers(min_value=0),
).map(lambda case: (2, case[0], {"archive": functools.partial(truncated, case[1])}))

FILE_KEYS = {
    "checkpoint": ("version", "kind", "num_classes", "circuit_params", "head_weights", "head_bias",
                   "feature_stats"),
    "pca": ("magic", "input_dim", "k", "mean", "components", "explained_variance_ratio"),
}
BAD_VALUES = [None, True, False, "x", [], {}, -1, 0.5, [float("nan")]]


def damaged(which, key, *value, base):
    """The checkpoint or PCA file with ``key`` dropped, or set to ``value``."""
    payload = json.loads(Path(base[which]).read_text())
    del payload[key]
    if value:
        payload[key] = value[0]
    return json.dumps(payload).encode()


def damaged_case(argv, which, key, value):
    return 2, argv, {which: functools.partial(damaged, which, key, *value)}


DAMAGED_FILES = st.tuples(
    st.sampled_from(MODEL_ARGVS),
    st.sampled_from(sorted(FILE_KEYS)).flatmap(
        lambda which: st.tuples(
            st.just(which),
            st.sampled_from(FILE_KEYS[which]),
            st.lists(st.sampled_from(BAD_VALUES), max_size=1),  # empty: the key is dropped
        )
    ),
).map(lambda case: damaged_case(case[0], *case[1]))

FOLD_HEADER = ["fold", "split", "acc", "p", "r", "f1"]


def fold_csv(rows, header=FOLD_HEADER):
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *rows])
    return buffer.getvalue().encode()


def val_rows(count):
    return [[fold, "val", 0.5, 0.4 + fold / 10, 0.5, 0.6 - fold / 20] for fold in range(count)]


def stats_case(blobs):
    """stats over three drawn fold_metrics.csv files."""
    names = ("classical", "dv", "cv")
    argv = ["stats"] + [token for name in names for token in (f"--{name}", f"{{{name}_csv}}")]
    return 2, argv, {f"{name}_csv": (lambda base, blob=blob: blob) for name, blob in zip(names, blobs)}


def with_cell(count, file, row, column, value):
    """Three files of ``count`` validation rows, one cell of one file replaced."""
    blobs = []
    for index in range(3):
        rows = val_rows(count)
        if index == file:
            rows[row % count][column] = value
        blobs.append(fold_csv(rows))
    return blobs


BAD_FOLD_METRICS = st.one_of(
    st.lists(st.integers(0, 4), min_size=3, max_size=3)  # counts that differ, or below 2
    .filter(lambda counts: len(set(counts)) > 1 or counts[0] < 2)
    .map(lambda counts: [fold_csv(val_rows(count)) for count in counts]),
    st.builds(
        with_cell, st.integers(2, 4), st.integers(0, 2), st.integers(0, 3), st.integers(2, 5),
        st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]) | unparsable_by(float),
    ),
    st.tuples(st.integers(0, 2), st.sampled_from(FOLD_HEADER[1:])).map(
        lambda case: [
            fold_csv(val_rows(3), [h for h in FOLD_HEADER if index != case[0] or h != case[1]])
            for index in range(3)
        ]
    ),
).map(stats_case)


def run_generated(archive, trained, template, writers) -> tuple[int, bool]:
    """The exit code of ``template`` run on files that ``writers`` make,
    and whether its fresh --out was left behind; no traceback is allowed.

    A writer makes the bytes of the file its name stands for from the valid
    files in ``base``.
    """
    checkpoint, pca_path = best_fold_paths(trained["classical"])
    base = {"archive": archive, "checkpoint": str(checkpoint), "pca": str(pca_path)}
    for kind in ("cv", "dv"):
        checkpoint, pca_path = best_fold_paths(trained[kind])
        base |= {f"{kind}_checkpoint": str(checkpoint), f"{kind}_pca": str(pca_path)}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        root = Path(tmp)
        files = base | {"missing_archive": str(root / "missing.npz"), "nope": str(root / "nope.csv")}
        for name, write in writers.items():
            files[name] = str(root / name)
            Path(files[name]).write_bytes(write(base=base))
        argv = [token.format(**files) for token in template]
        code = run_cli(*argv, "--out", str(root / "fresh" / "out"))
        left = (root / "fresh").exists()
    assert "Traceback" not in err.getvalue()
    return code, left


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(BAD_FLAGS, BAD_CONFIGS, TRUNCATED_ARCHIVES, DAMAGED_FILES, BAD_FOLD_METRICS))
def test_generated_bad_inputs_exit_with_documented_code(archive, trained, case):
    """Inputs invalid by construction exit 2 or 3, with no traceback and no --out left behind.

    Each case is (exit code, argv template, writers).
    """
    expected, template, writers = case
    assert run_generated(archive, trained, template, writers) == (expected, False)


EXTREMES = st.sampled_from([5e-324, 1e-320, 1e-300, 1e300, 1e308])
NUMBERS = st.floats() | EXTREMES | EXTREMES.map(lambda x: -x)  # any magnitude, subnormals included
STATS_LEAVES = st.one_of(NUMBERS, NUMBERS.map(repr), st.booleans(), st.none())  # repr: numeric strings
STATS_FIELDS = st.one_of(
    st.lists(NUMBERS, min_size=4, max_size=4),
    st.lists(st.floats(min_value=5e-324) | EXTREMES, min_size=4, max_size=4),  # positive, as a std must be
    st.lists(STATS_LEAVES, min_size=4, max_size=4),
    st.recursive(STATS_LEAVES, lambda inner: st.lists(inner, max_size=5), max_leaves=10),  # nested or ragged
)


def with_feature_stats(source, stats, base):
    payload = json.loads(Path(base[source]).read_text())
    payload["feature_stats"] = stats
    return json.dumps(payload).encode()


@settings(max_examples=60, deadline=None)
@given(
    argv=st.sampled_from(MODEL_ARGVS),
    kind=st.sampled_from(models.KINDS),
    stats=st.fixed_dictionaries({"mean": STATS_FIELDS, "std": STATS_FIELDS}),
)
def test_generated_feature_stats_exit_0_or_2(archive, trained, argv, kind, stats):
    """A trained checkpoint with drawn feature_stats: a run exits 0 or 2, with
    no traceback and, on 2, no --out left behind. A run that exits 0 scored
    only finite standardized features, logits, probabilities and logit
    gradients."""
    source = "checkpoint" if kind == "classical" else f"{kind}_checkpoint"
    target = source if argv[0] == "noise-sweep" else "checkpoint"  # noise-sweep's slot for the kind
    finite = []
    real_standardize, real_predict = models.standardize, models.predict_batch
    real_jacobian = models.logit_input_jacobian

    def standardize(model, features):
        z = real_standardize(model, features)
        finite.append(np.isfinite(z).all())
        return z

    def predict_batch(model, features):
        logits = real_predict(model, features)
        finite.append(np.isfinite(logits).all() and np.isfinite(models.softmax(logits)).all())
        return logits

    def logit_input_jacobian(model, features):
        jac = real_jacobian(model, features)
        finite.append(np.isfinite(jac).all())
        return jac

    writers = {target: functools.partial(with_feature_stats, source, stats)}
    with mock.patch.object(models, "standardize", standardize), \
            mock.patch.object(models, "predict_batch", predict_batch), \
            mock.patch.object(models, "logit_input_jacobian", logit_input_jacobian):
        code, left = run_generated(archive, trained, argv, writers)
    assert code in (0, 2)
    assert all(finite) if code == 0 else not left


def flipped(flips, base):
    raw = bytearray(Path(base["archive"]).read_bytes())
    for position, mask in flips:
        raw[position % len(raw)] ^= mask
    return bytes(raw)


@settings(max_examples=60, deadline=None)
@given(
    template=st.sampled_from([*MODEL_ARGVS, PCA_REPORT.split()]),
    flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), min_size=1, max_size=4),
)
def test_archive_with_flipped_bytes_exits_0_or_2(archive, trained, template, flips):
    """1-4 flipped bytes anywhere in the archive: a run succeeds, or it exits 2
    with no traceback and no --out left behind, whichever split it keeps."""
    code, left = run_generated(archive, trained, template, {"archive": functools.partial(flipped, flips)})
    assert code in (0, 2)
    assert code == 0 or not left
