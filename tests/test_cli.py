import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from medqnn import cli, models, pca
from medqnn.rng import Rng

from conftest import make_class_images, write_archive


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
                assert len(payload["logits"]) == 2
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


def bad_input_files(tmp_path, archive, trained):
    """Every file the bad-input table names, keyed by its placeholder."""
    checkpoint, pca_path = best_fold_paths(trained["classical"])
    files = {"archive": archive, "checkpoint": str(checkpoint), "pca": str(pca_path)}
    damages = {
        "no_stats": lambda d: d.pop("feature_stats"),
        "short_circuit": lambda d: d["circuit_params"].pop(),
        "nan_weight": lambda d: d["head_weights"][1].__setitem__(2, float("nan")),
    }
    for name, damage in damages.items():
        payload = json.loads(checkpoint.read_text())
        damage(payload)
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    pca_damages = {
        "pca_no_k": lambda d: d.pop("k"),
        "pca_short_mean": lambda d: d["mean"].pop(),
        "pca_k3": lambda d: d.__setitem__("k", 3),  # beside 4 components
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
        "epochs_cfg": "epochs = 3\n",
        "seed_cfg": "seed = 7\n",
    }
    for name, text in configs.items():
        files[name] = str(tmp_path / f"{name}.cfg")
        (tmp_path / f"{name}.cfg").write_text(text)
    files["corrupt"] = str(tmp_path / "corrupt.npz")
    (tmp_path / "corrupt.npz").write_bytes(b"PK\x03\x04 this is not a zip archive")
    files["latin1_cfg"] = str(tmp_path / "latin1.cfg")
    (tmp_path / "latin1.cfg").write_bytes("seed = 7  # \u00e9\n".encode("latin-1"))
    files["nope"] = str(tmp_path / "nope.csv")
    files["a_dir"] = str(tmp_path)
    files["missing_archive"] = str(tmp_path / "missing.npz")
    rng = np.random.default_rng(8)
    arrays = {}
    for split, m, classes in (("train", 40, 2), ("val", 10, 2), ("test", 10, 1)):
        images, labels = make_class_images(m, classes, rng, balanced=True)
        arrays[f"{split}_images"], arrays[f"{split}_labels"] = images, labels.reshape(-1, 1)
    files["one_class"] = str(tmp_path / "one_class.npz")
    np.savez(files["one_class"], **arrays)
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
    ("removed --pca-components", 3, f"{TRAIN} --model dv --pca-components 8"),
    ("threads in config file", 3, f"{TRAIN} --model dv --config {{threads_cfg}}"),
    ("nan learning rate in config file", 3, f"{TRAIN} --model dv --config {{nan_cfg}}"),
    ("pca_components in train config file", 3, f"{TRAIN} --model dv --config {{pca_cfg}}"),
    ("epochs in eval config file", 3, f"{EVAL} --checkpoint {{checkpoint}} --config {{epochs_cfg}}"),
    ("corrupt archive", 2, "train --dataset toyset --archive {corrupt} --model dv"),
    ("classical overflow", 4, f"{TRAIN} --model classical --learning-rate 1e308 --epochs 1"),
    ("squeeze overflow", 4, f"{TRAIN} --model cv --learning-rate 1e308 --epochs 1"),
    ("checkpoint without feature_stats", 2, f"{EVAL} --checkpoint {{no_stats}}"),
    ("checkpoint with 31 circuit params", 2, f"{EVAL} --checkpoint {{short_circuit}}"),
    ("checkpoint with a nan weight", 2, f"{EVAL} --checkpoint {{nan_weight}}"),
    ("PCA file without k", 2, f"{EVAL_WITH_PCA} {{pca_no_k}}"),
    ("PCA file with a short mean", 2, f"{EVAL_WITH_PCA} {{pca_short_mean}}"),
    ("PCA file holding a JSON list", 2, f"{EVAL_WITH_PCA} {{pca_list}}"),
    ("PCA file with k 3 beside 4 components", 2, f"{EVAL_WITH_PCA} {{pca_k3}}"),
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
    ("out-of-range --indices", 2, f"{SALIENCY} --indices 0,9999"),
    ("binary test split with one class", 2,
     "eval --dataset toyset --archive {one_class} --checkpoint {checkpoint} --pca {pca}"),
    ("pca-report --k 0", 3, f"{PCA_REPORT} --k 0"),
    ("pca-report --k 0 with a missing archive", 3,
     "pca-report --dataset toyset --archive {missing_archive} --k 0"),
    ("pca-report --k above the pixel count", 3, f"{PCA_REPORT} --k 785"),
    ("missing fold metrics", 2, "stats --classical {nope} --dv {nope} --cv {nope}"),
    ("stats --alpha 1.5", 3, f"{STATS} --alpha 1.5"),
    ("stats --alpha 0", 3, f"{STATS} --alpha 0"),
    ("stats --alpha nan", 3, f"{STATS} --alpha nan"),
    ("removed eval --seed", 3, f"{EVAL} --checkpoint {{checkpoint}} --seed 1"),
    ("removed saliency --seed", 3, f"{SALIENCY} --indices 0 --seed 1"),
    ("removed stats --seed", 3, f"{STATS} --seed 1"),
    ("removed pca-report --seed", 3, f"{PCA_REPORT} --seed 1"),
    ("seed in eval config file", 3, f"{EVAL} --checkpoint {{checkpoint}} --config {{seed_cfg}}"),
    ("seed in saliency config file", 3, f"{SALIENCY} --indices 0 --config {{seed_cfg}}"),
    ("seed in stats config file", 3, f"{STATS} --config {{seed_cfg}}"),
    ("seed in pca-report config file", 3, f"{PCA_REPORT} --config {{seed_cfg}}"),
    ("--out naming a file", 3, f"{STATS} --out {{seed_cfg}}"),
    ("--out under a file", 3, f"{PCA_REPORT} --out {{seed_cfg}}/out"),
    ("--dump-state in a missing directory", 3,
     f"{EVAL} --checkpoint {{checkpoint}} --dump-state {{nope}}/state.json"),
    ("non-UTF-8 config file", 3, f"{TRAIN} --model dv --config {{latin1_cfg}}"),
    ("missing --checksums manifest", 2, f"{TRAIN} --model dv --checksums {{nope}}"),
    ("--checksums naming a directory", 2, f"{TRAIN} --model dv --checksums {{a_dir}}"),
    ("non-UTF-8 --checksums manifest", 2, f"{TRAIN} --model dv --checksums {{latin1_cfg}}"),
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


FAILING_COMMANDS = [  # (case, exit code, argv template); each fails after its arguments parse
    ("data error", 2,
     "eval --dataset toyset --archive {missing_archive} --checkpoint {checkpoint} --pca {pca}"),
    ("config error", 3, "pca-report --dataset toyset --archive {missing_archive} --k 0"),
    ("stats --alpha 1.5", 3, f"{STATS} --alpha 1.5"),
    ("saliency with a missing checkpoint", 2,
     "saliency --dataset toyset --archive {archive} --checkpoint {nope} --pca {pca} --indices 0"),
    ("eval with a missing PCA file", 2,
     "eval --dataset toyset --archive {archive} --checkpoint {checkpoint} --pca {nope}"),
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
