"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.

Criteria 1-5 and the noise-degradation check reproduce published-table
numbers and therefore need the real archives (pneumoniamnist.npz,
breastmnist.npz, organamnist.npz) in $MEDQNN_DATA or ./data. The training
reproductions take hours, so they additionally require
MEDQNN_FULL_ACCEPTANCE=1. The property suite and the determinism check
run unconditionally on synthetic data in under a minute.
"""

import functools
import itertools
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from medqnn import cli, data, gaussian, metrics, models, pca
from medqnn import statevector as sv
from medqnn import stats, training
from medqnn.rng import Rng, normal_field

from conftest import write_archive

DATA_DIR = Path(os.environ.get("MEDQNN_DATA", Path(__file__).resolve().parent.parent / "data"))
FULL = os.environ.get("MEDQNN_FULL_ACCEPTANCE") == "1"

PCA_VARIANCE_TARGETS = {"pneumoniamnist": 0.60, "breastmnist": 0.60, "organamnist": 0.48}

# Published test-set micro accuracy per dataset and model kind, with the
# absolute tolerance each reproduction must meet.
ACC_TARGETS = {
    "pneumoniamnist": ({"cv": 0.8429, "dv": 0.8526, "classical": 0.8542}, 0.05),
    "breastmnist": ({"cv": 0.7564, "dv": 0.7372, "classical": 0.7628}, 0.07),
    "organamnist": ({"cv": 0.4563, "dv": 0.3915, "classical": 0.4737}, 0.07),
}
PNEUMONIA_AUROC, PNEUMONIA_AUPRC, AREA_TOL = 0.92, 0.93, 0.04

REPRO_SEED = 7
ORGAN_ORDERING_SEEDS = (7, 8, 9)


def archive_path(name: str) -> Path:
    return DATA_DIR / f"{name}.npz"


def needs_archive(name: str):
    path = archive_path(name)
    if not path.exists():
        pytest.skip(f"real archive {path} not present; place MedMNIST archives in {DATA_DIR}")
    return path


def needs_full_run():
    if not FULL:
        pytest.skip("multi-hour reproduction; set MEDQNN_FULL_ACCEPTANCE=1 to run")


def report(criterion: str):
    print(f"[ACCEPTANCE] {criterion}: PASS")


@functools.lru_cache(maxsize=None)
def reproduce(dataset_name: str, kind: str, seed: int):
    """Full paper-protocol training plus best-fold test evaluation."""
    splits = data.load_archive(archive_path(dataset_name), dataset_name)
    train_split, _, test_split = splits
    config = training.TrainConfig(seed=seed)
    result = training.cross_validate(
        kind, train_split.flat_images(), train_split.labels, train_split.num_classes, config
    )
    best = result.folds[result.best_fold_index]
    features = pca.transform(best.pca_model, test_split.flat_images())
    logits = models.predict_batch(best.model, features)
    probs = models.softmax(logits)
    cm = metrics.confusion_matrix(test_split.labels, logits.argmax(axis=1), test_split.num_classes)
    acc, _, _, f1 = metrics.micro_metrics(cm)
    if test_split.num_classes == 2:
        auroc = metrics.roc_curve(probs[:, 1], test_split.labels).area
        auprc = metrics.pr_curve(probs[:, 1], test_split.labels).area
    else:
        areas = metrics.ovr_areas(probs, test_split.labels)
        auroc, auprc = areas["auroc_mean"], areas["auprc_mean"]
    fold_f1 = [f.val_metrics["f1"] for f in result.folds]
    return {
        "acc": acc,
        "f1": f1,
        "auroc": auroc,
        "auprc": auprc,
        "fold_f1": fold_f1,
        "best": best,
    }


# --- criterion 1: PCA explained variance ------------------------------------

@pytest.mark.parametrize("dataset_name", sorted(PCA_VARIANCE_TARGETS))
def test_criterion_1_pca_variance(dataset_name):
    path = needs_archive(dataset_name)
    train_split = data.load_archive(path, dataset_name)[0]
    model = pca.fit(train_split.flat_images(), 4)
    cumulative = float(model.explained_variance_ratio.sum())
    target = PCA_VARIANCE_TARGETS[dataset_name]
    assert abs(cumulative - target) <= 0.05, (
        f"{dataset_name}: cumulative variance {cumulative:.4f}, expected {target} +/- 0.05"
    )
    report(f"criterion 1, PCA variance on {dataset_name} ({cumulative:.4f} ~ {target})")


# --- criteria 2-4: test-set reproduction ------------------------------------

@pytest.mark.fullrun
@pytest.mark.parametrize("dataset_name", ["pneumoniamnist", "breastmnist", "organamnist"])
def test_criteria_2_to_4_accuracy_reproduction(dataset_name):
    needs_archive(dataset_name)
    needs_full_run()
    targets, tolerance = ACC_TARGETS[dataset_name]
    for kind, target in targets.items():
        outcome = reproduce(dataset_name, kind, REPRO_SEED)
        assert abs(outcome["acc"] - target) <= tolerance, (
            f"{dataset_name}/{kind}: acc {outcome['acc']:.4f}, expected {target} +/- {tolerance}"
        )
        if dataset_name == "pneumoniamnist":
            assert abs(outcome["auroc"] - PNEUMONIA_AUROC) <= AREA_TOL
            assert abs(outcome["auprc"] - PNEUMONIA_AUPRC) <= AREA_TOL
    report(f"criteria 2-4, test accuracy reproduction on {dataset_name}")


@pytest.mark.fullrun
def test_criterion_4_cv_beats_dv_on_organ():
    needs_archive("organamnist")
    needs_full_run()
    wins = 0
    for seed in ORGAN_ORDERING_SEEDS:
        cv_f1 = reproduce("organamnist", "cv", seed)["f1"]
        dv_f1 = reproduce("organamnist", "dv", seed)["f1"]
        wins += cv_f1 > dv_f1
    assert wins >= 2, f"CV beat DV on micro-F1 in only {wins} of 3 seeds"
    report(f"criterion 4, CV > DV ordering on organamnist ({wins}/3 seeds)")


# --- criterion 5: hypothesis tests retain H0 ----------------------------------

@pytest.mark.fullrun
@pytest.mark.parametrize("dataset_name", ["pneumoniamnist", "breastmnist", "organamnist"])
def test_criterion_5_statistics_retain_h0(dataset_name):
    needs_archive(dataset_name)
    needs_full_run()
    scores = {
        label: np.array(reproduce(dataset_name, kind, REPRO_SEED)["fold_f1"])
        for label, kind in (("C", "classical"), ("DV", "dv"), ("CV", "cv"))
    }
    comparison = stats.compare_models(scores)
    assert comparison["alpha_corrected"] == pytest.approx(0.05 / 3)
    assert comparison["friedman_p"] >= 0.05, f"Friedman rejected H0: p={comparison['friedman_p']}"
    for name, pair in comparison["pairwise"].items():
        assert pair["p"] >= comparison["alpha_corrected"], (
            f"{name} rejected H0 at corrected alpha: p={pair['p']}"
        )
    report(f"criterion 5, H0 retained for all tests on {dataset_name}")


# --- criterion 6: the property suite (no datasets needed) ----------------------

class TestCriterion6Properties:
    def test_symplectic_identity_over_1000_stacks(self):
        rng = Rng(60)
        omega = gaussian.symplectic_form(4)
        worst = 0.0
        for _ in range(1000):
            total = np.eye(8)
            for _ in range(8):
                kind = rng.integer(3)
                if kind == 0:
                    total = gaussian.rotation_symplectic(4, rng.integer(4), rng.uniform(-2, 2)) @ total
                elif kind == 1:
                    total = gaussian.squeeze_symplectic(4, rng.integer(4), rng.uniform(-2, 2)) @ total
                else:
                    a = rng.integer(4)
                    b = (a + 1 + rng.integer(3)) % 4
                    total = gaussian.beamsplitter_symplectic(
                        4, a, b, rng.uniform(-2, 2), rng.uniform(-2, 2)
                    ) @ total
            worst = max(worst, np.abs(total @ omega @ total.T - omega).max())
        assert worst < 1e-10
        report(f"criterion 6a, symplectic identity over 1000 gate stacks (max dev {worst:.2e})")

    def test_statevector_norm_drift_over_1000_circuits(self):
        rng = Rng(61)
        worst = 0.0
        for _ in range(1000):
            amps = sv.run_circuit(sv.Circuit(4), np.zeros(0), np.zeros(0))
            for _ in range(12):
                kind = rng.integer(3)
                if kind == 0:
                    mat = sv.rotation(sv.GENERATORS["ry"], rng.uniform(-np.pi, np.pi))
                    amps = sv.apply_1q_array(amps, mat, rng.integer(4))
                elif kind == 1:
                    mat = sv.rotation(sv.GENERATORS["rz"], rng.uniform(-np.pi, np.pi))
                    amps = sv.apply_1q_array(amps, mat, rng.integer(4))
                else:
                    c = rng.integer(4)
                    t = (c + 1 + rng.integer(3)) % 4
                    amps = amps[sv.cnot_permutation(4, c, t)]
            worst = max(worst, abs(np.sum(np.abs(amps) ** 2) - 1.0))
        assert worst < 1e-12
        report(f"criterion 6b, norm drift over 1000 circuits (max {worst:.2e})")

    def test_compiled_block_unitary_over_1000_circuits(self):
        # the block the CLI runs, compiled from random encoded circuits
        from test_statevector import encoded_random_circuit

        rng = Rng(65)
        worst = 0.0
        for _ in range(1000):
            circuit = encoded_random_circuit(rng, 4, 12)
            params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(circuit.num_params())])
            u = sv.compile_block(circuit, params).transfer
            worst = max(worst, np.abs(u @ u.conj().T - np.eye(16)).max())
        assert worst < 1e-12
        report(f"criterion 6b, compiled block unitary over 1000 circuits (max dev {worst:.2e})")

    def test_parameter_shift_vs_finite_difference_100_points(self):
        # every trainable parameter of the production circuit, at 100
        # random points in parameter space, each with its own input
        circuit = models.build_dv_circuit()
        rng = Rng(62)
        eps = 1e-5
        worst = 0.0
        for _ in range(100):
            params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(32)])
            inputs, _ = models.dv_encoding(np.array([rng.uniform(-1, 1) for _ in range(4)]))
            exact = sv.param_shift_grad_all(circuit, params, inputs)
            for index in range(32):
                up, down = params.copy(), params.copy()
                up[index] += eps
                down[index] -= eps
                fd = (
                    sv.circuit_expectations(circuit, up, inputs)
                    - sv.circuit_expectations(circuit, down, inputs)
                ) / (2 * eps)
                worst = max(worst, np.abs(exact[index] - fd).max())
        assert worst < 1e-6
        report(
            f"criterion 6c, shift rule vs finite differences at 100 parameter points "
            f"(max dev {worst:.2e})"
        )

    def test_adjoint_grad_vs_finite_difference_100_points(self):
        # the production circuit's compiled block, at 100 random parameter
        # points, each with its own inputs and per-row output weights
        circuit = models.build_dv_circuit()
        rng = Rng(66)
        eps = 1e-5
        worst = 0.0
        for _ in range(100):
            params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(32)])
            z = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)])
            c = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)])
            states = sv.ry_product_state(models.dv_encoding(z)[0])
            weights = np.einsum("mq,mi,mj->qij", c, states, states)
            exact = sv.block_adjoint_grad(sv.compile_block(circuit, params), weights)
            for index in range(32):
                up, down = params.copy(), params.copy()
                up[index] += eps
                down[index] -= eps
                fd = np.sum(
                    c * (
                        sv.block_expectations(sv.compile_block(circuit, up), states)
                        - sv.block_expectations(sv.compile_block(circuit, down), states)
                    )
                ) / (2 * eps)
                worst = max(worst, abs(exact[index] - fd))
        assert worst < 1e-6
        report(
            f"criterion 6c, adjoint gradient vs finite differences at 100 parameter points "
            f"(max dev {worst:.2e})"
        )

    @pytest.mark.parametrize("kind", ["cv", "classical"])
    def test_gradients_vs_oracle_100_configurations(self, kind):
        from test_models import fd_loss_gradient

        rng = Rng(63)
        worst = 0.0
        for trial in range(100):
            model = models.init_model(kind, 2, Rng(5000 + trial))
            features = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)])
            labels = np.array([rng.integer(2) for _ in range(3)])
            _, grad, _ = models.loss_and_grad(model, features, labels)
            oracle = fd_loss_gradient(model, features, labels)
            scale = max(np.abs(oracle).max(), 1e-8)
            worst = max(worst, np.abs(grad - oracle).max() / scale)
        assert worst < 1e-4
        report(f"criterion 6d, {kind} gradient vs oracle over 100 configurations (max rel {worst:.2e})")

    def test_micro_identity_over_1000_matrices(self):
        rng = np.random.default_rng(64)
        checked = 0
        while checked < 1000:
            size = int(rng.integers(2, 12))
            counts = rng.integers(0, 30, size=(size, size))
            if counts.sum() == 0:
                continue
            acc, p, r, f1 = metrics.micro_metrics(counts)
            assert acc == p == r == f1
            checked += 1
        report("criterion 6e, micro ACC=P=R=F1 identity over 1000 matrices")

    def test_auroc_complement_identity(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            scores = rng.uniform(0, 1, 150)
            truth = rng.integers(0, 2, 150)
            if truth.sum() in (0, 150):
                continue
            total = metrics.roc_curve(scores, truth).area + metrics.roc_curve(1 - scores, truth).area
            assert total == pytest.approx(1.0, abs=1e-12)
        report("criterion 6f, AUROC complement identity")

    def test_wilcoxon_matches_enumeration_for_all_small_n(self):
        rng = np.random.default_rng(66)
        for n in range(1, 11):
            for _ in range(5):
                a = rng.normal(size=n)
                b = rng.normal(size=n)
                w, p = stats.wilcoxon_signed_rank(a, b)
                ow, op = _enumeration_oracle(a, b)
                assert (w, p) == (ow, op)
        report("criterion 6g, exact Wilcoxon matches enumeration for n <= 10")

    def test_friedman_closed_form_case(self):
        scores = np.array([[3.0, 3.1, 3.2], [2.0, 2.1, 2.2], [1.0, 1.1, 1.2]])
        chi2, p = stats.friedman_test(scores)
        assert chi2 == pytest.approx(6.0, abs=1e-12)
        assert p == pytest.approx(np.exp(-3.0), abs=1e-12)
        report("criterion 6h, Friedman chi2=6 gives p=e^-3")

    def test_pca_orthonormality_and_idempotence(self):
        rng = np.random.default_rng(67)
        images = rng.uniform(0, 1, size=(90, 64))
        model = pca.fit(images, 4)
        np.testing.assert_allclose(model.components @ model.components.T, np.eye(4), atol=1e-8)
        image = rng.uniform(0, 1, 64)
        once = pca.inverse_transform(model, pca.transform(model, image))
        twice = pca.inverse_transform(model, pca.transform(model, once))
        np.testing.assert_allclose(twice, once, atol=1e-10)
        report("criterion 6i, PCA orthonormality and projector idempotence")


def _enumeration_oracle(a, b):
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 0.0, 1.0
    order = np.argsort(np.abs(diffs), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diffs)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1
        i = j + 1
    total = ranks.sum()
    observed = min(ranks[diffs > 0].sum(), total - ranks[diffs > 0].sum())
    count = sum(
        1
        for signs in itertools.product((1, -1), repeat=n)
        if min(
            sum(r for r, s in zip(ranks, signs) if s > 0),
            total - sum(r for r, s in zip(ranks, signs) if s > 0),
        )
        <= observed + 1e-12
    )
    return observed, count / 2**n


# --- criterion 7: byte-identical reruns --------------------------------------

def test_criterion_7_training_determinism(tmp_path):
    archive = write_archive(tmp_path / "det.npz", m_train=48, m_val=12, m_test=12, seed=1)
    payloads = []
    for run in ("one", "two"):
        out = tmp_path / run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([
                "train", "--archive", str(archive), "--dataset", "toyset",
                "--model", "classical", "--out", str(out),
                "--seed", "13", "--epochs", "2",
            ])
        assert code == 0
        payloads.append((out / "metrics.json").read_bytes())
    assert payloads[0] == payloads[1]
    report("criterion 7, rerun with equal seed is byte-identical")


# --- noise robustness substitute ------------------------------------------

@pytest.mark.fullrun
def test_noise_degradation_on_pneumonia(tmp_path):
    needs_archive("pneumoniamnist")
    needs_full_run()
    splits = data.load_archive(archive_path("pneumoniamnist"), "pneumoniamnist")
    test_split = splits[2]
    grid = data.noise_sweep_grid()
    for kind in models.KINDS:
        best = reproduce("pneumoniamnist", kind, REPRO_SEED)["best"]
        f1_by_sigma = {}
        noise = normal_field(data.noise_seeds(len(test_split), 99), data.NUM_PIXELS)
        for sigma in grid:
            noisy = data.inject_gaussian_noise(test_split.flat_images(), sigma, noise)
            feats = pca.transform(best.pca_model, noisy)
            logits = models.predict_batch(best.model, feats)
            cm = metrics.confusion_matrix(test_split.labels, logits.argmax(axis=1), 2)
            f1_by_sigma[sigma] = metrics.micro_metrics(cm)[3]
        clean = reproduce("pneumoniamnist", kind, REPRO_SEED)["f1"]
        assert f1_by_sigma[0.0] == clean
        low = np.mean([f1 for s, f1 in f1_by_sigma.items() if s <= 0.3])
        high = np.mean([f1 for s, f1 in f1_by_sigma.items() if 0.5 <= s <= 1.0])
        assert high < low, f"{kind}: mean F1 did not degrade ({high} vs {low})"
    report("noise substitute, F1 degrades from low to high noise on pneumoniamnist")
