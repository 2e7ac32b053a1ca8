"""The benchmark's workloads: archives, prepared inputs, commands, output checks.

Each workload is a fixed sequence of ``medqnn`` commands (a pass). Archives
come from ``write_archive`` in the test suite's ``conftest.py``, loaded by
path so that the benchmark and the tests share one generator.

``pneumonia-analyze`` draws its archive, its prepared models and the
program's ``--seed`` from the benchmark seed. The ``training`` workload
keeps its two archives and its program seed (``TRAINING_SEED``) whatever
the benchmark seed: ``pca.fit`` iterates until a residual test passes, and
the number of iterations follows the sample spectrum of each fold. Over
five seeds it ranged from 1,148 to the 5,000-iteration cap per fold on the
pneumonia archive and from 110 to 1,351 on the organ archive, which would
move a training pass by more than any bound the benchmark could keep.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("cv", "dv", "classical")
TRAINING_SEED = 0
# The paper's optimiser settings with one epoch, so a training pass fits
# the run budget; per-epoch cost is reported by the traced run.
TRAIN_FLAGS = ("--epochs", "1", "--folds", "3", "--learning-rate", "0.001")
# The seed program reaches a mean val F1 of 0.958 here (folds 1.0, 1.0 and
# 0.874 after one epoch); a broken classical path lands near 0.5 on this
# separable archive.
CLASSICAL_F1_FLOOR = 0.9
SALIENCY_INDICES = ",".join(str(i) for i in range(0, 624, 20))


@dataclass(frozen=True)
class ArchiveSpec:
    dataset: str
    m_train: int
    m_val: int
    m_test: int
    num_classes: int


# PneumoniaMNIST's split sizes, so load_archive's count check applies.
PNEUMONIA = ArchiveSpec("pneumoniamnist", 4708, 524, 624, 2)
# OrganAMNIST scaled down, test still about half of train as in the real set.
ORGAN = ArchiveSpec("organamnist", 1200, 225, 600, 11)


@dataclass(frozen=True)
class Command:
    name: str  # unique within a pass; also its output directory
    metric: str | None  # end-to-end metric its time adds to
    argv: tuple[str, ...]
    f1_floor: float | None = None  # lower bound on the mean validation F1


@dataclass
class Plan:
    archive: Path
    dataset: str
    prepare: Callable[[], list[dict]]  # writes the inputs, returns archive records
    commands: Callable[[Path], list[Command]]  # the pass writing under a directory
    warm_up: bool  # run one untimed pass before the timed ones


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_archive(spec: ArchiveSpec, seed: int, path: Path) -> dict:
    loader = importlib.util.spec_from_file_location("medqnn_tests_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(conftest)
    conftest.write_archive(
        path, m_train=spec.m_train, m_val=spec.m_val, m_test=spec.m_test,
        num_classes=spec.num_classes, seed=seed,
    )
    return {
        "name": path.name, "dataset": spec.dataset, "generator_seed": seed,
        "sha256": sha256_of(path), "bytes": path.stat().st_size,
        "train": spec.m_train, "val": spec.m_val, "test": spec.m_test,
        "num_classes": spec.num_classes,
    }


def _source(spec: ArchiveSpec, archive: Path) -> tuple[str, ...]:
    return ("--archive", str(archive), "--dataset", spec.dataset)


def _train(kind: str, source, batch_size: int, out: Path, name: str, f1_floor=None) -> Command:
    argv = ("train", *source, "--model", kind, *TRAIN_FLAGS, "--batch-size", str(batch_size),
            "--seed", str(TRAINING_SEED), "--out", str(out))
    return Command(f"{name}_{kind}", f"{name}_{kind}_s", argv, f1_floor)


def _plan_training(seed: int, work: Path) -> Plan:
    binary, multiclass = work / "pneumonia.npz", work / "organ.npz"
    pneumonia, organ = _source(PNEUMONIA, binary), _source(ORGAN, multiclass)

    def prepare() -> list[dict]:
        return [write_archive(PNEUMONIA, TRAINING_SEED, binary), write_archive(ORGAN, TRAINING_SEED, multiclass)]

    def commands(out: Path) -> list[Command]:
        trains = [
            _train(kind, pneumonia, 32, out / f"train_{kind}", "train",
                   CLASSICAL_F1_FLOOR if kind == "classical" else None)
            for kind in KINDS
        ]
        trains += [_train(kind, organ, 128, out / f"multiclass_train_{kind}", "multiclass_train") for kind in KINDS]
        evals = [
            Command(f"multiclass_eval_{kind}", "multiclass_eval_s", (
                "eval", *organ, "--checkpoint", str(out / f"multiclass_train_{kind}" / "model_fold0.json"),
                "--pca", str(out / f"multiclass_train_{kind}" / "pca_fold0.json"), "--split", "test",
                "--out", str(out / f"multiclass_eval_{kind}"),
            ))
            for kind in KINDS
        ]
        report = Command("pca_report", "pca_report_s", (
            "pca-report", *organ, "--k", "8", "--out", str(out / "pca_report"),
        ))
        return trains + evals + [report]

    # One pass outlasts any warm-up the run budget allows; its first command's
    # cold start is small against its length.
    return Plan(binary, PNEUMONIA.dataset, prepare, commands, warm_up=False)


def _prepare_analyze(archive: Path, seed: int, inputs: Path) -> None:
    """Checkpoints, PCA file and fold metrics made without the training loop."""
    from medqnn import data, models, pca
    from medqnn.rng import Rng, substream_seed

    inputs.mkdir()
    train = data.load_archive(archive, PNEUMONIA.dataset)[0]
    images = train.flat_images()
    # A subset keeps preparing quick; the fitted basis only has to be valid.
    pca_model = pca.fit(images[:1000], 4)
    pca.save(pca_model, inputs / "pca.json")
    features = pca.transform(pca_model, images)
    for index, kind in enumerate(KINDS):
        rng = Rng(substream_seed(seed, index))
        model = models.init_model(kind, train.num_classes, rng, features.mean(axis=0), features.std(axis=0))
        models.save_checkpoint(model, inputs / f"model_{kind}.json")
        with open(inputs / f"fold_metrics_{kind}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["fold", "split", "acc", "p", "r", "f1"])
            for fold in range(3):
                for split in ("train", "val"):
                    writer.writerow([fold, split] + [repr(rng.uniform(0.6, 1.0)) for _ in range(4)])


def _plan_pneumonia_analyze(seed: int, work: Path) -> Plan:
    archive = work / "pneumonia.npz"
    inputs = work / "inputs"

    def prepare() -> list[dict]:
        info = write_archive(PNEUMONIA, seed, archive)
        _prepare_analyze(archive, seed, inputs)
        return [info]

    source = _source(PNEUMONIA, archive)
    program_seed = ("--seed", str(seed))

    def commands(out: Path) -> list[Command]:
        evals = [
            Command(f"eval_{kind}", "eval_s", (
                "eval", *source, "--checkpoint", str(inputs / f"model_{kind}.json"),
                "--pca", str(inputs / "pca.json"), "--split", "test", "--out", str(out / f"eval_{kind}"),
            ))
            for kind in KINDS
        ]
        models = []
        for kind in KINDS:
            models += [f"--{kind}-checkpoint", str(inputs / f"model_{kind}.json"),
                       f"--{kind}-pca", str(inputs / "pca.json")]
        sweep = Command("noise_sweep", "noise_sweep_s", (
            "noise-sweep", *source, *models, *program_seed, "--out", str(out / "noise_sweep"),
        ))
        maps = [
            Command(f"saliency_{kind}", "saliency_s", (
                "saliency", *source, "--checkpoint", str(inputs / f"model_{kind}.json"),
                "--pca", str(inputs / "pca.json"), "--split", "test", "--indices", SALIENCY_INDICES,
                "--signed", "--out", str(out / f"saliency_{kind}"),
            ))
            for kind in KINDS
        ]
        stats = Command("stats", None, (
            "stats", *(a for kind in ("classical", "dv", "cv")
                       for a in (f"--{kind}", str(inputs / f"fold_metrics_{kind}.csv"))),
            "--out", str(out / "stats"),
        ))
        return evals + [sweep] + maps + [stats]

    return Plan(archive, PNEUMONIA.dataset, prepare, commands, warm_up=True)


WORKLOADS = {
    "training": _plan_training,
    "pneumonia-analyze": _plan_pneumonia_analyze,
}


# --- output checks -------------------------------------------------------------

def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def _check_metrics_json(payload: dict, f1_floor: float | None) -> list[str]:
    values = [v for fold in payload["folds"] for split in ("train", "val") for v in fold[split].values()]
    values += [v for entry in payload["summary"].values() for v in entry.values()]
    problems = [] if all(_unit_interval(v) for v in values) else ["metrics.json value outside [0, 1]"]
    val_f1 = payload["summary"]["val_f1"]["mean"]
    if f1_floor is not None and not val_f1 >= f1_floor:
        problems.append(f"mean val F1 {val_f1!r} below floor {f1_floor}")
    return problems


def _check_eval_json(payload: dict) -> list[str]:
    values = [payload[k] for k in ("acc", "precision", "recall", "f1", "auroc", "auprc")]
    values += payload.get("auroc_per_class", []) + payload.get("auprc_per_class", [])
    if "pr_baseline" in payload:
        values.append(payload["pr_baseline"])
    return [] if all(_unit_interval(v) for v in values) else ["eval.json value outside [0, 1]"]


def _check_noise_sweep(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    problems = [] if len(rows) == 20 * len(KINDS) else [f"noise_sweep.csv has {len(rows)} rows"]
    if not all(_unit_interval(float(row["f1"])) for row in rows):
        problems.append("noise_sweep.csv F1 outside [0, 1]")
    return problems


def check_outputs(command: Command, out: Path) -> list[str]:
    """Problems with a finished command's output directory; empty when fine."""
    problems = []
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        problems += [f"missing artifact {n}" for n in manifest["artifacts"] if not (out / n).is_file()]
        if (out / "metrics.json").is_file():
            payload = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
            problems += _check_metrics_json(payload, command.f1_floor)
        if (out / "eval.json").is_file():
            problems += _check_eval_json(json.loads((out / "eval.json").read_text(encoding="utf-8")))
        if (out / "noise_sweep.csv").is_file():
            problems += _check_noise_sweep(out / "noise_sweep.csv")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"missing or malformed result file: {exc!r}")
    return problems


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact except the manifest, which holds timestamps."""
    return {
        str(path.relative_to(out)): sha256_of(path)
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


if __name__ == "__main__":
    # workloads.py NAME SEED WORKDIR writes a workload's inputs and archive
    # records. The benchmark runs it as a child so that its own process stays
    # small: a child's peak RSS counts the memory of the process it forked from.
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    records = WORKLOADS[name](seed, work).prepare()
    (work / "archives.json").write_text(json.dumps(records), encoding="utf-8")
