"""Command-line harness for every experiment.

Subcommands: train, eval, noise-sweep, saliency, stats, pca-report.
Machine-readable results go to files only; stderr carries timestamped
progress lines. Exit codes: 0 success, 2 data error, 3 config error,
4 numeric failure.

Every command writes a manifest.json into its output directory last and
atomically, naming the effective configuration, the seed (null for the
commands that draw no random number and so take no --seed), sha256 of
each input archive, and every artifact it produced, so a run can be
repeated exactly. Flags win over the optional "key = value" --config
file, which wins over built-in defaults and may set only its command's
flags; eval, saliency and stats have none to set and take no --config.
Reruns with the same seed and inputs produce byte-identical result files
(manifests differ only in timestamps) at a fixed BLAS thread count.

The process exits as soon as its last file is closed and its manifest is
in place, without interpreter finalization (``run``); called in process,
``main`` returns the exit code instead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# metrics, training, saliency and stats are imported by the commands that
# use them, so no command loads (and, without cached bytecode, compiles)
# the others.
from . import data, models, pca, rng
from .errors import ConfigError, DataError, NumericError, UndefinedMetric

_CONFIG_DEFAULTS = {
    "seed": 0,
    "epochs": 50,
    "batch_size": 32,
    "learning_rate": 1e-3,
    "folds": 3,
    "pca_components": 4,  # pca-report --k; train always fits models.NUM_MODES
}

# stats' model order, which fixes its pair order: C-DV, C-CV, DV-CV
_MODEL_LABELS = {"classical": "C", "dv": "DV", "cv": "CV"}

def log(message: str) -> None:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    print(f"[{stamp}] {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)

    def _get_values(self, action, arg_strings):
        # Some argparse versions (Python 3.11's among them) drop a "--" given
        # as an option's value (--epochs=--) and pass the option an empty list.
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_config(args) -> dict:
    """defaults < config file < explicit flags, over the keys the command has flags for."""
    effective = {k: v for k, v in _CONFIG_DEFAULTS.items() if hasattr(args, k)}
    file_values = _load_config_file(getattr(args, "config", None))
    for key, raw in file_values.items():
        if key not in effective:
            raise ConfigError(
                f"config key {key!r} does not apply to {args.command}; it takes {sorted(effective)}"
            )
        kind = type(effective[key])
        try:
            effective[key] = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key in effective:
        flag = getattr(args, key)
        if flag is not None:
            effective[key] = flag
    return effective


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """csv writes a float as its repr: pass Python floats, since from numpy
    2 on a numpy scalar's repr names its type."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _load_verified_archive(args) -> tuple[data.ImageDataset, dict]:
    """The archive's split ``args.split``, and its sha256 by dataset name
    (hashed once). Every member is checked; only that split is kept."""
    archive = Path(args.archive)
    if not archive.exists():
        raise DataError(f"archive not found: {archive}")
    try:
        digest = data.sha256_of_file(archive)
    except OSError as exc:
        raise DataError(f"cannot read archive {archive}: {exc}") from exc
    if args.checksums:
        data.verify_checksums(args.checksums, {args.dataset: digest})
        log(f"checksum ok for {archive}")
    (dataset,) = data.load_archive(archive, args.dataset, (args.split,))
    return dataset, {args.dataset: digest}


def _run(args, argv: list[str]) -> int:
    """The steps every command shares, around its body ``args.func``.

    A body takes (args, config, out, dataset), where dataset is the one
    split of the archive that the command reads, ``args.split`` (None for
    a command without ``--archive``), and returns (artifacts, summary).
    The archive's other splits are checked as they are read, but not
    kept. A command may also set ``args.check(args, config)``, which
    validates its flags and the resolved config. Both happen, and the
    output directory is created, before any input is read, so a bad value
    exits 3 even when an input is missing. If reading the archive, the
    body or the manifest fails, the directory is removed again, with each
    directory above it that the call created and that is still empty;
    nothing older is removed.
    """
    config = _resolve_config(args)
    if hasattr(args, "check"):
        args.check(args, config)
    started = datetime.now(timezone.utc).isoformat()
    out = Path(args.out)
    new_dirs = [d for d in (out, *out.parents) if not d.exists()]  # out first, if it is new
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out or a parent is a file
        raise ConfigError(f"cannot create --out {out}: {exc}") from exc
    try:
        dataset, checksums = _load_verified_archive(args) if hasattr(args, "archive") else (None, {})
        artifacts, summary = args.func(args, config, out, dataset)
        manifest = {
            "command": argv,
            "config": config,
            "seed": config.get("seed"),
            "dataset_checksums": checksums,
            "artifacts": sorted(str(p.relative_to(out)) for p in artifacts),
            "started_at": started,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "metrics": summary,
        }
        _write_json(out / "manifest.json.tmp", manifest)  # last, and atomically
        os.replace(out / "manifest.json.tmp", out / "manifest.json")
    except BaseException:
        if new_dirs:  # out is new; the new directories above it go only while empty
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.suppress(OSError):  # stop at one another process wrote into
                for parent in new_dirs[1:]:
                    parent.rmdir()
        raise
    return 0


def _load_model(
    checkpoint: str, pca_path: str, num_classes: int
) -> tuple[models.HybridModel, pca.PcaModel]:
    """A checkpoint for the archive's ``num_classes`` and the PCA that feeds
    it, which must map pixels to model inputs."""
    model, pca_model = models.load_checkpoint(checkpoint), pca.load(pca_path)
    if model.num_classes != num_classes:
        raise DataError(
            f"{checkpoint} holds a {model.num_classes}-class model, the archive {num_classes} classes"
        )
    if (pca_model.input_dim, pca_model.k) != (data.NUM_PIXELS, models.NUM_MODES):
        raise DataError(
            f"{pca_path} maps {pca_model.input_dim} pixels to {pca_model.k} features;"
            f" the models take {data.NUM_PIXELS} pixels to {models.NUM_MODES}"
        )
    return model, pca_model


def _evaluate_model(model, pca_model, dataset) -> tuple[dict, dict[str, metrics.Curve]]:
    """eval.json's row, and each curve keyed by its file-name stem."""
    from . import metrics

    features = pca.transform(pca_model, dataset.pixels.reshape(len(dataset), -1))
    logits = models.predict_batch(model, features)
    cm = metrics.confusion_matrix(dataset.labels, logits.argmax(axis=1), dataset.num_classes)
    probs = models.softmax(logits)
    row = metrics.metric_set(cm) | {
        "confusion_matrix": cm.counts.tolist(),
        "split": dataset.split,
        "model_kind": model.kind,
        "dataset": dataset.name,
    }
    if dataset.num_classes == 2:
        roc = metrics.roc_curve(probs[:, 1], dataset.labels)
        pr = metrics.pr_curve(probs[:, 1], dataset.labels)
        row |= {"auroc": roc.area, "auprc": pr.area, "pr_baseline": pr.baseline}
        return row, {"roc": roc, "pr": pr}
    areas = metrics.ovr_areas(probs, dataset.labels)
    row["auroc"], row["auprc"] = areas["auroc_mean"], areas["auprc_mean"]
    for name in ("auroc_per_class", "auprc_per_class"):
        # a class missing from the split has no area: null, not a bare NaN
        row[name] = [None if np.isnan(v) else v for v in areas[name]]
    curves = {}
    for cls, (roc, pr) in areas["curves"].items():
        curves[f"roc_class{cls}"], curves[f"pr_class{cls}"] = roc, pr
    return row, curves


# --- train -------------------------------------------------------------------

def _train_config(args, config: dict):
    from . import training

    return training.TrainConfig(
        batch_size=config["batch_size"],
        learning_rate=config["learning_rate"],
        epochs=config["epochs"],
        folds=config["folds"],
        seed=config["seed"],
    )


def cmd_train(args, config: dict, out: Path, train_split) -> tuple[list[Path], dict]:
    from . import training

    log(
        f"training {args.model} on {args.dataset} "
        f"(m={len(train_split)}, classes={train_split.num_classes}, seed={config['seed']})"
    )
    result = training.cross_validate(
        args.model,
        train_split.pixels.reshape(len(train_split), -1),  # as stored: converted a block at a time
        train_split.labels,
        train_split.num_classes,
        _train_config(args, config),
    )

    artifacts = []
    for fold in result.folds:
        model_path = out / f"model_fold{fold.fold_index}.json"
        pca_path = out / f"pca_fold{fold.fold_index}.json"
        models.save_checkpoint(fold.model, model_path)
        pca.save(fold.pca_model, pca_path)
        curve_path = _write_csv(
            out / f"curves_fold{fold.fold_index}.csv",
            ["epoch", "split", "loss", "acc", "p", "r", "f1"],
            ([r.epoch, r.split, r.loss, r.acc, r.precision, r.recall, r.f1] for r in fold.curves),
        )
        artifacts += [model_path, pca_path, curve_path]
        log(f"fold {fold.fold_index}: val f1 {fold.val_metrics['f1']:.4f}")

    artifacts.append(_write_csv(
        out / "fold_metrics.csv",
        ["fold", "split", "acc", "p", "r", "f1"],
        (
            [fold.fold_index, split_name]
            + [values[k] for k in ("acc", "precision", "recall", "f1")]
            for fold in result.folds
            for split_name, values in (("train", fold.train_metrics), ("val", fold.val_metrics))
        ),
    ))

    metrics_payload = {
        "dataset": args.dataset,
        "model_kind": args.model,
        "seed": config["seed"],
        "num_classes": train_split.num_classes,
        "folds": [
            {"fold": f.fold_index, "train": f.train_metrics, "val": f.val_metrics}
            for f in result.folds
        ],
        "summary": result.summary,
        "best_fold": result.best_fold_index,
    }
    metrics_path = out / "metrics.json"
    _write_json(metrics_path, metrics_payload)
    artifacts.append(metrics_path)
    log(f"best fold {result.best_fold_index}; artifacts in {out}")
    return artifacts, result.summary


# --- eval --------------------------------------------------------------------

def _eval_config(args, config: dict) -> None:
    if not args.dump_state:
        return
    if Path(args.dump_state).is_dir():
        raise ConfigError(f"--dump-state {args.dump_state} is a directory, not a file")
    dump, out = Path(os.path.realpath(args.dump_state)), Path(os.path.realpath(args.out))
    if not (dump.parent.is_dir() or dump.parent == out):  # _run makes --out
        raise ConfigError(f"--dump-state {args.dump_state}: no such directory")
    if dump.parent == out and (dump.name in ("eval.json", "manifest.json", "manifest.json.tmp")
                               or dump.match("curve_*.csv")):
        raise ConfigError(f"--dump-state {args.dump_state} would overwrite one of eval's own outputs")


def cmd_eval(args, config: dict, out: Path, dataset) -> tuple[list[Path], dict]:
    model, pca_model = _load_model(args.checkpoint, args.pca, dataset.num_classes)
    log(f"evaluating {model.kind} checkpoint on {args.dataset}/{args.split} (m={len(dataset)})")

    row, curves = _evaluate_model(model, pca_model, dataset)
    artifacts = []
    for name, curve in curves.items():
        rows = map(np.ndarray.tolist, np.column_stack([curve.points, curve.thresholds]))  # one at a time
        artifacts.append(_write_csv(out / f"curve_{name}.csv", ["x", "y", "threshold"], rows))
    eval_path = out / "eval.json"
    _write_json(eval_path, row)
    artifacts.append(eval_path)

    if args.dump_state:
        features = pca.transform(pca_model, dataset.pixels[0].reshape(-1))
        dump = {"kind": model.kind} | models.final_state(model, features)
        dump_path = Path(args.dump_state)
        try:
            _write_json(dump_path, dump)
        except OSError as exc:
            raise ConfigError(f"cannot write --dump-state {dump_path}: {exc}") from exc
        log(f"state dump written to {dump_path}")

    log(f"acc {row['acc']:.4f}, auroc {row['auroc']:.4f}, auprc {row['auprc']:.4f}")
    return artifacts, {k: row[k] for k in ("acc", "precision", "recall", "f1", "auroc", "auprc")}


# --- noise sweep ---------------------------------------------------------

def _noise_sums(pixels, components, seeds, sigmas: list[float], clip: bool, into: np.ndarray) -> None:
    """Add into ``into``, of shape (sigmas if ``clip`` else 1, rows, c), the
    noise field of the rows of ``pixels`` whose streams ``seeds`` seed,
    walked 32 columns at a time, so the whole of it never exists, and
    projected on ``components`` C: n C^T, or with ``clip`` each sigma's
    clip(x + sigma n) C^T for the pixels x on [0, 1]. Each row draws from
    its own stream, so blocks of rows draw the field that one walk of all
    rows would."""
    for start, field in rng.normal_blocks(seeds, data.NUM_PIXELS):
        cols = slice(start, start + field.shape[1])
        block = components[:, cols].T
        if not clip:
            into[0] += field @ block
            continue
        x = data.unit_floats(pixels[:, cols])
        for sums, sigma in zip(into, sigmas):
            sums += data.inject_gaussian_noise(x, sigma, field, clip=True) @ block


def cmd_noise_sweep(args, config: dict, out: Path, test) -> tuple[list[Path], dict]:
    from . import metrics

    loaded = []
    for kind in models.KINDS:
        checkpoint = getattr(args, f"{kind}_checkpoint")
        model, pca_model = _load_model(checkpoint, getattr(args, f"{kind}_pca"), test.num_classes)
        if model.kind != kind:
            raise DataError(f"{checkpoint} holds a {model.kind!r} model, expected {kind!r}")
        loaded.append((kind, model, pca_model))

    sigmas, pixels = data.noise_sweep_grid(), test.pixels.reshape(len(test), -1)
    components = np.concatenate([p.components for _, _, p in loaded])
    seeds = data.noise_seeds(len(pixels), config["seed"])
    if args.clip:  # a model's features are clip(x + sigma n) C^T less mean C^T
        offsets = [p.mean @ p.components.T for _, _, p in loaded]
    else:  # affine in sigma: base + sigma n C^T, with base the clean split's features
        bases = [pca.transform(p, pixels) for _, _, p in loaded]
    # Each row block of the field is walked into one buffer sized for the
    # first, largest block and scored as soon as its walk ends; confusion
    # counts add up over blocks, so only they outlive the block.
    blocks = pca.row_blocks(len(pixels), models.SCORE_ROWS)
    buffer = np.empty((len(sigmas) if args.clip else 1, blocks[0].stop, len(components)))
    counts = np.zeros((len(sigmas), len(loaded), test.num_classes, test.num_classes), np.int64)
    for block in blocks:
        sums = buffer[:, : block.stop - block.start]
        sums.fill(0.0)
        _noise_sums(pixels[block], components, seeds[block], sigmas, args.clip, sums)
        for i, sigma in enumerate(sigmas):
            for j, (_, model, _) in enumerate(loaded):
                cols = slice(j * models.NUM_MODES, (j + 1) * models.NUM_MODES)
                if args.clip:
                    features = sums[i, :, cols] - offsets[j]
                else:
                    features = bases[j][block] + sigma * sums[0, :, cols]
                classes = models.predict_batch(model, features).argmax(axis=1)
                counts[i, j] += metrics.confusion_matrix(test.labels[block], classes, test.num_classes).counts
        log(f"rows {block.start}-{block.stop} of {len(pixels)} scored")
    rows = [
        (sigma, kind, metrics.micro_metrics(metrics.ConfusionMatrix(counts[i, j]))[3])
        for i, sigma in enumerate(sigmas)
        for j, (kind, _, _) in enumerate(loaded)
    ]

    sweep_path = _write_csv(out / "noise_sweep.csv", ["sigma", "model_kind", "f1"], rows)
    baseline = {kind: f1 for sigma, kind, f1 in rows if sigma == 0.0}
    return [sweep_path], {"f1_at_sigma0": baseline}


# --- saliency ------------------------------------------------------------

def cmd_saliency(args, config: dict, out: Path, dataset) -> tuple[list[Path], dict]:
    from . import saliency

    model, pca_model = _load_model(args.checkpoint, args.pca, dataset.num_classes)

    for index in args.indices:
        if not 0 <= index < len(dataset):
            raise DataError(f"sample index {index} out of range for {len(dataset)} samples")
    artifacts = []
    for index in args.indices:
        image = data.unit_floats(dataset.pixels[index].reshape(-1))
        result = saliency.input_gradient_map(model, pca_model, image)
        recon = pca.inverse_transform(pca_model, pca.transform(pca_model, image))
        prefix = out / f"sample{index:05d}"
        recon_path = Path(f"{prefix}_recon.pgm")
        heat_path = Path(f"{prefix}_saliency.pgm")
        saliency.render_pgm(np.clip(recon.reshape(data.IMAGE_SIDE, data.IMAGE_SIDE), 0, 1), recon_path)
        saliency.render_pgm(result.heat, heat_path)
        artifacts += [recon_path, heat_path]
        if args.signed:
            signed_path = Path(f"{prefix}_saliency_signed.pgm")
            saliency.render_pgm(saliency.signed_to_unit(result.signed), signed_path)
            artifacts.append(signed_path)
        sidecar = {
            "predicted_class": result.predicted_class,
            "confidence": result.confidence,
            "true_class": int(dataset.labels[index]),
            "model_kind": model.kind,
        }
        sidecar_path = Path(f"{prefix}.json")
        _write_json(sidecar_path, sidecar)
        artifacts.append(sidecar_path)
        log(
            f"sample {index}: predicted {result.predicted_class} "
            f"(confidence {result.confidence:.3f}), true {sidecar['true_class']}"
        )
    return artifacts, {}


# --- stats ---------------------------------------------------------------

def _read_fold_metrics(path: str) -> dict[str, list[float]]:
    """Validation rows of a fold_metrics.csv as metric -> per-fold values."""
    columns = {"acc": [], "p": [], "r": [], "f1": []}
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if row["split"] != "val":
                    continue
                for key in columns:
                    columns[key].append(float(row[key]))
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot parse fold metrics from {path}: {exc}") from exc
    if not np.isfinite(list(columns.values())).all():
        raise DataError(f"{path}: a validation score is not finite")
    return columns


def cmd_stats(args, config: dict, out: Path, dataset) -> tuple[list[Path], dict]:
    from . import stats

    if not 0.0 < args.alpha < 1.0:  # also rejects nan
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    sources = {kind: _read_fold_metrics(getattr(args, kind)) for kind in _MODEL_LABELS}
    folds = {len(columns["f1"]) for columns in sources.values()}
    if len(folds) != 1 or min(folds) < 2:
        raise DataError(f"the three files need one count (>= 2) of validation rows, got {sorted(folds)}")
    report = {"alpha": args.alpha, "metrics": {}}
    for metric in ("acc", "p", "r", "f1"):
        scores = {label: np.array(sources[kind][metric]) for kind, label in _MODEL_LABELS.items()}
        comparison = stats.compare_models(scores, alpha=args.alpha)
        entry = {
            "models": {
                kind: {
                    "mean": float(np.mean(sources[kind][metric])),
                    "std": float(np.std(sources[kind][metric], ddof=1)),
                }
                for kind in _MODEL_LABELS
            },
            "friedman_chi2": comparison.friedman_chi2,
            "friedman_p": comparison.friedman_p,
            "friedman_h0_retained": comparison.friedman_p >= args.alpha,
            "alpha_corrected": comparison.alpha_corrected,
            "pairwise": {
                pair.name: {
                    "W": pair.w_statistic,
                    "p": pair.p_value,
                    "h0_retained": pair.p_value >= comparison.alpha_corrected,
                }
                for pair in comparison.pairwise
            },
        }
        report["metrics"][metric] = entry
        report["alpha_corrected"] = comparison.alpha_corrected
        verdict = "retained" if entry["friedman_h0_retained"] else "rejected"
        log(f"{metric}: Friedman chi2 {entry['friedman_chi2']:.4f}, p {entry['friedman_p']:.4f}, H0 {verdict}")
    report_path = out / "stats.json"
    _write_json(report_path, report)
    return [report_path], {}


# --- pca report ------------------------------------------------------------

def _pca_report_config(args, config: dict) -> None:
    if not 1 <= config["pca_components"] <= data.NUM_PIXELS:
        raise ConfigError(f"--k must lie in [1, {data.NUM_PIXELS}], got {config['pca_components']}")


def cmd_pca_report(args, config: dict, out: Path, train_split) -> tuple[list[Path], dict]:
    model = pca.fit(train_split.pixels.reshape(len(train_split), -1), config["pca_components"])
    ratios = model.explained_variance_ratio
    report = {
        "dataset": args.dataset,
        "num_samples": len(train_split),
        "input_dim": model.input_dim,
        "k": model.k,
        "explained_variance_ratio": ratios.tolist(),
        "cumulative_variance": float(ratios.sum()),
    }
    report_path = out / "pca_report.json"
    _write_json(report_path, report)
    ratios = ratios.tolist()
    rows = zip(itertools.count(1), ratios, itertools.accumulate(ratios))
    csv_path = _write_csv(out / "pca_report.csv", ["component", "ratio", "cumulative"], rows)
    log(f"{args.dataset}: cumulative variance at k={model.k} is {report['cumulative_variance']:.4f}")
    return [report_path, csv_path], report


# --- parser ----------------------------------------------------------------

def _sample_indices(text: str) -> list[int]:
    """saliency --indices: one or more distinct comma-separated integers;
    empty entries are skipped."""
    try:
        indices = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:  # argparse reports it through _Parser.error: exit 3
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}") from exc
    if not indices or len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"expected distinct sample indices, got {text!r}")
    return indices


def _add_common(sub, archive: bool = True, config: bool = True) -> None:
    sub.add_argument("--out", required=True, help="output directory")
    if config:
        sub.add_argument("--config", help="optional 'key = value' config file")
    if archive:
        sub.add_argument("--archive", required=True, help="path to the dataset .npz archive")
        sub.add_argument("--dataset", required=True, help="dataset name, e.g. pneumoniamnist")
        sub.add_argument("--checksums", help="verify archive against this sha256 manifest")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medqnn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="cross-validated training run")
    _add_common(p_train)
    p_train.add_argument("--model", required=True, choices=models.KINDS)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_train.add_argument("--folds", type=int, default=None)
    p_train.set_defaults(func=cmd_train, check=_train_config, split="train")

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_common(p_eval, config=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--pca", required=True)
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_eval.add_argument("--dump-state", dest="dump_state", help="write a debug state dump here")
    p_eval.set_defaults(func=cmd_eval, check=_eval_config)

    p_sweep = subs.add_parser("noise-sweep", help="test-set F1 over the noise grid")
    _add_common(p_sweep)
    for kind in models.KINDS:  # the order of each sigma's rows
        p_sweep.add_argument(f"--{kind}-checkpoint", required=True)
        p_sweep.add_argument(f"--{kind}-pca", required=True)
    p_sweep.add_argument("--clip", action="store_true", help="clip noisy pixels back to [0, 1]")
    p_sweep.add_argument("--seed", type=int, default=None, help="seed of the noise field")
    p_sweep.set_defaults(func=cmd_noise_sweep, split="test")

    p_sal = subs.add_parser("saliency", help="attribution heatmaps for chosen samples")
    _add_common(p_sal, config=False)
    p_sal.add_argument("--checkpoint", required=True)
    p_sal.add_argument("--pca", required=True)
    p_sal.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_sal.add_argument("--indices", required=True, type=_sample_indices,
                       help="comma-separated sample indices")
    p_sal.add_argument("--signed", action="store_true", help="also write signed maps")
    p_sal.set_defaults(func=cmd_saliency)

    p_stats = subs.add_parser("stats", help="Friedman / Wilcoxon comparison of three models")
    _add_common(p_stats, archive=False, config=False)
    for kind in _MODEL_LABELS:
        p_stats.add_argument(f"--{kind}", required=True, help=f"fold_metrics.csv of the {kind} run")
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.set_defaults(func=cmd_stats)

    p_pca = subs.add_parser("pca-report", help="explained-variance table for a dataset")
    _add_common(p_pca)
    p_pca.add_argument("--k", dest="pca_components", type=int, default=None)
    p_pca.set_defaults(func=cmd_pca_report, check=_pca_report_config, split="train")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _run(args, argv_list)
    except (DataError, UndefinedMetric) as exc:
        log(f"data error: {exc}")
        return 2
    except ConfigError as exc:
        log(f"config error: {exc}")
        return 3
    except NumericError as exc:
        log(f"numeric failure: {exc}")
        return 4


def run() -> None:
    """The medqnn command: ``main``, then ``os._exit`` with its code once
    stdout and stderr are flushed. Every file is closed and the manifest
    in place by then, so interpreter finalization (about 30 ms) is skipped.
    An exception that escapes ``main`` still ends in a traceback and exit 1."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
