"""Training loops: Adam, stratified k-fold, seeded cross-validation.

Determinism contract: (seed, config, dataset bytes) fully determine every
fold result bit-for-bit. The fold split draws from Rng(seed); fold i
trains from its own substream Rng(seed ^ i) which covers, in order,
parameter init then one shuffle per epoch. There is no early stopping,
LR schedule or weight decay; the last incomplete batch of an epoch is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, models, pca
from .errors import ConfigError, DataError, NumericError
from .rng import Rng, substream_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    epochs: int = 50
    folds: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        # 0 is allowed (a frozen run is a useful control), negative is not.
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    acc: float
    precision: float
    recall: float
    f1: float


@dataclass
class FoldResult:
    fold_index: int
    curves: list[EpochRecord]
    model: models.HybridModel
    pca_model: pca.PcaModel
    train_metrics: dict[str, float]
    val_metrics: dict[str, float]


@dataclass
class CrossValResult:
    folds: list[FoldResult]
    summary: dict[str, dict[str, float]]  # metric -> {mean, std}
    best_fold_index: int


def select_best_fold(validation_f1: list[float]) -> int:
    """Index of the highest validation F1; ties go to the lowest index."""
    return int(np.argmax(validation_f1))


def stratified_kfold(labels, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-class shuffled round-robin split; class counts per fold differ by <= 1.

    Returns one (train_indices, validation_indices) pair per fold, both
    sorted ascending. Deterministic under the seed.
    """
    labels = np.asarray(labels, dtype=int)
    rng = Rng(seed)
    fold_of = np.empty(len(labels), dtype=int)
    for cls in np.flatnonzero(np.bincount(labels)):  # np.unique would import numpy.ma
        members = np.flatnonzero(labels == cls).tolist()
        if len(members) < folds:
            raise DataError(
                f"class {cls} has {len(members)} samples, cannot stratify into {folds} folds"
            )
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % folds
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(folds)]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, t: int, config: TrainConfig
) -> np.ndarray:
    """One bias-corrected Adam update; mutates ``state``, returns new params."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/moment shapes disagree")
    if t < 1:
        raise ValueError("step count starts at 1")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.m = b1 * state.m + (1.0 - b1) * grads
    state.v = b2 * state.v + (1.0 - b2) * grads**2
    m_hat = state.m / (1.0 - b1**t)
    v_hat = state.v / (1.0 - b2**t)
    return params - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_model(
    kind: str,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    num_classes: int,
    config: TrainConfig,
    rng: Rng,
) -> tuple[models.HybridModel, list[EpochRecord]]:
    """Fixed-epoch Adam run; returns the final model and per-epoch curves.

    The training curve uses running minibatch losses and predictions; the
    validation curve is a full pass at each epoch end, scored in row blocks
    (``models.predict_batch``). The model's feature statistics are those
    of ``train_features``. ``cross_validate`` scores the returned model
    itself, so no pass after the last epoch is made here.
    """
    feature_mean = train_features.mean(axis=0)
    feature_std = train_features.std(axis=0)
    feature_std = np.where(feature_std < 1e-12, 1.0, feature_std)
    model = models.init_model(kind, num_classes, rng, feature_mean, feature_std)

    params = models.flat_params(model)
    adam = AdamState.zeros(len(params))
    step = 0
    curves: list[EpochRecord] = []
    indices = np.arange(len(train_labels))
    train_labels = np.asarray(train_labels, dtype=int)
    val_labels = np.asarray(val_labels, dtype=int)

    for epoch in range(config.epochs):
        order = indices.tolist()  # Python ints: no numpy scalar object per row
        rng.shuffle(order)
        order = np.array(order, dtype=int)
        epoch_losses = []
        epoch_predictions = np.empty(len(order), dtype=int)
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss, grad, logits = models.loss_and_grad(
                model, train_features[batch_idx], train_labels[batch_idx]
            )
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
            step += 1
            params = adam_step(params, grad, adam, step, config)
            model = models.with_params(model, params)
            epoch_losses.append(loss * len(batch_idx))
            epoch_predictions[start : start + len(batch_idx)] = logits.argmax(axis=1)

        train_cm = metrics.confusion_matrix(train_labels[order], epoch_predictions, num_classes)
        train_stats = metrics.metric_set(train_cm)
        train_loss = float(np.sum(epoch_losses) / len(order))
        curves.append(EpochRecord(epoch=epoch, split="train", loss=train_loss, **train_stats))
        val_logits = models.predict_batch(model, val_features)
        val_loss = models.batch_loss_from_logits(val_logits, val_labels)
        val_cm = metrics.confusion_matrix(val_labels, val_logits.argmax(axis=1), num_classes)
        val_stats = metrics.metric_set(val_cm)
        curves.append(EpochRecord(epoch=epoch, split="val", loss=float(val_loss), **val_stats))
    return model, curves


def cross_validate(
    kind: str,
    images: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    config: TrainConfig,
) -> CrossValResult:
    """Stratified k-fold training on flattened images (m x 784): stored
    unsigned bytes, or floats on [0, 1].

    Each fold fits its own PCA and feature statistics on its training
    rows only. Every fold's PCA is fitted first: ``pca.moments`` reads the
    fold's rows by index, a block at a time, into one ``pca.Workspace``
    that every fold reuses (one 784 x 784 Gram, its sums, the block
    buffers and one Gram panel), so no fold after the first allocates
    anything large and the heap does not grow with the fold count. The
    workspace is dropped before the first fold trains, so training never
    holds a Gram. For stored bytes the sums are exact integers, so the fit
    does not depend on the order of the rows either. Each fold's PCA
    then projects the split, which ``pca.transform`` converts a block of
    rows at a time; ``train_model`` trains on the fold's rows, and its
    final model scores every row of the split once, in row blocks
    (``models.predict_batch``), from which the fold's train and
    validation metrics are read by index (at ``epochs=0`` the initial
    model's). So the rows are floats only a block at a time, never a fold
    or the split, and nothing but per-row features, labels, fold indices
    and predictions grows with the split.
    The best fold is the highest final validation F1 (ties go to the
    lowest fold index); its model is the one a caller should evaluate on
    the held-out test split. DataError for fewer than 2 classes, before any fit.
    """
    if num_classes < 2:
        raise DataError(f"the labels hold {num_classes} class: a classifier needs at least 2")
    models.load_simulator(kind)
    images = np.asarray(images)
    labels = np.asarray(labels, dtype=int)
    splits = stratified_kfold(labels, config.folds, config.seed)
    workspace = pca.Workspace(images.shape[1], images.dtype)
    pca_models = [pca.from_moments(pca.moments(images, rows, workspace), models.NUM_MODES) for rows, _ in splits]
    del workspace  # no fold trains beside a Gram
    folds = []
    for fold_index, ((train_idx, val_idx), pca_model) in enumerate(zip(splits, pca_models)):
        features = pca.transform(pca_model, images)
        model, curves = train_model(
            kind, features[train_idx], labels[train_idx], features[val_idx], labels[val_idx],
            num_classes, config, Rng(substream_seed(config.seed, fold_index)),
        )
        predicted = models.predict_batch(model, features).argmax(axis=1)  # the whole split, once
        train_metrics, val_metrics = (
            metrics.metric_set(metrics.confusion_matrix(labels[rows], predicted[rows], num_classes))
            for rows in (train_idx, val_idx)
        )
        folds.append(FoldResult(fold_index, curves, model, pca_model, train_metrics, val_metrics))

    summary = {}
    for split_name in ("train", "val"):
        for metric in ("acc", "precision", "recall", "f1"):
            values = np.array(
                [getattr(f, f"{split_name}_metrics")[metric] for f in folds]
            )
            summary[f"{split_name}_{metric}"] = {
                "mean": float(values.mean()),
                "std": float(values.std(ddof=1)),  # TrainConfig holds folds >= 2
            }
    best = select_best_fold([f.val_metrics["f1"] for f in folds])
    return CrossValResult(folds=folds, summary=summary, best_fold_index=best)
