"""Evaluation plumbing: stratified folds, hold-one-out splits, and metrics.

Fold plans deal the shuffled SATD ids and then the shuffled non-SATD ids
as one list, and fold j takes every k-th dealt id from position j. That
keeps every fold's minority count within 1 of the proportional share and
every fold size within 1 of n_total/k. Splits and metrics are pure and
deterministic; nothing here rounds until rendering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .augment import seeded_rng
from .corpus import CorpusCollection, Label, ProjectDataset
from .errors import DataError

_FOLD_STREAM = 3


@dataclass(frozen=True)
class FoldPlan:
    """A k-way partition of one project's comment ids."""

    k: int
    folds: tuple[tuple[int, ...], ...]
    seed: int


@dataclass(frozen=True)
class MtoSplit:
    """Hold-one-out split: train on every project except ``test_project``."""

    test_project: str
    train_projects: tuple[str, ...]


@dataclass(frozen=True)
class MetricResult:
    """Confusion counts and derived scores; SATD is the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "MetricResult":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(tp=tp, fp=fp, fn=fn, tn=tn, precision=precision, recall=recall, f1=f1)


def stratified_kfold(dataset: ProjectDataset, k: int = 10, *, seed: int) -> FoldPlan:
    """Stratified k-fold partition of a project's comment ids.

    SATD and non-SATD ids are shuffled independently (seeded) and dealt as
    one list, SATD first; fold j takes every k-th dealt id from position j,
    so per-fold class counts and fold sizes stay within 1 of their
    proportional shares.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if dataset.n_total < k:
        raise DataError(
            f"{dataset.project}: n_total={dataset.n_total} is smaller than k={k}"
        )
    satd_ids = [c.id for c in dataset.comments if c.label is Label.SATD]
    non_ids = [c.id for c in dataset.comments if c.label is not Label.SATD]
    satd_order = seeded_rng(seed, _FOLD_STREAM, 0).permutation(len(satd_ids))
    non_order = seeded_rng(seed, _FOLD_STREAM, 1).permutation(len(non_ids))
    dealt = [satd_ids[i] for i in satd_order] + [non_ids[i] for i in non_order]
    plan = FoldPlan(k=k, folds=tuple(tuple(dealt[j::k]) for j in range(k)), seed=seed)
    assigned = [cid for fold in plan.folds for cid in fold]
    if len(assigned) != dataset.n_total or len(set(assigned)) != len(assigned):
        raise RuntimeError("fold plan does not partition the dataset")
    return plan


def mto_splits(collection: CorpusCollection) -> list[MtoSplit]:
    """One hold-one-out split per project, in collection order; each split's
    training projects are in name order."""
    if len(collection) < 2:
        raise DataError(
            f"collection {collection.name!r} needs at least 2 projects for "
            f"hold-one-out splits, has {len(collection)}"
        )
    names = collection.project_names
    return [
        MtoSplit(test_project=name, train_projects=tuple(n for n in sorted(names) if n != name))
        for name in names
    ]


def compute_metrics(predictions: Sequence[Label], truth: Sequence[Label]) -> MetricResult:
    """Confusion counts and precision/recall/F1 over aligned label vectors."""
    if len(predictions) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truth)} labels"
        )
    if not truth:
        raise ValueError("cannot compute metrics over zero comments")
    # (predicted SATD, actually SATD) pairs; any non-Label value counts as non-SATD
    tally = Counter((p is Label.SATD, t is Label.SATD) for p, t in zip(predictions, truth))
    return MetricResult.from_counts(
        tally[True, True], tally[True, False], tally[False, True], tally[False, False]
    )


def fold_plan_to_dict(plan: FoldPlan) -> dict:
    return {"k": plan.k, "seed": plan.seed, "folds": [list(f) for f in plan.folds]}

