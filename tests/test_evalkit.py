import json
import math
import random

import pytest

from helpers import make_comment
from satdkit.corpus import CorpusCollection, Label, ProjectDataset
from satdkit.errors import DataError
from satdkit.evalkit import (
    MetricResult,
    compute_metrics,
    fold_plan_to_dict,
    mto_splits,
    stratified_kfold,
)


def _dataset(n_total, n_satd, project="P", shuffle_seed=None):
    labels = [Label.SATD] * n_satd + [Label.NON_SATD] * (n_total - n_satd)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(labels)
    comments = [
        make_comment(i, f"comment {i}", label, project=project)
        for i, label in enumerate(labels)
    ]
    return ProjectDataset(project, comments)


def _fold_satd_count(dataset, fold):
    satd_ids = {c.id for c in dataset.comments if c.label is Label.SATD}
    return sum(1 for cid in fold if cid in satd_ids)


def test_exact_divisibility():
    ds = _dataset(20, 10)
    plan = stratified_kfold(ds, k=10, seed=1)
    for fold in plan.folds:
        assert len(fold) == 2
        assert _fold_satd_count(ds, fold) == 1


def test_round_robin_dealing_100_5():
    ds = _dataset(100, 5)
    plan = stratified_kfold(ds, k=10, seed=3)
    satd_counts = sorted(_fold_satd_count(ds, f) for f in plan.folds)
    assert satd_counts == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert all(len(f) == 10 for f in plan.folds)


def test_k_larger_than_dataset():
    with pytest.raises(DataError, match="smaller than k"):
        stratified_kfold(_dataset(5, 1), k=10, seed=1)


def test_k_must_be_at_least_two():
    with pytest.raises(ValueError):
        stratified_kfold(_dataset(10, 2), k=1, seed=1)


def test_partition_and_balance_properties():
    rng = random.Random(17)
    for _ in range(100):
        n_total = rng.randint(10, 10_000)
        n_satd = min(n_total, max(0, int(n_total * rng.uniform(0.01, 0.5))))
        k = rng.randint(2, min(10, n_total))
        ds = _dataset(n_total, n_satd, shuffle_seed=rng.randint(0, 10**6))
        plan = stratified_kfold(ds, k=k, seed=rng.randint(0, 10**6))
        assigned = [cid for fold in plan.folds for cid in fold]
        assert sorted(assigned) == list(range(n_total))
        for fold in plan.folds:
            assert abs(len(fold) - n_total / k) <= 1
            assert abs(_fold_satd_count(ds, fold) - n_satd / k) <= 1


def test_deterministic_for_fixed_inputs():
    ds = _dataset(57, 9, shuffle_seed=2)
    assert stratified_kfold(ds, k=5, seed=42) == stratified_kfold(ds, k=5, seed=42)
    assert stratified_kfold(ds, k=5, seed=42) != stratified_kfold(ds, k=5, seed=43)


def test_permuting_rows_changes_membership_not_counts():
    ds = _dataset(60, 6, shuffle_seed=None)
    permuted_comments = list(ds.comments)
    random.Random(8).shuffle(permuted_comments)
    permuted = ProjectDataset("P", permuted_comments)
    plan_a = stratified_kfold(ds, k=6, seed=99)
    plan_b = stratified_kfold(permuted, k=6, seed=99)
    assert plan_a.folds != plan_b.folds
    for plan in (plan_a, plan_b):
        for fold in plan.folds:
            assert abs(len(fold) - 10) <= 1
            assert abs(_fold_satd_count(ds, fold) - 1) <= 1


def test_mto_splits():
    projects = tuple(
        ProjectDataset(f"p{i}", [make_comment(0, "x", Label.SATD, project=f"p{i}")])
        for i in range(20)
    )
    collection = CorpusCollection("All-20", projects)
    splits = mto_splits(collection)
    assert len(splits) == 20
    assert [s.test_project for s in splits] == [f"p{i}" for i in range(20)]
    for split in splits:
        assert len(split.train_projects) == 19
        assert split.test_project not in split.train_projects


def test_mto_splits_two_projects():
    projects = tuple(
        ProjectDataset(n, [make_comment(0, "x", Label.SATD, project=n)])
        for n in ("a", "b")
    )
    splits = mto_splits(CorpusCollection("pair", projects))
    assert [(s.test_project, s.train_projects) for s in splits] == [
        ("a", ("b",)),
        ("b", ("a",)),
    ]


def test_mto_splits_single_project_rejected():
    ds = ProjectDataset("solo", [make_comment(0, "x", Label.SATD, project="solo")])
    with pytest.raises(DataError, match="at least 2"):
        mto_splits(CorpusCollection("solo", (ds,)))


def test_perfect_predictions():
    truth = [Label.SATD, Label.NON_SATD, Label.SATD]
    m = compute_metrics(truth, truth)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_degenerate_all_negative_predictor():
    truth = [Label.SATD, Label.NON_SATD]
    preds = [Label.NON_SATD, Label.NON_SATD]
    m = compute_metrics(preds, truth)
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_confusion_example():
    m = MetricResult.from_counts(tp=8, fp=2, fn=4, tn=6)
    assert m.precision == pytest.approx(0.8)
    assert m.recall == pytest.approx(0.6667, abs=1e-4)
    assert m.f1 == pytest.approx(0.7273, abs=1e-4)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        compute_metrics([Label.SATD], [Label.SATD, Label.NON_SATD])


def test_metrics_match_brute_force_recount():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 50)
        preds = [rng.choice((Label.SATD, Label.NON_SATD)) for _ in range(n)]
        truth = [rng.choice((Label.SATD, Label.NON_SATD)) for _ in range(n)]
        m = compute_metrics(preds, truth)
        # independent recount, one pass per confusion cell
        tp = sum(1 for p, t in zip(preds, truth) if p is Label.SATD and t is Label.SATD)
        fp = sum(1 for p, t in zip(preds, truth) if p is Label.SATD and t is Label.NON_SATD)
        fn = sum(1 for p, t in zip(preds, truth) if p is Label.NON_SATD and t is Label.SATD)
        tn = sum(1 for p, t in zip(preds, truth) if p is Label.NON_SATD and t is Label.NON_SATD)
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert m.tp + m.fp + m.fn + m.tn == n
        if m.precision + m.recall:
            expected_f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert math.isclose(m.f1, expected_f1)
        else:
            assert m.f1 == 0.0


def test_fold_plan_serialization():
    plan = stratified_kfold(_dataset(30, 3), k=3, seed=5)
    payload = fold_plan_to_dict(plan)
    assert payload == {"k": 3, "seed": 5, "folds": [list(f) for f in plan.folds]}
    assert json.loads(json.dumps(payload)) == payload
