"""Stratified folds and positive-class metrics.

Random train/test splits of an imbalanced project can leave the test side
with almost no minority examples, which makes single-split scores noisy.
The fold planner shuffles each class separately (seeded), lists the SATD
ids and then the others, and gives fold j every k-th listed id from
position j, so every fold's minority count stays within 1 of the
proportional share. Scores are precision/recall/F1 on the minority class;
the per-project statistic is the unweighted mean of the fold F1 values.
"""

from satdkit import (
    Comment,
    Label,
    compute_metrics,
    mto_splits,
    stratified_kfold,
)
from satdkit.corpus import CorpusCollection, ProjectDataset

comments = [
    Comment(i, "Demo", f"// comment {i}",
            Label.SATD if i < 13 else Label.NON_SATD,
            "DESIGN" if i < 13 else "WITHOUT_CLASSIFICATION")
    for i in range(127)
]
dataset = ProjectDataset("Demo", comments)
print(f"project: {dataset.n_total} comments, {dataset.n_satd} minority "
      f"({100 * dataset.satd_fraction:.1f}%)\n")

plan = stratified_kfold(dataset, k=10, seed=7)
satd_ids = {c.id for c in comments if c.label is Label.SATD}
print("fold composition (sizes within 1 of 12.7, minority within 1 of 1.3):")
for i, fold in enumerate(plan.folds):
    n_minority = sum(1 for cid in fold if cid in satd_ids)
    print(f"  fold {i}: size={len(fold):3d}  minority={n_minority}")

print("\nhold-one-out splits for a 4-project collection:")
tiny = CorpusCollection("tiny", tuple(
    ProjectDataset(
        name, [Comment(0, name, "// x", Label.SATD, "DESIGN")]
    )
    for name in ("A", "B", "C", "D")
))
for split in mto_splits(tiny):
    print(f"  test={split.test_project}  train={split.train_projects}")

print("\nmetrics for a toy prediction vector (minority is the positive class):")
truth = [Label.SATD] * 12 + [Label.NON_SATD] * 8
preds = [Label.SATD] * 8 + [Label.NON_SATD] * 4 + [Label.SATD] * 2 + [Label.NON_SATD] * 6
m = compute_metrics(preds, truth)
print(f"  tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn}")
print(f"  precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}")

fold_f1s = [1.0, 0.8, 0.9]
print(f"\nper-project aggregate is the mean of fold F1s: {sum(fold_f1s) / len(fold_f1s):.3f}"
      f" for folds {fold_f1s}")
