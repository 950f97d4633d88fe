"""A complete intra-project experiment over the augmentation grid.

Builds a 2,000-comment single-project corpus with a 5% minority whose
label is exactly "contains one of the planted trigger words", then runs
the built-in logistic-regression classifier through stratified 10-fold
cross-validation under all three augmentation settings. Because the
pattern is linearly separable in token-presence space, the learned scores
approach a perfect F1, which makes this a good smoke test for the whole
pipeline: ingestion, per-fold vocabulary discovery, seeded batch streams,
training, evaluation, and report rendering.

The equivalent CLI invocation is shown at the end.
"""

import csv
import random
import tempfile
from pathlib import Path

from satdkit import build_config, prepare_run, run_experiment
from satdkit.harness import render_csv

TRIGGERS = ["todo", "fixme", "hack", "xxx", "ugly"]
WORDS = [f"w{i:02d}" for i in range(40)] + ["value", "parser", "cache", "thread"]

rng = random.Random(7)
workdir = tempfile.TemporaryDirectory(prefix="satdkit-demo-")
root = Path(workdir.name)
rows = []
flags = [True] * 100 + [False] * 1900
rng.shuffle(flags)
for satd in flags:
    words = rng.choices(WORDS, k=rng.randint(6, 12))
    if satd:
        pos = rng.randint(0, len(words))
        words = words[:pos] + TRIGGERS + words[pos:]
    rows.append((
        "Planted", "// " + " ".join(words),
        "DESIGN" if satd else "WITHOUT_CLASSIFICATION",
    ))
with (root / "planted.csv").open("w", newline="", encoding="utf-8") as fh:
    writer = csv.writer(fh)
    writer.writerow(["project", "comment", "raw_label"])
    writer.writerows(rows)
(root / "manifest.tsv").write_text("Planted\tplanted.csv\n", encoding="utf-8")
print(f"corpus: 2000 comments, 100 minority, written under {root}\n")

for augmentation in ("none", "fmr", "dup_fmr"):
    config = build_config(overrides={
        "manifest": str(root / "manifest.tsv"),
        "scenario": "intra",
        "classifier": "linear",
        "augmentation": augmentation,
        "seed": "11",
    })
    report = run_experiment(prepare_run(config))
    project = report.projects[0]
    print(f"augmentation={augmentation:8}  digest={report.digest}  "
          f"mean-of-folds F1={project.f1:.4f}")

print("\nfull report for the last run (CSV rendering):")
print(render_csv(report), end="")

print("\nsame thing from the command line:")
print(f"  satdkit run --manifest {root / 'manifest.tsv'} \\")
print("      --scenario intra --classifier linear --augmentation dup_fmr --seed 11")
print("outputs land in runs/<config-digest>/{report.json,report.csv,report.md,"
      "folds.json,log.txt}")

workdir.cleanup()
