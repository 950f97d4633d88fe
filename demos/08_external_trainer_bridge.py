"""The boundary for plugging in an external (e.g. neural) trainer.

The harness never needs the heavyweight model in-process. Instead it
exports every evaluation unit's exact seeded, post-augmentation batch
stream as JSON Lines plus the split definitions; the external trainer
consumes those, writes one score per held-out comment, and the harness
imports the scores and computes metrics on the same code path as the
built-in classifiers.

This demo plays the external trainer with a trivial rule (score = does the
comment contain "todo"), which is perfect on this corpus by construction.
"""

import csv
import json
import random
import tempfile
from pathlib import Path

from satdkit import build_config, export_batches, prepare_run, run_experiment

rng = random.Random(3)
workdir = tempfile.TemporaryDirectory(prefix="satdkit-demo-")
root = Path(workdir.name)
rows = []
for i in range(200):
    satd = i % 10 == 0
    words = [f"w{rng.randint(0, 30):02d}" for _ in range(8)]
    if satd:
        words.insert(rng.randint(0, 8), "todo")
    rows.append(("Planted", "// " + " ".join(words),
                 "DESIGN" if satd else "WITHOUT_CLASSIFICATION"))
with (root / "planted.csv").open("w", newline="", encoding="utf-8") as fh:
    writer = csv.writer(fh)
    writer.writerow(["project", "comment", "raw_label"])
    writer.writerows(rows)
(root / "manifest.tsv").write_text("Planted\tplanted.csv\n", encoding="utf-8")

export_dir = root / "export"
predictions_path = root / "predictions.jsonl"
config = build_config(overrides={
    "manifest": str(root / "manifest.tsv"),
    "scenario": "intra", "k": "4", "seed": "9", "epochs": "1",
    "augmentation": "fmr",
    "classifier": "external",
    "export_path": str(export_dir),
    "predictions_path": str(predictions_path),
})

# step 1: export the training material
export_batches(config)
manifest_data = json.loads((export_dir / "export.json").read_text(encoding="utf-8"))
print(f"exported {len(manifest_data['units'])} unit streams under {export_dir}")
unit = manifest_data["units"][0]
print(f"  first unit: {unit['project']}/{unit['unit']}  "
      f"{unit['n_batches']} batches, {unit['n_train']} train comments, "
      f"{len(unit['test'])} test comments")
first_line = (export_dir / unit["batches"]).read_text(encoding="utf-8").splitlines()[0]
print(f"  first batch line: {first_line[:100]}...")

# step 2: the "external trainer" scores every test comment of every unit.
# It reads nothing but the exported artifacts.
texts = {}
for u in manifest_data["units"]:
    for line in (export_dir / u["batches"]).read_text(encoding="utf-8").splitlines():
        for item in json.loads(line)["items"]:
            texts[(item["project"], item["id"])] = item["text"]
# test comments never appear in training batches, so look them up from the corpus
with (root / "planted.csv").open(newline="", encoding="utf-8") as fh:
    reader = csv.reader(fh)
    next(reader)
    for i, (project, text, _) in enumerate(reader):
        texts.setdefault((project, i), text)

with predictions_path.open("w", encoding="utf-8") as fh:
    seen = set()
    for u in manifest_data["units"]:
        for project, cid in u["test"]:
            if (project, cid) in seen:
                continue
            seen.add((project, cid))
            score = 1.0 if "todo" in texts[(project, cid)] else 0.0
            fh.write(json.dumps({"project": project, "id": cid, "score": score}) + "\n")
print(f"\nwrote {len(seen)} predictions to {predictions_path}")

# step 3: the harness imports the scores and evaluates them like any model
report = run_experiment(prepare_run(config))
print(f"external classifier report: mean-of-folds F1 = {report.projects[0].f1:.3f}")
print("(1.000 expected: the rule matches the planted pattern exactly)")

workdir.cleanup()
