"""Loading a labeled comment corpus and summarizing its class imbalance.

Builds a tiny two-project corpus on disk in the package's CSV schema
(``project,comment,raw_label``), loads it through a manifest, and prints the
per-project imbalance table. Also shows how the label mapping turns raw
annotation strings into the binary labels, and how rows with empty comment
text are rejected without failing the load.
"""

import csv
import tempfile
from pathlib import Path

from satdkit import LabelMapping, format_stats_table, load_collection

workdir = tempfile.TemporaryDirectory(prefix="satdkit-demo-")
root = Path(workdir.name)
print(f"writing a demo corpus under {root}\n")

rows = {
    "Frontend": [
        ("Frontend", "// TODO: cache these lookups", "DESIGN"),
        ("Frontend", "// parse the config eagerly", "WITHOUT_CLASSIFICATION"),
        ("Frontend", "// HACK: works around the reload race", "IMPLEMENTATION"),
        ("Frontend", "   ", "WITHOUT_CLASSIFICATION"),  # rejected: empty text
        ("Frontend", "// straightforward accessor", "WITHOUT_CLASSIFICATION"),
    ],
    "Backend": [
        ("Backend", "// validate inputs upstream", "WITHOUT_CLASSIFICATION"),
        ("Backend", "// FIXME this times out under load", "DEFECT"),
    ] + [("Backend", f"// helper number {i}", "WITHOUT_CLASSIFICATION") for i in range(6)],
}

for name, project_rows in rows.items():
    with (root / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["project", "comment", "raw_label"])
        writer.writerows(project_rows)

manifest = root / "manifest.tsv"
manifest.write_text(
    "# demo corpus\nFrontend\tFrontend.csv\nBackend\tBackend.csv\n", encoding="utf-8"
)

# The standard mapping: the explicit "no debt" annotation is negative,
# every other non-empty raw label counts as a debt admission.
mapping = LabelMapping.standard()
collection = load_collection(manifest, mapping, name="Demo")

print("label mapping in action:")
for raw in ("WITHOUT_CLASSIFICATION", "DESIGN", "DEFECT"):
    print(f"  {raw!r:28} -> {mapping.map(raw).name}")

print("\nper-project statistics (note the rejected empty-text row):")
print(format_stats_table(collection))
frontend = collection.get("Frontend")
print(f"\nFrontend kept {frontend.n_total} rows and rejected {frontend.n_rejected}.")
print("Comment ids are 0-based row indices after rejection filtering:")
for comment in frontend.comments:
    print(f"  id={comment.id}  {comment.label.name:8}  {comment.text}")

workdir.cleanup()
