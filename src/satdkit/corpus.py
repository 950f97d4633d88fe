"""Loading and summarizing labeled comment corpora.

A corpus is a set of projects, each a CSV file of annotated source-code
comments. Files use the schema ``project,comment,raw_label`` (UTF-8, quoted
fields). A manifest file maps project names to dataset files, and a label
mapping turns the raw annotation strings into the binary SATD / non-SATD
labels used everywhere else in the package.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import DataError, read_input, read_lines

log = logging.getLogger(__name__)

CSV_HEADER = ("project", "comment", "raw_label")

def strip_comment(line: str) -> str:
    """The line without its comment, trimmed. A ``#`` at the start of the
    line or after whitespace begins a comment; any other ``#`` is data."""
    return re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()


class Label(Enum):
    """Binary comment label; SATD is the positive (minority) class."""

    NON_SATD = 0
    SATD = 1


@dataclass(frozen=True)
class Comment:
    """One labeled comment. ``id`` is stable within its project.

    ``origin_id`` is None for comments read from disk; synthetic duplicates
    created by augmentation carry the id of the comment they were derived
    from, so train/test leakage can be audited.
    """

    id: int
    project: str
    text: str
    label: Label
    raw_label: str
    origin_id: int | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("comment text must be non-empty after trimming")
        if not isinstance(self.label, Label):
            raise ValueError(f"label must be a Label, got {self.label!r}")


@dataclass(frozen=True)
class LabelMapping:
    """Exact-match rules from raw annotation strings to binary labels, one
    label per pattern (so rule order does not matter).

    ``default`` applies to any *non-empty* raw label not matched by a rule;
    when it is None, unmatched labels are rejected and ingestion fails.
    """

    rules: dict[str, Label]
    default: Label | None = None

    def map(self, raw_label: str) -> Label:
        label = self.rules.get(raw_label, self.default if raw_label else None)
        if label is None:
            raise DataError(f"unmapped raw label {raw_label!r}")
        return label

    @classmethod
    def standard(cls) -> "LabelMapping":
        """Mapping for the public datasets: the explicit 'no debt' annotation
        is negative, every other non-empty annotation counts as SATD."""
        return cls(rules={"WITHOUT_CLASSIFICATION": Label.NON_SATD}, default=Label.SATD)


def load_label_mapping(path: str | Path) -> LabelMapping:
    """Parse a mapping file of ``pattern -> SATD|NON_SATD`` lines, each
    pattern at most once, so their order does not matter.

    Comments follow :func:`strip_comment`; the pattern ``*`` sets the default
    for unmatched non-empty labels.
    """
    lines = read_lines(path, "label mapping")
    targets: dict[str, Label] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if "->" not in line:
            raise DataError(f"{path}:{lineno}: expected 'pattern -> SATD|NON_SATD'")
        pattern, _, target = line.partition("->")
        pattern = pattern.strip()
        target = target.strip()
        if target not in ("SATD", "NON_SATD"):
            raise DataError(f"{path}:{lineno}: unknown target label {target!r}")
        if pattern in targets:
            raise DataError(f"{path}:{lineno}: pattern {pattern!r} is repeated")
        targets[pattern] = Label.SATD if target == "SATD" else Label.NON_SATD
    if not targets:
        raise DataError(f"{path}: mapping file defines no rules")
    default = targets.pop("*", None)
    return LabelMapping(rules=targets, default=default)


@dataclass(frozen=True)
class ProjectDataset:
    """All comments of one project, in file order; its counts derive from them."""

    project: str
    comments: tuple[Comment, ...]
    n_rejected: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "comments", tuple(self.comments))
        ids = [c.id for c in self.comments]
        if len(set(ids)) != len(ids):
            raise ValueError(f"{self.project}: duplicate comment ids")
        for c in self.comments:
            if c.project != self.project:
                raise ValueError(f"comment {c.id} belongs to {c.project!r}, not {self.project!r}")

    @property
    def n_total(self) -> int:
        return len(self.comments)

    @property
    def n_satd(self) -> int:
        return sum(1 for c in self.comments if c.label is Label.SATD)

    @property
    def satd_fraction(self) -> float:
        return self.n_satd / self.n_total if self.n_total else 0.0


@dataclass(frozen=True)
class CorpusCollection:
    """A named group of project datasets with unique project names."""

    name: str
    projects: tuple[ProjectDataset, ...]

    def __post_init__(self) -> None:
        names = [p.project for p in self.projects]
        if len(set(names)) != len(names):
            raise ValueError(f"collection {self.name!r} has duplicate project names")

    def __len__(self) -> int:
        return len(self.projects)

    def __iter__(self) -> Iterator[ProjectDataset]:
        return iter(self.projects)

    @property
    def project_names(self) -> tuple[str, ...]:
        return tuple(p.project for p in self.projects)

    def get(self, project: str) -> ProjectDataset:
        for p in self.projects:
            if p.project == project:
                return p
        raise KeyError(project)


def load_project(path: str | Path, mapping: LabelMapping, project_name: str) -> ProjectDataset:
    """Load one project's dataset CSV.

    Rows with empty comment text are logged and excluded (not fatal); any
    other malformed row aborts the load with its record number. Comment ids
    are 0-based row indices after rejection filtering.
    """
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(read_input(path, "dataset file"), newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: no rows")
    header, *body = rows
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    comments: list[Comment] = []
    n_rejected = 0
    for row_num, row in enumerate(body, start=2):
        if len(row) != 3:
            raise DataError(f"{path}: row {row_num}: expected 3 fields, got {len(row)}")
        row_project, text, raw_label = row
        if row_project and row_project != project_name:
            raise DataError(
                f"{path}: row {row_num}: project field {row_project!r} "
                f"does not match {project_name!r}"
            )
        if not text.strip():
            log.warning("%s: row %d rejected (empty comment text)", path, row_num)
            n_rejected += 1
            continue
        try:
            label = mapping.map(raw_label)
        except DataError as exc:
            raise DataError(f"{path}: row {row_num}: {exc}") from None
        comments.append(
            Comment(id=len(comments), project=project_name, text=text,
                    label=label, raw_label=raw_label)
        )
    if not comments:
        raise DataError(f"{path}: no usable rows ({n_rejected} rejected)")
    return ProjectDataset(project_name, tuple(comments), n_rejected=n_rejected)


def parse_manifest(path: str | Path) -> list[tuple[str, Path]]:
    """Read a manifest of ``project_name<TAB>path`` lines (``strip_comment`` comments).

    Relative dataset paths are resolved against the manifest's directory.
    Exports name files after projects, so a name must not be ``.``, ``..``
    or contain ``/`` or ``\\``.
    """
    path = Path(path)
    entries: list[tuple[str, Path]] = []
    for lineno, raw in enumerate(read_lines(path, "manifest"), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: expected 'project_name<TAB>path'")
        name, file_path = parts[0].strip(), Path(parts[1].strip())
        if name in (".", "..") or "/" in name or "\\" in name:
            raise DataError(f"{path}:{lineno}: project name {name!r} is a path")
        if not file_path.is_absolute():
            file_path = path.parent / file_path
        entries.append((name, file_path))
    return entries


def load_collection(
    manifest: str | Path, mapping: LabelMapping, name: str | None = None
) -> CorpusCollection:
    """Load every project listed in a manifest; fails atomically on any error."""
    manifest = Path(manifest)
    entries = parse_manifest(manifest)
    if not entries:
        raise DataError(f"{manifest}: empty manifest")
    seen: set[str] = set()
    for project_name, _ in entries:
        if project_name in seen:
            raise DataError(f"{manifest}: duplicate project name {project_name!r}")
        seen.add(project_name)
    datasets = []
    for project_name, file_path in entries:
        try:
            datasets.append(load_project(file_path, mapping, project_name))
        except DataError as exc:
            raise DataError(f"project {project_name}: {exc}") from None
    return CorpusCollection(name=name or manifest.stem, projects=tuple(datasets))


def format_stats_table(collection: CorpusCollection) -> str:
    """Per-project comment and SATD counts and SATD percentage, plus a totals
    row named after the collection, as a fixed-width text table with
    percentages rounded to 2 decimals."""
    if not collection.projects:
        raise DataError("empty collection")
    counts = [(ds.project, ds.n_total, ds.n_satd) for ds in collection]
    counts.append((collection.name, sum(c[1] for c in counts), sum(c[2] for c in counts)))
    rows = [("project", "n_total", "n_satd", "satd_pct")] + [
        (name, str(n), str(k), f"{100.0 * k / n if n else 0.0:.2f}") for name, n, k in counts
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([lines[0], rule, *lines[1:-1], rule, lines[-1]])
