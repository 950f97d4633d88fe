"""Shared builders for synthetic corpora used across the test suite."""

import csv
import random
from pathlib import Path

from satdkit.corpus import Comment, Label

# Trigger words planted into synthetic minority comments; the default
# duplication lexicon covers all of them.
PLANTED_TRIGGERS = ("todo", "fixme", "hack", "xxx", "ugly")

COMMON_WORDS = [f"w{i:02d}" for i in range(40)] + [
    "value", "parser", "cache", "thread", "loop", "index", "buffer", "stream",
]


def make_comment(i, text, label, project="P", raw_label=None):
    if raw_label is None:
        raw_label = "DESIGN" if label is Label.SATD else "WITHOUT_CLASSIFICATION"
    return Comment(id=i, project=project, text=text, label=label, raw_label=raw_label)


def write_dataset_csv(path, rows):
    """rows: iterable of (project, comment, raw_label) triples."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["project", "comment", "raw_label"])
        writer.writerows(rows)


def write_corpus(root, projects, manifest_name="manifest.tsv"):
    """Write one CSV per project plus a manifest; returns the manifest path.

    ``projects``: {name: [(text, Label), ...]}.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, comments in projects.items():
        rows = [
            (name, text, "DESIGN" if label is Label.SATD else "WITHOUT_CLASSIFICATION")
            for text, label in comments
        ]
        write_dataset_csv(root / f"{name}.csv", rows)
        lines.append(f"{name}\t{name}.csv")
    manifest = root / manifest_name
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def planted_comment_text(rng, satd, triggers=PLANTED_TRIGGERS):
    """A comment built from common words; minority comments carry the full
    planted trigger vocabulary so the label is linearly separable."""
    words = rng.choices(COMMON_WORDS, k=rng.randint(6, 12))
    if satd:
        pos = rng.randint(0, len(words))
        words = words[:pos] + list(triggers) + words[pos:]
    return "// " + " ".join(words)


def planted_rows(seed, n_total, n_satd, triggers=PLANTED_TRIGGERS):
    rng = random.Random(seed)
    flags = [True] * n_satd + [False] * (n_total - n_satd)
    rng.shuffle(flags)
    return [
        (planted_comment_text(rng, satd, triggers), Label.SATD if satd else Label.NON_SATD)
        for satd in flags
    ]


def write_planted_corpus(root, n_total=2000, n_satd=100, seed=7, project="Planted"):
    """Single-project corpus where SATD <=> the planted triggers are present."""
    return write_corpus(root, {project: planted_rows(seed, n_total, n_satd)})


def planted_project_comments(seed, n_total, n_satd, project):
    rows = planted_rows(seed, n_total, n_satd)
    return [
        make_comment(i, text, label, project=project)
        for i, (text, label) in enumerate(rows)
    ]


# --- corpus for tokenizer coverage properties -------------------------------
#
# The base vocabulary covers only COVERED_CHARS (as single-character whole and
# continuation tokens), so words over the full alphabet that touch
# EXTRA_CHARS are UNK until discovery adds them whole. Because discovered
# tokens are whole-word only and every covered character keeps its
# continuation piece, vocabulary augmentation can only remove UNKs here.

COVERED_CHARS = "abcdefgh"
EXTRA_CHARS = "xyz"
FULL_CHARS = COVERED_CHARS + EXTRA_CHARS


def coverage_base_vocab():
    from satdkit.vocab import CONTINUATION_PREFIX, SPECIALS, Vocabulary

    tokens = list(SPECIALS)
    tokens.extend(COVERED_CHARS)
    tokens.extend(CONTINUATION_PREFIX + c for c in COVERED_CHARS)
    return Vocabulary.from_tokens(tokens)


def coverage_word(rng, lo=2, hi=6):
    return "".join(rng.choice(FULL_CHARS) for _ in range(rng.randint(lo, hi)))


def coverage_collection(seed=5, n_projects=8, n_shared=30, comments_per_project=40):
    from satdkit.corpus import CorpusCollection, ProjectDataset

    rng = random.Random(seed)
    shared = [coverage_word(rng) for _ in range(n_shared)]
    datasets = []
    for p in range(n_projects):
        name = f"proj{p}"
        comments = []
        for i in range(comments_per_project):
            words = [rng.choice(shared) for _ in range(rng.randint(3, 8))]
            words.extend(coverage_word(rng) for _ in range(rng.randint(0, 2)))
            comments.append(make_comment(i, " ".join(words), Label.NON_SATD, project=name))
        datasets.append(ProjectDataset(name, comments))
    return CorpusCollection("coverage", tuple(datasets))


def collection_words(collection):
    """One word set per project of ``collection``, as a run computes them."""
    from satdkit.vocab import WordCache

    return WordCache().project_words(c for ds in collection for c in ds.comments)


def coverage_random_comment(rng):
    return " ".join(coverage_word(rng) for _ in range(rng.randint(3, 10)))
