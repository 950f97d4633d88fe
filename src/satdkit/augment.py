"""Seeded training-batch streams and minority augmentation.

Three ways to feed a trainer:

* plain shuffled batches (the untouched baseline),
* forced minority re-sampling: a seeded coin marks a fraction of batches for
  adjustment, and in adjusted batches majority items are replaced by draws
  from the minority pool until the majority:minority ratio is at most a
  target value,
* duplication: every minority comment containing a trigger word gains one
  extra copy with the triggers removed, after which re-sampling applies on
  top.

All randomness is derived from (seed, epoch, batch_index), so any batch can
be re-generated independently and streams are fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .corpus import Comment, Label
from .errors import DataError, write_output
from .lexicon import TriggerLexicon, is_marker_only, remove_triggers
from .lexicon import find_triggers  # noqa: F401  (bench/tracer.py patches this name)

# Stream namespaces keep the shuffle, coin/draw, and fold RNGs independent
# even under one experiment seed.
_SHUFFLE_STREAM = 1
_BATCH_STREAM = 2

T = TypeVar("T")

DUP_SCOPES = ("triggered", "all")


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, namespace, ...) key: the one
    ``np.random.default_rng([seed mod 2**64, *key])`` builds. Its entropy,
    each integer's 32-bit words low word first (0 as one word), is handed
    over as a uint32 array, which numpy takes without coercing a list."""
    words = []
    for n in (seed & 0xFFFFFFFFFFFFFFFF, *key):
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


@dataclass(frozen=True)
class SamplerConfig:
    """Batch-stream settings; defaults follow the standard recipe
    (batch 32, 10% of batches adjusted, 3:1 majority cap)."""

    seed: int
    batch_size: int = 32
    trigger_prob: float = 0.10
    target_ratio: float = 3.0
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.trigger_prob <= 1.0:
            raise ValueError(f"trigger_prob must be in [0, 1], got {self.trigger_prob}")
        if not (self.target_ratio >= 1.0 and math.isfinite(self.target_ratio)):
            raise ValueError(f"target_ratio must be >= 1 and finite, got {self.target_ratio}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass(frozen=True)
class Batch:
    """One training batch: ``rows`` are positions in ``train``, the one list
    that every batch of its stream draws from; ``items`` builds the batch's
    comments from them on each access."""

    train: Sequence[Comment] = field(repr=False)
    rows: tuple[int, ...]
    adjusted: bool
    epoch: int
    batch_index: int

    @property
    def items(self) -> tuple[Comment, ...]:
        return tuple(map(self.train.__getitem__, self.rows))

    def label_counts(self) -> tuple[int, int]:
        """(n_satd, n_non_satd) for this batch."""
        n_satd = sum(1 for c in self.items if c.label is Label.SATD)
        return n_satd, len(self.rows) - n_satd


def plain_batches(train: list[Comment], cfg: SamplerConfig) -> Iterator[Batch]:
    """Per epoch: one seeded uniform shuffle, chunked into batches.

    Only the final batch of an epoch may be short. Identical inputs yield
    identical streams.
    """
    if not train:
        raise DataError("empty training set")
    for epoch in range(cfg.epochs):
        order = seeded_rng(cfg.seed, _SHUFFLE_STREAM, epoch).permutation(len(train)).tolist()
        for batch_index, start in enumerate(range(0, len(train), cfg.batch_size)):
            rows = tuple(order[start : start + cfg.batch_size])
            yield Batch(train, rows, adjusted=False, epoch=epoch, batch_index=batch_index)


def _is_satd(c: Comment) -> bool:
    return c.label is Label.SATD


def rebalance_items(
    items: tuple[T, ...],
    satd_pool: Sequence[T],
    target_ratio: float,
    rng: np.random.Generator,
    is_satd: Callable[[T], bool] = _is_satd,
) -> tuple[T, ...]:
    """Replace majority items until count(non) <= target_ratio * count(satd).

    One replacement at a time: a uniformly chosen majority slot receives a
    uniform draw (with replacement) from the minority pool. Batch size is
    preserved; an already balanced batch comes back unchanged. Items are
    comments, or rows of a train list with ``is_satd`` reading their labels.
    """
    out = list(items)
    non_positions = [i for i, item in enumerate(out) if not is_satd(item)]
    n_satd = len(out) - len(non_positions)
    while len(non_positions) > target_ratio * n_satd:
        victim = int(rng.integers(len(non_positions)))
        pos = non_positions.pop(victim)
        out[pos] = satd_pool[int(rng.integers(len(satd_pool)))]
        n_satd += 1
    return tuple(out)


def fmr_batches(train: list[Comment], cfg: SamplerConfig) -> Iterator[Batch]:
    """Plain stream with forced minority re-sampling applied per batch.

    An independent seeded coin with probability ``trigger_prob`` decides
    whether a batch is adjusted; unadjusted batches pass through untouched
    and are identical to the plain stream under the same seed. Adjusted
    batches draw from the SATD rows of ``train``, in train order; an empty
    pool fails at the call, before any batch.
    """
    is_satd = [c.label is Label.SATD for c in train]
    satd_pool = [row for row, satd in enumerate(is_satd) if satd]
    if not satd_pool:
        raise DataError("empty SATD pool")
    return _fmr_stream(train, is_satd, satd_pool, cfg)


def _fmr_stream(
    train: list[Comment], is_satd: list[bool], pool: list[int], cfg: SamplerConfig
) -> Iterator[Batch]:
    for batch in plain_batches(train, cfg):
        rng = seeded_rng(cfg.seed, _BATCH_STREAM, batch.epoch, batch.batch_index)
        if rng.random() < cfg.trigger_prob:
            rows = rebalance_items(batch.rows, pool, cfg.target_ratio, rng, is_satd.__getitem__)
            yield replace(batch, rows=rows, adjusted=True)
        else:
            yield batch


def dup_augment(
    train: list[Comment],
    lex: TriggerLexicon,
    scope: str = "triggered",
    reserved: Iterable[Comment] = (),
    stripped: dict[str, str] | None = None,
) -> tuple[list[Comment], int]:
    """Append trigger-stripped duplicates of minority comments.

    scope="triggered" duplicates only SATD comments containing at least one
    strict trigger span; scope="all" also duplicates trigger-free SATD
    comments verbatim (pure oversampling). Duplicates whose text collapses
    to nothing or to bare comment markers are skipped. Duplicate ids are
    fresh and record the source comment id: in each project they start after
    the largest id in ``train`` and ``reserved``, so passing the held-out
    comments keeps duplicates from colliding with them. ``stripped`` maps
    an SATD text to its stripped form for calls with one lexicon (a run
    passes one per run); texts it lacks are stripped and added.

    Returns the augmented list (originals untouched, duplicates appended in
    scan order) and the duplicate count.
    """
    if scope not in DUP_SCOPES:
        raise ValueError(f"unknown dup scope {scope!r}")
    if stripped is None:
        stripped = {}
    next_id: dict[str, int] = {}
    for c in chain(train, reserved):
        next_id[c.project] = max(next_id.get(c.project, -1), c.id)
    duplicates: list[Comment] = []
    for c in train:
        if c.label is not Label.SATD:
            continue
        # stripping changes the text exactly when it holds a strict trigger span
        text = stripped.get(c.text)
        if text is None:
            text = stripped[c.text] = remove_triggers(lex, c.text)
        if (scope == "triggered" and text == c.text) or is_marker_only(text):
            continue
        next_id[c.project] += 1
        duplicates.append(
            Comment(
                id=next_id[c.project],
                project=c.project,
                text=text,
                label=Label.SATD,
                raw_label=c.raw_label,
                origin_id=c.id,
            )
        )
    return list(train) + duplicates, len(duplicates)


def batch_record(batch: Batch) -> dict:
    """JSON-serializable form of a batch for external trainers."""
    return {
        "epoch": batch.epoch,
        "batch": batch.batch_index,
        "adjusted": batch.adjusted,
        "items": [
            {
                "project": c.project,
                "id": c.id,
                "text": c.text,
                "label": c.label.value,
            }
            for c in batch.items
        ],
    }


def _item_json(c: Comment) -> str:
    # json.dumps of the item's record in batch_record, without the encoder's
    # per-call setup: the same key order, separators and ASCII escapes
    text, project = encode_basestring_ascii(c.text), encode_basestring_ascii(c.project)
    return f'{{"project": {project}, "id": {c.id}, "text": {text}, "label": {c.label.value}}}'


def write_batches_jsonl(batches: Iterable[Batch], path: str | Path) -> int:
    """Write one JSON line per batch, ``json.dumps(batch_record(batch))``
    byte for byte; returns the number of lines written.

    Each row of a batch's train list is encoded once, when the first batch
    over that list arrives, and a line joins the encoded rows of its batch.
    """
    return write_output(path, _batch_lines(batches))


def _batch_lines(batches: Iterable[Batch]) -> Iterator[str]:
    train: Sequence[Comment] | None = None
    encoded: list[str] = []
    for b in batches:
        if b.train is not train:
            train = b.train
            encoded = [_item_json(c) for c in train]
        adjusted = "true" if b.adjusted else "false"
        items = ", ".join([encoded[row] for row in b.rows])
        yield (f'{{"epoch": {b.epoch}, "batch": {b.batch_index}, '
               f'"adjusted": {adjusted}, "items": [{items}]}}\n')
