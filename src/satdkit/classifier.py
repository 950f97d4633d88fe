"""The two built-in models, each a function from a comment (its raw text or
its words) to a score in [0, 1]; the harness predicts SATD iff score >=
threshold. An external neural trainer replaces them through the
batch-export / prediction-import bridge.

* ``mat_score``: the keyword baseline, 1.0 when a trigger matches the raw
  comment (no training),
* ``train_linear`` / ``predict_linear``: a logistic-regression model over
  binary token-presence features, trained by mini-batch gradient descent.
  It is the desk-scale stand-in for a heavyweight encoder and exercises the
  full sampling pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .augment import Batch
from .corpus import Label
from .errors import RunError
from .lexicon import TriggerLexicon, find_triggers
from .preprocess import split_identifiers  # noqa: F401  (bench/tracer.py patches this name)
from .vocab import Vocabulary, WordCache, tokenize, tokenize_texts

# numpy sums a row of up to this many float64s as one pairwise block
PAIRWISE_MAX = 127


@dataclass(frozen=True)
class LinearHyper:
    learning_rate: float = 0.1
    l2: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("learning_rate", "l2"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")


@dataclass
class LinearModelState:
    """Trained logistic-regression parameters over token-presence features."""

    weights: np.ndarray
    bias: float


def logistic(z: np.ndarray | float) -> np.ndarray | float:
    """1 / (1 + e^-z) as 0.5 + 0.5 tanh(z/2): exactly 0.5 at 0, and 0.0 or 1.0
    with no floating-point warning far out, infinities included."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def presence_features(
    vocab: Vocabulary, words: Iterable[str], max_seq_len: int = 128
) -> tuple[int, ...]:
    """Sorted unique token ids of a comment's words, specials excluded."""
    seq = tokenize(vocab, words, max_seq_len=max_seq_len)
    return tuple(sorted(set(seq.ids) - vocab.special_ids))


@dataclass(frozen=True)
class PairwiseRows:
    """Rows of feature ids laid out so that one ``sum(axis=1)`` adds each row
    bit for bit as ``np.add.reduce`` adds that row alone.

    numpy adds n <= 127 float64s in order from 0.0 when n < 8, and otherwise
    in 8 lanes over the floor(n/8) full blocks of 8, combined by a fixed
    tree, and then the rest in order. So a row of n ids holds its first
    8*floor(n/8) ids, then ``pad`` (an id whose weight stays 0), then its
    last n % 8 ids in the final columns, and the width is
    8*max(1, floor(n_max/8)) + 7: extra blocks only add zeros to the lanes.
    numpy splits a row wider than 127 in halves, so when one has more than
    127 ids, the sum reads the first 120 and last 7 columns (which hold every
    shorter row) and each longer row is reduced on its own.
    """

    ids: np.ndarray  # (rows, width)
    pad: int
    short: np.ndarray  # ``ids``, or its 127 columns that hold the shorter rows
    long: dict[int, np.ndarray]  # the ids of each row over PAIRWISE_MAX, by row

    @classmethod
    def from_flat(cls, ids: np.ndarray, counts: np.ndarray, pad: int) -> "PairwiseRows":
        """The layout of rows given as their ids back to back and each row's count."""
        width = 8 * max(1, int(counts.max(initial=0)) // 8) + 7
        starts = np.cumsum(counts) - counts
        position = np.arange(len(ids)) - np.repeat(starts, counts)
        tail = position >= np.repeat(counts - counts % 8, counts)
        block = np.full((len(counts), width), pad, dtype=np.intp)
        block[np.repeat(np.arange(len(counts)), counts),
              np.where(tail, position + np.repeat(width - counts, counts), position)] = ids
        long = {r: ids[starts[r]:starts[r] + counts[r]]
                for r in np.flatnonzero(counts > PAIRWISE_MAX).tolist()}
        short = block if width <= PAIRWISE_MAX else block[:, np.r_[:PAIRWISE_MAX - 7, -7:0]]
        return cls(block, pad, short, long)

    def sums(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Each listed row's sum of ``w`` over its ids."""
        z = w[self.short[rows]].sum(axis=1)
        if self.long:
            for i, r in enumerate(rows.tolist()):
                if r in self.long:
                    z[i] = np.add.reduce(w[self.long[r]])
        return z


def presence_rows(
    vocab: Vocabulary, words: WordCache, texts: Sequence[str], max_seq_len: int = 128
) -> PairwiseRows:
    """``presence_features`` of every text, one row each, in one numpy pass."""
    pieces, key = tokenize_texts(vocab, words, texts, max_seq_len)
    special = np.zeros(vocab.size, dtype=bool)
    special[list(vocab.special_ids)] = True
    # turn each piece's text index into a (text, id) key in place, then
    # dedupe each row by sorting the keys and dropping repeats (np.unique
    # would take a slower hash path)
    key *= vocab.size
    key += pieces
    key = np.sort(key[~special[pieces]])
    rows, ids = np.divmod(key[np.diff(key, prepend=-1) != 0], vocab.size)
    return PairwiseRows.from_flat(ids, np.bincount(rows, minlength=len(texts)), vocab.pad_id)


def train_linear(
    stream: Iterable[Batch],
    vocab: Vocabulary,
    words: WordCache,
    hyper: LinearHyper = LinearHyper(),
    max_seq_len: int = 128,
) -> LinearModelState:
    """Mini-batch gradient descent on mean binary cross-entropy with an L2
    penalty (loss = mean BCE + l2/2 * ||w||^2; the bias is unpenalized).

    The stream is read whole, then its batches train in stream order; weights
    start at zero, so training is fully deterministic for a fixed stream. An
    empty stream returns the zero state. Every batch must index one train
    list (as a sampler stream's batches do). Each train row's text and label
    are read once, and the distinct texts are featurized together, from
    ``words``, into one ``PairwiseRows`` matrix. A batch's scores are then
    one row sum, bit for bit a per-row ``np.add.reduce`` (which adds
    pairwise) because of that matrix's layout, up to 127 features a row; a
    longer row, possible only at max_seq_len > 129, is reduced on its own.
    The gradient is one ``bincount`` over the rows' ids; with no such long
    row, one gather of the batch's rows serves both. The weights update in
    place.
    """
    batches = list(stream)
    train = batches[0].train if batches else ()
    if any(batch.train is not train for batch in batches):
        raise ValueError("the batches of one stream must index one train list")
    # two comments may share a text and differ in label: matrix rows by text,
    # labels by train row
    texts = [c.text for c in train]
    row_of = {text: row for row, text in enumerate(dict.fromkeys(texts))}
    text_rows = np.fromiter(map(row_of.__getitem__, texts), np.intp, len(texts))
    is_satd = np.array([c.label is Label.SATD for c in train], dtype=np.float64)
    item_rows = np.fromiter(chain.from_iterable(b.rows for b in batches), np.intp)
    matrix_rows, labels = text_rows[item_rows], is_satd[item_rows]
    matrix = presence_rows(vocab, words, list(row_of), max_seq_len)
    # with no row over 127 ids, the sums read ``ids`` whole, so a batch's one
    # gather feeds both its row sums and its gradient
    one_gather = matrix.short is matrix.ids
    lr, decay = hyper.learning_rate, 1.0 - hyper.learning_rate * hyper.l2
    w = np.zeros(vocab.size, dtype=np.float64)
    b = 0.0
    end = 0
    # overflow to inf is what the loss's finiteness check catches; one errstate per fit
    with np.errstate(over="ignore"):
        for batch in batches:
            start, end = end, end + len(batch.rows)
            rows, y, n = matrix_rows[start:end], labels[start:end], end - start
            block = matrix.ids[rows]
            z = (w[block].sum(axis=1) if one_gather else matrix.sums(w, rows)) + b
            p = logistic(z)
            # stable BCE: log(1+e^z) - y*z, plus the quadratic penalty; a
            # reduce over n is what np.mean computes
            loss = float(np.add.reduce(np.logaddexp(0.0, z) - y * z) / n
                         + 0.5 * hyper.l2 * float(w @ w))
            if not math.isfinite(loss):
                raise RunError(f"non-finite loss at epoch {batch.epoch} batch {batch.batch_index}")
            g = p - y
            # each feature sums its items' g from 0.0 in item order; the pad
            # bin collects the padding's terms and is dropped
            weights = np.repeat(g, block.shape[1])
            grad = np.bincount(block.ravel(), weights=weights, minlength=vocab.size)
            grad[matrix.pad] = 0.0
            grad /= n
            # w = decay * w - lr * grad, in place
            w *= decay
            grad *= lr
            w -= grad
            b -= lr * float(np.add.reduce(g) / n)
    return LinearModelState(weights=w, bias=b)


def predict_linear(
    state: LinearModelState,
    vocab: Vocabulary,
    words: Iterable[str],
    max_seq_len: int = 128,
) -> float:
    """logistic(w . x + b) with x the binary presence vector of ``words``."""
    feats = presence_features(vocab, words, max_seq_len)
    z = state.weights[list(feats)].sum() + state.bias
    return float(logistic(z))


def mat_score(lexicon: TriggerLexicon, text: str) -> float:
    """Keyword baseline: 1.0 when a trigger matches the raw comment text."""
    return 1.0 if find_triggers(lexicon, text) else 0.0
