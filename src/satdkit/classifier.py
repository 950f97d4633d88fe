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


def presence_rows(
    vocab: Vocabulary, words: WordCache, texts: Sequence[str], max_seq_len: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """``presence_features`` of every text, in one numpy pass, as pad-led
    runs: ``ids`` holds each text's features back to back, each run led by
    ``vocab.pad_id``, and text i's run begins at ``starts[i]``."""
    pieces, key = tokenize_texts(vocab, words, texts, max_seq_len)
    special = np.zeros(vocab.size, dtype=bool)
    special[list(vocab.special_ids)] = True
    # turn each piece's text index into a (text, id) key in place, then
    # dedupe each run by sorting the keys and dropping repeats (np.unique
    # would take a slower hash path)
    key *= vocab.size
    key += pieces
    key = np.sort(key[~special[pieces]])
    rows, ids = np.divmod(key[np.diff(key, prepend=-1) != 0], vocab.size)
    counts = np.bincount(rows, minlength=len(texts))
    first = np.cumsum(counts) - counts
    return np.insert(ids, first, vocab.pad_id), first + np.arange(len(texts))


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
    are read once, the distinct texts are featurized together, from
    ``words``, into ``presence_rows``' pad-led runs, and every stream item's
    run is laid out once in stream order, so a batch is one slice. Its
    scores are one ``np.add.reduceat`` over the slice: a run's leading
    ``[PAD]`` weighs 0.0, and ``reduceat`` adds the rest of the run to it
    pairwise, bit for bit as ``np.add.reduce`` sums the run's features from
    its 0.0 start, at every run length. The gradient is one ``bincount``
    over the same slice. The weights update in place.
    """
    batches = list(stream)
    train = batches[0].train if batches else ()
    if any(batch.train is not train for batch in batches):
        raise ValueError("the batches of one stream must index one train list")
    # two comments may share a text and differ in label: runs by text,
    # labels by train row
    texts = [c.text for c in train]
    row_of = {text: row for row, text in enumerate(dict.fromkeys(texts))}
    text_rows = np.fromiter(map(row_of.__getitem__, texts), np.intp, len(texts))
    is_satd = np.array([c.label is Label.SATD for c in train], dtype=np.float64)
    item_rows = np.fromiter(chain.from_iterable(b.rows for b in batches), np.intp)
    labels = is_satd[item_rows]
    ids, starts = presence_rows(vocab, words, list(row_of), max_seq_len)
    # every item's run in stream order; item i's run is layout[bounds[i]:bounds[i + 1]]
    run_rows = text_rows[item_rows]
    lens = np.diff(starts, append=len(ids))[run_rows]
    bounds = np.concatenate(([0], np.cumsum(lens)))
    # the index built in place and then replaced by the ids it gathers, so
    # that the fit's peak memory holds one index array at a time
    layout = np.repeat(starts[run_rows] - bounds[:-1], lens)
    layout += np.arange(len(layout))
    layout = ids[layout]
    lr, decay = hyper.learning_rate, 1.0 - hyper.learning_rate * hyper.l2
    w = np.zeros(vocab.size, dtype=np.float64)
    b = 0.0
    end = 0
    # overflow to inf is what the loss's finiteness check catches; one errstate per fit
    with np.errstate(over="ignore"):
        for batch in batches:
            start, end = end, end + len(batch.rows)
            y, n = labels[start:end], end - start
            block = layout[bounds[start]:bounds[end]]
            z = np.add.reduceat(w[block], bounds[start:end] - bounds[start]) + b
            p = logistic(z)
            # stable BCE: log(1+e^z) - y*z, plus the quadratic penalty; a
            # reduce over n is what np.mean computes
            loss = float(np.add.reduce(np.logaddexp(0.0, z) - y * z) / n
                         + 0.5 * hyper.l2 * float(w @ w))
            if not math.isfinite(loss):
                raise RunError(f"non-finite loss at epoch {batch.epoch} batch {batch.batch_index}")
            g = p - y
            # each feature sums its items' g from 0.0 in item order; the pad
            # bin collects each run's leading term and is dropped
            grad = np.bincount(block, weights=np.repeat(g, lens[start:end]), minlength=vocab.size)
            grad[vocab.pad_id] = 0.0
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
