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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .augment import Batch
from .corpus import Label
from .errors import RunError
from .lexicon import TriggerLexicon, find_triggers
from .preprocess import split_identifiers  # noqa: F401  (bench/tracer.py patches this name)
from .vocab import Vocabulary, WordCache, tokenize


@dataclass(frozen=True)
class LinearHyper:
    learning_rate: float = 0.1
    l2: float = 1e-4


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


def train_linear(
    stream: Iterable[Batch],
    vocab: Vocabulary,
    words: WordCache,
    hyper: LinearHyper = LinearHyper(),
    max_seq_len: int = 128,
) -> LinearModelState:
    """Mini-batch gradient descent on mean binary cross-entropy with an L2
    penalty (loss = mean BCE + l2/2 * ||w||^2; the bias is unpenalized).

    Batches are consumed in stream order; weights start at zero, so training
    is fully deterministic for a fixed stream. An empty stream returns the
    zero state. Each distinct comment text is featurized once, from
    ``words``, and a batch's gradient is one ``bincount`` over its items'
    feature ids.
    """
    if hyper.learning_rate < 0:
        raise ValueError(f"learning_rate must be >= 0, got {hyper.learning_rate}")
    w = np.zeros(vocab.size, dtype=np.float64)
    b = 0.0
    # the feature ids of each distinct comment text, as an index array
    feats_of: dict[str, np.ndarray] = {}
    # overflow to inf is what the loss's finiteness check catches; one errstate per fit
    with np.errstate(over="ignore"):
        for batch in stream:
            cols = []
            for c in batch.items:
                f = feats_of.get(c.text)
                if f is None:
                    feats = presence_features(vocab, words[c.text], max_seq_len)
                    f = feats_of[c.text] = np.array(feats, dtype=np.intp)
                cols.append(f)
            y = np.array([c.label is Label.SATD for c in batch.items], dtype=np.float64)
            # one reduce per row, which adds pairwise; reduceat or a sparse
            # matvec would add sequentially and move the last bits of z
            z = np.fromiter([np.add.reduce(w[f]) for f in cols], np.float64, len(cols)) + b
            p = logistic(z)
            # stable BCE: log(1+e^z) - y*z, plus the quadratic penalty
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * hyper.l2 * float(w @ w))
            if not np.isfinite(loss):
                raise RunError(f"non-finite loss at epoch {batch.epoch} batch {batch.batch_index}")
            g = p - y
            # each feature sums its items' g from 0.0 in item order (bincount
            # returns ints when no item has a feature; the division makes floats)
            lens = [len(f) for f in cols]
            grad = np.bincount(
                np.concatenate(cols), weights=np.repeat(g, lens), minlength=vocab.size
            ) / len(y)
            w = (1.0 - hyper.learning_rate * hyper.l2) * w - hyper.learning_rate * grad
            b -= hyper.learning_rate * float(g.mean())
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
