"""Classifier contract and the two built-in models.

The contract is deliberately small so an external neural trainer can slot in
through the batch-export / prediction-import boundary: fit on a batch
stream, then produce a score in [0, 1] per comment, with SATD predicted iff
score >= threshold.

Built-ins:

* a keyword classifier that fires on trigger-lexicon matches (no training),
* a logistic-regression model over binary token-presence features, trained
  by mini-batch gradient descent. It is the desk-scale stand-in for a
  heavyweight encoder and exercises the full sampling pipeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import expit

from .augment import Batch
from .corpus import Comment, Label
from .errors import RunError
from .lexicon import TriggerLexicon, find_triggers
from .preprocess import PreprocessedText, split_identifiers
from .vocab import Vocabulary, tokenize

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class LinearHyper:
    learning_rate: float = 0.1
    epochs: int = 5
    l2: float = 1e-4


@dataclass
class LinearModelState:
    """Trained logistic-regression parameters over token-presence features."""

    weights: np.ndarray
    bias: float
    hyper: LinearHyper


def presence_features(
    vocab: Vocabulary, text: PreprocessedText, max_seq_len: int = 128
) -> tuple[int, ...]:
    """Sorted unique token ids of a comment, special tokens excluded."""
    seq = tokenize(vocab, text, max_seq_len=max_seq_len)
    return tuple(sorted(set(seq.ids) - vocab.special_ids))


def _features_for_comment(
    vocab: Vocabulary,
    comment: Comment,
    max_seq_len: int,
    cache: dict[tuple[str, int], tuple[int, ...]],
) -> tuple[int, ...]:
    key = (comment.project, comment.id)
    feats = cache.get(key)
    if feats is None:
        feats = presence_features(vocab, split_identifiers(comment.text), max_seq_len)
        cache[key] = feats
    return feats


def train_linear(
    stream: Iterable[Batch],
    vocab: Vocabulary,
    hyper: LinearHyper = LinearHyper(),
    max_seq_len: int = 128,
) -> LinearModelState:
    """Mini-batch gradient descent on mean binary cross-entropy with an L2
    penalty (loss = mean BCE + l2/2 * ||w||^2; the bias is unpenalized).

    Batches are consumed in stream order; weights start at zero, so training
    is fully deterministic for a fixed stream. An empty stream returns the
    zero state.
    """
    if hyper.learning_rate < 0:
        raise ValueError(f"learning_rate must be >= 0, got {hyper.learning_rate}")
    w = np.zeros(vocab.size, dtype=np.float64)
    b = 0.0
    cache: dict[tuple[str, int], tuple[int, ...]] = {}
    for batch in stream:
        feats = [
            _features_for_comment(vocab, comment, max_seq_len, cache)
            for comment, _ in batch.items
        ]
        y = np.array([1.0 if label is Label.SATD else 0.0 for _, label in batch.items])
        z = np.array([w[list(f)].sum() + b for f in feats])
        p = expit(z)
        # stable BCE: log(1+e^z) - y*z, plus the quadratic penalty; overflow
        # to inf is intentional here, it is what the finiteness check catches
        with np.errstate(over="ignore"):
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * hyper.l2 * float(w @ w))
        if not np.isfinite(loss):
            raise RunError(
                f"non-finite loss at epoch {batch.epoch} batch {batch.batch_index}"
            )
        g = p - y
        grad = np.zeros_like(w)
        for f, gi in zip(feats, g):
            if f:
                grad[list(f)] += gi
        grad /= len(y)
        w = (1.0 - hyper.learning_rate * hyper.l2) * w - hyper.learning_rate * grad
        b -= hyper.learning_rate * float(g.mean())
    return LinearModelState(weights=w, bias=b, hyper=hyper)


def predict_linear(
    state: LinearModelState,
    vocab: Vocabulary,
    text: PreprocessedText,
    max_seq_len: int = 128,
) -> float:
    """logistic(w . x + b) with x the binary presence vector."""
    feats = presence_features(vocab, text, max_seq_len)
    z = state.weights[list(feats)].sum() + state.bias
    return float(expit(z))


class Classifier(ABC):
    """Train-once, score-many contract shared by all in-process models."""

    threshold: float = DEFAULT_THRESHOLD

    @abstractmethod
    def fit(self, batches: Iterable[Batch], vocab: Vocabulary | None) -> None:
        """Consume a batch stream; may be a no-op for training-free models."""

    @abstractmethod
    def score(self, text: PreprocessedText) -> float:
        """Deterministic score in [0, 1]; higher means more debt-like."""

    def classify(self, text: PreprocessedText) -> Label:
        return Label.SATD if self.score(text) >= self.threshold else Label.NON_SATD


class LinearClassifier(Classifier):
    def __init__(
        self,
        hyper: LinearHyper = LinearHyper(),
        max_seq_len: int = 128,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.hyper = hyper
        self.max_seq_len = max_seq_len
        self.threshold = threshold
        self.state: LinearModelState | None = None
        self._vocab: Vocabulary | None = None

    def fit(self, batches: Iterable[Batch], vocab: Vocabulary | None) -> None:
        if vocab is None:
            raise RunError("linear classifier requires a vocabulary")
        self.state = train_linear(batches, vocab, self.hyper, max_seq_len=self.max_seq_len)
        self._vocab = vocab

    def score(self, text: PreprocessedText) -> float:
        if self.state is None or self._vocab is None:
            raise RunError("linear classifier used before fit()")
        return predict_linear(self.state, self._vocab, text, max_seq_len=self.max_seq_len)


class MatClassifier(Classifier):
    """Keyword baseline: 1.0 when a trigger matches the raw text, else 0.0."""

    def __init__(self, lexicon: TriggerLexicon, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.lexicon = lexicon
        self.threshold = threshold

    def fit(self, batches: Iterable[Batch], vocab: Vocabulary | None) -> None:
        pass

    def score(self, text: PreprocessedText) -> float:
        return 1.0 if find_triggers(self.lexicon, text.original) else 0.0

