"""Subword vocabulary construction and greedy longest-match tokenization.

The vocabulary starts from a base token file (one token per line, line
number = id) and grows by the domain words discovered in a corpus.
Discovery maps each word that is not already a base token (whole word or
``##`` continuation piece) and appears in strictly more than a threshold
fraction (default 25%) of the corpus projects to its project count, most
widespread first. A hand-maintained denylist file removes flawed
extractions, and the surviving words are appended to the base tokens;
growing checks only the appended tokens.

Tokenization is the standard greedy longest-prefix scheme: non-initial
pieces carry the ``##`` continuation marker, a word with no matching prefix
(or longer than 100 characters) becomes a single UNK, and sequences are
wrapped in CLS/SEP and truncated to a maximum length. Both tokenizers
read a word's pieces from the vocabulary's memo, which one function fills
for the words it lacks; a word that is a token is looked up, never matched.
A grown vocabulary also remembers its base, and one test finds the words
inside which an appended token can match: as the word's prefix, or as a
``##`` token whose body occurs after the word's first character. Only those
words are matched under the grown vocabulary. Every other word has the same
pieces under both, so it is matched once in the base's memo and shared by
every vocabulary built on that base (one run's units share one base, so the
memo is run-wide).
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, read_lines, write_output
from .preprocess import segment_words, split_identifiers

CONTINUATION_PREFIX = "##"
MAX_WORD_CHARS = 100

# The reserved token strings every vocabulary must contain.
UNK, PAD, CLS, SEP = "[UNK]", "[PAD]", "[CLS]", "[SEP]"
SPECIALS = (UNK, PAD, CLS, SEP)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token table: dense ids 0..size-1 in token-list order.

    ``pieces`` memoizes each tokenized word's piece ids (``(unk_id,)`` for an
    UNK word). ``base`` is the vocabulary this one extends (its tokens are
    this one's first ids); a word that ``touched`` does not report takes its
    pieces from the base's memo.
    Neither takes part in equality: the memo is derived from the tokens, and
    the base only spares repeated matching.
    """

    tokens: tuple[str, ...]
    index: dict[str, int]
    pieces: dict[str, tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    base: "Vocabulary | None" = field(default=None, compare=False, repr=False)

    @classmethod
    def from_tokens(
        cls, tokens: list[str] | tuple[str, ...], base: "Vocabulary | None" = None
    ) -> "Vocabulary":
        """The vocabulary of ``tokens``, each checked in id order. Given a
        ``base`` whose tokens start ``tokens``, it copies the base's index
        and checks only the tokens after them: the base was checked when it
        was built."""
        tokens = tuple(tokens)
        index = dict(base.index) if base else {}
        for i in range(len(index), len(tokens)):
            token = tokens[i]
            if token in index:
                raise DataError(f"duplicate token {token!r} (ids {index[token]} and {i})")
            if token.split() != [token]:  # empty, or holds whitespace
                raise DataError(f"token {token!r} contains whitespace" if token
                                else f"empty token at id {i}")
            index[token] = i
        missing = [s for s in SPECIALS if s not in index]
        if missing:
            raise DataError(f"vocabulary is missing special tokens: {missing}")
        return cls(tokens=tokens, index=index, base=base)

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def unk_id(self) -> int:
        return self.index[UNK]

    @property
    def cls_id(self) -> int:
        return self.index[CLS]

    @property
    def sep_id(self) -> int:
        return self.index[SEP]

    @property
    def pad_id(self) -> int:
        return self.index[PAD]

    @cached_property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.index[s] for s in SPECIALS)

    @cached_property
    def _appended(self) -> tuple[list[str], list[str], list[str]]:
        """The tokens appended after the base, sorted; each one's shortest
        appended prefix; and the bodies of the ``##`` ones. In sorted order
        the largest appended token <= a word starts with every appended
        token that is a prefix of the word, so its shortest prefix decides."""
        ordered = sorted(self.tokens[self.base.size:]) if self.base else []
        roots: list[str] = []
        for t in ordered:
            roots.append(roots[-1] if roots and t.startswith(roots[-1]) else t)
        bodies = [
            t[len(CONTINUATION_PREFIX):] for t in ordered
            if t.startswith(CONTINUATION_PREFIX) and len(t) > len(CONTINUATION_PREFIX)
        ]
        return ordered, roots, bodies

    def touched(self, words: Iterable[str]) -> set[str]:
        """The ``words`` inside which a token appended after the base can
        match: as the word's prefix, or (a ``##`` token's body) after its
        first character."""
        ordered, roots, bodies = self._appended
        return {w for w in words
                if (i := bisect_right(ordered, w)) and w.startswith(roots[i - 1])
                or bodies and any(b in w[1:] for b in bodies)}


@dataclass(frozen=True)
class TokenSequence:
    """Token ids for one comment: CLS + pieces + SEP, length-capped."""

    ids: tuple[int, ...]
    truncated: bool


def load_base_vocabulary(path: str | Path) -> Vocabulary:
    """Read a one-token-per-line vocabulary file; line number = token id."""
    tokens = read_lines(path, "vocabulary file")
    if tokens and tokens[-1] == "":
        tokens.pop()
    try:
        return Vocabulary.from_tokens(tokens)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    write_output(path, (f"{token}\n" for token in vocab.tokens))


def char_base_vocabulary(alphabet: str | None = None) -> Vocabulary:
    """Fallback base vocabulary: specials plus single-character tokens (whole
    word and continuation) over an alphabet, default printable ASCII.

    Every word drawn from the alphabet tokenizes without UNK, which makes
    this a reasonable stand-in base when no pretrained token file is given.
    """
    if alphabet is None:
        alphabet = "".join(chr(c) for c in range(33, 127))
    chars = sorted(set(ch for ch in alphabet if not ch.isspace()))
    tokens = list(SPECIALS)
    tokens.extend(chars)
    tokens.extend(CONTINUATION_PREFIX + ch for ch in chars)
    return Vocabulary.from_tokens(tokens)


class WordCache(dict[str, tuple[str, ...]]):
    """Run-scoped map from raw comment text to its words (identifier split,
    then segmented), computed on first lookup. ``word_ids`` interns a text's
    words as indices into ``word_list``, once per run."""

    def __init__(self) -> None:
        super().__init__()
        self.word_list: list[str] = []
        self._word_index: dict[str, int] = {}
        self._text_ids: dict[str, np.ndarray] = {}

    def __missing__(self, text: str) -> tuple[str, ...]:
        words = self[text] = tuple(segment_words(split_identifiers(text)))
        return words

    def word_ids(self, text: str) -> np.ndarray:
        ids = self._text_ids.get(text)
        if ids is None:
            index = self._word_index
            for word in self[text]:
                if word not in index:
                    index[word] = len(self.word_list)
                    self.word_list.append(word)
            ids = self._text_ids[text] = np.array([index[w] for w in self[text]], dtype=np.intp)
        return ids

    def project_words(self, comments: Iterable) -> list[set[str]]:
        """One word set per project of ``comments``, in first-seen order."""
        sets: dict[str, set[str]] = {}
        for c in comments:
            sets.setdefault(c.project, set()).update(self[c.text])
        return list(sets.values())


def discover_candidate_tokens(
    project_words: list[set[str]], base: Vocabulary, threshold: float = 0.25
) -> dict[str, int]:
    """Find corpus words worth adding to the base vocabulary, each mapped to
    the number of per-project word sets that hold it.

    A word is a candidate iff it is not already a base token (a word such as
    ``##1`` may equal a continuation piece) and occurs in strictly more than
    ``threshold`` of the per-project word sets.
    Reserved symbol words like "//" participate like any other word. The
    words are in order of descending project count, ties broken
    lexicographically.
    """
    if not project_words:
        raise DataError("empty collection")
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    counts = Counter(chain.from_iterable(project_words))
    total = len(project_words)
    # by word, then stably by descending count: the (-count, word) order
    ranked = sorted(w for w, n in counts.items() if n > threshold * total and w not in base.index)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return {w: counts[w] for w in ranked}


def load_denylist(path: str | Path) -> frozenset[str]:
    """The tokens of a denylist file (one per line), which discovery must not add."""
    entries = [line.strip() for line in read_lines(path, "denylist")]
    for lineno, entry in enumerate(entries, start=1):
        if any(ch.isspace() for ch in entry):
            raise DataError(f"{path}: line {lineno}: token {entry!r} contains whitespace")
    return frozenset(filter(None, entries))


def augment_vocabulary(base: Vocabulary, tokens: Iterable[str]) -> Vocabulary:
    """Append ``tokens`` after the base tokens; base ids unchanged. Only the
    appended tokens are checked (see ``Vocabulary.from_tokens``)."""
    tokens = tuple(tokens)
    for token in tokens:
        if token in base.index:
            raise DataError(f"candidate token {token!r} collides with an existing token")
    return Vocabulary.from_tokens(base.tokens + tokens, base=base)


def write_candidate_report(candidates: dict[str, int], n_projects: int, path: str | Path) -> None:
    """CSV report of candidates (token -> project count) found over
    ``n_projects`` word sets: token, project_count, project_fraction."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["token", "project_count", "project_fraction"])
    writer.writerows([t, n, f"{n / n_projects:.6f}"] for t, n in candidates.items())
    write_output(path, [buffer.getvalue()])


def _word_piece_ids(vocab: Vocabulary, word: str) -> list[int] | None:
    """Greedy longest-prefix pieces for one word, or None when it is UNK."""
    if len(word) > MAX_WORD_CHARS:
        return None
    pieces: list[int] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        match_id = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            piece_id = vocab.index.get(piece)
            if piece_id is not None:
                match_id = piece_id
                break
            end -= 1
        if match_id is None:
            return None
        pieces.append(match_id)
        start = end
    return pieces


def _memoize(vocab: Vocabulary, words: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """``vocab.pieces``, filled for those of ``words`` it lacks.

    A token of at most MAX_WORD_CHARS is its own piece; a word that a token
    appended after the base can touch (``Vocabulary.touched``) is matched
    under ``vocab``; every other word takes the base's pieces (base ids are
    unchanged), memoized in the base (in ``vocab`` when it has no base).
    """
    memo, index, base = vocab.pieces, vocab.index, vocab.base
    rest = []
    for w in {word: None for word in words if word not in memo}:
        if w in index and len(w) <= MAX_WORD_CHARS:
            memo[w] = (index[w],)
        else:
            rest.append(w)
    if not rest:
        return memo
    touched = vocab.touched(rest) if base else set(rest)
    shared = _memoize(base, [w for w in rest if w not in touched]) if base else memo
    for w in rest:
        if w in touched:
            found = _word_piece_ids(vocab, w)
            memo[w] = (vocab.unk_id,) if found is None else tuple(found)
        else:
            memo[w] = shared[w]
    return memo


def tokenize(
    vocab: Vocabulary,
    words: Iterable[str],
    max_seq_len: int = 128,
) -> TokenSequence:
    """Tokenize a comment's words into a capped id sequence.

    The result is CLS + word pieces + SEP; when the pieces overflow, they
    are cut so CLS and SEP survive and ``truncated`` is set.
    """
    if max_seq_len < 2:
        raise ValueError(f"max_seq_len must be >= 2, got {max_seq_len}")
    words = tuple(words)
    memo = _memoize(vocab, words)
    piece_ids: list[int] = []
    for word in words:
        piece_ids.extend(memo[word])
    truncated = len(piece_ids) + 2 > max_seq_len
    if truncated:
        piece_ids = piece_ids[: max_seq_len - 2]
    ids = (vocab.cls_id, *piece_ids, vocab.sep_id)
    return TokenSequence(ids=ids, truncated=truncated)


def tokenize_texts(
    vocab: Vocabulary, words: WordCache, texts: Sequence[str], max_seq_len: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """What ``tokenize`` puts between CLS and SEP for each of ``texts``, in
    one numpy pass: every text's capped pieces in order, as one flat id
    array, and the index in ``texts`` of the text each piece belongs to.

    The pieces come from a table over the texts' distinct words only.
    """
    if max_seq_len < 2:
        raise ValueError(f"max_seq_len must be >= 2, got {max_seq_len}")
    text_words = [words.word_ids(t) for t in texts]
    occurrences = np.concatenate([np.empty(0, np.intp), *text_words])
    present = np.zeros(len(words.word_list), dtype=bool)
    present[occurrences] = True
    used = [words.word_list[i] for i in np.flatnonzero(present).tolist()]
    memo = _memoize(vocab, used)
    table = [memo[w] for w in used]
    table_lens = np.fromiter(map(len, table), np.intp, len(table))
    table_ids = np.fromiter(chain.from_iterable(table), np.intp, int(table_lens.sum()))
    # each word occurrence's table entry, piece count and text
    entry = (np.cumsum(present) - 1)[occurrences]
    n_pieces = table_lens[entry]
    n_words = np.fromiter(map(len, text_words), np.intp, len(texts))
    text = np.repeat(np.arange(len(texts)), n_words)
    # the pieces before each occurrence in its text, and how many of its own
    # fit before the cut at max_seq_len - 2
    before = np.cumsum(n_pieces) - n_pieces
    before -= np.append(before, 0)[np.cumsum(n_words) - n_words][text]
    n_kept = np.clip(max_seq_len - 2 - before, 0, n_pieces)
    # expand each occurrence into its kept pieces, in order
    first = (np.cumsum(table_lens) - table_lens)[entry]
    at = np.repeat(first - (np.cumsum(n_kept) - n_kept), n_kept)
    at += np.arange(len(at))
    return table_ids[at], np.repeat(text, n_kept)
