"""Trigger-word lexicons: keyword matching, removal, and tag-based labeling.

A small set of task-annotation keywords ("todo", "fixme", ...) marks the
"easy" debt admissions. The lexicon powers two things: a training-free
keyword classifier, and trigger removal when duplicating minority comments
for augmentation. Matching is one regex per lexicon: the alternation of its
triggers, longest first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .corpus import strip_comment
from .errors import DataError, read_lines

STRICT = "strict"
FUZZY = "fuzzy"

DEFAULT_MAT_TRIGGERS = frozenset({"todo", "fixme", "xxx", "hack"})
DEFAULT_DUP_TRIGGERS = DEFAULT_MAT_TRIGGERS | {"ugly"}

_COMMENT_MARKERS = {"//", "/*", "*/"}


@dataclass(frozen=True)
class TriggerLexicon:
    """Case-insensitive trigger set with a matching mode.

    strict: triggers match whole words only (delimited by non-alphanumeric
    characters or string edges). fuzzy: triggers match anywhere, including
    inside longer alphanumeric runs.
    """

    triggers: frozenset[str]
    mode: str = STRICT

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, FUZZY):
            raise ValueError(f"mode must be {STRICT!r} or {FUZZY!r}, got {self.mode!r}")
        normalized = frozenset(t.lower() for t in self.triggers)
        if not normalized:
            raise ValueError("trigger set must be non-empty")
        for t in normalized:
            if not t or any(ch.isspace() for ch in t):
                raise ValueError(f"invalid trigger {t!r}: empty or contains whitespace")
        object.__setattr__(self, "triggers", normalized)


def mat_lexicon(mode: str = STRICT) -> TriggerLexicon:
    """The canonical task-annotation-tag set used by the keyword baseline."""
    return TriggerLexicon(triggers=DEFAULT_MAT_TRIGGERS, mode=mode)


def dup_lexicon(mode: str = STRICT) -> TriggerLexicon:
    """Trigger set used when duplicating minority comments (tags + 'ugly')."""
    return TriggerLexicon(triggers=DEFAULT_DUP_TRIGGERS, mode=mode)


def load_lexicon(path: str | Path, mode: str = STRICT) -> TriggerLexicon:
    """Read a lexicon file: one trigger per line, ``#`` comments as in config files."""
    lines = [strip_comment(line).lower() for line in read_lines(path, "lexicon file")]
    for lineno, trigger in enumerate(lines, start=1):
        if any(ch.isspace() for ch in trigger):
            raise DataError(f"{path}: line {lineno}: trigger {trigger!r} contains whitespace")
    triggers = set(filter(None, lines))
    if not triggers:
        raise DataError(f"{path}: lexicon file contains no triggers")
    return TriggerLexicon(triggers=frozenset(triggers), mode=mode)


def _lower_keep_length(text: str) -> str:
    # Per-character lowercase; characters whose lowercase form changes length
    # are left as-is so span offsets stay aligned with the input. ASCII text
    # lowercases character for character, so it takes the fast path.
    if text.isascii():
        return text.lower()
    out = []
    for ch in text:
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


@lru_cache(maxsize=32)
def _trigger_regex(triggers: frozenset[str], mode: str) -> re.Pattern[str]:
    # Alternatives are tried in order, so the longest trigger wins at a start
    # position; strict mode rejects a match with an alphanumeric neighbour.
    alternation = "|".join(map(re.escape, sorted(triggers, key=lambda t: (-len(t), t))))
    if mode == STRICT:
        return re.compile(rf"(?<![^\W_])(?:{alternation})(?![^\W_])")
    return re.compile(alternation)


def find_triggers(lex: TriggerLexicon, text: str) -> list[tuple[int, int]]:
    """Non-overlapping trigger spans, scanned left to right.

    Matching is case-insensitive; at equal start positions the longest
    trigger wins. Strict mode requires whole-word boundaries.
    """
    pattern = _trigger_regex(lex.triggers, lex.mode)
    return [m.span() for m in pattern.finditer(_lower_keep_length(text))]


def remove_triggers(lex: TriggerLexicon, text: str) -> str:
    """Delete strict-mode trigger spans (plus one trailing ':' each).

    The run of spaces around each deletion collapses to a single space and
    the result is trimmed; text without triggers is returned unchanged.
    Strict spans are used even for fuzzy lexicons so that words merely
    containing a trigger ("hackathon") survive.
    """
    strict = lex if lex.mode == STRICT else replace(lex, mode=STRICT)
    spans = find_triggers(strict, text)
    if not spans:
        return text
    kept: list[str] = []
    pos = 0
    for start, end in spans:
        if end < len(text) and text[end] == ":":
            end += 1
        kept.append(text[pos:start])
        pos = end
    kept.append(text[pos:])
    out = kept[0]
    for piece in kept[1:]:
        # a deletion lies between ``out`` and ``piece``: the spaces on both
        # sides of it (and of any deletion run through all-space pieces)
        # collapse to one
        left, right = out.rstrip(" "), piece.lstrip(" ")
        gap = " " if len(left) < len(out) or len(right) < len(piece) else ""
        out = left + gap + right
    return out.strip()


def is_marker_only(text: str) -> bool:
    """True when the text is empty or consists solely of comment markers."""
    words = text.split()
    return not words or all(w in _COMMENT_MARKERS for w in words)

