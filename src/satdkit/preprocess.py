"""Comment text normalization: identifier splitting and word segmentation.

Comments quoting Java code are split at camel-case boundaries so that
``new CharParserForJavaOrSomething();`` reads as
``new Char Parser For Java Or Something();``. Splitting only ever inserts
spaces; every other byte of the input survives unchanged, and case is
preserved throughout (no lowercasing, stemming, or stop-word removal).
Word segmentation is one regex built from ``RESERVED_SYMBOLS``: a word is a
maximal run of reserved symbols, or of other non-space characters at none
of which a reserved symbol starts.
"""

from __future__ import annotations

import re

# Comment punctuation that segments as standalone words so it can be counted
# and tokenized on its own (comment markers, empty brackets, statement ends).
RESERVED_SYMBOLS = ("/*", "*/", "//", "[]", "()", ";")

_RESERVED = "|".join(map(re.escape, RESERVED_SYMBOLS))
_WORD = re.compile(rf"(?:{_RESERVED})+|(?:(?!{_RESERVED})\S)+")

# (a) lower->upper boundary, (b) acronym boundary: last upper of an uppercase
# run that is followed by upper+lower ("HTTPResponse" -> "HTTP Response").
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def split_identifiers(text: str) -> str:
    """Insert spaces at camel-case boundaries (ASCII letters only).

    Idempotent: re-splitting already split text is a no-op. Digits,
    punctuation, and existing whitespace pass through byte-for-byte.
    """
    return _CAMEL_BOUNDARY.sub(" ", text)


def segment_words(text: str) -> list[str]:
    """Split identifier-split text into words.

    Splits on whitespace; within each chunk, a maximal run of the reserved
    symbol strings becomes its own word ("fix()" -> ["fix", "()"]). Other
    punctuation stays attached to its word, and no empty words are produced.
    """
    return _WORD.findall(text)
