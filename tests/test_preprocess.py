import random

from satdkit.preprocess import RESERVED_SYMBOLS, segment_words, split_identifiers

_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \t\n();/*#_-.:," + "éΩ中"
)


def _random_strings(seed, count, max_len=80):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, max_len)))


def test_java_identifier_example():
    out = split_identifiers("new CharParserForJavaOrSomething();")
    assert out == "new Char Parser For Java Or Something();"


def test_no_camel_boundaries_unchanged():
    assert split_identifiers("hello world;") == "hello world;"


def test_acronym_boundary():
    assert split_identifiers("getHTTPResponseCode") == "get HTTP Response Code"


def test_digits_do_not_split():
    assert split_identifiers("utf8To16") == "utf8To16"


def test_existing_whitespace_preserved():
    assert split_identifiers("a  b\tcD") == "a  b\tc D"


def test_space_erasure_property():
    for s in _random_strings(101, 1000):
        out = split_identifiers(s)
        assert out.replace(" ", "") == s.replace(" ", "")


def test_idempotence_property():
    for s in _random_strings(202, 1000):
        once = split_identifiers(s)
        assert split_identifiers(once) == once


def test_segment_words_examples():
    assert segment_words("// TODO fix()") == ["//", "TODO", "fix", "()"]
    assert segment_words("") == []
    assert segment_words("/* hack */") == ["/*", "hack", "*/"]


def test_segment_reserved_runs():
    assert segment_words("fix();") == ["fix", "();"]
    assert segment_words("/*hack*/") == ["/*", "hack", "*/"]
    assert segment_words("//TODO:") == ["//", "TODO:"]
    assert segment_words("a[]b") == ["a", "[]", "b"]


def test_segment_other_punctuation_stays_attached():
    assert segment_words("don't, stop.") == ["don't,", "stop."]
    assert segment_words("(x)") == ["(x)"]
    assert segment_words("and/or") == ["and/or"]


def test_segment_splits_all_whitespace():
    assert segment_words("a\tb\nc  d") == ["a", "b", "c", "d"]


def test_segment_never_yields_empty_words():
    for s in _random_strings(303, 500):
        words = segment_words(split_identifiers(s))
        assert all(words)
        assert all(not any(ch.isspace() for ch in w) for w in words)


# Reference oracle: the per-character scanner that segment_words replaced.
def _reference_segment(text):
    words = []
    for chunk in text.split():
        words.extend(_reference_split_chunk(chunk))
    return words


def _match_reserved(chunk, pos):
    for sym in RESERVED_SYMBOLS:
        if chunk.startswith(sym, pos):
            return sym
    return None


def _reference_split_chunk(chunk):
    words = []
    plain = []
    i = 0
    n = len(chunk)
    while i < n:
        sym = _match_reserved(chunk, i)
        if sym is None:
            plain.append(chunk[i])
            i += 1
            continue
        if plain:
            words.append("".join(plain))
            plain = []
        run = [sym]
        i += len(sym)
        while True:
            sym = _match_reserved(chunk, i)
            if sym is None:
                break
            run.append(sym)
            i += len(sym)
        words.append("".join(run))
    if plain:
        words.append("".join(plain))
    return words


# Heavy in reserved symbols and their fragments, Unicode whitespace (and
# zero-width characters that are not whitespace), "_" and case oddities.
_SEGMENT_PIECES = (
    list(RESERVED_SYMBOLS) + list("/*[]();")
    + [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
       "\u1680", "\u2003", "\u2028", "\u3000", "\u200b", "\ufeff"]
    + list("abXY_9.#") + ["\u0130", "\u017f", "\u212a", "\u0301", "\xdf"]
)


def test_segment_words_matches_reference_scanner():
    rng = random.Random(404)
    for _ in range(20_000):
        text = "".join(rng.choice(_SEGMENT_PIECES) for _ in range(rng.randint(0, 24)))
        assert segment_words(text) == _reference_segment(text), repr(text)
