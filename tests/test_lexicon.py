import random

import pytest

from satdkit.classifier import mat_score
from satdkit.errors import DataError
from satdkit.lexicon import (
    FUZZY,
    STRICT,
    TriggerLexicon,
    _lower_keep_length,
    dup_lexicon,
    find_triggers,
    is_marker_only,
    load_lexicon,
    mat_lexicon,
    remove_triggers,
)

MAT = mat_lexicon()
DUP = dup_lexicon()


def test_find_triggers_whole_word():
    text = "// TODO: nothing appears to read this"
    spans = find_triggers(MAT, text)
    assert spans == [(3, 7)]
    assert text[3:7] == "TODO"


def test_strict_ignores_substrings():
    assert find_triggers(MAT, "methodology") == []
    assert find_triggers(TriggerLexicon(frozenset({"todo"}), STRICT), "xtodox") == []


def test_fuzzy_matches_inside_runs():
    lex = TriggerLexicon(frozenset({"todo"}), FUZZY)
    assert find_triggers(lex, "methodology") == []
    assert find_triggers(lex, "xtodox") == [(1, 5)]


def test_spans_left_to_right_non_overlapping():
    lex = TriggerLexicon(frozenset({"todo"}), FUZZY)
    assert find_triggers(lex, "todotodo") == [(0, 4), (4, 8)]


def test_longest_trigger_first_at_equal_start():
    lex = TriggerLexicon(frozenset({"todo", "todofixme"}), FUZZY)
    assert find_triggers(lex, "todofixme") == [(0, 9)]


def test_case_insensitive():
    assert find_triggers(MAT, "// fixme now") == find_triggers(MAT, "// FIXME now")
    assert find_triggers(MAT, "// HaCk") == [(3, 7)]


def test_underscore_is_a_delimiter():
    assert find_triggers(MAT, "do_todo_now") == [(3, 7)]


def test_remove_triggers_paper_example():
    assert (
        remove_triggers(DUP, "// FIXME: This should probably...")
        == "// This should probably..."
    )


def test_remove_triggers_no_triggers_identical():
    text = "// perfectly  fine comment "
    assert remove_triggers(DUP, text) == text


def test_remove_triggers_multiple_spans():
    assert remove_triggers(DUP, "// TODO TODO fix") == "// fix"


def test_remove_triggers_single_colon_only():
    assert remove_triggers(DUP, "// TODO:: later") == "// : later"


def test_remove_triggers_without_surrounding_spaces():
    assert remove_triggers(DUP, "(TODO)") == "()"
    assert remove_triggers(DUP, "hack:athon") == "athon"


def test_remove_triggers_edges():
    assert remove_triggers(DUP, "TODO fix it") == "fix it"
    assert remove_triggers(DUP, "fix it TODO") == "fix it"
    assert remove_triggers(DUP, "// TODO") == "//"


def test_remove_triggers_keeps_nul_characters():
    # a NUL in the comment is text, not a deletion mark: it stays, and the
    # words on either side of it stay apart
    assert remove_triggers(DUP, "a\x00b todo fix") == "a\x00b fix"
    assert remove_triggers(DUP, "\x00 TODO \x00") == "\x00 \x00"
    assert remove_triggers(DUP, "x\x00TODO\x00 y") == "x\x00\x00 y"


def test_remove_uses_strict_spans_even_in_fuzzy_mode():
    fuzzy = TriggerLexicon(frozenset({"hack"}), FUZZY)
    assert remove_triggers(fuzzy, "the hackathon was fun") == "the hackathon was fun"
    assert remove_triggers(fuzzy, "ugly hack here") == "ugly here"


def test_remove_triggers_leaves_no_strict_spans():
    rng = random.Random(4)
    words = ["todo", "fixme", "hack", "xxx", "ugly", "fix", "the", "parser", "//", "a:b"]
    for _ in range(500):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 10)))
        cleaned = remove_triggers(DUP, text)
        strict = TriggerLexicon(DUP.triggers, STRICT)
        assert find_triggers(strict, cleaned) == []
        assert remove_triggers(DUP, cleaned) == cleaned  # idempotent after one pass


def test_strict_subset_of_fuzzy():
    rng = random.Random(9)
    triggers = frozenset({"todo", "fixme", "xxx"})
    strict = TriggerLexicon(triggers, STRICT)
    fuzzy = TriggerLexicon(triggers, FUZZY)
    pieces = ["todo", "fixme", "xxx", "xtodox", "todofixme", "ok", "a", "//", ";"]
    for _ in range(500):
        text = "".join(
            rng.choice(pieces) + rng.choice([" ", "", ":", ") "])
            for _ in range(rng.randint(0, 6))
        )
        strict_spans = set(find_triggers(strict, text))
        fuzzy_spans = set(find_triggers(fuzzy, text))
        assert strict_spans <= fuzzy_spans


def test_mat_classify_examples():
    assert mat_score(MAT, "//TODO: I have no idea how to get it...") == 1.0
    assert mat_score(MAT, "// sorry - otherwise we will get a ClassCastException") == 0.0
    assert mat_score(MAT, "// refactor later") == 0.0


def test_mat_classify_case_invariant():
    for text in ("// Fixme now", "// FIXME NOW", "// fixme now"):
        assert mat_score(MAT, text) == 1.0


def test_lexicon_validation():
    with pytest.raises(ValueError):
        TriggerLexicon(frozenset(), STRICT)
    with pytest.raises(ValueError):
        TriggerLexicon(frozenset({"two words"}), STRICT)
    with pytest.raises(ValueError):
        TriggerLexicon(frozenset({"todo"}), "sloppy")
    lex = TriggerLexicon(frozenset({"ToDo"}), STRICT)
    assert lex.triggers == frozenset({"todo"})


def test_default_lexicons():
    assert MAT.triggers == frozenset({"todo", "fixme", "xxx", "hack"})
    assert DUP.triggers == MAT.triggers | {"ugly"}
    assert MAT.mode == STRICT


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# triggers\nTODO\nfixme\n\nhack  # inline\n", encoding="utf-8")
    lex = load_lexicon(path, mode=FUZZY)
    assert lex.triggers == frozenset({"todo", "fixme", "hack"})
    assert lex.mode == FUZZY
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(DataError, match="no triggers"):
        load_lexicon(empty)


def test_load_lexicon_hash_inside_trigger(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("fix#me\nhack  # inline\n#todo\nxxx\t# tab note\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.triggers == frozenset({"fix#me", "hack", "xxx"})


def test_load_lexicon_drops_byte_order_mark(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_bytes(b"\xef\xbb\xbfTODO\r\nugly  # inline\r\n")
    assert load_lexicon(path).triggers == frozenset({"todo", "ugly"})


def test_load_lexicon_counts_lines_across_a_comment_holding_nel(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("todo  # tag\x85debt\nfix me\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2: trigger 'fix me' contains whitespace"):
        load_lexicon(path)


def test_is_marker_only():
    assert is_marker_only("")
    assert is_marker_only("   ")
    assert is_marker_only("//")
    assert is_marker_only("/* */")
    assert not is_marker_only("// words")


# Reference oracle: the per-position scanner that find_triggers replaced.
def _reference_find_triggers(lex, text):
    low = _lower_keep_length(text)
    ordered = sorted(lex.triggers, key=lambda t: (-len(t), t))
    spans = []
    i = 0
    n = len(low)
    while i < n:
        matched = None
        for trigger in ordered:
            end = i + len(trigger)
            if not low.startswith(trigger, i):
                continue
            if lex.mode == STRICT and not _word_bounded(low, i, end):
                continue
            matched = (i, end)
            break
        if matched is None:
            i += 1
        else:
            spans.append(matched)
            i = matched[1]
    return spans


def _word_bounded(text, start, end):
    left_ok = start == 0 or not text[start - 1].isalnum()
    right_ok = end == len(text) or not text[end].isalnum()
    return left_ok and right_ok


# Triggers that are prefixes, suffixes or case variants of each other, and
# text characters whose lowercase form changes length (U+0130) or maps onto
# ASCII (long s, Kelvin sign), combining marks, "_" and non-ASCII digits.
_TRIGGER_POOL = ["to", "tod", "todo", "do", "fix", "fixme", "me", "k", "s", "ss",
                 "i", "i\u0307", "\u017f", "a_b", "#me", "x1", "\xe9"]
_TEXT_PIECES = (
    _TRIGGER_POOL
    + ["TODO", "FiXmE", "\u0130", "\u212a", "\xdf", "\u0301", "\u0307", "\u0663"]
    + [" ", "_", ":", "-", "\xa0", "\n", "#", "1", "z", "Z", "\u4e2d"]
)


def test_find_triggers_matches_reference_scanner():
    rng = random.Random(505)
    for _ in range(2_000):
        triggers = frozenset(rng.sample(_TRIGGER_POOL, rng.randint(1, 5)))
        lex = TriggerLexicon(triggers, rng.choice((STRICT, FUZZY)))
        for _ in range(10):
            text = "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 12)))
            assert find_triggers(lex, text) == _reference_find_triggers(lex, text), (lex, text)


def _reference_lower_keep_length(text):
    return "".join(low if len(low := ch.lower()) == 1 else ch for ch in text)


def test_lower_keep_length_matches_per_character_loop():
    # ASCII strings take the str.lower fast path; the rest mix in U+0130 (its
    # lowercase form is two characters), long s and the Kelvin sign
    rng = random.Random(2021)
    ascii_pool = [chr(c) for c in range(128)]
    pool = ascii_pool + ["İ", "ſ", "K"]
    n_ascii = 0
    for i in range(20_000):
        chars = ascii_pool if i % 2 else pool
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 40)))
        n_ascii += text.isascii()
        low = _lower_keep_length(text)
        assert low == _reference_lower_keep_length(text), text
        assert len(low) == len(text)
    assert 10_000 <= n_ascii < 20_000


def test_stripping_changes_text_exactly_when_a_strict_span_is_found():
    # dup_augment relies on this to match each comment once: remove_triggers
    # changes a text if and only if the strict form of its lexicon finds a span
    rng = random.Random(1414)
    pieces = _TEXT_PIECES + ["\x00", "hack", "Ugly", "xXx", "hackathon", "todo:", "HACK::", "//"]
    defaults = [dup_lexicon(STRICT), dup_lexicon(FUZZY), mat_lexicon(STRICT), mat_lexicon(FUZZY)]
    changed = 0
    for i in range(20_000):
        if i % 2:
            lex = defaults[i // 2 % 4]
        else:
            triggers = frozenset(rng.sample(_TRIGGER_POOL, rng.randint(1, 5)))
            lex = TriggerLexicon(triggers, rng.choice((STRICT, FUZZY)))
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        found = bool(find_triggers(TriggerLexicon(lex.triggers, STRICT), text))
        assert (remove_triggers(lex, text) != text) == found, (lex, text)
        changed += found
    assert 2_000 < changed < 18_000  # both sides of the equivalence are exercised
