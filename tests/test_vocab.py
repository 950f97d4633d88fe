import ast
import random
from collections import Counter
from pathlib import Path

import pytest

import satdkit.vocab
from helpers import (
    collection_words,
    coverage_base_vocab,
    coverage_collection,
    coverage_random_comment,
    coverage_word,
    make_comment,
    write_corpus,
)
from satdkit import harness
from satdkit.corpus import CorpusCollection, Label, ProjectDataset
from satdkit.errors import DataError
from satdkit.vocab import (
    _word_piece_ids,
    Vocabulary,
    WordCache,
    augment_vocabulary,
    char_base_vocabulary,
    discover_candidate_tokens,
    load_base_vocabulary,
    load_denylist,
    save_vocabulary,
    tokenize,
    tokenize_texts,
    write_candidate_report,
)

SPECIALS = ["[UNK]", "[PAD]", "[CLS]", "[SEP]"]
WORDS = WordCache()


def toy_vocab(*extra):
    return Vocabulary.from_tokens(SPECIALS + list(extra))


def _project(name, texts):
    comments = [make_comment(i, t, Label.NON_SATD, project=name) for i, t in enumerate(texts)]
    return ProjectDataset(name, comments)


def test_load_base_vocabulary(tmp_path):
    path = tmp_path / "vocab.txt"
    tokens = SPECIALS + ["the", "fix", "##me", "##s", "todo", "hack"]
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    vocab = load_base_vocabulary(path)
    assert vocab.size == 10
    assert vocab.tokens == tuple(tokens)
    assert vocab.index["todo"] == 8
    assert vocab.unk_id == 0
    path.write_text("\n".join(tokens) + "\n\n", encoding="utf-8")  # a final blank line
    assert load_base_vocabulary(path).tokens == tuple(tokens)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_base_vocabulary_crlf_keeps_ids(tmp_path, newline):
    tokens = char_base_vocabulary().tokens
    path = tmp_path / "vocab.txt"
    path.write_bytes(newline.join(tokens).encode("utf-8") + newline.encode())
    assert load_base_vocabulary(path).tokens == tokens


def test_load_base_vocabulary_rejects_form_feed_in_token(tmp_path):
    # a form feed does not end a line, so the token keeps it and is rejected
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(SPECIALS + ["fix\x0cme"]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="whitespace"):
        load_base_vocabulary(path)


def test_load_base_vocabulary_duplicate(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(SPECIALS + ["dup", "dup"]), encoding="utf-8")
    with pytest.raises(DataError, match="duplicate token"):
        load_base_vocabulary(path)


def test_load_base_vocabulary_missing_specials(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("just\nwords\n", encoding="utf-8")
    with pytest.raises(DataError, match="special"):
        load_base_vocabulary(path)


def test_save_load_round_trip(tmp_path):
    vocab = toy_vocab("alpha", "##beta")
    path = tmp_path / "v.txt"
    save_vocabulary(vocab, path)
    assert load_base_vocabulary(path) == vocab


def test_discovery_threshold_and_base_exclusion():
    base = toy_vocab("the")
    # "grak" in 3 of 8 projects (0.375 > 0.25); "bler" in exactly 2 (0.25, out);
    # "the" is a base token and stays out however often it appears.
    projects = tuple(
        _project(f"p{i}", [
            "the " + ("grak" if i < 3 else "mip") + (" bler" if i < 2 else ""),
        ])
        for i in range(8)
    )
    collection = CorpusCollection("eight", projects)
    candidates = discover_candidate_tokens(collection_words(collection), base, threshold=0.25)
    assert "grak" in candidates
    assert candidates["grak"] == 3
    assert candidates["grak"] / len(projects) == pytest.approx(0.375)
    assert "bler" not in candidates
    assert "the" not in candidates
    assert "mip" in candidates  # 5 of 8


def test_discovery_counts_projects_not_occurrences():
    base = toy_vocab()
    collection = CorpusCollection("two", (
        _project("a", ["dup dup dup dup dup dup"]),
        _project("b", ["other words entirely"]),
    ))
    project_words = collection_words(collection)
    candidates = discover_candidate_tokens(project_words, base, threshold=0.25)
    assert candidates["dup"] == 1
    assert candidates["dup"] / len(project_words) == pytest.approx(0.5)


def test_discovery_sees_split_identifiers_and_symbols():
    base = toy_vocab()
    collection = CorpusCollection("one", (
        _project("a", ["// getHTTPResponseCode()"]),
        _project("b", ["// Response()"]),
    ))
    tokens = set(discover_candidate_tokens(collection_words(collection), base, threshold=0.25))
    assert {"//", "()", "Response"} <= tokens
    assert "getHTTPResponseCode" not in tokens  # split before counting


def test_discovery_sorting():
    base = toy_vocab()
    collection = CorpusCollection("three", (
        _project("a", ["zz aa bb"]),
        _project("b", ["zz aa"]),
        _project("c", ["zz"]),
    ))
    candidates = discover_candidate_tokens(collection_words(collection), base, threshold=0.0)
    assert list(candidates) == ["zz", "aa", "bb"]


def test_discovery_ranks_by_descending_count_then_word():
    rng = random.Random(3)
    pool = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 4))) for _ in range(80)]
    project_words = [set(rng.sample(pool, 25)) for _ in range(12)]
    candidates = discover_candidate_tokens(project_words, toy_vocab(), threshold=0.0)
    counts = {w: sum(w in words for words in project_words) for w in set().union(*project_words)}
    assert len(set(counts.values())) > 1 and len(counts) > len(set(counts.values()))  # ties
    assert list(candidates.items()) == sorted(
        counts.items(), key=lambda item: (-item[1], item[0])
    )


def test_discovery_order_independent():
    base = coverage_base_vocab()
    collection = coverage_collection(seed=5)
    reversed_projects = CorpusCollection("coverage-rev", tuple(reversed(collection.projects)))
    forward = discover_candidate_tokens(collection_words(collection), base)
    backward = discover_candidate_tokens(collection_words(reversed_projects), base)
    assert forward == backward


def test_load_denylist(tmp_path):
    deny = tmp_path / "deny.txt"
    deny.write_text("ns\n  li \n\n", encoding="utf-8")
    assert load_denylist(deny) == {"ns", "li"}
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert load_denylist(empty) == frozenset()
    with pytest.raises(DataError, match="denylist"):
        load_denylist(tmp_path / "missing.txt")


def test_denylist_token_with_whitespace_names_file_and_line(tmp_path):
    deny = tmp_path / "deny.txt"
    deny.write_text("ns\nfix me\n", encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        load_denylist(deny)
    assert str(excinfo.value) == f"{deny}: line 2: token 'fix me' contains whitespace"


def test_augment_vocabulary():
    base = toy_vocab("fix")
    grown = augment_vocabulary(base, ["todo", "hack"])
    assert grown.size == base.size + 2
    assert grown.tokens[: base.size] == base.tokens
    assert grown.index["todo"] == base.size
    assert augment_vocabulary(base, []).tokens == base.tokens
    with pytest.raises(DataError, match="collides"):
        augment_vocabulary(base, ["fix"])


# Appended tokens and the message for the first bad one by id; base ids 0-6.
_BAD_APPENDED = [
    (["todo", ""], "empty token at id 8"),
    (["todo", "todo"], "duplicate token 'todo' (ids 7 and 8)"),
    (["x\x0cy"], "token 'x\\x0cy' contains whitespace"),
    (["ok", "x\x85"], "token 'x\\x85' contains whitespace"),
    (["\u2028y"], "token '\\u2028y' contains whitespace"),
    (["fix it"], "token 'fix it' contains whitespace"),
    (["ok", "a b", "", "ok"], "token 'a b' contains whitespace"),
    (["ok", "ok", "a b"], "duplicate token 'ok' (ids 7 and 8)"),
    (["", "a b"], "empty token at id 7"),
    (["ok", "a b", "fix"], "candidate token 'fix' collides with an existing token"),
]


@pytest.mark.parametrize("appended,message", _BAD_APPENDED)
def test_augment_vocabulary_checks_appended_tokens(appended, message):
    # growth checks only the appended tokens, with the messages a check of
    # the whole token list gives; a collision with a base token is found first
    base = toy_vocab("fix", "a", "##a")
    with pytest.raises(DataError) as grown:
        augment_vocabulary(base, appended)
    assert str(grown.value) == message
    if "collides" not in message:
        with pytest.raises(DataError) as whole:
            Vocabulary.from_tokens(base.tokens + tuple(appended))
        assert str(whole.value) == message


def test_augment_vocabulary_copies_the_base_index():
    base = toy_vocab("fix")
    grown = augment_vocabulary(base, ["todo"])
    assert grown.index == {**base.index, "todo": base.size}
    assert grown.index is not base.index and "todo" not in base.index


def test_tokenize_greedy_longest_match():
    vocab = toy_vocab("fix", "##me")
    seq = tokenize(vocab, WORDS["fixme"])
    assert [vocab.tokens[i] for i in seq.ids] == ["[CLS]", "fix", "##me", "[SEP]"]
    assert not seq.truncated


def test_tokenize_unknown_word():
    vocab = toy_vocab("fix", "##me")
    seq = tokenize(vocab, WORDS["zzz"])
    assert [vocab.tokens[i] for i in seq.ids] == ["[CLS]", "[UNK]", "[SEP]"]


def test_tokenize_long_word_is_unk():
    vocab = char_base_vocabulary("x")
    seq = tokenize(vocab, WORDS["x" * 200])
    assert [i for i in seq.ids] == [vocab.cls_id, vocab.unk_id, vocab.sep_id]
    assert tokenize(vocab, WORDS["x" * 100]).ids.count(vocab.unk_id) == 0


def test_tokenize_dead_end_is_whole_word_unk():
    # "ab" matches greedily but "##c" does not exist -> the whole word is UNK
    vocab = toy_vocab("ab", "a", "##b")
    seq = tokenize(vocab, WORDS["abc"])
    assert [vocab.tokens[i] for i in seq.ids] == ["[CLS]", "[UNK]", "[SEP]"]


def test_word_piece_memo_is_per_vocabulary():
    # the two vocabularies differ only by one appended candidate, so a memo
    # keyed on the word alone would hand one the other's pieces
    base = coverage_base_vocab()
    grown = augment_vocabulary(base, ["bad"])
    pieces = ["[CLS]", "b", "##a", "##d", "[SEP]"]
    for _ in range(2):
        assert [base.tokens[i] for i in tokenize(base, ["bad"]).ids] == pieces
        assert [grown.tokens[i] for i in tokenize(grown, ["bad"]).ids] == [
            "[CLS]", "bad", "[SEP]"
        ]
    assert base.pieces["bad"] != grown.pieces["bad"]
    assert base == Vocabulary.from_tokens(base.tokens)  # the memo is not compared


def test_memoized_long_word_stays_one_unk():
    vocab = char_base_vocabulary("x")
    for _ in range(2):
        assert tokenize(vocab, ["x" * 101, "x"]).ids == (
            vocab.cls_id, vocab.unk_id, vocab.index["x"], vocab.sep_id
        )
    assert vocab.pieces["x" * 101] == (vocab.unk_id,)


def test_memoized_tokenize_matches_fresh_word_pieces():
    base = coverage_base_vocab()
    vocab = augment_vocabulary(base, ("ab", "xyz", "hex", "gag"))
    rng = random.Random(1234)
    words = [coverage_word(rng, 1, 8) for _ in range(3000)]
    words += ["a" * 100, "a" * 101, "xyz" * 40]
    for _ in range(2):  # the second pass reads every word from the memo
        for word in words:
            fresh = _word_piece_ids(vocab, word)
            expected = (vocab.unk_id,) if fresh is None else tuple(fresh)
            assert tokenize(vocab, [word], max_seq_len=256).ids[1:-1] == expected
    for start in range(0, len(words), 7):
        chunk = words[start:start + 7]
        expected = []
        for word in chunk:
            expected.extend(_word_piece_ids(vocab, word) or [vocab.unk_id])
        assert list(tokenize(vocab, chunk, max_seq_len=1024).ids[1:-1]) == expected


# Discovered tokens of two unit vocabularies over one base: nested prefixes
# (hack/hackathon, hackath/hackathon), "##" tokens, a token over the length
# cap and tokens of characters the custom base cannot piece together.
_UNIT_TOKENS = (
    ("hack", "hackathon", "##ing", "on", "x" * 105, "zz"),
    ("hackathon", "hackath", "##thon", "##ing", "zz\xe9"),
)
_FRAGMENTS = ("hack", "hackathon", "ath", "on", "ing", "thon", "ha", "ck", "a", "t",
              "g", "i", "n", "x", "z", "zz", "\xe9", "##", "#")


def _custom_base():
    # multi-character and "##" tokens; no "z" or "\xe9", so words using them
    # are UNK unless a discovered token covers them
    return toy_vocab(
        "h", "a", "c", "k", "t", "o", "n", "i", "g", "x", "#", "ha", "ck",
        "##h", "##a", "##c", "##k", "##t", "##o", "##n", "##i", "##g", "##x", "##ck",
        "##ng", "##at", "###",
    )


def _fuzzed_words(seed, n):
    rng = random.Random(seed)
    words = ["".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 6))) for _ in range(n)]
    words += ["".join(rng.choice(_FRAGMENTS) for _ in range(40))[:rng.randint(101, 130)]
              for _ in range(20)]
    return words + ["x" * 105, "x" * 100, "hack" * 30, "hackathon" * 11, "hackathon" * 12]


def _batch_pieces(vocab, texts):
    # tokenize_texts' pieces per text, over a WordCache whose texts hold
    # exactly the given words (unsegmented)
    cache = WordCache()
    for i, words in enumerate(texts):
        cache[f"text{i}"] = tuple(words)
    pieces, text_of = tokenize_texts(vocab, cache, list(cache), max_seq_len=4096)
    got = [[] for _ in texts]
    for piece, t in zip(pieces.tolist(), text_of.tolist()):
        got[t].append(piece)
    return got


def _unit_vocabularies(make_base, warm_base, words):
    # one base (its memo filled from ``words`` when warm), the unit
    # vocabularies over it, and an unshared copy of each as the oracle
    base = make_base()
    if warm_base:
        for word in words:
            tokenize(base, [word])
        assert len(base.pieces) == len(set(words))
    units = [augment_vocabulary(base, tokens) for tokens in _UNIT_TOKENS]
    return base, units, [Vocabulary.from_tokens(v.tokens) for v in units]


@pytest.mark.parametrize("make_base", [char_base_vocabulary, _custom_base])
@pytest.mark.parametrize("warm_base", [True, False])
def test_shared_memo_matches_fresh_word_pieces(make_base, warm_base, monkeypatch):
    # every unit vocabulary reads the base's memo for the words its
    # discovered tokens cannot touch; the oracle is greedy matching on an
    # unshared copy of each vocabulary

    # each greedy match as (vocabulary, word); holding the vocabulary keeps
    # its id from being reused
    calls = []
    word_piece_ids = satdkit.vocab._word_piece_ids

    def counted_word_piece_ids(vocab, word):
        calls.append((vocab, word))
        return word_piece_ids(vocab, word)

    monkeypatch.setattr(satdkit.vocab, "_word_piece_ids", counted_word_piece_ids)
    words = _fuzzed_words(seed=len(make_base().tokens), n=4000)
    words += [t for tokens in _UNIT_TOKENS for t in tokens]  # tokens as words
    # the batch path (tokenize_texts) on fresh memos, one or several words
    # per text: it finds the words each unit's tokens touch in one pass
    for per_text in (1, 5):
        _, units, unshared = _unit_vocabularies(make_base, warm_base, words)
        shuffled = random.Random(per_text).sample(words, len(words))
        texts = [shuffled[i:i + per_text] for i in range(0, len(words), per_text)]
        for vocab, oracle, tokens in zip(units, unshared, _UNIT_TOKENS):
            touched = vocab.touched(words)
            assert touched == {w for w in words if _touches(w, tokens)}
            # some words are touched only by a "##" token's body
            assert any(not any(w.startswith(t) for t in tokens) for w in touched)
            assert _batch_pieces(vocab, texts) == [
                [p for w in text for p in (_word_piece_ids(oracle, w) or [vocab.unk_id])]
                for text in texts
            ]
    base, units, unshared = _unit_vocabularies(make_base, warm_base, words)
    seen = set()
    for _ in range(2):  # the second pass reads every word from the memos
        for word in words:
            for vocab, oracle, tokens in zip(units, unshared, _UNIT_TOKENS):
                assert (word in vocab.touched([word])) == _touches(word, tokens), word
                fresh = _word_piece_ids(oracle, word)
                expected = (vocab.unk_id,) if fresh is None else tuple(fresh)
                assert tokenize(vocab, [word], max_seq_len=256).ids[1:-1] == expected, word
                seen.update(vocab.tokens[i] for i in expected)
    assert base.pieces
    assert {"hack", "hackathon", "hackath", "##ing", "##thon", "zz", "[UNK]"} <= seen
    assert "x" * 105 not in seen  # a token over the length cap is still UNK
    # the mixed tokenize and tokenize_texts calls match a word at most once
    # per vocabulary
    assert calls
    assert max(Counter((id(vocab), word) for vocab, word in calls).values()) == 1


def test_only_memoize_matches_words():
    # one memo fill: every tokenizer gets a word's pieces from ``_memoize``,
    # the one place that runs greedy matching
    src = Path(satdkit.vocab.__file__).parent
    inside, outside = 0, []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        memoize = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "_memoize"
                   for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "_word_piece_ids":
                continue
            if id(node) in memoize:
                inside += 1
            else:
                outside.append(f"{path.relative_to(src)}:{node.lineno}")
    assert inside == 1
    assert outside == []


def _touches(word, tokens):
    # brute force: a token can match as the word's prefix, or as a "##"
    # piece anywhere after its first character
    return any(word.startswith(t) for t in tokens) or any(
        t.startswith("##") and len(t) > 2 and t[2:] in word[1:] for t in tokens
    )


def test_cross_run_matches_each_word_once(tmp_path, monkeypatch):
    # six projects with mostly project-specific words; the few shared ones
    # are discovered in every unit, and only the words they touch need a
    # unit's own greedy match
    rng = random.Random(11)
    shared = ["hack", "parse", "##ab", "todo"]
    projects = {}
    for p in range(6):
        own = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(4, 9)))
               for _ in range(40)]
        own += ["hack" + w for w in own[:5]] + ["q##ab"]
        rows = []
        for i in range(30):
            words = rng.sample(own, 4) + [rng.choice(shared[:3])]
            if i % 5 == 0:
                words.append("todo")
            rows.append((" ".join(words), Label.SATD if i % 5 == 0 else Label.NON_SATD))
        projects[f"P{p}"] = rows
    manifest = write_corpus(tmp_path, projects)
    config = harness.build_config(overrides={
        "manifest": str(manifest), "scenario": "cross", "classifier": "linear",
        "epochs": "1", "seed": "1", "outdir": str(tmp_path / "runs"),
    })
    calls = []
    word_piece_ids = satdkit.vocab._word_piece_ids

    def counted_word_piece_ids(vocab, word):
        calls.append(word)
        return word_piece_ids(vocab, word)

    appended = []  # each unit's discovered tokens
    build_vocabulary = harness.build_vocabulary

    def recorded_build_vocabulary(run, project_words):
        vocab = build_vocabulary(run, project_words)
        appended.append(vocab.tokens[run.base.size:])
        return vocab

    monkeypatch.setattr(satdkit.vocab, "_word_piece_ids", counted_word_piece_ids)
    monkeypatch.setattr(harness, "build_vocabulary", recorded_build_vocabulary)
    report = harness.run_experiment(harness.prepare_run(config))
    assert all(u.error is None for p in report.projects for u in p.units)
    assert len(appended) == 6
    words = set().union(*(WORDS[text] for rows in projects.values() for text, _ in rows))
    touched = sum(_touches(word, tokens) for tokens in appended for word in words)
    assert 0 < touched < len(words)
    assert 0 < len(calls) <= len(words) + touched
    assert any("##ab" in tokens for tokens in appended)


def test_tokenize_truncation_keeps_cls_sep():
    vocab = char_base_vocabulary("ab")
    words = WORDS["ab ab ab ab ab"]
    seq = tokenize(vocab, words, max_seq_len=6)
    assert len(seq.ids) == 6
    assert seq.ids[0] == vocab.cls_id
    assert seq.ids[-1] == vocab.sep_id
    assert seq.truncated
    assert tokenize(vocab, words, max_seq_len=128).truncated is False
    with pytest.raises(ValueError):
        tokenize(vocab, words, max_seq_len=1)


def test_tokenize_deterministic():
    vocab = toy_vocab("fix", "##me")
    words = WORDS["fixme zzz fix"]
    assert tokenize(vocab, words, 16) == tokenize(vocab, words, 16)


def test_detokenization_round_trip():
    base = coverage_base_vocab()
    collection = coverage_collection(seed=6)
    candidates = discover_candidate_tokens(collection_words(collection), base)
    grown = augment_vocabulary(base, candidates)
    words = set()
    for comment in (c for ds in collection for c in ds.comments):
        words.update(comment.text.split())
    covered = []
    for vocab in (base, grown):
        n_covered = 0
        for word in words:
            seq = tokenize(vocab, WORDS[word], max_seq_len=128)
            piece_ids = seq.ids[1:-1]
            if vocab.unk_id in piece_ids:
                continue
            rebuilt = "".join(
                vocab.tokens[i][2:] if vocab.tokens[i].startswith("##") else vocab.tokens[i]
                for i in piece_ids
            )
            assert rebuilt == word
            n_covered += 1
        covered.append(n_covered)
    assert covered[0] > 0
    assert covered[1] > covered[0]  # discovery made more words coverable


def test_augmentation_monotonicity():
    base = coverage_base_vocab()
    collection = coverage_collection(seed=7)
    candidates = discover_candidate_tokens(collection_words(collection), base)
    grown = augment_vocabulary(base, candidates)
    rng = random.Random(99)
    improved = 0
    for _ in range(1000):
        words = WORDS[coverage_random_comment(rng)]
        before = tokenize(base, words).ids.count(base.unk_id)
        after = tokenize(grown, words).ids.count(grown.unk_id)
        assert after <= before
        if after < before:
            improved += 1
    assert improved > 0


def test_candidate_report(tmp_path):
    path = tmp_path / "report.csv"
    write_candidate_report({"todo": 5}, 20, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "token,project_count,project_fraction"
    assert lines[1] == "todo,5,0.250000"  # 5 of 20 projects


def test_vocabulary_validation():
    with pytest.raises(DataError, match="whitespace"):
        Vocabulary.from_tokens(SPECIALS + ["bad token"])
    with pytest.raises(DataError, match="empty"):
        Vocabulary.from_tokens(SPECIALS + [""])


def test_discovery_skips_words_equal_to_continuation_pieces():
    # "###" is the continuation piece of "#" in the char base, and "##1" the
    # one of "1"; a word equal to any base token, whole or continuation, is
    # no candidate, so augmentation cannot collide with the base.
    base = char_base_vocabulary()
    words = set(WORDS["// ### Section: ##1 grak"])
    assert {"###", "##1"} <= words
    candidates = discover_candidate_tokens([words, words], base, threshold=0.25)
    assert list(candidates) == ["//", "Section:", "grak"]
    grown = augment_vocabulary(base, candidates)
    assert grown.tokens[base.size:] == ("//", "Section:", "grak")
    bert_like = toy_vocab("fix", "##me")
    candidates = discover_candidate_tokens([{"##me", "me", "fix"}], bert_like, threshold=0.25)
    assert list(candidates) == ["me"]
