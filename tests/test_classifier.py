import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import COMMON_WORDS, make_comment, planted_project_comments, write_planted_corpus
from satdkit.augment import Batch, SamplerConfig, dup_augment, fmr_batches, plain_batches
from satdkit.classifier import (
    LinearHyper,
    LinearModelState,
    logistic,
    mat_score,
    predict_linear,
    presence_features,
    presence_rows,
    train_linear,
)
from satdkit.corpus import Label
from satdkit.errors import RunError
from satdkit.lexicon import FUZZY, STRICT, TriggerLexicon, dup_lexicon, mat_lexicon
from satdkit.preprocess import split_identifiers
from satdkit.vocab import (
    MAX_WORD_CHARS,
    Vocabulary,
    WordCache,
    augment_vocabulary,
    char_base_vocabulary,
)

FEATURE_TOKENS = ["f0", "f1", "f2", "f3", "f4"]
VOCAB = Vocabulary.from_tokens(["[UNK]", "[PAD]", "[CLS]", "[SEP]"] + FEATURE_TOKENS)
WORDS = WordCache()


def _batches(*item_lists):
    """One batch per list of comments, numbered from 0 in epoch 0, all over
    one train list: the lists back to back."""
    train = [c for items in item_lists for c in items]
    batches, start = [], 0
    for index, items in enumerate(item_lists):
        batches.append(Batch(train, tuple(range(start, start + len(items))), False, 0, index))
        start += len(items)
    return batches


def _comment_with_features(i, feature_ids, label):
    text = " ".join(FEATURE_TOKENS[j] for j in feature_ids) or "qqq"
    return make_comment(i, text, label)


def _random_batches(rng, n_batches, size):
    item_lists = []
    for batch_index in range(n_batches):
        items = []
        for i in range(size):
            feature_ids = [j for j in range(5) if rng.random() < 0.5]
            label = rng.choice((Label.SATD, Label.NON_SATD))
            items.append(_comment_with_features(100 * batch_index + i, feature_ids, label))
        item_lists.append(items)
    return _batches(*item_lists)


def _loss(w, b, batch, hyper, vocab=VOCAB):
    feats = [presence_features(vocab, WORDS[c.text]) for c in batch.items]
    y = np.array([1.0 if c.label is Label.SATD else 0.0 for c in batch.items])
    z = np.array([w[list(f)].sum() + b for f in feats])
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * hyper.l2 * float(w @ w))


def test_gradient_matches_central_differences():
    # train on [b1]; the step from b1-state to [b1, b2]-state must equal a
    # gradient step along numerically differentiated loss on b2
    rng = random.Random(31)
    hyper = LinearHyper(learning_rate=0.25, l2=1e-3)
    for trial in range(5):
        b1, b2 = _random_batches(rng, 2, 8)
        state1 = train_linear([b1], VOCAB, WORDS, hyper)
        state2 = train_linear([b1, b2], VOCAB, WORDS, hyper)
        h = 1e-6
        num_grad_w = np.zeros_like(state1.weights)
        for j in range(len(num_grad_w)):
            wp = state1.weights.copy(); wp[j] += h
            wm = state1.weights.copy(); wm[j] -= h
            num_grad_w[j] = (_loss(wp, state1.bias, b2, hyper) - _loss(wm, state1.bias, b2, hyper)) / (2 * h)
        num_grad_b = (
            _loss(state1.weights, state1.bias + h, b2, hyper)
            - _loss(state1.weights, state1.bias - h, b2, hyper)
        ) / (2 * h)
        expected_w = state1.weights - hyper.learning_rate * num_grad_w
        expected_b = state1.bias - hyper.learning_rate * num_grad_b
        scale = max(1.0, float(np.abs(expected_w).max()))
        assert float(np.abs(state2.weights - expected_w).max()) / scale < 1e-5
        assert abs(state2.bias - expected_b) / max(1.0, abs(expected_b)) < 1e-5


def _reference_train_linear(stream, vocab, words, hyper=LinearHyper(), max_seq_len=128):
    """The per-item trainer loop that ``train_linear`` vectorizes, kept as
    its bit-exact oracle."""
    w = np.zeros(vocab.size, dtype=np.float64)
    b = 0.0
    feats_of = {}
    for batch in stream:
        for c in batch.items:
            if c not in feats_of:
                feats_of[c] = presence_features(vocab, words[c.text], max_seq_len)
        feats = [feats_of[c] for c in batch.items]
        y = np.array([1.0 if c.label is Label.SATD else 0.0 for c in batch.items])
        z = np.array([w[list(f)].sum() + b for f in feats])
        p = logistic(z)
        with np.errstate(over="ignore"):
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * hyper.l2 * float(w @ w))
        if not np.isfinite(loss):
            raise RunError(f"non-finite loss at epoch {batch.epoch} batch {batch.batch_index}")
        g = p - y
        grad = np.zeros_like(w)
        for f, gi in zip(feats, g):
            if f:
                grad[list(f)] += gi
        grad /= len(y)
        w = (1.0 - hyper.learning_rate * hyper.l2) * w - hyper.learning_rate * grad
        b -= hyper.learning_rate * float(g.mean())
    return LinearModelState(weights=w, bias=b)


def _long_text(rng):
    """Lower-case, upper-case and digit words (each kept whole by the
    identifier split) in which every character starts a word and continues
    one, plus random such words and the common words: under ORACLE_VOCAB
    over 127 distinct features, so a pairwise sum of one row recurses."""
    words = list(COMMON_WORDS)
    for alphabet in ("abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "0123456789"):
        words += [a + b for a, b in zip(alphabet, alphabet[1:] + alphabet[0])]
        words += ["".join(rng.choice(alphabet) for _ in range(rng.randint(3, 9))) for _ in range(10)]
    rng.shuffle(words)
    return " ".join(words)


def _oracle_streams(seed):
    """Seeded plain, fmr and dup_fmr streams over a planted project whose
    comments have up to 36 features each (character pieces plus some whole
    words; from 8 features on, a pairwise and a sequential sum can differ),
    with an all-UNK comment and a repeated one mixed in; a batch holding one
    text under both labels; and a stream mixing comments of more than 127
    features with short ones. Each comes with the max_seq_len to train at."""
    train = planted_project_comments(seed, 120, 15, "P")
    train.append(make_comment(500, "ÄÖÜ éè ß", Label.SATD))  # all UNK: no features
    train.append(make_comment(501, "ÄÖÜ ñ", Label.NON_SATD))
    cfg = SamplerConfig(seed=seed, batch_size=8, trigger_prob=0.5, epochs=3)
    augmented, n_dup = dup_augment(train, dup_lexicon())
    assert n_dup > 0
    # rows of ``augmented``, whose first rows are ``train``
    repeated = Batch(augmented, (0,) * 5 + (1, 0, len(train) - 2), False, 0, 99)
    shared = [make_comment(600, train[3].text, Label.SATD),
              make_comment(601, train[3].text, Label.NON_SATD)]
    rng = random.Random(seed)
    long = [make_comment(700 + i, _long_text(rng), rng.choice(list(Label))) for i in range(6)]
    return {
        "plain": (list(plain_batches(train, cfg)), 128),
        "fmr": (list(fmr_batches(train, cfg)), 128),
        "dup_fmr": (list(fmr_batches(augmented, cfg)) + [repeated], 128),
        "shared_text": (_batches(shared + train[:6], shared[::-1] + train[6:12]), 128),
        "long_rows": (list(plain_batches(train[:30] + train[-2:] + long, cfg)), 1024),
    }


ORACLE_VOCAB = augment_vocabulary(char_base_vocabulary(), COMMON_WORDS[::3])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hyper", [LinearHyper(), LinearHyper(learning_rate=1.0, l2=1e-3)])
def test_train_linear_is_bit_exact_to_per_item_loop(seed, hyper):
    for name, (stream, n) in _oracle_streams(seed).items():
        got = train_linear(stream, ORACLE_VOCAB, WORDS, hyper, n)
        want = _reference_train_linear(stream, ORACLE_VOCAB, WORDS, hyper, n)
        assert np.array_equal(got.weights, want.weights), name
        assert got.bias == want.bias, name
        assert got.weights.any(), name


def _run_case(lengths, seed):
    """Pad-led runs of ``lengths`` consecutive ids into seeded random weights
    of mixed magnitude; id 0 is the pad and weighs 0."""
    rng = np.random.default_rng(seed)
    total = int(sum(lengths))
    w = np.concatenate(([0.0], rng.standard_normal(total) * 10.0 ** rng.integers(-4, 5, total)))
    ids = np.arange(1, total + 1)
    starts = np.cumsum(lengths) - lengths
    runs = [ids[s:s + n] for s, n in zip(starts, lengths)]
    want = np.array([np.add.reduce(w[run]) for run in runs])
    return runs, w, want


def _reduceat_runs(runs, w):
    """Each run's sum as ``train_linear`` takes it: the runs back to back,
    each led by the pad, in one ``np.add.reduceat``."""
    lens = np.array([len(run) + 1 for run in runs])
    block = np.concatenate([np.empty(0, np.intp)] + [np.r_[0, run] for run in runs])
    return np.add.reduceat(w[block], np.cumsum(lens) - lens)


def test_pad_led_run_sums_equal_add_reduce_of_each_run():
    # every length 0..400 three times in one layout, in a shuffled run
    # order, and each length alone in its own layout
    lengths = np.repeat(np.arange(401), 3)
    runs, w, want = _run_case(lengths, 11)
    order = np.random.default_rng(12).permutation(len(lengths))
    assert np.array_equal(_reduceat_runs([runs[i] for i in order], w), want[order])
    for n in range(401):
        runs, w, want = _run_case([n], n)
        assert np.array_equal(_reduceat_runs(runs, w), want), n


def test_presence_rows_equal_presence_features_text_by_text():
    words = WordCache()
    words["special word"] = ("[CLS]", "w03", "[SEP]x", "[PAD]")  # specials as words
    texts = [
        "ÄÖÜ éè ß",  # all UNK
        "x" * (MAX_WORD_CHARS + 1) + " w03 abc",  # a word over the length cap
        "special word",
        "",
        "//",
        "value w03 parser w06 cache w03",
        "value w03 parser w06 cache w03",  # duplicate text
        _long_text(random.Random(3)),
    ]
    pad = ORACLE_VOCAB.pad_id
    for n in (2, 3, 10, 128, 1024):
        ids, starts = presence_rows(ORACLE_VOCAB, words, texts, n)
        assert len(starts) == len(texts)
        for run, text in zip(np.split(ids, starts[1:]), texts):
            assert run[0] == pad, (n, text[:20])
            got = tuple(run[1:].tolist())
            assert got == presence_features(ORACLE_VOCAB, words[text], n), (n, text[:20])
    assert len(presence_features(ORACLE_VOCAB, words[texts[-1]], 1024)) > 127
    ids, starts = presence_rows(ORACLE_VOCAB, words, [], 128)
    assert len(ids) == len(starts) == 0


@pytest.mark.parametrize("field", ["learning_rate", "l2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
def test_linear_hyper_rejects_negative_and_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
        LinearHyper(**{field: value})


def test_train_linear_empty_features_and_stream_match_oracle():
    unk = make_comment(0, "ÄÖÜ", Label.SATD)
    assert presence_features(ORACLE_VOCAB, WORDS[unk.text]) == ()
    other = make_comment(1, "w03 w06", Label.NON_SATD)
    for stream in ([], _batches([unk, unk]), _batches([unk, other, unk], [other])):
        got = train_linear(stream, ORACLE_VOCAB, WORDS)
        want = _reference_train_linear(stream, ORACLE_VOCAB, WORDS)
        assert np.array_equal(got.weights, want.weights)
        assert got.bias == want.bias


def test_train_linear_rejects_batches_over_two_train_lists():
    rng = random.Random(3)
    stream = _random_batches(rng, 1, 4) + _random_batches(rng, 1, 4)
    with pytest.raises(ValueError, match="one train list"):
        train_linear(stream, VOCAB, WORDS)


def test_empty_stream_keeps_zero_state():
    state = train_linear([], VOCAB, WORDS, LinearHyper())
    assert not state.weights.any()
    assert state.bias == 0.0
    score = predict_linear(state, VOCAB, WORDS["f0 f3 anything"])
    assert score == 0.5


def test_zero_learning_rate_keeps_state():
    rng = random.Random(5)
    batches = _random_batches(rng, 4, 6)
    state = train_linear(batches, VOCAB, WORDS, LinearHyper(learning_rate=0.0))
    assert not state.weights.any()
    assert state.bias == 0.0


def test_separable_toy_set_reaches_full_accuracy():
    vocab = Vocabulary.from_tokens(
        ["[UNK]", "[PAD]", "[CLS]", "[SEP]", "todo", "fix", "later", "the", "code"]
    )
    toy = [
        make_comment(
            i,
            "todo fix the code" if i % 2 == 0 else "fix the code later",
            Label.SATD if i % 2 == 0 else Label.NON_SATD,
        )
        for i in range(20)
    ]
    stream = plain_batches(toy, SamplerConfig(seed=3, batch_size=4, epochs=5))
    state = train_linear(stream, vocab, WORDS, LinearHyper())
    correct = sum(
        1
        for c in toy
        if (predict_linear(state, vocab, WORDS[c.text]) >= 0.5)
        == (c.label is Label.SATD)
    )
    assert correct == len(toy)


def test_training_is_deterministic():
    rng = random.Random(77)
    batches = _random_batches(rng, 6, 8)
    a = train_linear(batches, VOCAB, WORDS, LinearHyper())
    b = train_linear(batches, VOCAB, WORDS, LinearHyper())
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_non_finite_loss_reports_batch():
    rng = random.Random(2)
    batches = _random_batches(rng, 3, 8)
    with pytest.raises(RunError, match="batch 1"):
        train_linear(batches, VOCAB, WORDS, LinearHyper(learning_rate=1e200, l2=1e-4))


def test_logistic_is_exact_at_zero_monotone_and_saturates_without_warnings():
    far = np.array([1000.0, 1e308, np.inf])
    grid = np.linspace(-50.0, 50.0, 100_001)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logistic(0.0) == 0.5
        p = logistic(grid)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        assert (np.diff(p) >= 0.0).all()
        assert (logistic(far) == 1.0).all() and (logistic(-far) == 0.0).all()
        for z in far.tolist():
            assert (logistic(z), logistic(-z)) == (1.0, 0.0)
    near = grid[np.abs(grid) <= 30.0]
    assert np.abs(logistic(near) - 1.0 / (1.0 + np.exp(-near))).max() < 1e-15


def test_linear_run_imports_no_third_party_package_but_numpy(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    script = (
        "import sys\n"
        "class NumpyOnly:  # an import finder that refuses every other third-party package\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] not in {*sys.stdlib_module_names, 'numpy', 'satdkit'}:\n"
        "            raise ImportError(f'{name} is neither numpy nor the standard library')\n"
        "sys.meta_path.insert(0, NumpyOnly())\n"
        "import satdkit\n"
        "config = satdkit.build_config(overrides={'manifest': sys.argv[1], 'k': '4',\n"
        "    'classifier': 'linear', 'learning_rate': '1.0', 'epochs': '2'})\n"
        "report = satdkit.run_experiment(satdkit.prepare_run(config))\n"
        "units = [u for p in report.projects for u in p.units]\n"
        "assert len(units) == 4 and all(u.error is None for u in units), units\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, str(manifest)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_predict_zero_state():
    state = LinearModelState(weights=np.zeros(VOCAB.size), bias=0.0)
    assert predict_linear(state, VOCAB, WORDS["f1 f2"]) == 0.5


def test_predict_single_positive_weight():
    state = LinearModelState(weights=np.zeros(VOCAB.size), bias=0.0)
    state.weights[VOCAB.index["f0"]] = 4.0
    score = predict_linear(state, VOCAB, WORDS["f0"])
    assert score == pytest.approx(0.982, abs=5e-4)


def test_all_unk_scores_logistic_bias():
    state = LinearModelState(weights=np.ones(VOCAB.size), bias=-1.0)
    score = predict_linear(state, VOCAB, WORDS["zzz qqq www"])
    assert score == pytest.approx(1.0 / (1.0 + np.exp(1.0)))


def test_score_monotone_in_positive_weight_token():
    state = LinearModelState(weights=np.zeros(VOCAB.size), bias=0.3)
    state.weights[VOCAB.index["f2"]] = 1.7
    without = predict_linear(state, VOCAB, WORDS["f0 f1"])
    with_token = predict_linear(state, VOCAB, WORDS["f0 f1 f2"])
    assert with_token > without


def test_presence_features_exclude_specials_and_dedupe():
    feats = presence_features(VOCAB, WORDS["f0 f0 zzz f3"])
    assert feats == (VOCAB.index["f0"], VOCAB.index["f3"])


def test_linear_classifier_contract():
    toy = [
        make_comment(i, "f0 f1" if i % 2 else "f2 f3",
                     Label.SATD if i % 2 else Label.NON_SATD)
        for i in range(12)
    ]
    stream = plain_batches(toy, SamplerConfig(seed=1, batch_size=4, epochs=5))
    state = train_linear(stream, VOCAB, WORDS)
    assert predict_linear(state, VOCAB, WORDS["f0 f1"]) >= 0.5
    assert predict_linear(state, VOCAB, WORDS["f2 f3"]) < 0.5


def test_mat_classifier_scores():
    lex = mat_lexicon()
    assert mat_score(lex, "//TODO: nothing appears to read this") == 1.0
    assert mat_score(lex, "// a perfectly fine comment") == 0.0
    assert mat_score(lex, "// TODO x") == 1.0


def test_mat_classifier_fuzzy_vs_strict():
    strict = TriggerLexicon(frozenset({"todo"}), STRICT)
    fuzzy = TriggerLexicon(frozenset({"todo"}), FUZZY)
    assert mat_score(strict, "xtodox") == 0.0
    assert mat_score(fuzzy, "xtodox") == 1.0


def test_mat_classifier_uses_original_text():
    # identifier splitting would manufacture a trigger match: the baseline
    # scores the raw comment
    strict = TriggerLexicon(frozenset({"todo"}), STRICT)
    assert split_identifiers("myTodoList") == "my Todo List"
    assert mat_score(strict, "my Todo List") == 1.0
    assert mat_score(strict, "myTodoList") == 0.0
