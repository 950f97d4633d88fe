"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Criteria 11 and 12 need the real public datasets
(and criterion 11 the pretrained cased base vocabulary); point
``SATDKIT_DATA_DIR`` at a directory holding ``manifest.tsv`` (20 projects in
this package's CSV schema) and ``SATDKIT_BASE_VOCAB`` at the base token file
to enable them, otherwise they skip.
"""

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    collection_words,
    coverage_base_vocab,
    coverage_collection,
    coverage_random_comment,
    make_comment,
    write_planted_corpus,
)
from satdkit.augment import (
    SamplerConfig,
    dup_augment,
    fmr_batches,
    plain_batches,
    rebalance_items,
    seeded_rng,
)
from satdkit.classifier import LinearHyper, presence_features, train_linear
from satdkit.corpus import (
    CorpusCollection,
    Label,
    LabelMapping,
    ProjectDataset,
    load_collection,
)
from satdkit.evalkit import compute_metrics, stratified_kfold
from satdkit.harness import (
    build_config,
    prepare_run,
    run_experiment,
    training_stream,
)
from satdkit.lexicon import STRICT, TriggerLexicon, dup_lexicon, find_triggers
from satdkit.preprocess import split_identifiers
from satdkit.vocab import (
    WordCache,
    augment_vocabulary,
    discover_candidate_tokens,
    load_base_vocabulary,
    tokenize,
)

import numpy as np


@contextmanager
def criterion(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}  ({time.monotonic() - started:.1f}s)")


_RANDOM_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \t\n();/*#_-.:," + "éΩ中"
)


def test_criterion_01_preprocessing_fidelity():
    with criterion("1. preprocessing fidelity"):
        started = time.monotonic()
        out = split_identifiers("new CharParserForJavaOrSomething();")
        assert out == "new Char Parser For Java Or Something();"
        rng = random.Random(20240101)
        for _ in range(10_000):
            s = "".join(
                rng.choice(_RANDOM_ALPHABET) for _ in range(rng.randint(0, 64))
            )
            once = split_identifiers(s)
            assert once.replace(" ", "") == s.replace(" ", "")
            assert split_identifiers(once) == once
        assert time.monotonic() - started < 5.0


def test_criterion_02_fmr_statistical_contract():
    with criterion("2. FMR statistical contract (20,000 batches)"):
        started = time.monotonic()
        train = [
            make_comment(i, f"// comment number {i}",
                         Label.SATD if i < 60 else Label.NON_SATD)
            for i in range(2000)
        ]
        per_epoch = (len(train) + 31) // 32
        epochs = (20_000 + per_epoch - 1) // per_epoch
        cfg = SamplerConfig(seed=99, batch_size=32, trigger_prob=0.10,
                            target_ratio=3.0, epochs=epochs)
        n = n_adjusted = 0
        for plain, fmr in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
            if n >= 20_000:
                break
            n += 1
            if fmr.adjusted:
                n_adjusted += 1
                n_satd, n_non = fmr.label_counts()
                assert n_non <= 3.0 * n_satd
            else:
                assert fmr == plain
        assert n == 20_000
        fraction = n_adjusted / n
        assert 0.09 <= fraction <= 0.11, fraction
        assert time.monotonic() - started < 30.0


def test_criterion_03_fmr_arithmetic():
    with criterion("3. FMR arithmetic: all-majority batch of 32 -> 8/24"):
        non = [make_comment(i, f"// plain {i}", Label.NON_SATD) for i in range(32)]
        pool = [make_comment(100 + i, "// todo fix", Label.SATD) for i in range(7)]
        items = tuple(non)
        for key in range(25):
            out = rebalance_items(items, pool, 3.0, seeded_rng(key, 2, 0, 0))
            n_satd = sum(1 for c in out if c.label is Label.SATD)
            assert (n_satd, len(out) - n_satd) == (8, 24)
        # the same bound through the full stream: find plain batches that
        # started all-majority and check their adjusted counterparts
        train = [
            make_comment(i, f"// c{i}", Label.SATD if i < 60 else Label.NON_SATD)
            for i in range(2000)
        ]
        cfg = SamplerConfig(seed=5, batch_size=32, trigger_prob=1.0,
                            target_ratio=3.0, epochs=1)
        checked = 0
        for plain, fmr in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
            if len(plain.items) < 32 or plain.label_counts()[0] != 0:
                continue
            n_satd, n_non = fmr.label_counts()
            assert (n_satd, n_non) == (8, 24)
            checked += 1
        assert checked > 0


def test_criterion_04_dup_contract(tmp_path):
    with criterion("4. DUP contract"):
        lex = dup_lexicon()
        # exact duplicate text for the canonical example
        train = [
            make_comment(0, "// FIXME: This should probably...", Label.SATD),
            make_comment(1, "// TODO", Label.SATD),               # marker-only skip
            make_comment(2, "// needs a rethink someday", Label.SATD),  # no trigger
            make_comment(3, "// plain comment", Label.NON_SATD),
            make_comment(4, "// hack around the cache", Label.SATD),
        ]
        augmented, n_dup = dup_augment(train, lex)
        duplicates = augmented[len(train):]
        assert duplicates[0].text == "// This should probably..."
        # count = trigger-containing SATD originals (3) minus marker-only skips (1)
        triggered = sum(
            1 for c in train if c.label is Label.SATD and find_triggers(
                TriggerLexicon(lex.triggers, STRICT), c.text)
        )
        assert triggered == 3
        assert n_dup == triggered - 1 == 2
        strict = TriggerLexicon(lex.triggers, STRICT)
        for dup in duplicates:
            assert find_triggers(strict, dup.text) == []
        # duplicate ids never appear in any test fold
        manifest = write_planted_corpus(tmp_path, n_total=150, n_satd=15, seed=41)
        config = build_config(overrides={
            "manifest": str(manifest), "scenario": "intra",
            "augmentation": "dup_fmr", "k": "5", "seed": "3", "epochs": "1",
        })
        run = prepare_run(config)
        fold_ids = {
            cid for plan in run.folds["projects"].values()
            for fold in plan["folds"] for cid in fold
        }
        for spec in run.specs:
            _, train_list = training_stream(run, spec)
            for dup in (c for c in train_list if c.origin_id is not None):
                assert dup.id not in fold_ids


def test_criterion_05_stratification():
    with criterion("5. stratification over 500 random datasets"):
        started = time.monotonic()
        rng = random.Random(55)
        for _ in range(500):
            n_total = rng.randint(50, 5000)
            minority = rng.uniform(0.01, 0.50)
            n_satd = min(n_total, int(round(n_total * minority)))
            labels = [Label.SATD] * n_satd + [Label.NON_SATD] * (n_total - n_satd)
            rng.shuffle(labels)
            comments = [
                make_comment(i, f"c{i}", label) for i, label in enumerate(labels)
            ]
            ds = ProjectDataset("P", comments)
            plan = stratified_kfold(ds, k=10, seed=rng.randint(0, 10**9))
            assigned = [cid for fold in plan.folds for cid in fold]
            assert sorted(assigned) == list(range(n_total))
            satd_ids = {c.id for c in comments if c.label is Label.SATD}
            for fold in plan.folds:
                fold_satd = sum(1 for cid in fold if cid in satd_ids)
                assert abs(fold_satd - n_satd / 10) <= 1
                assert abs(len(fold) - n_total / 10) <= 1
        assert time.monotonic() - started < 60.0


def test_criterion_06_metrics_oracle():
    with criterion("6. metrics oracle (1,000 random vectors)"):
        rng = random.Random(66)
        for _ in range(1000):
            n = rng.randint(1, 80)
            preds = [rng.choice((Label.SATD, Label.NON_SATD)) for _ in range(n)]
            truth = [rng.choice((Label.SATD, Label.NON_SATD)) for _ in range(n)]
            m = compute_metrics(preds, truth)
            tp = sum(1 for p, t in zip(preds, truth) if p is Label.SATD and t is Label.SATD)
            fp = sum(1 for p, t in zip(preds, truth) if p is Label.SATD and t is Label.NON_SATD)
            fn = sum(1 for p, t in zip(preds, truth) if p is Label.NON_SATD and t is Label.SATD)
            tn = sum(1 for p, t in zip(preds, truth) if p is Label.NON_SATD and t is Label.NON_SATD)
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        case = compute_metrics(
            [Label.SATD] * 10 + [Label.NON_SATD] * 4,
            [Label.SATD] * 8 + [Label.NON_SATD] * 2 + [Label.SATD] * 4,
        )
        assert (case.tp, case.fp, case.fn) == (8, 2, 4)
        assert abs(case.f1 - 0.7273) <= 1e-4


def test_criterion_07_tokenizer_properties():
    with criterion("7. tokenizer round-trip and augmentation monotonicity"):
        started = time.monotonic()
        base = coverage_base_vocab()
        collection = coverage_collection(seed=70)
        grown = augment_vocabulary(
            base, discover_candidate_tokens(collection_words(collection), base)
        )
        cache = WordCache()
        words = set()
        for comment in (c for ds in collection for c in ds.comments):
            words.update(comment.text.split())
        for vocab in (base, grown):
            for word in words:
                seq = tokenize(vocab, cache[word])
                pieces = seq.ids[1:-1]
                if vocab.unk_id in pieces:
                    continue
                rebuilt = "".join(
                    vocab.tokens[i][2:] if vocab.tokens[i].startswith("##")
                    else vocab.tokens[i]
                    for i in pieces
                )
                assert rebuilt == word
        rng = random.Random(77)
        improved = 0
        for _ in range(10_000):
            comment_words = cache[coverage_random_comment(rng)]
            before = tokenize(base, comment_words).ids.count(base.unk_id)
            after = tokenize(grown, comment_words).ids.count(grown.unk_id)
            assert after <= before
            improved += after < before
        assert improved > 0
        assert time.monotonic() - started < 30.0


def test_criterion_08_vocabulary_threshold():
    with criterion("8. strict 25% discovery threshold on an 8-project corpus"):
        base = coverage_base_vocab()
        projects = []
        for i in range(8):
            texts = ["common words here"]
            if i < 3:
                texts.append("treble")   # 3 of 8 = 37.5%
            if i < 2:
                texts.append("borderline")  # exactly 2 of 8 = 25%
            comments = [
                make_comment(j, t, Label.NON_SATD, project=f"p{i}")
                for j, t in enumerate(texts)
            ]
            projects.append(ProjectDataset(f"p{i}", comments))
        collection = CorpusCollection("eight", tuple(projects))
        candidates = discover_candidate_tokens(collection_words(collection), base, 0.25)
        assert "treble" in candidates
        assert candidates["treble"] / len(projects) == pytest.approx(0.375)
        assert "borderline" not in candidates


def test_criterion_09_gradient_check():
    with criterion("9. linear-model gradient check vs central differences"):
        started = time.monotonic()
        from satdkit.vocab import Vocabulary
        from satdkit.augment import Batch

        feature_tokens = ["f0", "f1", "f2", "f3", "f4"]
        vocab = Vocabulary.from_tokens(
            ["[UNK]", "[PAD]", "[CLS]", "[SEP]"] + feature_tokens
        )
        hyper = LinearHyper(learning_rate=0.3, l2=1e-3)
        words = WordCache()

        def loss(w, b, batch):
            feats = [presence_features(vocab, words[c.text]) for c in batch.items]
            y = np.array([1.0 if c.label is Label.SATD else 0.0 for c in batch.items])
            z = np.array([w[list(f)].sum() + b for f in feats])
            return float(
                np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * hyper.l2 * float(w @ w)
            )

        rng = random.Random(90)
        for _ in range(10):
            train = []
            for index in range(2):
                for i in range(6):
                    chosen = [t for t in feature_tokens if rng.random() < 0.5]
                    text = " ".join(chosen) or "unk"
                    label = rng.choice((Label.SATD, Label.NON_SATD))
                    train.append(make_comment(index * 10 + i, text, label))
            # both batches index one train list, as a sampler stream's do
            b1 = Batch(train, tuple(range(6)), adjusted=False, epoch=0, batch_index=0)
            b2 = Batch(train, tuple(range(6, 12)), adjusted=False, epoch=0, batch_index=1)
            state1 = train_linear([b1], vocab, words, hyper)
            state2 = train_linear([b1, b2], vocab, words, hyper)
            h = 1e-6
            grad_w = np.zeros_like(state1.weights)
            for j in range(len(grad_w)):
                wp = state1.weights.copy(); wp[j] += h
                wm = state1.weights.copy(); wm[j] -= h
                grad_w[j] = (loss(wp, state1.bias, b2) - loss(wm, state1.bias, b2)) / (2 * h)
            grad_b = (
                loss(state1.weights, state1.bias + h, b2)
                - loss(state1.weights, state1.bias - h, b2)
            ) / (2 * h)
            expected_w = state1.weights - hyper.learning_rate * grad_w
            expected_b = state1.bias - hyper.learning_rate * grad_b
            scale = max(1.0, float(np.abs(expected_w).max()))
            assert float(np.abs(state2.weights - expected_w).max()) / scale < 1e-5
            assert abs(state2.bias - expected_b) / max(1.0, abs(expected_b)) < 1e-5
        assert time.monotonic() - started < 5.0


def test_criterion_10_end_to_end_planted_run(tmp_path):
    with criterion("10. end-to-end planted-pattern run (intra, linear)"):
        started = time.monotonic()
        manifest = write_planted_corpus(tmp_path / "data", n_total=2000, n_satd=100, seed=7)
        from satdkit.cli import main

        outdir = tmp_path / "runs"
        code = main([
            "run", "--manifest", str(manifest), "--scenario", "intra",
            "--classifier", "linear", "--seed", "11", "--outdir", str(outdir),
        ])
        assert code == 0
        run_dir = next(outdir.iterdir())
        payload = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        mean_f1 = payload["projects"][0]["f1"]
        assert mean_f1 >= 0.95, mean_f1
        assert all(u["error"] is None for u in payload["projects"][0]["units"])

        # dup_fmr trains on strictly more minority instances per epoch
        shared = {
            "manifest": str(manifest), "scenario": "intra",
            "classifier": "linear", "seed": "11",
        }
        baseline_run = prepare_run(build_config(overrides={**shared, "augmentation": "none"}))
        dup_run = prepare_run(build_config(overrides={**shared, "augmentation": "dup_fmr"}))
        spec_base, spec_dup = baseline_run.specs[0], dup_run.specs[0]
        assert spec_base.test == spec_dup.test  # same fold plan

        def minority_per_epoch(run, spec, epoch=0):
            stream, _ = training_stream(run, spec)
            count = 0
            for batch in stream:
                if batch.epoch != epoch:
                    break
                count += batch.label_counts()[0]
            return count

        base_count = minority_per_epoch(baseline_run, spec_base)
        dup_count = minority_per_epoch(dup_run, spec_dup)
        assert dup_count > base_count
        # determinism of the counts themselves
        assert minority_per_epoch(dup_run, spec_dup) == dup_count
        assert time.monotonic() - started < 120.0


def _real_data_manifest():
    data_dir = os.environ.get("SATDKIT_DATA_DIR")
    if not data_dir:
        pytest.skip("SATDKIT_DATA_DIR not set; real-data integration tier disabled")
    manifest = os.path.join(data_dir, "manifest.tsv")
    if not os.path.exists(manifest):
        pytest.skip(f"no manifest.tsv under SATDKIT_DATA_DIR ({data_dir})")
    return manifest


def test_criterion_11_real_corpus_stats():
    manifest = _real_data_manifest()
    with criterion("11. real-corpus ingestion statistics"):
        started = time.monotonic()
        collection = load_collection(manifest, LabelMapping.standard())
        assert abs(100 * collection.get("ArgoUML").satd_fraction - 17.86) <= 0.5
        assert abs(100 * collection.get("SpringFramework").satd_fraction - 1.27) <= 0.5
        base_vocab_path = os.environ.get("SATDKIT_BASE_VOCAB")
        if base_vocab_path:
            vocab = load_base_vocabulary(base_vocab_path)
            assert vocab.size == 28_996
        assert time.monotonic() - started < 60.0


# Best reported keyword-matching (tag-based) cross-project F1 per
# second-collection project, from prior published evaluations.
CROSS_PROJECT_BEST_F1_DATASET_G = {
    "Dubbo": 0.737,
    "Gradle": 0.703,
    "Groovy": 0.782,
    "Hive": 0.789,
    "Maven": 0.718,
    "Poi": 0.850,
    "SpringFramework": 0.673,
    "Storm": 0.709,
    "Tomcat": 0.763,
    "Zookeeper": 0.617,
}


def test_criterion_12_mat_fuzzy_band():
    manifest = _real_data_manifest()
    with criterion("12. keyword-baseline sanity band on the second collection"):
        config = build_config(overrides={
            "manifest": manifest, "scenario": "cross", "classifier": "mat_fuzzy",
            "projects": ",".join(CROSS_PROJECT_BEST_F1_DATASET_G), "seed": "1",
        })
        report = run_experiment(prepare_run(config))
        per_project = {p.project: p.f1 for p in report.projects}
        within = sum(
            1
            for name, reference in CROSS_PROJECT_BEST_F1_DATASET_G.items()
            if per_project.get(name) is not None
            and abs(per_project[name] - reference) <= 0.15
        )
        assert within >= 7, per_project
