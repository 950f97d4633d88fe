import json

import numpy as np
import pytest

from helpers import make_comment
from satdkit import augment, lexicon
from satdkit.augment import (
    Batch,
    SamplerConfig,
    batch_record,
    dup_augment,
    fmr_batches,
    plain_batches,
    rebalance_items,
    seeded_rng,
    write_batches_jsonl,
)
from satdkit.corpus import Label
from satdkit.errors import DataError
from satdkit.lexicon import STRICT, TriggerLexicon, dup_lexicon, find_triggers

DUP = dup_lexicon()


def _train(n_total, n_satd, project="P"):
    return [
        make_comment(
            i,
            f"// {'todo broken' if i < n_satd else 'plain'} comment {i}",
            Label.SATD if i < n_satd else Label.NON_SATD,
            project=project,
        )
        for i in range(n_total)
    ]


def test_plain_batches_chunking():
    cfg = SamplerConfig(seed=1, batch_size=32, epochs=1)
    batches = list(plain_batches(_train(100, 10), cfg))
    assert [len(b.items) for b in batches] == [32, 32, 32, 4]
    assert all(not b.adjusted for b in batches)
    assert [b.batch_index for b in batches] == [0, 1, 2, 3]
    assert all(b.epoch == 0 for b in batches)


def test_plain_batches_deterministic():
    cfg = SamplerConfig(seed=5, batch_size=8, epochs=2)
    train = _train(30, 3)
    assert list(plain_batches(train, cfg)) == list(plain_batches(train, cfg))


def test_plain_batches_epochs_differ_and_cover_everything():
    cfg = SamplerConfig(seed=5, batch_size=8, epochs=2)
    train = _train(30, 3)
    batches = list(plain_batches(train, cfg))
    epoch0 = [c.id for b in batches if b.epoch == 0 for c in b.items]
    epoch1 = [c.id for b in batches if b.epoch == 1 for c in b.items]
    assert sorted(epoch0) == sorted(epoch1) == list(range(30))
    assert epoch0 != epoch1  # different shuffle per epoch


def test_plain_batches_single_item():
    cfg = SamplerConfig(seed=1, batch_size=32, epochs=1)
    batches = list(plain_batches(_train(1, 0), cfg))
    assert len(batches) == 1
    assert len(batches[0].items) == 1


def test_plain_batches_empty_train():
    with pytest.raises(DataError, match="empty training set"):
        list(plain_batches([], SamplerConfig(seed=1)))


_RNG_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, 7 * 2**61 + 12345,
              -(2**40) - 3, 987654321987654321]


@pytest.mark.parametrize("seed", _RNG_SEEDS)
@pytest.mark.parametrize("key", [(1, 0), (2, 0, 0), (2, 4, 2**32 - 1), (2, 4, 2**32), (3, 1)])
def test_seeded_rng_is_default_rng_of_the_key(seed, key):
    rng = seeded_rng(seed, *key)
    reference = np.random.default_rng([seed & (2**64 - 1), *key])
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random(4).tolist() == reference.random(4).tolist()
    assert rng.permutation(50).tolist() == reference.permutation(50).tolist()
    assert rng.integers(2**40, size=5).tolist() == reference.integers(2**40, size=5).tolist()


def test_seeded_rng_rejects_a_negative_key():
    with pytest.raises(ValueError):
        seeded_rng(1, 2, -1)


def test_rebalance_all_majority_batch():
    items = tuple(_train(32, 0))
    pool = [make_comment(100 + i, "// todo", Label.SATD) for i in range(5)]
    out = rebalance_items(items, pool, 3.0, seeded_rng(0, 2, 0, 0))
    n_satd = sum(1 for c in out if c.label is Label.SATD)
    assert (n_satd, len(out) - n_satd) == (8, 24)
    assert len(out) == 32


def test_rebalance_already_satisfied_unchanged():
    items = tuple(_train(32, 10))  # 10 SATD / 22 non, 22 <= 30
    pool = [c for c in items if c.label is Label.SATD]
    assert rebalance_items(items, pool, 3.0, seeded_rng(0, 2, 0, 0)) == items


def test_fmr_zero_probability_identical_to_plain():
    train = _train(100, 10)
    cfg = SamplerConfig(seed=3, batch_size=16, trigger_prob=0.0, epochs=2)
    assert list(fmr_batches(train, cfg)) == list(plain_batches(train, cfg))


def test_fmr_adjusted_batches_satisfy_ratio_and_size():
    train = _train(400, 12)
    cfg = SamplerConfig(seed=11, batch_size=32, trigger_prob=1.0, target_ratio=3.0, epochs=2)
    n_adjusted = 0
    for plain, adjusted in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
        assert adjusted.adjusted
        n_adjusted += 1
        n_satd, n_non = adjusted.label_counts()
        assert n_non <= 3.0 * n_satd
        assert len(adjusted.items) == len(plain.items)
    assert n_adjusted > 0


def test_fmr_unadjusted_identical_to_plain():
    train = _train(300, 9)
    cfg = SamplerConfig(seed=21, batch_size=32, trigger_prob=0.10, epochs=3)
    saw_both = {True: 0, False: 0}
    for plain, fmr in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
        saw_both[fmr.adjusted] += 1
        if not fmr.adjusted:
            assert fmr == plain
    assert saw_both[True] > 0 and saw_both[False] > 0


def test_fmr_adjusted_fraction_near_probability():
    train = _train(600, 18)
    cfg = SamplerConfig(seed=8, batch_size=32, trigger_prob=0.10, epochs=110)
    batches = list(fmr_batches(train, cfg))
    assert len(batches) >= 2000
    fraction = sum(b.adjusted for b in batches) / len(batches)
    assert 0.07 <= fraction <= 0.13


def test_fmr_empty_pool_rejected():
    train = _train(10, 0)
    cfg = SamplerConfig(seed=1, batch_size=4, epochs=1)
    with pytest.raises(DataError, match="empty SATD pool"):
        list(fmr_batches(train, cfg))


def test_fmr_pool_must_be_minority_only():
    train = _train(200, 6)
    cfg = SamplerConfig(seed=1, batch_size=16, trigger_prob=1.0, epochs=2)
    gained = []
    for plain, fmr in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
        gained.extend(new for old, new in zip(plain.items, fmr.items) if new is not old)
    assert gained
    assert all(c.label is Label.SATD for c in gained)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, batch_size=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, trigger_prob=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, target_ratio=0.5)


def test_dup_augment_strips_triggers():
    train = [
        make_comment(0, "// FIXME: This should probably...", Label.SATD),
        make_comment(1, "// plain comment", Label.NON_SATD),
    ]
    augmented, n_dup = dup_augment(train, DUP)
    assert n_dup == 1
    assert augmented[:2] == train
    duplicate = augmented[2]
    assert duplicate.text == "// This should probably..."
    assert duplicate.label is Label.SATD
    assert duplicate.id == 2
    assert duplicate.origin_id == 0


def test_dup_augment_skips_trigger_free_satd():
    train = [make_comment(0, "// needs a rework someday", Label.SATD)]
    augmented, n_dup = dup_augment(train, DUP)
    assert n_dup == 0
    assert augmented == train


def test_dup_augment_skips_marker_only_duplicates():
    train = [
        make_comment(0, "// TODO", Label.SATD),
        make_comment(1, "/* XXX */", Label.SATD),
        make_comment(2, "// TODO keep me", Label.SATD),
    ]
    augmented, n_dup = dup_augment(train, DUP)
    assert n_dup == 1
    assert augmented[-1].text == "// keep me"


def test_dup_augment_scope_all_oversamples():
    train = [
        make_comment(0, "// needs a rework someday", Label.SATD),
        make_comment(1, "// TODO fix", Label.SATD),
    ]
    augmented, n_dup = dup_augment(train, DUP, scope="all")
    assert n_dup == 2
    assert augmented[2].text == "// needs a rework someday"  # verbatim copy
    assert augmented[3].text == "// fix"


def test_dup_augment_id_floor_respected():
    train = [make_comment(0, "// TODO fix", Label.SATD)]
    held_out = [make_comment(49, "// unrelated", Label.NON_SATD)]
    augmented, n_dup = dup_augment(train, DUP, reserved=held_out)
    assert n_dup == 1
    assert augmented[1].id == 50


def test_dup_augment_fresh_ids_per_project():
    train = [
        make_comment(0, "// TODO fix a", Label.SATD, project="A"),
        make_comment(0, "// TODO fix b", Label.SATD, project="B"),
        make_comment(1, "// ok", Label.NON_SATD, project="A"),
    ]
    augmented, n_dup = dup_augment(train, DUP)
    assert n_dup == 2
    dup_a = next(c for c in augmented[3:] if c.project == "A")
    dup_b = next(c for c in augmented[3:] if c.project == "B")
    assert dup_a.id == 2
    assert dup_b.id == 1


def test_dup_duplicates_contain_no_strict_triggers():
    train = [
        make_comment(i, f"// TODO hack number {i} is ugly", Label.SATD)
        for i in range(20)
    ]
    augmented, n_dup = dup_augment(train, DUP)
    strict = TriggerLexicon(DUP.triggers, STRICT)
    for c in augmented[20:]:
        assert find_triggers(strict, c.text) == []
    assert n_dup == 20


@pytest.mark.parametrize("scope", ["triggered", "all"])
def test_dup_augment_matches_each_satd_comment_once(monkeypatch, scope):
    calls = []
    for module in (augment, lexicon):  # the direct name and the one remove_triggers calls
        original = module.find_triggers
        monkeypatch.setattr(module, "find_triggers",
                            lambda lex, text, f=original: calls.append(text) or f(lex, text))
    train = [
        make_comment(0, "// TODO fix", Label.SATD),
        make_comment(1, "// needs a rework", Label.SATD),
        make_comment(2, "// the hackathon HACK: again", Label.SATD),
        make_comment(3, "/* XXX */", Label.SATD),
        make_comment(4, "// TODO: not debt", Label.NON_SATD),
    ]
    _, n_dup = dup_augment(train, DUP, scope=scope)
    assert n_dup == (3 if scope == "all" else 2)
    assert sorted(calls) == sorted(c.text for c in train if c.label is Label.SATD)


def test_batch_record_schema():
    batch = Batch(
        train=(
            make_comment(3, "// TODO x", Label.SATD, project="A"),
            make_comment(4, "// fine", Label.NON_SATD, project="A"),
        ),
        rows=(0, 1),
        adjusted=True,
        epoch=2,
        batch_index=7,
    )
    record = batch_record(batch)
    assert record == {
        "epoch": 2,
        "batch": 7,
        "adjusted": True,
        "items": [
            {"project": "A", "id": 3, "text": "// TODO x", "label": 1},
            {"project": "A", "id": 4, "text": "// fine", "label": 0},
        ],
    }


def test_write_batches_jsonl(tmp_path):
    train = _train(40, 4)
    cfg = SamplerConfig(seed=2, batch_size=16, epochs=1)
    path = tmp_path / "batches.jsonl"
    n = write_batches_jsonl(plain_batches(train, cfg), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert n == len(lines) == 3
    first = json.loads(lines[0])
    assert set(first) == {"epoch", "batch", "adjusted", "items"}
    assert len(first["items"]) == 16


def test_written_lines_are_json_dumps_of_batch_record(tmp_path):
    odd = 'q"uote \\slash\ttab \u2028sep caf\u00e9 \U0001F600'
    train_a = [
        make_comment(i, f"// {'todo ' if i < 6 else ''}{odd} {i}",
                     Label.SATD if i < 6 else Label.NON_SATD, project=f"P{odd}")
        for i in range(40)
    ]
    train_b = _train(20, 2, project="Q")
    cfg = SamplerConfig(seed=4, batch_size=8, trigger_prob=0.5, epochs=3)
    # two train lists in one file: the writer encodes each list's rows anew
    batches = list(fmr_batches(train_a, cfg)) + list(plain_batches(train_b, cfg))
    assert {b.adjusted for b in batches} == {True, False}
    path = tmp_path / "batches.jsonl"
    assert write_batches_jsonl(batches, path) == len(batches)
    expected = "".join(json.dumps(batch_record(b)) + "\n" for b in batches)
    assert path.read_bytes() == expected.encode("ascii")


def test_write_batches_jsonl_empty_stream(tmp_path):
    path = tmp_path / "batches.jsonl"
    stream = fmr_batches(_train(10, 2), SamplerConfig(seed=1, epochs=0))
    assert write_batches_jsonl(stream, path) == 0
    assert path.read_bytes() == b""
