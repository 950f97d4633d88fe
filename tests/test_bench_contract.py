"""The benchmark's tracer patches satdkit names from the outside.

A renamed or removed patch target, or a changed call signature, would
otherwise only show up as a crash of a traced benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import planted_rows, write_corpus
from satdkit import augment, classifier, harness, lexicon, vocab
from satdkit.harness import build_config, execute_run, export_batches

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402

MODULES = (augment, classifier, harness, lexicon, vocab)


@pytest.fixture
def traced():
    before = [dict(vars(m)) for m in MODULES]
    t = tracer.Tracer()
    tracer.instrument(t)
    patched = list(t._patched)
    yield t, patched
    t.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert [dict(vars(m)) for m in MODULES] == before


def test_instrument_replaces_every_target(traced):
    _, patched = traced
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"


def test_traced_run_reaches_every_layer(traced, tmp_path, monkeypatch):
    t, _ = traced
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "data", {"Alpha": planted_rows(1, 40, 6)})
    config = build_config(overrides={
        "manifest": "data/manifest.tsv", "outdir": "runs", "scenario": "intra",
        "classifier": "linear", "augmentation": "dup_fmr", "k": "2", "epochs": "1",
    })
    execute_run(config)
    metrics = tracer.layer_metrics(t, run_s=1.0, n_comments=40)
    for name in ("preprocess.split_calls", "preprocess.segment_calls",
                 "vocab.tokenize_calls", "lexicon.find_triggers_calls",
                 "augment.batches", "augment.duplicates", "classifier.fit_self_s",
                 "classifier.score_s", "classifier.features_per_item"):
        assert metrics[name] > 0, name


def test_traced_bridge_reaches_export_and_import(traced, tmp_path, monkeypatch):
    t, _ = traced
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "data", {"Alpha": planted_rows(1, 30, 4),
                                     "Beta": planted_rows(2, 30, 4)})
    config = build_config(overrides={
        "manifest": "data/manifest.tsv", "outdir": "runs", "scenario": "cross",
        "classifier": "external", "augmentation": "dup_fmr", "epochs": "1",
        "export_path": "export", "predictions_path": "predictions.jsonl",
    })
    export_batches(config)
    units = json.loads(Path("export/export.json").read_text(encoding="utf-8"))["units"]
    Path("predictions.jsonl").write_text("".join(
        json.dumps({"project": project, "id": cid, "score": 0.5}) + "\n"
        for unit in units for project, cid in unit["test"]
    ), encoding="utf-8")
    execute_run(config)
    metrics = tracer.layer_metrics(t, run_s=1.0, n_comments=60)
    for name in ("augment.export_write_s", "augment.export_bytes", "augment.items",
                 "harness.import_s"):
        assert metrics[name] > 0, name
