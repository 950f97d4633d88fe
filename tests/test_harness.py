import csv
import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    PLANTED_TRIGGERS,
    make_comment,
    planted_rows,
    write_corpus,
    write_planted_corpus,
)
from satdkit import augment, harness, vocab
from satdkit.augment import Batch, dup_augment
from satdkit.classifier import LinearHyper, predict_linear, train_linear
from satdkit.corpus import Label
from satdkit.errors import ConfigError, DataError, RunError
from satdkit.evalkit import MetricResult
from satdkit.lexicon import dup_lexicon
from satdkit.harness import (
    EvalReport,
    ExperimentConfig,
    ProjectResult,
    Scores,
    UnitResult,
    build_config,
    build_vocabulary,
    execute_run,
    export_batches,
    import_predictions,
    load_config_collection,
    prepare_run,
    render_csv,
    render_markdown,
    render_report,
    report_from_dict,
    report_to_dict,
    report_to_json,
    run_experiment,
    training_stream,
)
from satdkit.vocab import WordCache, char_base_vocabulary


def _mixed_rows(seed, n_total, n_satd):
    # SATD <=> a trigger word appears; mirrors the planted construction
    return planted_rows(seed, n_total, n_satd)


def _write_pair_corpus(root, n_a=120, n_b=60, seed_a=1, seed_b=2):
    return write_corpus(root, {
        "Alpha": _mixed_rows(seed_a, n_a, n_a // 10),
        "Beta": _mixed_rows(seed_b, n_b, n_b // 10),
    })


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# experiment\nmanifest = data/run#3/manifest.tsv\nscenario = cross\n"
        "seed = 4  # note\nk = 9\n",
        encoding="utf-8",
    )
    config = build_config(cfg_file, overrides={"k": "11", "epochs": "2"})
    assert config.manifest == "data/run#3/manifest.tsv"
    assert config.scenario == "cross"
    assert config.seed == 4
    assert config.k == 11
    assert config.epochs == 2


def test_config_file_with_byte_order_mark_and_crlf_reads_as_plain(tmp_path):
    text = "manifest = m.tsv\r\nseed = 4  # note\r\nk = 9\r\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text.replace("\r\n", "\n"), encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert build_config(marked) == build_config(plain)
    assert build_config(marked).seed == 4


def test_config_comment_holding_a_form_feed_stays_a_comment(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("manifest = m.tsv\nseed = 1  # was 2\x0cepochs = 9\n", encoding="utf-8")
    config = build_config(cfg_file)
    assert config.seed == 1
    assert config.epochs == ExperimentConfig(manifest="m.tsv").epochs != 9


def test_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(cfg_file)
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(overrides={"mystery": "1"})


def test_config_line_without_equals_sign(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("manifest = m.tsv\nseed 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected 'key = value'"):
        build_config(cfg_file)


def test_config_validation():
    with pytest.raises(ConfigError, match="manifest"):
        build_config(overrides={})
    with pytest.raises(ConfigError, match="scenario"):
        build_config(overrides={"manifest": "m", "scenario": "sideways"})
    with pytest.raises(ConfigError, match="external"):
        build_config(overrides={"manifest": "m", "classifier": "external"})
    with pytest.raises(ConfigError, match="invalid value"):
        build_config(overrides={"manifest": "m", "k": "many"})
    with pytest.raises(ConfigError, match="batch_size must be >= 2"):
        build_config(overrides={"manifest": "m", "batch_size": "1"})
    with pytest.raises(ConfigError, match="target_ratio must be >= 1"):
        build_config(overrides={"manifest": "m", "target_ratio": "0.5"})
    # non-finite floats: a nan target_ratio would never rebalance a batch,
    # and a nan or inf learning rate would only surface as a non-finite loss
    for key in ("learning_rate", "l2", "target_ratio"):
        for value in ("nan", "inf"):
            with pytest.raises(ConfigError, match=f"{key} must be >= .* and finite"):
                build_config(overrides={"manifest": "m", key: value})
    for value in ("-0.1", "1.0"):
        with pytest.raises(ConfigError, match=r"vocab_threshold must be in \[0, 1\)"):
            build_config(overrides={"manifest": "m", "vocab_threshold": value})
    with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
        build_config(overrides={"manifest": "m", "epochs": "-1"})


def test_invalid_config_cannot_be_constructed():
    with pytest.raises(ConfigError, match="k must be >= 2"):
        ExperimentConfig(manifest="m", k=1)
    config = build_config(overrides={"manifest": "m"})
    with pytest.raises(ConfigError, match="threshold must be in"):
        dataclasses.replace(config, threshold=2.0)


def test_config_digest_ignores_outdir():
    a = build_config(overrides={"manifest": "m", "outdir": "runs-a"})
    b = build_config(overrides={"manifest": "m", "outdir": "runs-b"})
    c = build_config(overrides={"manifest": "m", "seed": "5"})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_projects_order_names_one_experiment():
    a_b = build_config(overrides={"manifest": "m", "projects": "Alpha,Beta"})
    b_a = build_config(overrides={"manifest": "m", "projects": "Beta, Alpha"})
    assert b_a.projects == ("Alpha", "Beta")
    assert a_b == b_a
    assert a_b.digest() == b_a.digest()


def test_projects_none_selects_every_project():
    every = build_config(overrides={"manifest": "m"})
    assert build_config(overrides={"manifest": "m", "projects": "none"}) == every


def test_projects_filter_unknown_name(tmp_path):
    manifest = _write_pair_corpus(tmp_path)
    config = build_config(overrides={
        "manifest": str(manifest), "projects": "Alpha,Ghost", "scenario": "cross",
    })
    with pytest.raises(ConfigError, match="Ghost"):
        prepare_run(config)


# ---------------------------------------------------------------------------
# unit construction
# ---------------------------------------------------------------------------

def test_intra_units_partition_each_project(tmp_path):
    manifest = _write_pair_corpus(tmp_path)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "k": "5", "seed": "3",
    })
    run = prepare_run(config)
    specs, payload = run.specs, run.folds
    assert len(specs) == 10  # 2 projects x 5 folds
    for spec in specs:
        train_ids = {c.id for c in spec.train}
        test_ids = {c.id for c in spec.test}
        assert not train_ids & test_ids
        ds = run.collection.get(spec.project)
        assert len(train_ids) + len(test_ids) == ds.n_total
    assert payload["scenario"] == "intra"
    assert set(payload["projects"]) == {"Alpha", "Beta"}


def test_fold_plans_shared_across_variants(tmp_path):
    manifest = _write_pair_corpus(tmp_path)
    base = {"manifest": str(manifest), "scenario": "intra", "k": "5", "seed": "3"}
    payloads = []
    for augmentation in ("none", "fmr", "dup_fmr"):
        config = build_config(overrides={**base, "augmentation": augmentation})
        payloads.append(json.dumps(prepare_run(config).folds, sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


def test_cross_units(tmp_path):
    manifest = _write_pair_corpus(tmp_path)
    run = prepare_run(build_config(overrides={"manifest": str(manifest), "scenario": "cross"}))
    specs, payload = run.specs, run.folds
    assert [s.project for s in specs] == ["Alpha", "Beta"]
    assert {c.project for c in specs[0].train} == {"Beta"}
    assert {c.project for c in specs[0].test} == {"Alpha"}
    assert payload["splits"][0]["train_projects"] == ["Beta"]


def _cross_counts(manifest, **overrides):
    """Per-project confusion counts of a cross fmr linear run."""
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "cross", "augmentation": "fmr",
        "classifier": "linear", "seed": "1", "learning_rate": "1.0", **overrides,
    })
    report = run_experiment(prepare_run(config))
    return {p.project: [(u.metrics.tp, u.metrics.fp, u.metrics.fn, u.metrics.tn) for u in p.units]
            for p in report.projects}


def _rewrite_files(root, edit):
    for path in root.iterdir():
        path.write_bytes(edit(path.read_bytes().replace(b"\r\n", b"\n")))


@pytest.mark.parametrize("variant", ["reversed", "subset", "crlf", "bom"])
def test_cross_counts_do_not_depend_on_the_manifest_form(tmp_path, variant):
    # overlapping trigger sets put the scores near the threshold, so another
    # train order (other seeded batches) moves counts; the manifest is not in
    # name order, and its line order, a projects= subset of it, CRLF line
    # ends and a byte-order mark must all give one experiment's counts
    names = ("Echo", "Bravo", "Delta", "Alpha", "Charlie")
    triggers = PLANTED_TRIGGERS * 2
    projects = {name: planted_rows(20 + i, 40, 4 + i, triggers[i:i + 3])
                for i, name in enumerate(names)}
    manifest = write_corpus(tmp_path / "a", projects)
    _rewrite_files(tmp_path / "a", lambda data: data)  # LF line ends throughout
    selection = {}
    if variant == "reversed":
        other = write_corpus(tmp_path / "b", dict(reversed(projects.items())))
    elif variant == "subset":
        selection = {"projects": "Echo,Delta,Alpha"}
        other = write_corpus(tmp_path / "b", {n: projects[n] for n in ("Echo", "Delta", "Alpha")})
    else:
        other = write_corpus(tmp_path / "b", projects)
        _rewrite_files(tmp_path / "b", {
            "crlf": lambda data: data.replace(b"\n", b"\r\n"),
            "bom": lambda data: b"\xef\xbb\xbf" + data,
        }[variant])
    assert _cross_counts(other) == _cross_counts(manifest, **selection)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_intra_mat_strict_on_trigger_defined_corpus(tmp_path):
    manifest = write_planted_corpus(tmp_path, n_total=300, n_satd=30, seed=5)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "5", "seed": "2",
    })
    report = run_experiment(prepare_run(config))
    assert report.scenario == "intra"
    assert len(report.projects) == 1
    # labels are defined by trigger presence, so the keyword baseline is exact
    assert report.projects[0].f1 == pytest.approx(1.0)
    assert report.average.f1 == pytest.approx(1.0)


def _unit_counts(report):
    """(tp, fn) summed over every unit of every project."""
    metrics = [u.metrics for p in report.projects for u in p.units]
    return sum(m.tp for m in metrics), sum(m.fn for m in metrics)


def test_external_score_equal_to_threshold_is_satd(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=3)
    overrides = {
        "manifest": str(manifest), "scenario": "intra", "k": "4", "seed": "1",
        "classifier": "external", "threshold": "0.5",
        "export_path": str(tmp_path / "export"),
        "predictions_path": str(tmp_path / "preds.jsonl"),
    }
    config = build_config(overrides=overrides)
    with open(config.predictions_path, "w", encoding="utf-8") as fh:
        for c in load_config_collection(config).get("Planted").comments:
            score = 0.5 if c.label is Label.SATD else 0.0
            fh.write(json.dumps({"project": c.project, "id": c.id, "score": score}) + "\n")
    report = run_experiment(prepare_run(config))
    assert _unit_counts(report) == (8, 0)
    assert report.average.f1 == pytest.approx(1.0)


def test_mat_hit_at_threshold_one_is_satd(tmp_path):
    manifest = write_planted_corpus(tmp_path, n_total=80, n_satd=8, seed=3)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "4", "seed": "1", "threshold": "1.0",
    })
    report = run_experiment(prepare_run(config))
    assert _unit_counts(report) == (8, 0)
    assert report.average.f1 == pytest.approx(1.0)


def test_mat_strict_scores_raw_comment_text(tmp_path):
    # identifier splitting would turn myTodoList into "my Todo List", a
    # strict match; the keyword baseline must see the raw comment instead
    rows = [("// myTodoList", Label.SATD), ("// TODO fix this", Label.SATD)]
    rows += [(f"// plain comment {i}", Label.NON_SATD) for i in range(10)]
    manifest = write_corpus(tmp_path, {"Raw": rows})
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "2", "seed": "1",
    })
    assert _unit_counts(run_experiment(prepare_run(config))) == (1, 1)


def test_mat_units_build_no_training_stream(tmp_path, monkeypatch):
    # the keyword baseline never reads a training stream, so dup_fmr must not
    # strip triggers for it
    calls = []
    original = harness.dup_augment
    monkeypatch.setattr(
        harness, "dup_augment", lambda *a, **kw: calls.append(a) or original(*a, **kw)
    )
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=3)
    config = build_config(overrides={
        "manifest": str(manifest), "outdir": str(tmp_path / "runs"), "scenario": "intra",
        "classifier": "mat_strict", "augmentation": "dup_fmr", "k": "4", "seed": "1",
    })
    report = json.loads((execute_run(config) / "report.json").read_text(encoding="utf-8"))
    assert calls == []
    assert report["average"]["f1"] == pytest.approx(1.0)


@pytest.mark.parametrize("scenario, augmentation", [("cross", "fmr"), ("intra", "dup_fmr")])
def test_each_comment_text_is_segmented_once_per_run(
    tmp_path, monkeypatch, scenario, augmentation
):
    projects = {name: planted_rows(seed, 30, 5) for seed, name in enumerate(("A", "B", "C"))}
    projects["A"] += projects["A"][:10]  # repeated texts are segmented once too
    manifest = write_corpus(tmp_path / "data", projects)
    config = build_config(overrides={
        "manifest": str(manifest), "outdir": str(tmp_path / "runs"), "scenario": scenario,
        "classifier": "linear", "augmentation": augmentation, "k": "3", "epochs": "1",
    })
    collection = load_config_collection(config)
    texts = {c.text for ds in collection for c in ds.comments}
    if augmentation == "dup_fmr":
        # every SATD comment is in some training split, so all its duplicates occur
        for ds in collection:
            augmented, _ = dup_augment(list(ds.comments), dup_lexicon())
            texts |= {c.text for c in augmented}
    segmented = []
    original = vocab.segment_words
    monkeypatch.setattr(vocab, "segment_words", lambda t: segmented.append(t) or original(t))
    execute_run(config)
    assert len(segmented) == len(texts)


@pytest.mark.parametrize("scenario", ["cross", "intra"])
def test_each_satd_text_is_stripped_once_per_run(tmp_path, monkeypatch, scenario):
    # every SATD comment trains in several units (two of three projects or
    # folds); its trigger-stripped text is computed in the first of them only
    projects = {name: planted_rows(seed, 30, 5) for seed, name in enumerate(("A", "B", "C"))}
    projects["A"] += projects["A"][:10]  # a repeated text is stripped once too
    manifest = write_corpus(tmp_path / "data", projects)
    config = build_config(overrides={
        "manifest": str(manifest), "outdir": str(tmp_path / "runs"), "scenario": scenario,
        "classifier": "linear", "augmentation": "dup_fmr", "k": "3", "epochs": "1",
    })
    stripped = Counter()
    original = augment.remove_triggers
    monkeypatch.setattr(
        augment, "remove_triggers", lambda lex, text: stripped.update([text]) or original(lex, text)
    )
    execute_run(config)
    collection = load_config_collection(config)
    assert set(stripped) == {c.text for ds in collection for c in ds.comments
                             if c.label is Label.SATD}
    assert set(stripped.values()) == {1}


def test_each_input_file_is_read_once_per_run(tmp_path, monkeypatch):
    projects = {name: planted_rows(seed, 40, 10) for seed, name in enumerate(("A", "B", "C"))}
    overrides = {
        "manifest": str(write_corpus(tmp_path / "data", projects)),
        "outdir": str(tmp_path / "runs"), "scenario": "intra", "k": "10",
        "classifier": "linear", "augmentation": "dup_fmr", "epochs": "1",
    }
    files = {
        "vocab_base": ("base.txt", "\n".join(char_base_vocabulary().tokens) + "\n"),
        "vocab_denylist": ("deny.txt", "w01\n"),
        "dup_lexicon": ("dup.txt", "todo\nugly\n"),
        "mat_lexicon": ("mat.txt", "hack\n"),
    }
    for key, (name, text) in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        overrides[key] = str(tmp_path / name)
    # the external case scores the same units from a predictions file
    external = {
        "classifier": "external", "export_path": str(tmp_path / "export"),
        "predictions_path": str(tmp_path / "preds.jsonl"),
    }
    keys = prepare_run(build_config(overrides={**overrides, **external})).test_keys
    (tmp_path / "preds.jsonl").write_text("".join(
        json.dumps({"project": p, "id": i, "score": 0.0}) + "\n" for p, i in keys
    ), encoding="utf-8")
    opened = Counter()
    original = Path.open
    monkeypatch.setattr(
        Path, "open", lambda self, *a, **kw: opened.update([self.name]) or original(self, *a, **kw)
    )
    names = [name for name, _ in files.values()]
    for extra, read in (({}, names), (external, [*names, "preds.jsonl"])):
        opened.clear()
        run_dir = execute_run(build_config(overrides={**overrides, **extra}))
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        units = [u for p in report["projects"] for u in p["units"]]
        assert len(units) == 30 and all(u["error"] is None for u in units)
        assert {name: opened[name] for name in read} == {name: 1 for name in read}


def test_run_cross_linear_pattern_transfers(tmp_path):
    manifest = _write_pair_corpus(tmp_path, n_a=400, n_b=400, seed_a=3, seed_b=4)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "cross", "classifier": "linear",
        "seed": "6", "epochs": "15",
    })
    report = run_experiment(prepare_run(config))
    assert [p.project for p in report.projects] == ["Alpha", "Beta"]
    for project in report.projects:
        assert project.f1 == pytest.approx(1.0)
    assert report.average.f1 == pytest.approx(1.0)


def test_degenerate_project_flagged(tmp_path):
    rows = [(f"// plain comment {i}", Label.NON_SATD) for i in range(40)]
    manifest = write_corpus(tmp_path, {"NoDebt": rows})
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "4", "seed": "1",
    })
    report = run_experiment(prepare_run(config))
    project = report.projects[0]
    assert project.note == "project has no SATD comments"
    assert project.f1 == 0.0
    assert all(u.metrics.f1 == 0.0 for u in project.units)
    assert render_markdown(report).endswith(
        "\nNotes:\n- `NoDebt`: project has no SATD comments\n"
    )


def test_failed_unit_recorded_not_fatal(tmp_path):
    # fmr needs minority examples; a project with a single SATD comment makes
    # some training splits empty of SATD, so those units fail and are marked
    rows = [("// todo fix", Label.SATD)] + [
        (f"// plain {i}", Label.NON_SATD) for i in range(39)
    ]
    manifest = write_corpus(tmp_path, {"OneDebt": rows})
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "linear",
        "augmentation": "fmr", "k": "4", "seed": "1", "epochs": "1",
    })
    report = run_experiment(prepare_run(config))
    units = report.projects[0].units
    failed = [u for u in units if u.error]
    succeeded = [u for u in units if u.metrics is not None]
    assert len(failed) == 1
    assert "empty SATD pool" in failed[0].error
    assert len(succeeded) == 3


def test_comment_word_equal_to_continuation_piece_trains(tmp_path):
    # "###" equals the char base's continuation piece of "#"; it must not be
    # discovered as a new token (which made augment_vocabulary fail the unit)
    rows = planted_rows(7, 40, 4)
    rows[0] = ("// ### Section: w11 w10", rows[0][1])
    manifest = write_corpus(tmp_path, {"Planted": rows})
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "linear",
        "k": "2", "seed": "1", "epochs": "1",
    })
    units = run_experiment(prepare_run(config)).projects[0].units
    assert [u.error for u in units] == [None, None]


def test_reproducible_byte_identical_outputs(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=200, n_satd=20, seed=9)
    overrides = {
        "manifest": str(manifest), "scenario": "intra", "classifier": "linear",
        "augmentation": "fmr", "k": "4", "seed": "21", "epochs": "2",
    }
    dir_a = execute_run(build_config(overrides={**overrides, "outdir": str(tmp_path / "a")}))
    dir_b = execute_run(build_config(overrides={**overrides, "outdir": str(tmp_path / "b")}))
    for name in ("report.json", "report.csv", "report.md", "folds.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    assert dir_a.name == dir_b.name  # same digest


def test_execute_run_layout(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=120, n_satd=12, seed=3)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "4", "seed": "2", "outdir": str(tmp_path / "runs"),
    })
    run_dir = execute_run(config)
    assert run_dir == tmp_path / "runs" / config.digest()
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "folds.json", "log.txt", "report.csv", "report.json", "report.md"
    ]
    log = (run_dir / "log.txt").read_text(encoding="utf-8")
    assert [log.count(line) for line in ("run starting", ": f1=", "run finished")] == [1, 4, 1]
    payload = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert payload["format"] == "eval-report@1"
    assert payload["config"]["classifier"] == "mat_strict"
    assert "outdir" not in payload["config"]


def test_failed_run_still_writes_its_log(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=3)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "4", "outdir": str(tmp_path / "runs"),
    })
    run_dir = tmp_path / "runs" / config.digest()
    (run_dir / "report.md").mkdir(parents=True)  # so the report write fails
    with pytest.raises(OSError):
        execute_run(config)
    log = (run_dir / "log.txt").read_text(encoding="utf-8")
    assert [log.count(line) for line in ("run starting", ": f1=", "run finished")] == [1, 4, 0]


def test_atomic_write_uses_unique_temp_files(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=3)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "k": "4", "outdir": str(tmp_path / "runs"),
    })
    # a leftover at the old fixed temp name must not block the run
    (tmp_path / "runs" / config.digest() / "report.json.tmp").mkdir(parents=True)
    run_dir = execute_run(config)
    assert (run_dir / "report.json").is_file()
    # a failed replace removes its temp file
    target = tmp_path / "out" / "report.md"
    target.mkdir(parents=True)
    with pytest.raises(OSError):
        render_report(_report_fixture(), "markdown", target)
    assert [p.name for p in target.parent.iterdir()] == ["report.md"]


def test_projects_filter_limits_run(tmp_path):
    manifest = _write_pair_corpus(tmp_path)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "classifier": "mat_strict",
        "projects": "Beta", "k": "4", "seed": "2",
    })
    report = run_experiment(prepare_run(config))
    assert [p.project for p in report.projects] == ["Beta"]


def test_custom_lexicon_and_mapping_files(tmp_path):
    # labels use a custom raw scheme; triggers use a custom word
    rows = [
        ("Alpha", "// blocker fix this now", "DEBT"),
        ("Alpha", "// all good here", "CLEAN"),
    ] * 10
    from helpers import write_dataset_csv

    write_dataset_csv(tmp_path / "alpha.csv", rows)
    (tmp_path / "manifest.tsv").write_text("Alpha\talpha.csv\n", encoding="utf-8")
    (tmp_path / "mapping.txt").write_text(
        "CLEAN -> NON_SATD\n* -> SATD\n", encoding="utf-8"
    )
    (tmp_path / "lexicon.txt").write_text("# custom\nblocker\n", encoding="utf-8")
    config = build_config(overrides={
        "manifest": str(tmp_path / "manifest.tsv"),
        "label_mapping": str(tmp_path / "mapping.txt"),
        "mat_lexicon": str(tmp_path / "lexicon.txt"),
        "scenario": "intra", "classifier": "mat_strict", "k": "4", "seed": "2",
    })
    report = run_experiment(prepare_run(config))
    assert report.projects[0].f1 == pytest.approx(1.0)


def test_vocab_scope_all_shares_universal_vocabulary(tmp_path):
    manifest = write_planted_corpus(tmp_path, n_total=200, n_satd=20, seed=8)
    base = {
        "manifest": str(manifest), "scenario": "intra", "classifier": "linear",
        "k": "4", "seed": "5", "epochs": "3",
    }
    leak_free, universal = (
        run_experiment(prepare_run(build_config(overrides={**base, "vocab_scope": scope})))
        for scope in ("train", "all")
    )
    assert leak_free.digest != universal.digest
    for report in (leak_free, universal):
        assert report.projects[0].f1 is not None


@pytest.mark.parametrize("augmentation", ["none", "fmr", "dup_fmr"])
def test_training_stream_rejects_a_train_comment_in_the_test_set(tmp_path, augmentation):
    manifest = write_planted_corpus(tmp_path, n_total=40, n_satd=4, seed=3)
    run = prepare_run(build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "k": "2", "epochs": "1",
        "augmentation": augmentation,
    }))
    spec = run.specs[0]
    leaky = dataclasses.replace(spec, test=spec.test + spec.train[-1:])
    training_stream(run, spec)
    with pytest.raises(RunError, match="train/test leakage detected"):
        training_stream(run, leaky)


def test_dup_scope_all_duplicates_trigger_free_minority(tmp_path):
    rows = [("// todo fix", Label.SATD), ("// wants a redesign", Label.SATD)] + [
        (f"// fine {i}", Label.NON_SATD) for i in range(18)
    ]
    manifest = write_corpus(tmp_path, {"Mix": rows})
    base = {
        "manifest": str(manifest), "scenario": "intra", "k": "4",
        "epochs": "1", "seed": "3", "augmentation": "dup_fmr",
    }
    run_t = prepare_run(build_config(overrides={**base, "dup_scope": "triggered"}))
    run_a = prepare_run(build_config(overrides={**base, "dup_scope": "all"}))
    spec_t, spec_a = run_t.specs[0], run_a.specs[0]
    _, train_t = training_stream(run_t, spec_t)
    _, train_a = training_stream(run_a, spec_a)
    dups_t = [c for c in train_t if c.origin_id is not None]
    dups_a = [c for c in train_a if c.origin_id is not None]
    assert len(dups_a) >= len(dups_t)
    texts_a = {c.text for c in dups_a}
    if any(c.text == "// wants a redesign" for c in spec_a.train):
        assert "// wants a redesign" in texts_a  # verbatim oversample


# ---------------------------------------------------------------------------
# export / import bridge
# ---------------------------------------------------------------------------

def test_export_batch_line_count(tmp_path):
    # 100 train comments, batch 32, 1 epoch -> 4 lines for the unit trained
    # on the 100-comment project
    manifest = write_corpus(tmp_path, {
        "Big": _mixed_rows(1, 100, 10),
        "Small": _mixed_rows(2, 40, 4),
    })
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "cross", "augmentation": "fmr",
        "epochs": "1", "batch_size": "32", "seed": "4", "export_path": str(tmp_path / "export"),
    })
    out = export_batches(config)
    manifest_data = json.loads((out / "export.json").read_text(encoding="utf-8"))
    unit = next(u for u in manifest_data["units"] if u["project"] == "Small")
    assert unit["n_train"] == 100
    assert unit["n_batches"] == 4
    lines = (out / unit["batches"]).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert [len(json.loads(line)["items"]) for line in lines] == [32, 32, 32, 4]


@pytest.mark.parametrize("export_path", ["."], ids=["export_path"])
def test_export_to_current_directory(tmp_path, monkeypatch, export_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=3)
    overrides = {"manifest": str(manifest), "scenario": "intra", "k": "2", "epochs": "1",
                 "export_path": export_path}
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    out = export_batches(build_config(overrides=overrides))
    assert out == Path(".")
    assert (work / "export.json").is_file()
    assert len(json.loads((work / "export.json").read_text(encoding="utf-8"))["units"]) == 2


def test_export_without_path_is_config_error(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=3)
    config = build_config(overrides={"manifest": str(manifest), "scenario": "intra", "k": "2"})
    for path in (None, ""):
        with pytest.raises(ConfigError, match="export path is required"):
            export_batches(dataclasses.replace(config, export_path=path))


def test_export_zero_probability_never_adjusts(tmp_path):
    manifest = write_corpus(tmp_path, {"Only": _mixed_rows(3, 60, 6)})
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "augmentation": "fmr",
        "trigger_prob": "0.0", "k": "3", "epochs": "2", "seed": "8",
        "export_path": str(tmp_path / "export"),
    })
    out = export_batches(config)
    for path in (out / "batches").rglob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            assert json.loads(line)["adjusted"] is False


def test_export_dup_fmr_pool_counts_duplicates(tmp_path):
    manifest = write_corpus(tmp_path, {"Only": _mixed_rows(5, 80, 8)})
    base = {
        "manifest": str(manifest), "scenario": "intra", "k": "4",
        "epochs": "1", "seed": "8",
    }
    plain_cfg = build_config(overrides={
        **base, "augmentation": "fmr", "export_path": str(tmp_path / "plain"),
    })
    dup_cfg = build_config(overrides={
        **base, "augmentation": "dup_fmr", "export_path": str(tmp_path / "dup"),
    })
    plain_out = export_batches(plain_cfg)
    dup_out = export_batches(dup_cfg)
    plain_units = json.loads((plain_out / "export.json").read_text(encoding="utf-8"))["units"]
    dup_units = json.loads((dup_out / "export.json").read_text(encoding="utf-8"))["units"]
    for plain_unit, dup_unit in zip(plain_units, dup_units):
        # planted minority comments all carry triggers, none collapses to a
        # marker-only duplicate, so the pool exactly doubles
        assert dup_unit["n_satd_pool"] == 2 * plain_unit["n_satd_pool"]
        assert dup_unit["n_train"] == plain_unit["n_train"] + plain_unit["n_satd_pool"]


def test_import_predictions_validation(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"project": "A", "id": 0, "score": 0.25}\n'
        '{"project": "A", "id": 1, "score": 0.75}\n',
        encoding="utf-8",
    )
    predictions = import_predictions(path)
    assert predictions[("A", 0)] == 0.25

    with pytest.raises(DataError, match="missing predictions for A:2"):
        import_predictions(path, expected=[("A", 0), ("A", 2)])

    bad_score = tmp_path / "bad_score.jsonl"
    bad_score.write_text('{"project": "A", "id": 0, "score": 1.7}\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 1.*outside"):
        import_predictions(bad_score)

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text('{"project": "A"\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        import_predictions(malformed)

    missing_key = tmp_path / "missing_key.jsonl"
    missing_key.write_text('{"project": "A", "id": 3}\n', encoding="utf-8")
    with pytest.raises(DataError, match="expected keys"):
        import_predictions(missing_key)

    duplicate = tmp_path / "duplicate.jsonl"
    duplicate.write_text(
        '{"project": "A", "id": 0, "score": 0.5}\n'
        '{"project": "A", "id": 0, "score": 0.5}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="duplicate"):
        import_predictions(duplicate)

    blank_lines = tmp_path / "blank_lines.jsonl"
    blank_lines.write_text('\n{"project": "A", "id": 0, "score": 0.5}\n  \n', encoding="utf-8")
    assert import_predictions(blank_lines) == {("A", 0): 0.5}


@pytest.mark.parametrize("bad_id", ["1.5", "true", '"1"'])
def test_import_predictions_rejects_non_integer_ids(tmp_path, bad_id):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"project": "A", "id": 0, "score": 0.25}\n'
        f'{{"project": "A", "id": {bad_id}, "score": 0.75}}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="line 2: id must be an integer"):
        import_predictions(path, expected=[("A", 0), ("A", 1)])


@pytest.mark.parametrize("field, value, message", [
    ("score", "true", "score must be a number"),
    ("score", "false", "score must be a number"),
    ("score", '"0.7"', "score must be a number"),
    ("score", "null", "score must be a number"),
    ("score", "[0.5]", "score must be a number"),
    ("project", "7", "project must be a string"),
    ("project", "null", "project must be a string"),
    ("project", "true", "project must be a string"),
    ("project", '["A"]', "project must be a string"),
])
def test_import_predictions_rejects_mistyped_fields(tmp_path, field, value, message):
    record = {"project": '"A"', "id": "1", "score": "0.75", field: value}
    line = ", ".join(f'"{k}": {v}' for k, v in record.items())
    path = tmp_path / "preds.jsonl"
    path.write_text('{"project": "A", "id": 0, "score": 0.25}\n{' + line + "}\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=f"line 2: {message}"):
        import_predictions(path, expected=[("A", 0), ("A", 1)])


def test_import_predictions_keeps_integer_scores_as_floats(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"project": "A", "id": 0, "score": 1}\n', encoding="utf-8")
    score = import_predictions(path)[("A", 0)]
    assert score == 1.0 and type(score) is float


@pytest.mark.parametrize("field, value, message", [
    ("score", "1" + "0" * 400, r"line 2: score 1000.* outside \[0, 1\]"),
    ("score", "-1" + "0" * 400, r"line 2: score -1000.* outside \[0, 1\]"),
    ("id", "1" * 5001, r"line 2: invalid JSON \(.*digits"),
], ids=["score_401_digits", "score_negative_401_digits", "id_5001_digits"])
def test_import_predictions_rejects_numbers_too_large(tmp_path, field, value, message):
    # json reads a huge integer, or refuses one over its digit limit with a
    # ValueError that is not a JSONDecodeError; neither may escape as a crash
    record = {"project": '"A"', "id": "1", "score": "0.75", field: value}
    line = ", ".join(f'"{k}": {v}' for k, v in record.items())
    path = tmp_path / "preds.jsonl"
    path.write_text('{"project": "A", "id": 0, "score": 0.25}\n{' + line + "}\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=message):
        import_predictions(path, expected=[("A", 0), ("A", 1)])


def test_external_trainer_equivalence(tmp_path):
    """Training from the exported stream and importing the scores must give
    exactly the metrics of the in-process linear run."""
    manifest = write_planted_corpus(tmp_path / "data", n_total=200, n_satd=20, seed=31)
    shared = {
        "manifest": str(manifest), "scenario": "intra", "k": "4", "seed": "17",
        "augmentation": "fmr", "epochs": "2",
    }
    in_process = build_config(overrides={**shared, "classifier": "linear"})
    run_in = prepare_run(in_process)
    report_in = run_experiment(run_in)

    export_dir = tmp_path / "export"
    export_batches(dataclasses.replace(in_process, export_path=str(export_dir)))
    manifest_data = json.loads((export_dir / "export.json").read_text(encoding="utf-8"))
    collection = run_in.collection

    # stand-in external trainer: same model family, driven only by the
    # exported artifacts plus the deterministic vocabulary recipe
    predictions_path = tmp_path / "preds.jsonl"
    hyper = LinearHyper(learning_rate=in_process.learning_rate, l2=in_process.l2)
    words = WordCache()
    with predictions_path.open("w", encoding="utf-8") as fh:
        for unit in manifest_data["units"]:
            test_pairs = [(p, i) for p, i in unit["test"]]
            test_keys = set(test_pairs)
            ds = collection.get(unit["project"])
            train_comments = [c for c in ds.comments if (c.project, c.id) not in test_keys]
            vocab = build_vocabulary(run_in, words.project_words(train_comments))
            # every batch of the unit indexes one train list: the items back to back
            train, batches = [], []
            for line in (export_dir / unit["batches"]).read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                start = len(train)
                train.extend(
                    make_comment(item["id"], item["text"], Label(item["label"]),
                                 project=item["project"])
                    for item in record["items"]
                )
                batches.append(Batch(train, tuple(range(start, len(train))),
                                     adjusted=record["adjusted"], epoch=record["epoch"],
                                     batch_index=record["batch"]))
            state = train_linear(batches, vocab, words, hyper, max_seq_len=in_process.max_seq_len)
            for project, cid in test_pairs:
                comment = next(c for c in ds.comments if c.id == cid)
                score = predict_linear(state, vocab, words[comment.text],
                                       max_seq_len=in_process.max_seq_len)
                fh.write(json.dumps({"project": project, "id": cid, "score": score}) + "\n")

    external = build_config(overrides={
        **shared, "classifier": "external",
        "export_path": str(export_dir), "predictions_path": str(predictions_path),
    })
    report_ext = run_experiment(prepare_run(external))

    units_in = [u.metrics for p in report_in.projects for u in p.units]
    units_ext = [u.metrics for p in report_ext.projects for u in p.units]
    assert units_in == units_ext
    assert report_in.average.f1 == report_ext.average.f1


def test_external_missing_prediction_fails(tmp_path):
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=2)
    predictions_path = tmp_path / "preds.jsonl"
    predictions_path.write_text('{"project": "Planted", "id": 0, "score": 1.0}\n',
                                encoding="utf-8")
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "k": "4", "seed": "1",
        "classifier": "external", "export_path": str(tmp_path / "export"),
        "predictions_path": str(predictions_path),
    })
    with pytest.raises(DataError, match="missing predictions"):
        run_experiment(prepare_run(config))


def test_overflowing_fit_fails_every_unit_with_non_finite_loss(tmp_path):
    # the first step moves the weights to ~1e300, so the second batch's
    # penalty overflows; under -W error numpy must not warn on the way
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=2)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "k": "4", "seed": "1",
        "classifier": "linear", "epochs": "1", "learning_rate": "1e300",
    })
    units = [u for p in run_experiment(prepare_run(config)).projects for u in p.units]
    assert len(units) == 4
    assert all(u.metrics is None for u in units)
    assert {u.error for u in units} == {"non-finite loss at epoch 0 batch 1"}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _report_fixture():
    def unit(name, f1):
        precision = recall = f1
        return UnitResult(
            unit=name,
            metrics=MetricResult(tp=1, fp=0, fn=0, tn=1, precision=precision,
                                 recall=recall, f1=f1),
        )

    projects = (
        ProjectResult("A", (unit("a", 1.0),), 1.0, 1.0, 1.0),
        ProjectResult("B", (unit("b", 0.5),), 0.5, 0.5, 0.5),
    )
    return EvalReport(
        scenario="cross", digest="abc123", seed=1, config={"classifier": "linear",
        "augmentation": "none"}, projects=projects,
        average=Scores(precision=0.75, recall=0.75, f1=0.75),
    )


def test_render_csv_average_row():
    text = render_csv(_report_fixture())
    lines = text.splitlines()
    assert lines[0] == "project,precision,recall,f1"
    assert lines[1] == "A,1.000,1.000,1.000"
    assert lines[2] == "B,0.500,0.500,0.500"
    assert lines[3] == "Average,0.750,0.750,0.750"


def test_render_single_project_average_is_identity():
    report = _report_fixture()
    single = EvalReport(
        scenario="cross", digest="d", seed=1, config=report.config,
        projects=report.projects[:1], average=Scores(precision=1.0, recall=1.0, f1=1.0),
    )
    lines = render_csv(single).splitlines()
    assert lines[-1] == "Average,1.000,1.000,1.000"


def test_render_markdown_layout():
    text = render_markdown(_report_fixture())
    assert "| Project | Precision | Recall | F1 |" in text
    assert "| A | 1.000 | 1.000 | 1.000 |" in text
    assert "| **Average** | 0.750 | 0.750 | 0.750 |" in text
    assert text.startswith("# Cross-project F1 (1-to-1 hold-one-out)\n")


def test_render_empty_report_rejected(tmp_path):
    empty = EvalReport(
        scenario="cross", digest="d", seed=1, config={}, projects=(),
        average=Scores(precision=None, recall=None, f1=None),
    )
    with pytest.raises(RunError, match="nothing to render"):
        render_csv(empty)
    with pytest.raises(RunError, match="nothing to render"):
        render_report(empty, "csv", tmp_path / "x.csv")


def test_render_report_writes_file(tmp_path):
    path = render_report(_report_fixture(), "markdown", tmp_path / "out.md")
    assert path.read_text(encoding="utf-8").startswith("# Cross-project")
    with pytest.raises(ConfigError, match="format"):
        render_report(_report_fixture(), "pdf", tmp_path / "x.pdf")


def test_report_round_trip():
    report = _report_fixture()
    assert report_from_dict(report_to_dict(report)) == report
    assert json.loads(report_to_json(report))["average"]["f1"] == 0.75


def _broken_report(edit):
    payload = json.loads(report_to_json(_report_fixture()))
    edit(payload)
    return payload


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["projects"][1]["units"][0]["metrics"].pop("tn"),
     "projects[1].units[0].metrics.tn: missing"),
    (lambda r: r["projects"][0].pop("note"), "projects[0].note: missing"),
    (lambda r: r.pop("average"), "average: missing"),
    (lambda r: r.update(average=None), "average: expected object, got None"),
    (lambda r: r["average"].pop("recall"), "average.recall: missing"),
    (lambda r: r["average"].update(f1=float("nan")), "average.f1: expected a finite number"),
    (lambda r: r["projects"][0].update(recall=float("inf")),
     "projects[0].recall: expected a finite number"),
    (lambda r: r["projects"][0]["units"][0]["metrics"].update(f1=float("-inf")),
     "projects[0].units[0].metrics.f1: expected a finite number"),
    (lambda r: r.update(projects={"P": list(range(1000))}),
     "projects: expected list, got {'P': [0, 1, 2, 3, 4, 5, ...]}"),
], ids=["unit_tn_missing", "project_note_missing", "average_missing", "average_null",
        "average_recall_missing", "average_f1_nan", "project_recall_inf", "unit_f1_neg_inf",
        "projects_object_shown_short"])
def test_report_from_dict_names_the_bad_path(edit, message):
    with pytest.raises(DataError) as excinfo:
        report_from_dict(_broken_report(edit))
    assert message in str(excinfo.value)


def test_report_from_dict_rejects_non_object():
    with pytest.raises(DataError, match="expected a report object, got list"):
        report_from_dict([1, 2])


@pytest.mark.parametrize("classifier", ["linear", "mat_strict", "external"])
def test_report_json_round_trip(tmp_path, classifier):
    # NoDebt has no SATD: it gets a note, and its linear fmr units fail (null scores)
    manifest = write_corpus(tmp_path / "data", {
        "Alpha": _mixed_rows(1, 60, 6),
        "NoDebt": [(f"// plain comment {i}", Label.NON_SATD) for i in range(20)],
    })
    overrides = {
        "manifest": str(manifest), "scenario": "intra", "k": "3", "seed": "5",
        "augmentation": "fmr", "epochs": "1", "classifier": classifier,
    }
    if classifier == "external":
        preds = tmp_path / "preds.jsonl"
        linear = build_config(overrides={**overrides, "classifier": "linear"})
        collection = load_config_collection(linear)
        preds.write_text("".join(
            json.dumps({"project": c.project, "id": c.id, "score": c.id % 5 / 4}) + "\n"
            for ds in collection for c in ds.comments
        ), encoding="utf-8")
        overrides.update(export_path=str(tmp_path / "export"), predictions_path=str(preds))
    report = run_experiment(prepare_run(build_config(overrides=overrides)))
    assert report_from_dict(json.loads(report_to_json(report))) == report


def test_report_files_escape_project_names(tmp_path):
    manifest = write_corpus(tmp_path / "data", {
        "Apache,Ant": _mixed_rows(1, 40, 4),
        'Say "hi"': _mixed_rows(2, 40, 4),
        "Beta|x": _mixed_rows(3, 40, 4),
    })
    run_dir = execute_run(build_config(overrides={
        "manifest": str(manifest), "scenario": "cross", "classifier": "mat_strict",
        "outdir": str(tmp_path / "runs"),
    }))
    with (run_dir / "report.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows] == ["project", "Apache,Ant", 'Say "hi"', "Beta|x", "Average"]
    table = [line for line in (run_dir / "report.md").read_text(encoding="utf-8").splitlines()
             if line.startswith("|")]
    cells = [re.split(r"(?<!\\)\|", line)[1:-1] for line in table]
    assert all(len(row) == 4 for row in cells)
    assert cells[4][0].strip() == r"Beta\|x"


# ---------------------------------------------------------------------------
# leakage and provenance
# ---------------------------------------------------------------------------

def test_dup_duplicates_never_reach_test_folds(tmp_path):
    manifest = write_planted_corpus(tmp_path, n_total=150, n_satd=15, seed=12)
    config = build_config(overrides={
        "manifest": str(manifest), "scenario": "intra", "augmentation": "dup_fmr",
        "k": "5", "seed": "7", "epochs": "1",
    })
    run = prepare_run(config)
    all_fold_ids = {
        cid for plan in run.folds["projects"].values() for fold in plan["folds"] for cid in fold
    }
    for spec in run.specs:
        _, train = training_stream(run, spec)
        duplicates = [c for c in train if c.origin_id is not None]
        assert duplicates, "expected duplicates in every training split"
        test_ids = {c.id for c in spec.test}
        for dup in duplicates:
            assert dup.id not in test_ids
            assert dup.id not in all_fold_ids
            assert dup.origin_id in {c.id for c in spec.train}
