import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import planted_rows, write_corpus, write_planted_corpus
from satdkit.cli import build_parser, main
from satdkit.corpus import Label, LabelMapping, load_collection
from satdkit.harness import CONFIG_KEYS
from satdkit.vocab import char_base_vocabulary

ROOT = Path(__file__).resolve().parent.parent


def test_ingest_prints_stats(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path, n_total=80, n_satd=8)
    code = main(["ingest", "--manifest", str(manifest), "--collection-name", "Demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Planted" in out
    assert "10.00" in out  # 8 of 80
    assert "Demo" in out


def _subcommands(parser, prefix=()):
    """(command words, parser) for every subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name), sub
                yield from _subcommands(sub, (*prefix, name))


def test_cli_options_beyond_config_keys():
    # every config key is a flag already; an option that restates one is a
    # second path for the same value
    config_flags = {"--config", *(f"--{key.replace('_', '-')}" for key in CONFIG_KEYS)}
    surface = {
        " ".join(words): sorted(
            flag for action in sub._actions if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings if flag not in config_flags
        )
        for words, sub in _subcommands(build_parser())
    }
    assert surface == {
        "ingest": [],
        "vocab": [],
        "vocab build": ["--candidates-csv", "--out"],
        "vocab inspect": ["--vocab"],
        "run": [],
        "export-batches": [],
        "import-predictions": [],
        "report": ["--format", "--out", "--report"],
    }


@pytest.mark.parametrize("argv", [
    ["export-batches", "--out", "x"],
    ["import-predictions", "--predictions", "x"],
    ["run", "--out", "x"],
], ids=["export_out", "import_predictions", "run_out_abbreviation"])
def test_removed_or_abbreviated_flag_is_config_error(capsys, argv):
    assert main(argv) == 1
    assert f"unrecognized arguments: {argv[1]} x" in capsys.readouterr().err


def test_missing_manifest_is_config_error(capsys):
    assert main(["ingest"]) == 1
    assert "config error" in capsys.readouterr().err


def test_nonexistent_manifest_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--manifest", str(tmp_path / "nope.tsv")]) == 2
    assert "data error" in capsys.readouterr().err


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    config = tmp_path / "run.cfg"
    config.write_text(f"manifest = {manifest}\nk = 3\nk = 4\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {config}:3: config key 'k' is repeated\n"


def test_repeated_label_mapping_pattern_is_data_error(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    mapping = tmp_path / "mapping.txt"
    mapping.write_text("* -> SATD\n* -> NON_SATD\n", encoding="utf-8")
    code = main(["ingest", "--manifest", str(manifest), "--label-mapping", str(mapping)])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {mapping}:2: pattern '*' is repeated\n"


def test_unknown_subcommand_is_config_error(capsys):
    assert main(["frobnicate"]) == 1


def test_run_writes_outputs_and_exit_zero(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=120, n_satd=12, seed=4)
    outdir = tmp_path / "runs"
    code = main([
        "run", "--manifest", str(manifest), "--scenario", "intra",
        "--classifier", "mat_strict", "--k", "4", "--seed", "3",
        "--outdir", str(outdir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "run complete" in out
    assert "Average" in out
    run_dirs = list(outdir.iterdir())
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "report.json").exists()


def test_run_failure_exit_code(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main([
        "run", "--manifest", str(manifest), "--scenario", "intra",
        "--classifier", "mat_strict", "--k", "4",
        "--outdir", str(blocker / "nested"),
    ])
    assert code == 3
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("verbose", [False, True])
def test_run_logs_to_stderr_only_when_verbose(tmp_path, verbose):
    # a subprocess, because pytest's root handler makes basicConfig a no-op here
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=4)
    result = subprocess.run(
        [sys.executable, "-m", "satdkit.cli", *["-v"] * verbose, "run",
         "--manifest", str(manifest), "--augmentation", "dup_fmr", "--k", "4",
         "--epochs", "1", "--outdir", str(tmp_path / "runs")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    (run_dir,) = (tmp_path / "runs").iterdir()
    log = (run_dir / "log.txt").read_text(encoding="utf-8")
    assert log.count(": f1=") == 4
    if verbose:
        assert result.stderr.count(" duplicates appended") == 4
        assert log.count(" duplicates appended") == 4
    else:
        assert result.stderr == ""
        assert "DEBUG" not in log


@pytest.mark.parametrize(
    "key", ["vocab_base", "vocab_denylist", "dup_lexicon", "mat_lexicon", "label_mapping"]
)
def test_missing_input_file_fails_run_before_any_unit(tmp_path, capsys, key):
    # the linear dup_fmr run reads every file but the keyword lexicon, which
    # it must still find
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=4)
    missing = tmp_path / "nope.txt"
    code = main([
        "run", "--manifest", str(manifest), "--classifier", "linear",
        "--augmentation", "dup_fmr", "--k", "4", "--epochs", "1",
        "--outdir", str(tmp_path / "runs"), f"--{key.replace('_', '-')}", str(missing),
    ])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))


# every input file of a run, by the flag that names it; "dataset" is a
# project CSV the manifest names, "predictions" the external classifier's
INPUT_FILES = [
    "config", "manifest", "dataset", "label_mapping", "vocab_base", "vocab_denylist",
    "dup_lexicon", "mat_lexicon", "predictions",
]


@pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("role", INPUT_FILES)
def test_unreadable_input_file_fails_before_any_output(tmp_path, capsys, role, fault):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    bad = tmp_path / "bad.txt"
    if fault == "directory":
        bad.mkdir()
    elif fault == "not_utf8":
        bad.write_bytes(b"\xff\xfebad\n")
    flags = {
        "manifest": manifest, "classifier": "linear", "augmentation": "dup_fmr",
        "k": "4", "epochs": "1", "outdir": tmp_path / "runs",
    }
    if role == "dataset":
        manifest.write_text(f"Planted\t{bad}\n", encoding="utf-8")
    elif role == "predictions":
        flags.update(classifier="external", export_path=tmp_path / "export",
                     predictions_path=bad)
    else:
        flags[role] = bad
    argv = ["run", *(f for key, value in flags.items()
                     for f in (f"--{key.replace('_', '-')}", str(value)))]
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    if role == "config":
        assert code == 1 and err.startswith("config error: ")
    else:
        assert code == 2 and err.startswith("data error: ")
    assert str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


# str.splitlines also ends a line at these; read_lines keeps each inside its line
SEPARATOR_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_ENDS = ["\r\n", "\r", "mixed"]


def _input_lines(role, manifest):
    """Three or more lines that make a valid ``role`` input for ``manifest``'s
    corpus, in which the last two joined into one line are malformed."""
    if role == "config":
        return ["seed = 1", "batch_size = 8", "trigger_prob = 0.1"]  # no key the flags set
    if role == "manifest":
        return ["# projects", "Alpha\tAlpha.csv", "Beta\tBeta.csv"]
    if role == "label_mapping":
        return ["# standard", "WITHOUT_CLASSIFICATION -> NON_SATD", "* -> SATD"]
    if role == "vocab_base":
        return list(char_base_vocabulary().tokens)
    if role == "vocab_denylist":
        return ["ns", "li", "zz"]
    if role == "predictions":
        collection = load_collection(manifest, LabelMapping.standard())
        return [json.dumps({"project": c.project, "id": c.id, "score": 0.5})
                for ds in collection for c in ds.comments]
    return ["todo", "fixme", "hack"]  # dup_lexicon, mat_lexicon


@pytest.mark.parametrize("sep", SEPARATOR_CHARS + LINE_ENDS)
@pytest.mark.parametrize("role", [r for r in INPUT_FILES if r != "dataset"])
def test_line_oriented_inputs_end_lines_at_lf_crlf_and_cr_only(tmp_path, capsys, role, sep):
    manifest = write_corpus(tmp_path / "data", {
        "Alpha": planted_rows(1, 24, 4), "Beta": planted_rows(2, 24, 4),
    })
    lines = _input_lines(role, manifest)
    path = tmp_path / "data" / "manifest.tsv" if role == "manifest" else tmp_path / "input.txt"
    if sep in LINE_ENDS:
        ends = ["\r\n", "\r", "\n"] if sep == "mixed" else [sep]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    else:
        text = "\n".join(lines[:-2] + [lines[-2] + sep + lines[-1]]) + "\n"
    path.write_bytes(text.encode("utf-8"))
    flags = {
        "manifest": manifest, "classifier": "linear", "augmentation": "fmr",
        "k": "4", "epochs": "1", "outdir": tmp_path / "runs",
    }
    if role == "predictions":
        flags.update(classifier="external", export_path=tmp_path / "export",
                     predictions_path=path)
    elif role != "manifest":
        flags[role] = path
    code = main(["run", *(f for key, value in flags.items()
                          for f in (f"--{key.replace('_', '-')}", str(value)))])
    out, err = capsys.readouterr()
    if sep in LINE_ENDS:
        assert (code, err) == (0, "")
        assert len(list((tmp_path / "runs").glob("*/report.json"))) == 1
        return
    # the joined line is one line, and its parser rejects it
    assert out == ""
    if role == "config":
        # a config value error names its key, not the file
        assert code == 1 and err.startswith("config error: invalid value for 'batch_size'")
    else:
        assert code == 2 and err.startswith(f"data error: {path}")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["dup_lexicon", "mat_lexicon"])
def test_lexicon_trigger_with_space_fails_before_any_output(tmp_path, capsys, key):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("todo\nfix me\n", encoding="utf-8")
    code = main([
        "run", "--manifest", str(manifest), "--classifier", "linear",
        "--augmentation", "dup_fmr", "--k", "4", "--epochs", "1",
        "--outdir", str(tmp_path / "runs"), f"--{key.replace('_', '-')}", str(lexicon),
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"data error: {lexicon}: line 2: trigger 'fix me' contains whitespace\n"
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_run_with_incomplete_predictions_leaves_no_directory(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"project": "Planted", "id": 0, "score": 1.0}\n', encoding="utf-8")
    code = main([
        "run", "--manifest", str(manifest), "--classifier", "external", "--k", "4",
        "--export-path", str(tmp_path / "export"), "--predictions-path", str(predictions),
        "--outdir", str(tmp_path / "runs"),
    ])
    assert code == 2
    assert "missing predictions" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("projects", [",", " ", "Planted,,Planted"])
def test_projects_naming_no_project_or_one_twice_is_config_error(tmp_path, capsys, projects):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    code = main([
        "run", "--manifest", str(manifest), "--projects", projects, "--k", "4",
        "--outdir", str(tmp_path / "runs"),
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("config error: projects must be one or more distinct names")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("scenario", ["intra", "cross"])
@pytest.mark.parametrize("name", ["a/b", "a\\b", "..", "."])
def test_path_like_project_name_is_data_error(tmp_path, capsys, scenario, name):
    manifest = write_corpus(tmp_path / "data", {
        "Alpha": planted_rows(1, 40, 4), "Beta": planted_rows(2, 40, 4),
    })
    manifest.write_text(f"Alpha\tAlpha.csv\n{name}\tBeta.csv\n", encoding="utf-8")
    export_dir = tmp_path / "data" / "export"
    code = main([
        "export-batches", "--manifest", str(manifest), "--scenario", scenario,
        "--k", "4", "--epochs", "1", "--export-path", str(export_dir),
    ])
    assert code == 2
    assert f"manifest.tsv:2: project name {name!r} is a path" in capsys.readouterr().err
    assert not export_dir.exists()
    assert sorted(p.name for p in tmp_path.rglob("*.jsonl")) == []


def test_vocab_build_and_inspect(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=60, n_satd=6, seed=2)
    vocab_path = tmp_path / "vocab.txt"
    csv_path = tmp_path / "candidates.csv"
    code = main([
        "vocab", "build", "--manifest", str(manifest),
        "--out", str(vocab_path), "--candidates-csv", str(csv_path),
    ])
    assert code == 0
    assert vocab_path.exists()
    assert csv_path.read_text(encoding="utf-8").startswith("token,project_count")
    capsys.readouterr()
    assert main(["vocab", "inspect", "--vocab", str(vocab_path)]) == 0
    out = capsys.readouterr().out
    assert "size:" in out
    assert "[UNK]=0" in out


def test_vocab_build_needs_no_splittable_units(tmp_path, capsys):
    # 6 comments cannot be split into the default 10 folds, which fails a
    # run; vocab build reads the corpus but builds no units
    manifest = write_corpus(tmp_path / "data", {
        "Big": planted_rows(1, 40, 4), "Tiny": planted_rows(2, 6, 1),
    })
    assert main(["run", "--manifest", str(manifest), "--outdir", str(tmp_path / "runs")]) == 2
    capsys.readouterr()
    vocab_path = tmp_path / "vocab.txt"
    assert main(["vocab", "build", "--manifest", str(manifest), "--out", str(vocab_path)]) == 0
    assert "discovered" in capsys.readouterr().out
    assert vocab_path.exists()


def test_vocab_build_makes_parent_directories(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=60, n_satd=6, seed=2)
    vocab_path = tmp_path / "new" / "dir" / "vocab.txt"
    csv_path = tmp_path / "new" / "c.csv"
    code = main([
        "vocab", "build", "--manifest", str(manifest),
        "--out", str(vocab_path), "--candidates-csv", str(csv_path),
    ])
    assert code == 0
    assert vocab_path.read_text(encoding="utf-8").startswith("[UNK]\n[PAD]\n")
    assert csv_path.read_text(encoding="utf-8").startswith("token,project_count")


def test_vocab_threshold_key_moves_the_vocabulary_and_the_run(tmp_path, capsys):
    # each project has one word of its own: in a quarter of the projects, so
    # not strictly more than the default 0.25, but more than 0.0
    manifest = write_corpus(tmp_path / "data", {
        f"P{i}": planted_rows(i, 40, 4) + [(f"solo{name}word only here", Label.NON_SATD)]
        for i, name in enumerate(("alpha", "bravo", "carol", "delta"))
    })
    tokens = {}
    for threshold in (None, "0.0"):
        vocab_path = tmp_path / f"vocab_{threshold}.txt"
        flags = [] if threshold is None else ["--vocab-threshold", threshold]
        argv = ["vocab", "build", "--manifest", str(manifest), "--out", str(vocab_path)]
        assert main(argv + flags) == 0
        tokens[threshold] = set(vocab_path.read_text(encoding="utf-8").splitlines())
    assert tokens[None] < tokens["0.0"]
    assert "soloalphaword" in tokens["0.0"] - tokens[None]
    outdir = tmp_path / "runs"
    for flags in ([], ["--vocab-threshold", "0.0"]):
        argv = ["run", "--manifest", str(manifest), "--scenario", "cross", "--epochs", "1",
                "--outdir", str(outdir)]
        assert main(argv + flags) == 0
    capsys.readouterr()
    assert len([p for p in outdir.iterdir() if (p / "report.json").exists()]) == 2


def test_max_seq_len_past_a_c_long_is_config_error(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    code = main(["run", "--manifest", str(manifest), "--max-seq-len", "1" + "0" * 400,
                 "--outdir", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: max_seq_len must be in [2, {sys.maxsize}], got 1000")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_failed_export_leaves_no_batch_file(tmp_path, capsys):
    # fmr draws from the SATD comments of each training split, and C has none
    manifest = write_corpus(tmp_path / "data", {"C": planted_rows(1, 40, 0)})
    export_dir = tmp_path / "export"
    code = main([
        "export-batches", "--manifest", str(manifest), "--scenario", "intra",
        "--augmentation", "fmr", "--k", "4", "--epochs", "1",
        "--export-path", str(export_dir),
    ])
    assert code == 2
    assert capsys.readouterr().err == "data error: empty SATD pool\n"
    assert [p for p in export_dir.rglob("*") if p.is_file()] == []


def test_failed_export_leaves_no_export_directory(tmp_path, capsys):
    # A's units could be written, but C's fails first: no unit's file is
    # written before every unit's stream is built
    manifest = write_corpus(tmp_path / "data", {
        "A": planted_rows(1, 40, 4), "C": planted_rows(2, 40, 0),
    })
    export_dir = tmp_path / "export"
    code = main([
        "export-batches", "--manifest", str(manifest), "--scenario", "intra",
        "--augmentation", "fmr", "--k", "4", "--epochs", "1",
        "--export-path", str(export_dir),
    ])
    assert code == 2
    assert capsys.readouterr().err == "data error: empty SATD pool\n"
    assert not export_dir.exists()


def test_export_and_import_commands(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=80, n_satd=8, seed=6)
    export_dir = tmp_path / "export"
    code = main([
        "export-batches", "--manifest", str(manifest), "--scenario", "intra",
        "--k", "4", "--epochs", "1", "--export-path", str(export_dir),
    ])
    assert code == 0
    assert (export_dir / "export.json").exists()

    # perfect oracle predictions: score = label
    collection_pairs = []
    manifest_data = json.loads((export_dir / "export.json").read_text(encoding="utf-8"))
    for unit in manifest_data["units"]:
        collection_pairs.extend((p, i) for p, i in unit["test"])
    from satdkit.corpus import Label, LabelMapping, load_collection

    collection = load_collection(manifest, LabelMapping.standard())
    preds_path = tmp_path / "preds.jsonl"
    with preds_path.open("w", encoding="utf-8") as fh:
        for project, cid in collection_pairs:
            comment = next(c for c in collection.get(project).comments if c.id == cid)
            score = 1.0 if comment.label is Label.SATD else 0.0
            fh.write(json.dumps({"project": project, "id": cid, "score": score}) + "\n")
    code = main([
        "import-predictions", "--manifest", str(manifest), "--scenario", "intra",
        "--k", "4", "--epochs", "1", "--predictions-path", str(preds_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cover all" in out


def test_import_predictions_without_a_predictions_file_is_config_error(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=40, n_satd=4, seed=4)
    assert main(["import-predictions", "--manifest", str(manifest), "--k", "4"]) == 1
    assert capsys.readouterr().err == (
        "config error: a predictions file is required (predictions_path)\n"
    )


def test_report_rerender(tmp_path, capsys):
    manifest = write_planted_corpus(tmp_path / "data", n_total=120, n_satd=12, seed=4)
    outdir = tmp_path / "runs"
    main([
        "run", "--manifest", str(manifest), "--scenario", "intra",
        "--classifier", "mat_strict", "--k", "4", "--outdir", str(outdir),
    ])
    run_dir = next(outdir.iterdir())
    capsys.readouterr()
    target = tmp_path / "again.csv"
    code = main([
        "report", "--report", str(run_dir / "report.json"),
        "--format", "csv", "--out", str(target),
    ])
    assert code == 0
    assert target.read_text(encoding="utf-8") == (run_dir / "report.csv").read_text(encoding="utf-8")


# a well-formed report.json payload; _mistyped() breaks one value in a copy,
# or drops its key when the value is MISSING
VALID_REPORT = {
    "format": "eval-report@1", "scenario": "intra", "digest": "d", "seed": 0,
    "config": {"classifier": "mat_strict", "augmentation": "none"},
    "projects": [{
        "project": "P", "precision": 1.0, "recall": 0.5, "f1": 0.667, "note": None,
        "units": [{"unit": "fold0", "error": None, "metrics": {
            "tp": 1, "fp": 0, "fn": 1, "tn": 8, "precision": 1.0, "recall": 0.5, "f1": 0.667,
        }}],
    }],
    "average": {"precision": 1.0, "recall": 0.5, "f1": None},
}


MISSING = object()


def _mistyped(*path_and_value):
    *path, key, value = path_and_value
    report = json.loads(json.dumps(VALID_REPORT))
    target = report
    for step in path:
        target = target[step]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    return json.dumps(report)


def test_report_renders_valid_fixture(tmp_path):
    source = tmp_path / "report.json"
    source.write_text(json.dumps(VALID_REPORT), encoding="utf-8")
    for fmt in ("csv", "markdown"):
        out = tmp_path / f"out.{fmt}"
        assert main(["report", "--report", str(source), "--format", fmt, "--out", str(out)]) == 0
        assert "n/a" in out.read_text(encoding="utf-8")


UNIT = ("projects", 0, "units", 0)


@pytest.mark.parametrize("content", [
    "not json at all",
    '{"format": "eval-report@1"}',
    "[1, 2]",
    None,  # no file
    _mistyped("projects", 0, "precision", "x"),
    _mistyped("projects", 0, "recall", True),
    _mistyped("projects", 0, "f1", [0.5]),
    _mistyped("average", "f1", "0.5"),
    _mistyped("average", "precision", False),
    _mistyped(*UNIT, "metrics", "tp", 1.0),
    _mistyped(*UNIT, "metrics", "fn", True),
    _mistyped(*UNIT, "metrics", "f1", "x"),
    _mistyped(*UNIT, "metrics", "recall", None),
    _mistyped("projects", 0, "project", 7),
    _mistyped(*UNIT, "unit", None),
    _mistyped("config", []),
    _mistyped("seed", "0"),
    _mistyped("scenario", 1),
    _mistyped("digest", None),
    _mistyped(*UNIT, "error", 5),
    _mistyped("projects", 0, "note", 5),
    _mistyped(*UNIT, "metrics", "tn", MISSING),
    _mistyped("average", MISSING),
    _mistyped("average", None),
    _mistyped("projects", 0, "f1", float("nan")),
    _mistyped(*UNIT, "metrics", "recall", float("inf")),
    _mistyped("average", "precision", float("-inf")),
    _mistyped("projects", []),
    _mistyped("scenario", "bogus"),
    _mistyped("format", "eval-report@0"),
], ids=["not_json", "no_projects", "not_object", "missing", "project_precision_str",
        "project_recall_bool", "project_f1_list", "average_f1_str", "average_precision_bool",
        "unit_tp_float", "unit_fn_bool", "unit_f1_str", "unit_recall_null", "project_name_int",
        "unit_name_null", "config_list", "seed_str", "scenario_int", "digest_null",
        "unit_error_int", "project_note_int", "unit_tn_missing", "average_missing",
        "average_null", "project_f1_nan", "unit_recall_inf", "average_precision_neg_inf",
        "projects_empty", "scenario_unknown", "format_older"])
def test_report_rejects_malformed_report(tmp_path, capsys, content):
    source = tmp_path / "report.json"
    if content is not None:
        source.write_text(content, encoding="utf-8")
    for fmt in ("csv", "markdown"):
        out = tmp_path / f"out.{fmt}"
        code = main(["report", "--report", str(source), "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert str(source) in err
        assert not out.exists()


@pytest.mark.parametrize("path, value, where", [
    (("average", "f1"), 10 ** 400, "average.f1"),
    (("projects", 0, "units", 0, "metrics", "f1"), -(10 ** 400), "projects[0].units[0].metrics.f1"),
], ids=["average_f1", "unit_f1_negative"])
def test_report_with_a_number_too_large_for_a_float_is_data_error(tmp_path, capsys, path, value,
                                                                   where):
    # float() of a 401-digit integer overflows; the error names its JSON path
    source = tmp_path / "report.json"
    source.write_text(_mistyped(*path, value), encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(["report", "--report", str(source), "--format", "csv", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {source}: not a readable report ({where}: "
                          f"expected a finite number, got {'-' * (value < 0)}1000")
    assert not out.exists()
