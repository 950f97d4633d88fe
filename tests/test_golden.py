"""Golden fingerprints: SHA-256 of run and vocabulary outputs on fixed inputs.

Refactors must keep these bytes. A change that moves a hash on purpose
updates it here and says which outputs moved and why.

Runs happen inside ``tmp_path`` with relative ``manifest`` and ``outdir``
paths, because the report embeds the config (and so the manifest path).
"""

import hashlib

import pytest

from helpers import planted_rows, write_corpus
from satdkit.cli import main
from satdkit.corpus import Label
from satdkit.harness import build_config, execute_run
from satdkit.vocab import char_base_vocabulary

# Decoys: fuzzy matching fires inside these words, strict matching does not.
DECOYS = [
    ("// the hackathon schedule", Label.NON_SATD),
    ("// a todolist widget", Label.NON_SATD),
    ("// prefixme helper", Label.NON_SATD),
]


def _write_golden_corpus(root):
    return write_corpus(root, {
        "Alpha": planted_rows(11, 90, 9) + DECOYS,
        "Beta": planted_rows(12, 60, 6) + DECOYS[:2],
        "Gamma": planted_rows(13, 45, 5),
    })


DENYLIST = "w01\nvalue\n//\n"

# Every input file a config can name, written next to the corpus.
INPUT_FILES = {
    "deny.txt": DENYLIST,
    # the char base plus whole words, which discovery then skips
    "base.txt": "\n".join((*char_base_vocabulary().tokens, "parser", "cache", "todo")) + "\n",
    "dup.txt": "# triggers stripped from duplicates\ntodo\nfixme\nugly\n",
    "mat.txt": "hack\nxxx  # fuzzy also fires inside 'hackathon'\n",
    "labels.txt": "DESIGN -> SATD\nWITHOUT_CLASSIFICATION -> NON_SATD\n",
}
ALL_INPUT_FILES = {
    "vocab_base": "base.txt", "vocab_denylist": "deny.txt", "dup_lexicon": "dup.txt",
    "mat_lexicon": "mat.txt", "label_mapping": "labels.txt",
}

COMMON = {
    "manifest": "data/manifest.tsv", "outdir": "runs", "k": "4", "epochs": "2",
    # a high rate keeps the short linear runs off the all-negative F1 of 0
    "learning_rate": "1.0",
}

GOLDEN_RUNS = {
    "intra_mat_strict_none": (
        {"scenario": "intra", "classifier": "mat_strict", "augmentation": "none",
         "seed": "2"},
        "8b617d52fcdf3b2456bdc364c4f699dc0cd46fdf98619ee67f5beff0cfb77cfa",
        "c4d61838058c4b6c62ce92e1d7f44f9360107d3a3caf28eccc154efd5ffa2b6e",
    ),
    "cross_mat_fuzzy_fmr": (
        {"scenario": "cross", "classifier": "mat_fuzzy", "augmentation": "fmr",
         "seed": "3"},
        "5fbc61aa4e73d735e983b706b05d55282231e8ef71bd36e3e119c1aa6d7df0c2",
        "4481287e7536845da5ee91d65e30cc34f0a884b0b436b99ccdfa278d94360e9a",
    ),
    "intra_linear_none_vocab_all": (
        {"scenario": "intra", "classifier": "linear", "augmentation": "none",
         "vocab_scope": "all", "projects": "Beta,Gamma", "seed": "5"},
        "f44cfa1db35abf0fedcd6be9586f9bd00c8866516e74b9de10339a3fa501eb3b",
        "e6c08a5ecb46cfd3babfd972011be3f8bcf0e43ee2a369858213258aee026831",
    ),
    "intra_linear_dupfmr_dup_all": (
        {"scenario": "intra", "classifier": "linear", "augmentation": "dup_fmr",
         "dup_scope": "all", "projects": "Alpha", "seed": "7"},
        "08f05bcd54da493f4e14f2b05e936ebd788368fd2367f660967d577d6ea00d70",
        "9a4cfcfba63666b0fede9adb2a82aad4be5dfc41b7e40f32a3eac5dccaf76243",
    ),
    "cross_linear_fmr_denylist": (
        {"scenario": "cross", "classifier": "linear", "augmentation": "fmr",
         "vocab_denylist": "deny.txt", "seed": "9"},
        "1dc85c41b220d1ff13dd9bf6b32aef0776b8b00395db07350b0c753bc56d9d60",
        "ed12773472595e4d134a71882b59e3cccde0ca092cc45d936519ee83bde3023f",
    ),
    "intra_linear_dupfmr_input_files": (
        {"scenario": "intra", "classifier": "linear", "augmentation": "dup_fmr",
         "projects": "Alpha,Beta", "seed": "11", **ALL_INPUT_FILES},
        "31ad56e0223711a92d96c056894ab445e49d572a700d1c273b7629581fd5b894",
        "59ad53fea65b520fc40932642dc48b578263104ccfe41dd250d1b273021369ef",
    ),
    "cross_mat_fuzzy_input_files": (
        {"scenario": "cross", "classifier": "mat_fuzzy", "augmentation": "none",
         "seed": "13", **ALL_INPUT_FILES},
        "5b704886c4bf8d12f101c31eee059d2f3e78139883715a27c89b4f0fc75b48db",
        "475b495153bf37c5964ccf18c79f076a82d78e748297d3b75ccb7381ba0a0ccb",
    ),
}

GOLDEN_VOCAB = {
    "vocab.txt": "06c0f16ca88654d345b3a7772113e3b78e50a4f930c641765543dbd0560c70ed",
    "candidates.csv": "5398cb3d9ad6f55e0a84494981d51e56d98edbefe0474d469825d55e4361a076",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_inputs(root):
    _write_golden_corpus(root / "data")
    for name, text in INPUT_FILES.items():
        (root / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    overrides, report_sha, folds_sha = GOLDEN_RUNS[name]
    run_dir = execute_run(build_config(overrides={**COMMON, **overrides}))
    assert _sha256(run_dir / "report.json") == report_sha
    assert _sha256(run_dir / "folds.json") == folds_sha


def test_golden_vocab_build_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    code = main([
        "vocab", "build", "--manifest", "data/manifest.tsv",
        "--vocab-denylist", "deny.txt",
        "--out", "vocab.txt", "--candidates-csv", "candidates.csv",
    ])
    assert code == 0
    assert "(3 denylisted)" in capsys.readouterr().out
    for name, sha in GOLDEN_VOCAB.items():
        assert _sha256(tmp_path / name) == sha, name
