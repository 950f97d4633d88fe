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
}

GOLDEN_VOCAB = {
    "vocab.txt": "06c0f16ca88654d345b3a7772113e3b78e50a4f930c641765543dbd0560c70ed",
    "candidates.csv": "5398cb3d9ad6f55e0a84494981d51e56d98edbefe0474d469825d55e4361a076",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_golden_corpus(tmp_path / "data")
    (tmp_path / "deny.txt").write_text(DENYLIST, encoding="utf-8")
    overrides, report_sha, folds_sha = GOLDEN_RUNS[name]
    run_dir = execute_run(build_config(overrides={**COMMON, **overrides}))
    assert _sha256(run_dir / "report.json") == report_sha
    assert _sha256(run_dir / "folds.json") == folds_sha


def test_golden_vocab_build_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_golden_corpus(tmp_path / "data")
    (tmp_path / "deny.txt").write_text(DENYLIST, encoding="utf-8")
    code = main([
        "vocab", "build", "--manifest", "data/manifest.tsv",
        "--vocab-denylist", "deny.txt",
        "--out", "vocab.txt", "--candidates-csv", "candidates.csv",
    ])
    assert code == 0
    assert "(3 denylisted)" in capsys.readouterr().out
    for name, sha in GOLDEN_VOCAB.items():
        assert _sha256(tmp_path / name) == sha, name
