"""Golden fingerprints: SHA-256 of run, batch-export and vocabulary outputs
on fixed inputs.

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
from satdkit.harness import build_config, execute_run, export_batches
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

# Every file export_batches writes, by its path under the export directory.
GOLDEN_EXPORTS = {
    "intra_dupfmr_input_files": (
        {"scenario": "intra", "augmentation": "dup_fmr", "projects": "Alpha,Beta",
         "seed": "11", **ALL_INPUT_FILES},
        {
            "batches/Alpha/fold0.jsonl":
                "42ed5d4c200dc8581ebc1057d417ce4991a236f174e20c57ddcc27ecb72fa04a",
            "batches/Alpha/fold1.jsonl":
                "a2b078c23d9ac3a2c26f84248ea05156e3adc67240951bdd989aced788cd284a",
            "batches/Alpha/fold2.jsonl":
                "3fddad45fb54b8d97cdc596c7c21b3b97648b5188d3fcd844439a6580fcd025e",
            "batches/Alpha/fold3.jsonl":
                "6a02ba3c81589af92e5131f9a4a848c3bc2479bd4fd7dcc227a64c130f1735c9",
            "batches/Beta/fold0.jsonl":
                "dd14d45137f9cc41babfc1dc8e520b4fe97e473f9ee13bc9ac51a4125a0e45d3",
            "batches/Beta/fold1.jsonl":
                "af850696c8112a45c1ee7dd84f44e1c3ddde715100fba4b4833b910d53554677",
            "batches/Beta/fold2.jsonl":
                "36ba414a5e99372048062c7640ca84428f6561e70796d7b04d051fe0857fda03",
            "batches/Beta/fold3.jsonl":
                "89508a7fc6b0aa4cd159e76aeaa66a38f139d48108164ccaf11d122aa86d9951",
            "export.json":
                "9f335da67984e3ae6d0f816216bf4ed43d6fb7c6bad18f1c99c29bfc16085c62",
            "folds.json":
                "59ad53fea65b520fc40932642dc48b578263104ccfe41dd250d1b273021369ef",
        },
    ),
    "cross_fmr": (
        {"scenario": "cross", "augmentation": "fmr", "seed": "9"},
        {
            "batches/Alpha.jsonl":
                "b09da72f2bff0cdb013f5729d5f1611766638e97c537481a641fe8eabee8f0df",
            "batches/Beta.jsonl":
                "eb386377e80efa07ba2565e2b804017f4cc7ad9ee3f561dcb621d0337fd887a0",
            "batches/Gamma.jsonl":
                "4012f2f13c8afbfffe3f599b2d7b73c5b5575885ac3a18d30bdd7699b4e741e2",
            "export.json":
                "0dadbb7926c9895116a0b8c514b08b2d22060a066a6a7fa6be102cbe75badfd8",
            "folds.json":
                "ed12773472595e4d134a71882b59e3cccde0ca092cc45d936519ee83bde3023f",
        },
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


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_golden_export_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    overrides, shas = GOLDEN_EXPORTS[name]
    out = export_batches(build_config(overrides={**COMMON, **overrides, "export_path": "export"}))
    written = sorted(p for p in out.rglob("*") if p.is_file())
    assert {p.relative_to(out).as_posix(): _sha256(p) for p in written} == shas


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
