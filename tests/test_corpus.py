import csv

import pytest

from helpers import write_corpus, write_dataset_csv
from satdkit.corpus import (
    Comment,
    CorpusCollection,
    Label,
    LabelMapping,
    ProjectDataset,
    corpus_stats,
    format_stats_table,
    load_collection,
    load_label_mapping,
    load_project,
)
from satdkit.errors import ConfigError, DataError

MAPPING = LabelMapping.standard()


def test_load_project_counts_and_order(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [
        ("P", "first comment", "WITHOUT_CLASSIFICATION"),
        ("P", "second comment", "WITHOUT_CLASSIFICATION"),
        ("P", "// TODO fix", "DESIGN"),
    ])
    ds = load_project(path, MAPPING, "P")
    assert ds.n_total == 3
    assert ds.n_satd == 1
    assert [c.id for c in ds.comments] == [0, 1, 2]
    assert [c.text for c in ds.comments] == ["first comment", "second comment", "// TODO fix"]
    assert ds.comments[2].label is Label.SATD


def test_load_project_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_project(tmp_path / "nope.csv", MAPPING, "P")


def test_load_project_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no rows"):
        load_project(path, MAPPING, "P")


def test_load_project_header_only(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [])
    with pytest.raises(DataError, match="no rows"):
        load_project(path, MAPPING, "P")


def test_load_project_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b,c\nP,x,DESIGN\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected header"):
        load_project(path, MAPPING, "P")


def test_load_project_malformed_row_reports_number(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "project,comment,raw_label\nP,ok,DESIGN\nP,only-two-fields\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="row 3"):
        load_project(path, MAPPING, "P")


def test_load_project_unmapped_label(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("P", "text", "MYSTERY")])
    strict_mapping = LabelMapping(rules=(("KNOWN", Label.SATD),), default=None)
    with pytest.raises(DataError, match="MYSTERY"):
        load_project(path, strict_mapping, "P")


def test_load_project_rejects_empty_text_losslessly(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [
        ("P", "keep me", "DESIGN"),
        ("P", "   ", "DESIGN"),
        ("P", "", "WITHOUT_CLASSIFICATION"),
        ("P", "also kept", "WITHOUT_CLASSIFICATION"),
    ])
    ds = load_project(path, MAPPING, "P")
    assert ds.n_total == 2
    assert ds.n_rejected == 2
    assert ds.n_total + ds.n_rejected == 4
    assert [c.id for c in ds.comments] == [0, 1]


def test_load_project_project_field_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("OtherProject", "text", "DESIGN")])
    with pytest.raises(DataError, match="does not match"):
        load_project(path, MAPPING, "P")


def test_load_project_blank_project_field_allowed(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("", "text", "DESIGN")])
    ds = load_project(path, MAPPING, "P")
    assert ds.comments[0].project == "P"


def test_reload_is_identical(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [
        ("P", "alpha", "DESIGN"),
        ("P", "beta", "WITHOUT_CLASSIFICATION"),
    ])
    first = load_project(path, MAPPING, "P")
    second = load_project(path, MAPPING, "P")
    assert first == second


def test_every_label_matches_mapping(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [
        ("P", "a", "DESIGN"),
        ("P", "b", "IMPLEMENTATION"),
        ("P", "c", "WITHOUT_CLASSIFICATION"),
    ])
    ds = load_project(path, MAPPING, "P")
    for c in ds.comments:
        assert MAPPING.map(c.raw_label) is c.label


def test_quoted_fields_with_commas_and_newlines(tmp_path):
    path = tmp_path / "p.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["project", "comment", "raw_label"])
        writer.writerow(["P", "// TODO: fix a, b, and c", "DESIGN"])
        writer.writerow(["P", "line one\nline two", "WITHOUT_CLASSIFICATION"])
    ds = load_project(path, MAPPING, "P")
    assert ds.comments[0].text == "// TODO: fix a, b, and c"
    assert ds.comments[1].text == "line one\nline two"


def test_load_collection(tmp_path):
    manifest = write_corpus(tmp_path, {
        "A": [("one", Label.SATD), ("two", Label.NON_SATD)],
        "B": [("three", Label.NON_SATD)],
    })
    collection = load_collection(manifest, MAPPING, name="Pair")
    assert collection.name == "Pair"
    assert collection.project_names == ("A", "B")
    assert collection.get("A").n_satd == 1


def test_load_collection_default_name_is_manifest_stem(tmp_path):
    manifest = write_corpus(tmp_path, {"A": [("one", Label.SATD)]})
    assert load_collection(manifest, MAPPING).name == "manifest"


def test_load_collection_empty_manifest(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(DataError, match="empty manifest"):
        load_collection(manifest, MAPPING)


def test_load_collection_duplicate_project(tmp_path):
    write_dataset_csv(tmp_path / "a.csv", [("A", "x", "DESIGN")])
    manifest = tmp_path / "m.tsv"
    manifest.write_text("A\ta.csv\nA\ta.csv\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate project"):
        load_collection(manifest, MAPPING)


def test_load_collection_error_names_project(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("Broken\tmissing.csv\n", encoding="utf-8")
    with pytest.raises(DataError, match="project Broken"):
        load_collection(manifest, MAPPING)


def test_manifest_comments_and_relative_paths(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    write_dataset_csv(sub / "a.csv", [("A", "x", "DESIGN")])
    manifest = tmp_path / "m.tsv"
    manifest.write_text("# corpus\nA\tdata/a.csv\n", encoding="utf-8")
    collection = load_collection(manifest, MAPPING)
    assert collection.get("A").n_total == 1


def test_corpus_stats_values():
    def project(name, n_total, n_satd):
        comments = [
            Comment(i, name, f"c{i}",
                    Label.SATD if i < n_satd else Label.NON_SATD, "x")
            for i in range(n_total)
        ]
        return ProjectDataset.from_comments(name, comments)

    collection = CorpusCollection("Demo", (project("A", 40, 5), project("B", 10, 0)))
    stats = corpus_stats(collection)
    assert stats.per_project[0].satd_pct == pytest.approx(12.5)
    assert stats.per_project[1].satd_pct == 0.0
    assert stats.totals.n_total == 50
    assert stats.totals.n_satd == 5
    table = format_stats_table(stats)
    assert "12.50" in table
    assert "0.00" in table
    assert table.splitlines()[-1].startswith("Demo")


def test_corpus_stats_empty_collection():
    with pytest.raises(DataError, match="empty"):
        corpus_stats(CorpusCollection("Empty", ()))


def test_standard_mapping():
    assert MAPPING.map("WITHOUT_CLASSIFICATION") is Label.NON_SATD
    assert MAPPING.map("DESIGN") is Label.SATD
    assert MAPPING.map("anything-else") is Label.SATD
    with pytest.raises(DataError):
        MAPPING.map("")


def test_load_label_mapping_file(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text(
        "# raw annotations\nWITHOUT_CLASSIFICATION -> NON_SATD\n* -> SATD\n",
        encoding="utf-8",
    )
    mapping = load_label_mapping(path)
    assert mapping.map("WITHOUT_CLASSIFICATION") is Label.NON_SATD
    assert mapping.map("DEFECT") is Label.SATD


def test_load_label_mapping_hash_inside_pattern(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text(
        "C#_DEBT -> SATD  # a '#' inside a word is data\n#DEBT -> SATD\n"
        "WITHOUT_CLASSIFICATION -> NON_SATD # trailing note\n",
        encoding="utf-8",
    )
    mapping = load_label_mapping(path)
    assert mapping.rules == (
        ("C#_DEBT", Label.SATD),
        ("WITHOUT_CLASSIFICATION", Label.NON_SATD),
    )


def test_load_label_mapping_bad_target(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("FOO -> MAYBE\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown target"):
        load_label_mapping(path)


def test_comment_invariants():
    with pytest.raises(ValueError):
        Comment(0, "P", "   ", Label.SATD, "x")
    with pytest.raises(ValueError):
        Comment(0, "P", "ok", "SATD", "x")  # type: ignore[arg-type]


def test_collection_rejects_duplicate_names():
    ds = ProjectDataset.from_comments("A", [Comment(0, "A", "x", Label.SATD, "r")])
    with pytest.raises(ValueError, match="duplicate"):
        CorpusCollection("C", (ds, ds))
