import csv

import pytest

from helpers import write_corpus, write_dataset_csv
from satdkit.corpus import (
    Comment,
    CorpusCollection,
    Label,
    LabelMapping,
    ProjectDataset,
    format_stats_table,
    load_collection,
    load_label_mapping,
    load_project,
    parse_manifest,
)
from satdkit.errors import DataError

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


def test_load_project_crlf_keeps_quoted_line_ends(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(
        b'project,comment,raw_label\r\nP,"// first\r\n// second",DESIGN\r\n'
        b"P,plain,WITHOUT_CLASSIFICATION\r\n"
    )
    ds = load_project(path, MAPPING, "P")
    assert [c.text for c in ds.comments] == ["// first\r\n// second", "plain"]
    assert [c.label for c in ds.comments] == [Label.SATD, Label.NON_SATD]


def test_load_project_oversized_field_names_file_and_row(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("P", "ok", "DESIGN"), ("P", "x" * 131_073, "DESIGN")])
    with pytest.raises(DataError, match=r"p\.csv: row 3: field larger than field limit"):
        load_project(path, MAPPING, "P")


def test_load_project_unmapped_label(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("P", "text", "MYSTERY")])
    strict_mapping = LabelMapping(rules={"KNOWN": Label.SATD}, default=None)
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


def test_load_project_with_only_empty_rows(tmp_path):
    path = tmp_path / "p.csv"
    write_dataset_csv(path, [("P", "  ", "DESIGN"), ("P", "", "WITHOUT_CLASSIFICATION")])
    with pytest.raises(DataError, match=r"p\.csv: no usable rows \(2 rejected\)"):
        load_project(path, MAPPING, "P")


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


def test_manifest_comments_follow_the_config_file_rule(tmp_path):
    # "#" after whitespace starts a comment, as in a config file; any other
    # "#" is part of the name or path
    manifest = tmp_path / "m.tsv"
    manifest.write_text("A\ta.csv   # first project\nB\tb.csv\t# tab first\n"
                        "C#2\tc#2.csv\n  # indented\n", encoding="utf-8")
    assert parse_manifest(manifest) == [
        ("A", tmp_path / "a.csv"), ("B", tmp_path / "b.csv"), ("C#2", tmp_path / "c#2.csv"),
    ]
    write_dataset_csv(tmp_path / "a.csv", [("A", "x", "DESIGN")])
    manifest.write_text("A\ta.csv   # first project\n", encoding="utf-8")
    assert load_collection(manifest, MAPPING).get("A").n_total == 1


def test_corpus_stats_values():
    def project(name, n_total, n_satd):
        comments = [
            Comment(i, name, f"c{i}",
                    Label.SATD if i < n_satd else Label.NON_SATD, "x")
            for i in range(n_total)
        ]
        return ProjectDataset(name, comments)

    collection = CorpusCollection("Demo", (project("A", 40, 5), project("B", 10, 0)))
    assert format_stats_table(collection).splitlines() == [
        "project  n_total  n_satd  satd_pct",
        "-------  -------  ------  --------",
        "A        40       5       12.50",
        "B        10       0       0.00",
        "-------  -------  ------  --------",
        "Demo     50       5       10.00",
    ]


def test_corpus_stats_empty_collection():
    with pytest.raises(DataError, match="empty"):
        format_stats_table(CorpusCollection("Empty", ()))


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
    assert mapping.rules == {
        "C#_DEBT": Label.SATD,
        "WITHOUT_CLASSIFICATION": Label.NON_SATD,
    }


@pytest.mark.parametrize("text,lineno,pattern", [
    ("DESIGN -> SATD\nDESIGN -> NON_SATD\n", 2, "DESIGN"),
    ("DESIGN -> SATD\n# note\nDESIGN -> SATD\n", 3, "DESIGN"),
    ("* -> SATD\nWITHOUT_CLASSIFICATION -> NON_SATD\n* -> NON_SATD\n", 3, "*"),
], ids=["conflicting_rule", "same_rule", "second_default"])
def test_load_label_mapping_rejects_repeated_pattern(tmp_path, text, lineno, pattern):
    path = tmp_path / "mapping.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        load_label_mapping(path)
    assert str(excinfo.value) == f"{path}:{lineno}: pattern {pattern!r} is repeated"


def test_load_label_mapping_bad_target(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("FOO -> MAYBE\n", encoding="utf-8")
    with pytest.raises(DataError, match="unknown target"):
        load_label_mapping(path)
    path.write_bytes(b"\xff -> SATD\n")
    with pytest.raises(DataError, match="cannot read label mapping"):
        load_label_mapping(path)
    with pytest.raises(DataError, match="cannot read label mapping"):
        load_label_mapping(tmp_path)


@pytest.mark.parametrize("text,message", [
    ("* -> SATD\nDESIGN SATD\n", ":2: expected 'pattern -> SATD|NON_SATD'"),
    ("# no rules yet\n\n", ": mapping file defines no rules"),
], ids=["no_arrow", "no_rules"])
def test_load_label_mapping_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "mapping.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        load_label_mapping(path)
    assert str(excinfo.value) == f"{path}{message}"


def test_comment_invariants():
    with pytest.raises(ValueError):
        Comment(0, "P", "   ", Label.SATD, "x")
    with pytest.raises(ValueError):
        Comment(0, "P", "ok", "SATD", "x")  # type: ignore[arg-type]


def test_project_dataset_counts_follow_comments():
    comments = [Comment(0, "A", "x", Label.SATD, "r"), Comment(1, "A", "y", Label.NON_SATD, "r")]
    ds = ProjectDataset("A", comments, n_rejected=3)
    assert ds.comments == tuple(comments)
    assert (ds.n_total, ds.n_satd, ds.satd_fraction, ds.n_rejected) == (2, 1, 0.5, 3)
    assert ProjectDataset("A", ()).satd_fraction == 0.0


def test_project_dataset_invariants():
    with pytest.raises(ValueError, match="duplicate comment ids"):
        ProjectDataset("A", [Comment(0, "A", "x", Label.SATD, "r")] * 2)
    with pytest.raises(ValueError, match="belongs to 'B'"):
        ProjectDataset("A", [Comment(0, "B", "x", Label.SATD, "r")])


def test_collection_rejects_duplicate_names():
    ds = ProjectDataset("A", [Comment(0, "A", "x", Label.SATD, "r")])
    with pytest.raises(ValueError, match="duplicate"):
        CorpusCollection("C", (ds, ds))
