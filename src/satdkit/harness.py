"""Experiment orchestration: configs, runs, reports, and the export bridge.

A run is described by a flat key=value config (every key overridable from
the command line). The harness builds the evaluation units for the chosen
scenario, applies augmentation to the training side only, trains and scores
the configured classifier per unit, and assembles a report with per-project
aggregates and the collection average (unweighted mean of per-project F1).

Two scenarios:

* intra: per project, one stratified k-fold plan (shared across
  augmentation variants for a fixed seed); train on k-1 folds, evaluate on
  the held-out fold; the per-project F1 is the mean of the fold F1 values.
* cross: per project, train on the union of all other projects' comments
  and evaluate on the held-out project.

External trainers plug in through ``export_batches`` (the exact seeded batch
stream plus split definitions) and ``import_predictions`` (per-comment
scores), sharing the metrics path with the in-process classifiers.

Everything derived from the config (including all randomness) is
reproducible: the same config yields byte-identical report JSON. Wall-clock
timestamps therefore go to the run log, never into the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import reprlib
import sys
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

from .augment import (
    DUP_SCOPES,
    Batch,
    SamplerConfig,
    dup_augment,
    fmr_batches,
    plain_batches,
    write_batches_jsonl,
)
from . import classifier
from .corpus import (
    Comment,
    CorpusCollection,
    Label,
    LabelMapping,
    ProjectDataset,
    load_collection,
    load_label_mapping,
    strip_comment,
)
from .errors import ConfigError, DataError, RunError, SatdkitError, read_lines, write_output
from .evalkit import (
    MetricResult,
    compute_metrics,
    fold_plan_to_dict,
    mto_splits,
    stratified_kfold,
)
from .lexicon import FUZZY, STRICT, TriggerLexicon, dup_lexicon, load_lexicon, mat_lexicon
from .preprocess import split_identifiers  # noqa: F401  (bench/tracer.py patches this name)
from .vocab import (
    Vocabulary,
    WordCache,
    augment_vocabulary,
    char_base_vocabulary,
    discover_candidate_tokens,
    load_base_vocabulary,
    load_denylist,
)

log = logging.getLogger(__name__)

SCENARIOS = ("intra", "cross")
AUGMENTATIONS = ("none", "fmr", "dup_fmr")
CLASSIFIERS = ("linear", "mat_strict", "mat_fuzzy", "external")
VOCAB_SCOPES = ("train", "all")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str | None = None
    scenario: str = "intra"
    collection_name: str | None = None
    projects: tuple[str, ...] | None = None
    augmentation: str = "none"
    classifier: str = "linear"
    k: int = 10
    seed: int = 0
    batch_size: int = 32
    trigger_prob: float = 0.10
    target_ratio: float = 3.0
    epochs: int = 5
    learning_rate: float = 0.1
    l2: float = 1e-4
    threshold: float = 0.5
    max_seq_len: int = 128
    dup_scope: str = "triggered"
    vocab_scope: str = "train"
    vocab_threshold: float = 0.25
    vocab_base: str | None = None
    vocab_denylist: str | None = None
    mat_lexicon: str | None = None
    dup_lexicon: str | None = None
    label_mapping: str | None = None
    outdir: str = "runs"
    export_path: str | None = None
    predictions_path: str | None = None

    def __post_init__(self) -> None:
        if not self.manifest:
            raise ConfigError("manifest is required")
        _require_choice("scenario", self.scenario, SCENARIOS)
        _require_choice("augmentation", self.augmentation, AUGMENTATIONS)
        _require_choice("classifier", self.classifier, CLASSIFIERS)
        _require_choice("vocab_scope", self.vocab_scope, VOCAB_SCOPES)
        _require_choice("dup_scope", self.dup_scope, DUP_SCOPES)
        if self.projects is not None and not 0 < len(set(self.projects)) == len(self.projects):
            raise ConfigError(f"projects must be one or more distinct names, got {self.projects!r}")
        if self.projects is not None:  # a set: in any order it is one experiment, one digest
            object.__setattr__(self, "projects", tuple(sorted(self.projects)))
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        try:
            _sampler_config(self, self.seed)
            classifier.LinearHyper(self.learning_rate, self.l2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if not 2 <= self.max_seq_len <= sys.maxsize:
            raise ConfigError(
                f"max_seq_len must be in [2, {sys.maxsize}], got {self.max_seq_len}"
            )
        if not 0.0 <= self.vocab_threshold < 1.0:
            raise ConfigError(
                f"vocab_threshold must be in [0, 1), got {self.vocab_threshold}"
            )
        if self.classifier == "external" and not (self.export_path and self.predictions_path):
            raise ConfigError(
                "classifier=external requires export_path and predictions_path"
            )

    def digest_fields(self) -> dict:
        """Everything that defines the experiment (the output dir does not)."""
        payload = {}
        for f in fields(self):
            if f.name == "outdir":
                continue
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    def digest(self) -> str:
        canonical = json.dumps(self.digest_fields(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _require_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ConfigError(f"{name} must be one of {'|'.join(choices)}, got {value!r}")


def _parse_optional(raw: str) -> str | None:
    return None if raw.lower() in ("", "none") else raw


def _parse_projects(raw: str) -> tuple[str, ...] | None:
    if raw.lower() in ("", "none"):
        return None
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# Field annotations are strings under ``from __future__ import annotations``.
_TYPE_PARSERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
    "str | None": _parse_optional,
    "tuple[str, ...] | None": _parse_projects,
}

_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}

CONFIG_KEYS = tuple(_FIELD_PARSERS)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` config file, each key at most once; ``#``
    comments as in ``strip_comment``."""
    try:
        lines = read_lines(path, "config file")
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = strip_comment(line)
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is repeated")
        raw[key] = value.strip()
    return raw


def build_config(
    config_file: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Merge file values and string overrides into a validated config."""
    raw = parse_config_file(config_file) if config_file else {}
    for key, value in (overrides or {}).items():
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {value!r} ({exc})") from None
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitResult:
    """One evaluation unit: a fold (intra) or a held-out project (cross)."""

    unit: str
    metrics: MetricResult | None
    error: str | None = None


@dataclass(frozen=True)
class Scores:
    """Unweighted means of unit or project scores; None when nothing was scored."""

    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class ProjectResult:
    project: str
    units: tuple[UnitResult, ...]
    precision: float | None
    recall: float | None
    f1: float | None
    note: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """The ``eval-report@1`` schema, which the JSON writer and reader follow."""

    scenario: str
    digest: str
    seed: int
    config: dict
    projects: tuple[ProjectResult, ...]
    average: Scores


REPORT_FORMAT = "eval-report@1"
_SCORES = ("precision", "recall", "f1")
# the JSON values read as each leaf annotation; a bool never counts as a number
_JSON_LEAVES = {float: (int, float), int: (int,), str: (str,), dict: (dict,)}


def report_to_dict(report: EvalReport) -> dict:
    return {"format": REPORT_FORMAT, **asdict(report)}


@cache
def _hints(kind) -> tuple:
    return tuple(get_type_hints(kind).items())


def _member(obj: dict, key: str, path: str):
    """``(obj[key], its path)``, or a DataError naming the missing path."""
    path = f"{path}.{key}" if path else key
    if key not in obj:
        raise DataError(f"{path}: missing")
    return obj[key], path


def _from_json(hint, value, path: str):
    """``value`` read as the annotation ``hint`` (a dataclass from an object,
    ``tuple[X, ...]`` from a list, ``X | None`` from null or X), or a DataError."""
    optional = get_origin(hint) is UnionType
    kind = get_args(hint)[0] if optional else hint
    is_list = get_origin(kind) is tuple
    if optional and value is None:
        return None
    if is_dataclass(kind) and isinstance(value, dict):
        return kind(**{k: _from_json(h, *_member(value, k, path)) for k, h in _hints(kind)})
    if is_list and isinstance(value, (list, tuple)):
        return tuple(_from_json(get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, _JSON_LEAVES.get(kind, ())) and not isinstance(value, bool):
        if kind is float and not abs(value) <= sys.float_info.max:  # inf, nan, or too large
            raise DataError(f"{path}: expected a finite number, got {reprlib.repr(value)}")
        return value
    name = "object" if is_dataclass(kind) or kind is dict else "list" if is_list else kind.__name__
    raise DataError(f"{path}: expected {name}{' or null' * optional}, got {reprlib.repr(value)}")


def report_from_dict(payload: object) -> EvalReport:
    if not isinstance(payload, dict):
        raise DataError(f"expected a report object, got {type(payload).__name__}")
    if payload.get("format") != REPORT_FORMAT:
        raise DataError(f"unsupported report format {payload.get('format')!r}")
    report = _from_json(EvalReport, payload, "")
    if report.scenario not in SCENARIOS:
        raise DataError(
            f"scenario: expected {'|'.join(SCENARIOS)}, got {reprlib.repr(report.scenario)}"
        )
    if not report.projects:
        raise DataError("projects: expected at least one project, got []")
    return report


def report_to_json(report: EvalReport) -> str:
    """Canonical JSON for machine diffing; identical configs yield identical
    bytes (timestamps live in the run log, not here)."""
    return _json_text(report_to_dict(report))


def _fmt3(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def render_csv(report: EvalReport) -> str:
    if not report.projects:
        raise RunError("nothing to render")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a name holding "," or '"'
    writer.writerow(["project", *_SCORES])
    for p in report.projects:
        writer.writerow([p.project, _fmt3(p.precision), _fmt3(p.recall), _fmt3(p.f1)])
    writer.writerow(["Average", *map(_fmt3, astuple(report.average))])
    return out.getvalue()


def render_markdown(report: EvalReport) -> str:
    if not report.projects:
        raise RunError("nothing to render")
    title = "Intra-project F1 (mean over folds)" if report.scenario == "intra" else \
        f"Cross-project F1 ({len(report.projects) - 1}-to-1 hold-one-out)"
    lines = [
        f"# {title}",
        "",
        f"Classifier: `{report.config.get('classifier')}`  ",
        f"Augmentation: `{report.config.get('augmentation')}`  ",
        f"Seed: {report.seed}  ",
        f"Config digest: `{report.digest}`",
        "",
        "| Project | Precision | Recall | F1 |",
        "|---|---|---|---|",
    ]
    for p in report.projects:
        cell = p.project.replace("|", r"\|") + (" *" if p.note else "")
        lines.append(f"| {cell} | {_fmt3(p.precision)} | {_fmt3(p.recall)} | {_fmt3(p.f1)} |")
    lines.append(f"| **Average** | {' | '.join(map(_fmt3, astuple(report.average)))} |")
    notes = [f"- `{p.project}`: {p.note}" for p in report.projects if p.note]
    if notes:
        lines.extend(["", "Notes:", *notes])
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": render_csv, "markdown": render_markdown}
REPORT_FORMATS = tuple(_RENDERERS)


def render_report(report: EvalReport, fmt: str, path: str | Path) -> Path:
    """Write the report in the requested format; returns the path written."""
    if fmt not in _RENDERERS:
        raise ConfigError(f"format must be one of {'|'.join(REPORT_FORMATS)}, got {fmt!r}")
    write_output(path, [_RENDERERS[fmt](report)])
    return Path(path)


def _json_text(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Units: train/test material per evaluation unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitSpec:
    """Everything needed to train and evaluate one unit."""

    project: str
    unit: str
    train: tuple[Comment, ...]
    test: tuple[Comment, ...]
    sampler_seed: int


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 63-bit per-unit seed derived from the experiment seed."""
    material = "satdkit:" + ":".join([str(seed), *map(str, parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def load_config_collection(config: ExperimentConfig) -> CorpusCollection:
    mapping = load_label_mapping(config.label_mapping) if config.label_mapping \
        else LabelMapping.standard()
    return load_collection(config.manifest, mapping, name=config.collection_name)


def _select_projects(collection: CorpusCollection, names: tuple[str, ...] | None) -> CorpusCollection:
    if names is None:
        return collection
    available = set(collection.project_names)
    missing = [n for n in names if n not in available]
    if missing:
        raise ConfigError(f"projects not in collection: {', '.join(missing)}")
    picked = tuple(ds for ds in collection.projects if ds.project in set(names))
    return CorpusCollection(name=collection.name, projects=picked)


def _unit_specs(
    config: ExperimentConfig, selected: CorpusCollection
) -> tuple[list[UnitSpec], dict]:
    """Evaluation units plus the splits payload written as folds.json.

    Fold plans depend only on (dataset, k, seed), so every augmentation and
    classifier variant of a config sees identical splits.
    """
    specs: list[UnitSpec] = []
    if config.scenario == "intra":
        plans = {}
        for ds in selected.projects:
            plan = stratified_kfold(ds, k=config.k, seed=config.seed)
            plans[ds.project] = fold_plan_to_dict(plan)
            for fold_index, fold in enumerate(plan.folds):
                test_ids = set(fold)
                train = tuple(c for c in ds.comments if c.id not in test_ids)
                test = tuple(c for c in ds.comments if c.id in test_ids)
                specs.append(
                    UnitSpec(
                        project=ds.project,
                        unit=f"fold{fold_index}",
                        train=train,
                        test=test,
                        sampler_seed=derive_seed(config.seed, "intra", ds.project, fold_index),
                    )
                )
        payload = {"scenario": "intra", "k": config.k, "seed": config.seed, "projects": plans}
        return specs, payload
    splits = [
        {"test_project": s.test_project, "train_projects": list(s.train_projects)}
        for s in mto_splits(selected)
    ]
    for ds in selected.projects:
        specs.append(
            UnitSpec(
                project=ds.project,
                unit=ds.project,
                train=tuple(c for o in selected.projects if o is not ds for c in o.comments),
                test=ds.comments,
                sampler_seed=derive_seed(config.seed, "cross", ds.project),
            )
        )
    return specs, {"scenario": "cross", "seed": config.seed, "splits": splits}


@dataclass(frozen=True)
class RunInputs:
    """A config with every input file it names read once: the corpus, the
    resolved vocabulary inputs and the lexicons. Units read these, never
    the disk."""

    config: ExperimentConfig
    collection: CorpusCollection  # every project of the manifest
    projects: tuple[ProjectDataset, ...]  # the ones the ``projects`` key selects
    base: Vocabulary  # shared by every unit, so its word-piece memo is run-wide
    denylist: frozenset[str]
    dup_lexicon: TriggerLexicon
    mat_lexicon: TriggerLexicon


@dataclass(frozen=True)
class Run(RunInputs):
    """Run inputs plus the evaluation units built from them, before any unit runs."""

    specs: tuple[UnitSpec, ...]
    folds: dict  # the folds.json payload
    # each SATD text's trigger-stripped form, filled by the units' dup_augment
    stripped: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

    @property
    def test_keys(self) -> list[tuple[str, int]]:
        """(project, id) of every test comment, in unit order."""
        return [(c.project, c.id) for spec in self.specs for c in spec.test]


def read_inputs(config: ExperimentConfig) -> RunInputs:
    """Load the corpus and read every input file the config names; a missing
    or malformed file fails here, not in a unit."""
    collection = load_config_collection(config)
    mode = FUZZY if config.classifier == "mat_fuzzy" else STRICT
    return RunInputs(
        config,
        collection,
        _select_projects(collection, config.projects).projects,
        base=load_base_vocabulary(config.vocab_base) if config.vocab_base
        else char_base_vocabulary(),
        denylist=load_denylist(config.vocab_denylist) if config.vocab_denylist
        else frozenset(),
        dup_lexicon=load_lexicon(config.dup_lexicon) if config.dup_lexicon
        else dup_lexicon(),
        mat_lexicon=load_lexicon(config.mat_lexicon, mode) if config.mat_lexicon
        else mat_lexicon(mode),
    )


def prepare_run(config: ExperimentConfig) -> Run:
    """The run inputs (see ``read_inputs``) and the evaluation units."""
    inputs = read_inputs(config)
    selected = CorpusCollection(name=inputs.collection.name, projects=inputs.projects)
    specs, folds = _unit_specs(config, selected)
    read = {f.name: getattr(inputs, f.name) for f in fields(inputs)}
    return Run(**read, specs=tuple(specs), folds=folds)


def _sampler_config(config: ExperimentConfig, unit_seed: int) -> SamplerConfig:
    return SamplerConfig(
        seed=unit_seed,
        batch_size=config.batch_size,
        trigger_prob=config.trigger_prob,
        target_ratio=config.target_ratio,
        epochs=config.epochs,
    )


def _assert_no_leakage(train: Iterable[Comment], test: Iterable[Comment]) -> None:
    train_keys = {(c.project, c.id) for c in train}
    overlap = [(c.project, c.id) for c in test if (c.project, c.id) in train_keys]
    if overlap:
        raise RunError(f"train/test leakage detected: {overlap[:5]}")


def training_stream(run: Run, spec: UnitSpec) -> tuple[Iterator[Batch], list[Comment]]:
    """The unit's seeded training batches and its (augmented) train list,
    whose rows the batches hold, checked for leakage into the unit's test set.

    With dup_fmr the minority pool contains originals plus duplicates, so
    forced re-sampling draws from both; each SATD text is stripped once per
    run (``Run.stripped``).
    """
    config = run.config
    sampler = _sampler_config(config, spec.sampler_seed)
    train = list(spec.train)
    if config.augmentation == "dup_fmr":
        # duplicate ids must clear the held-out comments' id space too
        train, n_dup = dup_augment(
            train, run.dup_lexicon, config.dup_scope, reserved=spec.test, stripped=run.stripped
        )
        log.debug("%s/%s: %d duplicates appended", spec.project, spec.unit, n_dup)
    _assert_no_leakage(train, spec.test)
    if config.augmentation == "none":
        return plain_batches(train, sampler), train
    return fmr_batches(train, sampler), train


def vocabulary_candidates(
    run: RunInputs, project_words: list[set[str]]
) -> tuple[dict[str, int], int]:
    """The tokens discovered in the per-project word sets that survive the
    denylist, each with its project count, and how many it dropped."""
    threshold = run.config.vocab_threshold
    found = discover_candidate_tokens(project_words, run.base, threshold=threshold)
    kept = {t: n for t, n in found.items() if t not in run.denylist}
    return kept, len(found) - len(kept)


def build_vocabulary(run: RunInputs, project_words: list[set[str]]) -> Vocabulary:
    """Base vocabulary plus the tokens discovered in the per-project word
    sets (see ``WordCache.project_words``) minus the denylist.

    A run passes the unit's training comments under vocab_scope=train
    (leak-free), and under vocab_scope=all every project of the manifest,
    including those the ``projects`` key leaves out: one universal tokenizer
    shared by every unit, test data included.
    """
    return augment_vocabulary(run.base, vocabulary_candidates(run, project_words)[0])


def _evaluate_unit(
    run: Run, words: WordCache, spec: UnitSpec, shared_vocab: Vocabulary | None
) -> list[float]:
    """The unit's test scores from the linear model or the keyword baseline."""
    config = run.config
    if config.classifier == "linear":
        batches, _ = training_stream(run, spec)
        vocab = shared_vocab or build_vocabulary(run, words.project_words(spec.train))
        hyper = classifier.LinearHyper(learning_rate=config.learning_rate, l2=config.l2)
        n = config.max_seq_len
        state = classifier.train_linear(batches, vocab, words, hyper, n)
        return [classifier.predict_linear(state, vocab, words[c.text], n) for c in spec.test]
    # the keyword baseline needs no training, so no training stream
    _assert_no_leakage(spec.train, spec.test)
    return [classifier.mat_score(run.mat_lexicon, c.text) for c in spec.test]


def _scorer(run: Run) -> Callable[[UnitSpec], list[float]]:
    """A unit's test scores under the run's classifier. The external one's
    come from the predictions file, read here: before any unit, and not by
    prepare_run, which export_batches calls before the file exists."""
    config = run.config
    if config.classifier == "external":
        scores = import_predictions(config.predictions_path, expected=run.test_keys)
        return lambda spec: [scores[(c.project, c.id)] for c in spec.test]
    words = WordCache()
    shared_vocab = None
    if config.classifier == "linear" and config.vocab_scope == "all":
        comments = (c for ds in run.collection for c in ds.comments)
        shared_vocab = build_vocabulary(run, words.project_words(comments))
    return lambda spec: _evaluate_unit(run, words, spec, shared_vocab)


def _average(scored: list[MetricResult] | list[ProjectResult]) -> Scores:
    """The unweighted mean of each score: over a project's units, or over
    the projects of the collection."""
    n = len(scored)
    return Scores(*(sum(getattr(s, k) for s in scored) / n if n else None for k in _SCORES))


def run_experiment(run: Run) -> EvalReport:
    """Run the prepared scenario over every unit and assemble the report.

    A unit that fails is recorded with an error marker and excluded from the
    aggregates; the rest of the grid still runs.
    """
    return _run_units(run, _scorer(run))


def _run_units(run: Run, scorer: Callable[[UnitSpec], list[float]]) -> EvalReport:
    config = run.config
    by_project: dict[str, list[UnitResult]] = {ds.project: [] for ds in run.projects}
    for spec in run.specs:
        try:
            preds = [Label.SATD if s >= config.threshold else Label.NON_SATD for s in scorer(spec)]
            metrics = compute_metrics(preds, [c.label for c in spec.test])
            result = UnitResult(unit=spec.unit, metrics=metrics)
        except SatdkitError as exc:
            log.warning("%s/%s failed: %s", spec.project, spec.unit, exc)
            result = UnitResult(unit=spec.unit, metrics=None, error=str(exc))
        by_project[spec.project].append(result)
        if result.metrics is not None:
            log.info("%s/%s: f1=%.3f", spec.project, spec.unit, result.metrics.f1)
    project_results = []
    for ds in run.projects:
        units = by_project[ds.project]
        mean = _average([u.metrics for u in units if u.metrics is not None])
        note = "project has no SATD comments" if ds.n_satd == 0 else None
        project_results.append(ProjectResult(ds.project, tuple(units), *astuple(mean), note))
    return EvalReport(
        scenario=config.scenario,
        digest=config.digest(),
        seed=config.seed,
        config=config.digest_fields(),
        projects=tuple(project_results),
        average=_average([p for p in project_results if p.f1 is not None]),
    )


# ---------------------------------------------------------------------------
# External-trainer bridge
# ---------------------------------------------------------------------------

def export_batches(config: ExperimentConfig) -> Path:
    """Write every unit's seeded post-augmentation batch stream as JSONL,
    plus the split definitions an external trainer must honor.

    Layout: ``export.json`` (unit manifest with test ids and pool sizes),
    ``folds.json``, and one batch file per unit: ``batches/<project>/<fold>.jsonl``
    (intra) or ``batches/<project>.jsonl`` (cross).
    """
    if not config.export_path:
        raise ConfigError("export path is required")
    out = Path(config.export_path)
    run = prepare_run(config)
    units_meta = []
    # every unit's stream first, so a unit that cannot train fails before any file
    streams = [training_stream(run, spec) for spec in run.specs]
    for spec, (stream, train) in zip(run.specs, streams):
        name = f"{spec.project}/{spec.unit}" if config.scenario == "intra" else spec.project
        batch_path = out / "batches" / f"{name}.jsonl"
        n_lines = write_batches_jsonl(stream, batch_path)
        units_meta.append(
            {
                "project": spec.project,
                "unit": spec.unit,
                "batches": str(batch_path.relative_to(out)),
                "n_batches": n_lines,
                "n_train": len(train),
                "n_satd_pool": sum(1 for c in train if c.label is Label.SATD),
                "test": [[c.project, c.id] for c in spec.test],
            }
        )
    manifest = {
        "format": "batch-export@1",
        "scenario": config.scenario,
        "digest": config.digest(),
        "seed": config.seed,
        "units": units_meta,
    }
    write_output(out / "export.json", [_json_text(manifest)])
    write_output(out / "folds.json", [_json_text(run.folds)])
    return out


def import_predictions(
    path: str | Path,
    expected: Iterable[tuple[str, int]] | None = None,
) -> dict[tuple[str, int], float]:
    """Read scores keyed by (project, comment id) from a JSONL file.

    Each line is ``{"project": p, "id": i, "score": s}`` with s in [0, 1].
    When ``expected`` pairs are given, the map must cover all of them; any
    missing pairs are listed in the error.
    """
    predictions: dict[tuple[str, int], float] = {}
    for lineno, line in enumerate(read_lines(path, "predictions file"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise DataError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(record, dict) or not {"project", "id", "score"} <= record.keys():
            raise DataError(f"{path}: line {lineno}: expected keys project, id, score")
        comment_id = record["id"]
        if isinstance(comment_id, bool) or not isinstance(comment_id, int):
            raise DataError(f"{path}: line {lineno}: id must be an integer, got {comment_id!r}")
        project, score = record["project"], record["score"]
        if not isinstance(project, str):
            raise DataError(f"{path}: line {lineno}: project must be a string, got {project!r}")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise DataError(f"{path}: line {lineno}: score must be a number, got {score!r}")
        key = (project, comment_id)
        if not 0.0 <= score <= 1.0:  # before float(), which overflows on a huge integer
            raise DataError(f"{path}: line {lineno}: score {reprlib.repr(score)} outside [0, 1]")
        score = float(score)
        if key in predictions:
            raise DataError(f"{path}: line {lineno}: duplicate prediction for {key}")
        predictions[key] = score
    if expected is not None:
        missing = [pair for pair in expected if pair not in predictions]
        if missing:
            shown = ", ".join(f"{p}:{i}" for p, i in missing[:20])
            more = f" (and {len(missing) - 20} more)" if len(missing) > 20 else ""
            raise DataError(f"{path}: missing predictions for {shown}{more}")
    return predictions


# ---------------------------------------------------------------------------
# Full run with persisted outputs
# ---------------------------------------------------------------------------

def execute_run(config: ExperimentConfig) -> Path:
    """Run the experiment and persist all artifacts.

    Writes ``<outdir>/<digest>/{report.json,report.csv,report.md,folds.json,
    log.txt}``; report files are atomic and deterministic, wall-clock detail
    goes to log.txt only.
    """
    run = prepare_run(config)
    scorer = _scorer(run)  # a run that cannot start leaves no directory
    run_dir = Path(config.outdir) / config.digest()
    run_dir.mkdir(parents=True, exist_ok=True)
    handler = logging.FileHandler(run_dir / "log.txt", mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    pkg_logger = logging.getLogger("satdkit")
    pkg_logger.addHandler(handler)
    previous_level = pkg_logger.level
    if pkg_logger.getEffectiveLevel() > logging.INFO:
        pkg_logger.setLevel(logging.INFO)
    try:
        log.info("run starting: digest=%s scenario=%s", config.digest(), config.scenario)
        report = _run_units(run, scorer)
        write_output(run_dir / "report.json", [report_to_json(report)])
        write_output(run_dir / "report.csv", [render_csv(report)])
        write_output(run_dir / "report.md", [render_markdown(report)])
        write_output(run_dir / "folds.json", [_json_text(run.folds)])
        log.info("run finished: outputs in %s", run_dir)
    finally:
        pkg_logger.removeHandler(handler)
        handler.close()
        pkg_logger.setLevel(previous_level)
    return run_dir
