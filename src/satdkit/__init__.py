"""Toolkit for detecting technical-debt admissions in source-code comments.

The package covers the full experiment pipeline: loading labeled comment
corpora, Java-aware identifier splitting, building an augmented subword
vocabulary, trigger-word baselines, imbalance-aware training-batch sampling,
stratified cross-validated evaluation, and report rendering. A pluggable
classifier boundary (JSONL batch export / prediction import) lets an
external neural trainer replace the built-in linear model.
"""

__version__ = "0.1.0"

from .augment import (
    Batch,
    SamplerConfig,
    dup_augment,
    fmr_batches,
    plain_batches,
    rebalance_items,
    write_batches_jsonl,
)
from .classifier import (
    LinearHyper,
    LinearModelState,
    mat_score,
    predict_linear,
    presence_features,
    train_linear,
)
from .corpus import (
    Comment,
    CorpusCollection,
    Label,
    LabelMapping,
    ProjectDataset,
    format_stats_table,
    load_collection,
    load_label_mapping,
    load_project,
)
from .errors import ConfigError, DataError, RunError, SatdkitError
from .evalkit import (
    FoldPlan,
    MetricResult,
    MtoSplit,
    compute_metrics,
    mto_splits,
    stratified_kfold,
)
from .harness import (
    EvalReport,
    ExperimentConfig,
    build_config,
    build_vocabulary,
    execute_run,
    export_batches,
    import_predictions,
    prepare_run,
    render_report,
    run_experiment,
)
from .lexicon import (
    TriggerLexicon,
    dup_lexicon,
    find_triggers,
    load_lexicon,
    mat_lexicon,
    remove_triggers,
)
from .preprocess import segment_words, split_identifiers
from .vocab import (
    TokenSequence,
    Vocabulary,
    WordCache,
    augment_vocabulary,
    char_base_vocabulary,
    discover_candidate_tokens,
    load_base_vocabulary,
    load_denylist,
    save_vocabulary,
    tokenize,
)

__all__ = [
    "__version__",
    "Batch", "SamplerConfig", "dup_augment", "fmr_batches", "plain_batches",
    "rebalance_items", "write_batches_jsonl",
    "LinearHyper", "LinearModelState", "mat_score", "predict_linear",
    "presence_features", "train_linear",
    "Comment", "CorpusCollection", "Label", "LabelMapping", "ProjectDataset",
    "format_stats_table", "load_collection", "load_label_mapping", "load_project",
    "ConfigError", "DataError", "RunError", "SatdkitError",
    "FoldPlan", "MetricResult", "MtoSplit", "compute_metrics", "mto_splits",
    "stratified_kfold",
    "EvalReport", "ExperimentConfig", "build_config", "build_vocabulary",
    "execute_run", "export_batches", "import_predictions", "prepare_run",
    "render_report", "run_experiment",
    "TriggerLexicon", "dup_lexicon", "find_triggers", "load_lexicon",
    "mat_lexicon", "remove_triggers",
    "segment_words", "split_identifiers",
    "TokenSequence", "Vocabulary", "WordCache", "augment_vocabulary", "char_base_vocabulary",
    "discover_candidate_tokens", "load_base_vocabulary", "load_denylist", "save_vocabulary",
    "tokenize",
]
