"""Command-line front end.

Subcommands: ``ingest`` (validate a corpus and print stats), ``vocab build``
/ ``vocab inspect``, ``run`` (full experiment), ``export-batches``,
``import-predictions``, and ``report`` (re-render a saved report).

Exit codes: 0 success, 1 configuration error, 2 data error, 3 run failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from .corpus import format_stats_table
from .errors import ConfigError, DataError, RunError, SatdkitError, read_input
from .harness import (
    CONFIG_KEYS,
    REPORT_FORMATS,
    ExperimentConfig,
    build_config,
    execute_run,
    export_batches,
    import_predictions,
    load_config_collection,
    prepare_run,
    read_inputs,
    render_report,
    report_from_dict,
    vocabulary_candidates,
)
from .vocab import (
    CONTINUATION_PREFIX,
    SPECIALS,
    WordCache,
    augment_vocabulary,
    load_base_vocabulary,
    save_vocabulary,
    write_candidate_report,
)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # Options are spelled out in full: an abbreviation would let a flag that
    # was removed ("--out") still parse as a longer one ("--outdir").
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with its own code 2 on usage errors; route them through
    # the package's exit-code convention instead (config error -> 1).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    group = parser.add_argument_group("config overrides")
    for key in CONFIG_KEYS:
        group.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="VALUE")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in CONFIG_KEYS
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return build_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="satdkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"satdkit {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a corpus manifest and print stats")
    _add_config_arguments(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_vocab = sub.add_parser("vocab", help="build or inspect a vocabulary")
    vocab_sub = p_vocab.add_subparsers(dest="vocab_command", required=True)

    p_build = vocab_sub.add_parser("build", help="discover domain tokens and write the vocabulary")
    _add_config_arguments(p_build)
    p_build.add_argument("--out", required=True, help="output vocabulary file")
    p_build.add_argument("--candidates-csv", help="also write the candidate report CSV")
    p_build.set_defaults(func=cmd_vocab_build)

    p_inspect = vocab_sub.add_parser("inspect", help="summarize a vocabulary file")
    p_inspect.add_argument("--vocab", required=True, help="vocabulary file to inspect")
    p_inspect.set_defaults(func=cmd_vocab_inspect)

    p_run = sub.add_parser("run", help="run the configured experiment")
    _add_config_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_export = sub.add_parser(
        "export-batches", help="write seeded training batches for an external trainer"
    )
    _add_config_arguments(p_export)
    p_export.set_defaults(func=cmd_export_batches)

    p_import = sub.add_parser(
        "import-predictions", help="validate an external predictions file against the config"
    )
    _add_config_arguments(p_import)
    p_import.set_defaults(func=cmd_import_predictions)

    p_report = sub.add_parser("report", help="re-render a saved report.json")
    p_report.add_argument("--report", required=True, help="path to report.json")
    p_report.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p_report.add_argument("--out", required=True, help="output file")
    p_report.set_defaults(func=cmd_report)

    return parser


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(format_stats_table(load_config_collection(config)))
    return 0


def cmd_vocab_build(args: argparse.Namespace) -> int:
    inputs = read_inputs(_config_from_args(args))
    project_words = WordCache().project_words(c for ds in inputs.collection for c in ds.comments)
    candidates, n_denied = vocabulary_candidates(inputs, project_words)
    vocab = augment_vocabulary(inputs.base, candidates)
    save_vocabulary(vocab, args.out)
    if args.candidates_csv:
        write_candidate_report(candidates, len(project_words), args.candidates_csv)
    print(
        f"base {inputs.base.size} tokens + {len(candidates)} discovered "
        f"({n_denied} denylisted) -> {vocab.size} tokens at {args.out}"
    )
    return 0


def cmd_vocab_inspect(args: argparse.Namespace) -> int:
    vocab = load_base_vocabulary(args.vocab)
    n_continuation = sum(1 for t in vocab.tokens if t.startswith(CONTINUATION_PREFIX))
    specials = ", ".join(f"{tok}={vocab.index[tok]}" for tok in SPECIALS)
    print(f"vocabulary: {args.vocab}")
    print(f"size: {vocab.size}")
    print(f"specials: {specials}")
    print(f"continuation tokens: {n_continuation}")
    print(f"whole-word tokens: {vocab.size - n_continuation}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    run_dir = execute_run(config)
    print(f"run complete: {run_dir}")
    print(read_input(run_dir / "report.csv", "report"), end="")
    return 0


def cmd_export_batches(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = export_batches(config)
    manifest = json.loads(read_input(out / "export.json", "export manifest"))
    print(f"exported {len(manifest['units'])} unit streams to {out}")
    return 0


def cmd_import_predictions(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    path = config.predictions_path
    if not path:
        raise ConfigError("a predictions file is required (predictions_path)")
    expected = prepare_run(config).test_keys
    predictions = import_predictions(path, expected=expected)
    print(f"{path}: {len(predictions)} predictions cover all {len(expected)} test comments")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    text = read_input(args.report, "report")
    try:
        report = report_from_dict(json.loads(text))
    except (DataError, ValueError) as exc:
        raise DataError(f"{args.report}: not a readable report ({exc})") from None
    out = render_report(report, args.format, args.out)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # on the handler too: a run lowers the package logger to INFO for log.txt
        stderr = logging.StreamHandler()
        stderr.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
        logging.basicConfig(
            level=stderr.level, format="%(levelname)s %(name)s: %(message)s", handlers=[stderr]
        )
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (RunError, SatdkitError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
