"""satdkit benchmark: one experiment workload on a seeded synthetic corpus.

Usage (from the repository root):

    python3 bench/run_bench.py --workload cross_fmr_linear --seed 1 --seconds 20 --trace 0

The corpus is generated in process from ``--seed`` and written as CSV files
plus a manifest; satdkit (imported from ``src/``) sees only those files.
One client runs one experiment at a time, in this single process, through
the public entry points ``build_config``, ``export_batches`` and
``execute_run``, until ``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import satdkit, build the config and load the corpus),
``run_s`` (median wall time of one experiment), ``comments_per_s`` and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced experiments
and reports the per-module breakdown of the traced ones (see tracer.py),
with the tracing overhead as the traced minus the untraced median.

Every experiment's outputs are checked (see ``check_run``); a failed check
or a unit reported with an error counts in ``failed``, against the units
attempted. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import corpus_gen  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# Paths in the config are relative to the work directory, so the config
# digest and the report bytes do not depend on where the checkout lives.
MANIFEST = "corpus/manifest.tsv"
COMMON_OVERRIDES = {"manifest": MANIFEST, "outdir": "runs"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_projects: int
    comments_per_project: int
    overrides: dict
    bridge: bool = False


# Why these three: cross_fmr_linear is the paper's 19-to-1 grid cell, where
# every unit rediscovers and retokenizes 19 projects (text layer dominates,
# no lexicon work). intra_dupfmr_linear has many small units over one
# project each, so per-fold vocabularies, trigger stripping, re-sampling and
# SGD weigh more. bridge_cross_dupfmr is the external-trainer round trip:
# augmentation and JSONL export, with no text layer and no classifier.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cross_fmr_linear", 20, 25,
            {"scenario": "cross", "augmentation": "fmr", "classifier": "linear",
             "vocab_scope": "train"},
        ),
        Workload(
            "intra_dupfmr_linear", 3, 200,
            {"scenario": "intra", "augmentation": "dup_fmr", "classifier": "linear"},
        ),
        Workload(
            "bridge_cross_dupfmr", 20, 25,
            {"scenario": "cross", "augmentation": "dup_fmr", "classifier": "external",
             "export_path": "export", "predictions_path": "predictions.jsonl"},
            bridge=True,
        ),
    )
}


def import_satdkit():
    """satdkit from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "satdkit" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no satdkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import satdkit

    if Path(satdkit.__file__).resolve().parent != (SRC / "satdkit").resolve():
        raise SystemExit(f"run_bench: satdkit imported from {satdkit.__file__}, not {SRC}")
    return satdkit


@contextmanager
def work_dir(label: str):
    """A fresh directory under ``.bench_work`` as the current directory,
    removed afterwards."""
    work = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = Path.cwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def prepare(satdkit, workload: Workload, seed: int):
    """Write the workload's generated inputs into the current directory;
    returns its config and the corpus ground truth."""
    corpus = corpus_gen.generate(seed, workload.n_projects, workload.comments_per_project)
    Path("corpus").mkdir()
    for name, data in corpus.files.items():
        Path("corpus", name).write_bytes(data)
    if workload.bridge:
        Path(workload.overrides["predictions_path"]).write_bytes(
            corpus_gen.scores_jsonl(seed, corpus)
        )
    config = satdkit.build_config(
        overrides={**COMMON_OVERRIDES, **workload.overrides, "seed": str(seed)}
    )
    return config, corpus


def streamed_comments(config, corpus: corpus_gen.Corpus) -> int:
    """Sum over units of epochs x train comments + test comments, from the
    generated inputs (before augmentation)."""
    sizes = [p.n_comments for p in corpus.projects]
    total = sum(sizes)
    if config.scenario == "cross":
        return sum(config.epochs * (total - n) + n for n in sizes)
    return sum(config.epochs * (config.k - 1) * n + n for n in sizes)


def measure_setup(n_comments: int) -> tuple[list[float], list[str]]:
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), MANIFEST],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["comments"] != n_comments:
            failures.append(f"setup probe loaded {result['comments']} of {n_comments} comments")
        times.append(result["setup_s"])
    return times, failures


def _bridge_failures(config, corpus: corpus_gen.Corpus, report: dict) -> list[str]:
    """Export line counts and confusion counts against the benchmark's own
    knowledge of the inputs."""
    failures = []
    export_dir = Path(config.export_path)
    manifest = json.loads((export_dir / "export.json").read_text(encoding="utf-8"))
    labels = {p.name: p.labels for p in corpus.projects}
    total = sum(p.n_comments for p in corpus.projects)
    triggered = sum(p.n_triggered_satd for p in corpus.projects)
    scores = {}
    for line in Path(config.predictions_path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        scores[(record["project"], record["id"])] = record["score"]
    reported = {u["unit"]: u["metrics"] for p in report["projects"] for u in p["units"]}
    for unit in manifest["units"]:
        held_out = next(p for p in corpus.projects if p.name == unit["project"])
        n_train = (total - held_out.n_comments) + (triggered - held_out.n_triggered_satd)
        expected_lines = math.ceil(n_train / config.batch_size) * config.epochs
        with (export_dir / unit["batches"]).open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != expected_lines or unit["n_batches"] != expected_lines:
            failures.append(
                f"{unit['unit']}: {lines} batch lines exported "
                f"(manifest says {unit['n_batches']}), expected {expected_lines}"
            )
        counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for project, cid in unit["test"]:
            predicted = scores[(project, cid)] >= config.threshold
            actual = labels[project][cid] == 1
            key = ("t" if predicted == actual else "f") + ("p" if predicted else "n")
            counts[key] += 1
        got = reported.get(unit["unit"])
        if got is None or {k: got[k] for k in counts} != counts:
            failures.append(f"{unit['unit']}: confusion {got} != expected {counts}")
    return failures


@dataclass
class ReportCheck:
    """Checks every report of one workload and seed against the first one,
    the recorded hash and, on the bridge, the benchmark's own counts."""

    workload: Workload
    config: object
    corpus: corpus_gen.Corpus
    golden: str | None
    sha256: str | None = None
    avg_f1: float | None = None

    @classmethod
    def for_seed(cls, workload: Workload, config, corpus, seed: int) -> "ReportCheck":
        table = json.loads(GOLDEN.read_text(encoding="utf-8"))["report_sha256"]
        return cls(workload, config, corpus, table.get(workload.name, {}).get(str(seed)))

    def __call__(self, run_dir: Path) -> tuple[int, int, list[str]]:
        """(units attempted, units with an error, failed checks) of one run."""
        data = (run_dir / "report.json").read_bytes()
        report = json.loads(data)
        units = [u for p in report["projects"] for u in p["units"]]
        errors = sum(1 for u in units if u["error"] is not None)
        failures = []
        expected_units = self.workload.n_projects
        if self.config.scenario == "intra":
            expected_units *= self.config.k
        if len(units) != expected_units:
            failures.append(f"report has {len(units)} units, expected {expected_units}")
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256 is None:
            self.sha256 = digest
        if digest != self.sha256:
            failures.append("report.json bytes differ between repeats of the same config")
        if self.golden is not None and digest != self.golden:
            failures.append(f"report.json sha256 {digest} != recorded {self.golden}")
        if self.workload.bridge:
            failures.extend(_bridge_failures(self.config, self.corpus, report))
        self.avg_f1 = report["average"]["f1"]
        return max(len(units), expected_units), errors, failures


def run_experiment(satdkit, workload: Workload, config) -> Path:
    if workload.bridge:
        satdkit.export_batches(config)
    return satdkit.execute_run(config)


def traced_experiment(satdkit, workload: Workload, config, n_comments: int):
    t = tracing.Tracer()
    tracing.instrument(t)
    try:
        run_dir = t.call("harness.run", run_experiment, (satdkit, workload, config), {})
    finally:
        t.restore()
    root = t.spans[0]
    run_s = root[2] - root[1]
    return run_dir, run_s, tracing.layer_metrics(t, run_s, n_comments), t


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    satdkit = import_satdkit()
    workload = WORKLOADS[args.workload]

    with work_dir(f"{workload.name}-{args.seed}"):
        return measure(satdkit, workload, args)


def measure(satdkit, workload: Workload, args) -> int:
    failures = corpus_gen.self_check(args.seed)
    config, corpus = prepare(satdkit, workload, args.seed)
    check = ReportCheck.for_seed(workload, config, corpus, args.seed)
    if check.golden is None:
        print(f"note: no recorded report hash for {workload.name} seed {args.seed}; "
              "checking repeat identity only", file=sys.stderr)

    setup_times: list[float] = []
    if not args.trace:
        setup_times, probe_failures = measure_setup(corpus.n_comments)
        failures += probe_failures

    plain: list[float] = []
    traced: list[tuple[float, dict]] = []
    last_tracer = None
    attempted = errors = 0
    start = time.perf_counter()
    while True:
        use_trace = args.trace == 1 and len(traced) < len(plain)
        try:
            if use_trace:
                run_dir, run_s, layers, last_tracer = traced_experiment(
                    satdkit, workload, config, corpus.n_comments
                )
                traced.append((run_s, layers))
            else:
                t0 = time.perf_counter()
                run_dir = run_experiment(satdkit, workload, config)
                plain.append(time.perf_counter() - t0)
        except satdkit.SatdkitError as exc:
            failures.append(f"experiment raised {type(exc).__name__}: {exc}")
            attempted += 1
            errors += 1
        else:
            n_units, n_errors, run_failures = check(run_dir)
            attempted += n_units
            errors += n_errors
            failures += run_failures
        # stop before a run that would overrun the window; give up after
        # twice the window when the runs that are needed keep failing
        elapsed = time.perf_counter() - start
        done = bool(plain) and (not args.trace or bool(traced))
        if done and elapsed + statistics.median(plain) > args.seconds:
            break
        if elapsed > 2 * args.seconds:
            break

    for failure in failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    if not plain or (args.trace and not traced) or (not args.trace and not setup_times):
        print("run_bench: no experiment or set-up completed", file=sys.stderr)
        return 1
    failed = errors + len(failures)
    run_s = statistics.median(plain)
    print(f"workload {workload.name}  seed {args.seed}  corpus {corpus.n_comments} comments "
          f"in {workload.n_projects} projects")
    print(f"run_s           {run_s:.4f} s  (median of {len(plain)} untraced runs, "
          f"min {min(plain):.4f}, max {max(plain):.4f})")
    print(f"unit_error_rate {failed / attempted:.4f}  ({failed} of {attempted} units/checks)")
    print(f"avg_f1          {check.avg_f1}  (collection-average F1 from report.json)")
    print(f"report sha256   {check.sha256}")

    if args.trace:
        metrics = per_layer(traced, run_s)
        trace_path = TRACE_DIR / f"trace-{workload.name}.jsonl"
        last_tracer.write_jsonl(trace_path)
        print(f"spans of the last traced run: {trace_path}")
        result_metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in metrics.items()
        }
    else:
        comments_per_s = streamed_comments(config, corpus) / run_s
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "comments_per_s": (comments_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name, m in result_metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def per_layer(traced: list[tuple[float, dict]], plain_run_s: float) -> dict[str, float]:
    """Median of each figure over the traced runs (counts repeat exactly)."""
    names = traced[0][1].keys()
    merged = {name: statistics.median(layers[name] for _, layers in traced) for name in names}
    merged["trace.overhead_s"] = statistics.median(s for s, _ in traced) - plain_run_s
    merged["trace.runs"] = len(traced)
    return merged


if __name__ == "__main__":
    sys.exit(main())
