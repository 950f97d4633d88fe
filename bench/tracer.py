"""In-memory span tracer attached to satdkit from the outside.

Spans are recorded around calls into each module's public functions by
replacing, for the duration of a traced run, the names through which the
harness, the classifier and the vocabulary module reach them, plus the
batch iterator that ``training_stream`` returns. The package itself is not
modified. A span is ``[name, start, end, parent, unit]``; its layer is the
part of the name before the first dot.

Calls are strictly nested (one thread, and the batch iterator is consumed
inside its caller's span), so a span's self time is its duration minus the
durations of its direct children, and the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("corpus", "preprocess", "vocab", "lexicon", "augment", "classifier", "evalkit", "harness")

# Every per-layer figure the traced benchmark run reports, with its unit.
UNITS = {
    "corpus.load_s": "s",
    "corpus.comments": "count",
    "preprocess.split_calls": "count",
    "preprocess.segment_calls": "count",
    "preprocess.self_s": "s",
    "preprocess.segment_per_comment": "ratio",
    "vocab.discover_calls": "count",
    "vocab.discover_s": "s",
    "vocab.tokenize_calls": "count",
    "vocab.tokenize_s": "s",
    "vocab.size_mean": "tokens",
    "vocab.unk_rate": "ratio",
    "vocab.truncation_rate": "ratio",
    "vocab.self_s": "s",
    "lexicon.find_triggers_calls": "count",
    "lexicon.self_s": "s",
    "augment.stream_s": "s",
    "augment.batches": "count",
    "augment.items": "count",
    "augment.adjusted_share": "ratio",
    "augment.duplicates": "count",
    "augment.export_write_s": "s",
    "augment.export_bytes": "bytes",
    "augment.self_s": "s",
    "classifier.fit_self_s": "s",
    "classifier.score_s": "s",
    "classifier.features_per_item": "ratio",
    "classifier.self_s": "s",
    "evalkit.self_s": "s",
    "harness.import_s": "s",
    "harness.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
    "trace.runs": "count",
}


class Tracer:
    """Spans, counters and observations of one traced experiment run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit: str | None = None
        self.counts: Counter[str] = Counter()
        self.vocab_sizes: list[int] = []
        self.tokenized: list[tuple[object, object]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name, fn, observe=None):
        """``fn`` inside a span; ``observe(args, result)`` runs after it ends."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            self.counts[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, name, fn):
        """``fn`` with a call counter and no span (for very frequent calls
        whose time already belongs to the caller's layer)."""

        def counted_fn(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted_fn

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def patch_span(self, module, attr: str, name: str, observe=None) -> None:
        self.patch(module, attr, self.wrap(name, getattr(module, attr), observe))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def self_by_name(self) -> Counter[str]:
        totals: Counter[str] = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals

    def inclusive_by_name(self) -> Counter[str]:
        totals: Counter[str] = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


class TracedStream:
    """A batch iterator whose ``next()`` runs in an ``augment.stream`` span."""

    def __init__(self, tracer: Tracer, batches) -> None:
        self._tracer = tracer
        self._next = iter(batches).__next__

    def __iter__(self):
        return self

    def __next__(self):
        batch = self._tracer.call("augment.stream", self._next, (), {})
        counts = self._tracer.counts
        counts["augment.batches"] += 1
        counts["augment.items"] += len(batch.items)
        counts["augment.adjusted"] += batch.adjusted
        return batch


def instrument(tracer: Tracer) -> None:
    """Route satdkit's cross-module calls through ``tracer`` until
    ``tracer.restore()``."""
    from satdkit import augment, classifier, harness, lexicon, vocab

    t = tracer

    # corpus
    t.patch_span(harness, "load_collection", "corpus.load")

    # preprocess: split_identifiers is reached from three modules,
    # segment_words from the vocabulary module only
    for module in (vocab, classifier, harness):
        t.patch_span(module, "split_identifiers", "preprocess.split")
    t.patch_span(vocab, "segment_words", "preprocess.segment")

    # vocab
    def observe_vocab(args, result):
        t.vocab_sizes.append(result.size)

    # kept for after the run, so that counting stays out of the timed spans
    def observe_tokens(args, result):
        t.tokenized.append((args[0], result))

    t.patch_span(harness, "build_vocabulary", "vocab.build", observe_vocab)
    t.patch_span(harness, "discover_candidate_tokens", "vocab.discover")
    t.patch_span(classifier, "tokenize", "vocab.tokenize", observe_tokens)

    # lexicon: augment calls find_triggers directly and through
    # remove_triggers; the keyword classifier calls it too
    for module in (augment, lexicon, classifier):
        t.patch_span(module, "find_triggers", "lexicon.find_triggers")
    t.patch_span(augment, "remove_triggers", "lexicon.remove_triggers")

    # augment
    original_stream = harness.training_stream

    def training_stream(config, spec):
        t.unit = f"{spec.project}/{spec.unit}"
        batches, train = t.call("augment.prepare", original_stream, (config, spec), {})
        return TracedStream(t, batches), train

    def observe_dup(args, result):
        t.counts["augment.duplicates"] += result[1]

    def observe_write(args, result):
        t.counts["augment.export_bytes"] += Path(args[1]).stat().st_size

    t.patch(harness, "training_stream", training_stream)
    t.patch_span(harness, "dup_augment", "augment.dup", observe_dup)
    t.patch_span(harness, "write_batches_jsonl", "augment.export_write", observe_write)

    # classifier
    t.patch_span(classifier, "train_linear", "classifier.fit")
    t.patch_span(classifier, "predict_linear", "classifier.score")
    t.patch(classifier, "presence_features",
            t.counted("classifier.presence_features", classifier.presence_features))

    # evalkit
    for attr, name in (("compute_metrics", "evalkit.metrics"),
                       ("stratified_kfold", "evalkit.kfold"),
                       ("mto_splits", "evalkit.splits"),
                       ("fold_plan_to_dict", "evalkit.fold_dict")):
        t.patch_span(harness, attr, name)

    # harness: per-unit spans carry the unit id; import is the bridge's read
    original_unit = harness._evaluate_unit

    def evaluate_unit(config, collection, spec, *rest):
        t.unit = f"{spec.project}/{spec.unit}"
        return t.call("harness.unit", original_unit, (config, collection, spec, *rest), {})

    t.patch(harness, "_evaluate_unit", evaluate_unit)
    t.patch_span(harness, "import_predictions", "harness.import")


def layer_metrics(tracer: Tracer, run_s: float, n_comments: int) -> dict[str, float]:
    """Per-layer figures of one traced run whose root span lasted ``run_s``."""
    own = tracer.self_by_name()
    incl = tracer.inclusive_by_name()
    c = tracer.counts
    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    pieces = unk = truncated = 0
    for vocab, seq in tracer.tokenized:
        specials = vocab.special_ids
        ids = [i for i in seq.ids if i not in specials]
        pieces += len(ids)
        unk += ids.count(vocab.unk_id)
        truncated += seq.truncated
    batches = c["augment.batches"]
    items = c["augment.items"]
    sizes = tracer.vocab_sizes
    tokenized = c["vocab.tokenize"]
    m = {
        "corpus.load_s": layer_self["corpus"],
        "corpus.comments": n_comments,
        "preprocess.split_calls": c["preprocess.split"],
        "preprocess.segment_calls": c["preprocess.segment"],
        "preprocess.self_s": layer_self["preprocess"],
        "preprocess.segment_per_comment": c["preprocess.segment"] / n_comments,
        "vocab.discover_calls": c["vocab.discover"],
        "vocab.discover_s": incl["vocab.discover"],
        "vocab.tokenize_calls": tokenized,
        "vocab.tokenize_s": incl["vocab.tokenize"],
        "vocab.size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "vocab.unk_rate": unk / pieces if pieces else 0.0,
        "vocab.truncation_rate": truncated / tokenized if tokenized else 0.0,
        "vocab.self_s": layer_self["vocab"],
        "lexicon.find_triggers_calls": c["lexicon.find_triggers"],
        "lexicon.self_s": layer_self["lexicon"],
        "augment.stream_s": own["augment.stream"],
        "augment.batches": batches,
        "augment.items": items,
        "augment.adjusted_share": c["augment.adjusted"] / batches if batches else 0.0,
        "augment.duplicates": c["augment.duplicates"],
        "augment.export_write_s": own["augment.export_write"],
        "augment.export_bytes": c["augment.export_bytes"],
        "augment.self_s": layer_self["augment"],
        "classifier.fit_self_s": own["classifier.fit"],
        "classifier.score_s": own["classifier.score"],
        "classifier.features_per_item": (
            c["classifier.presence_features"] / items if items else 0.0
        ),
        "classifier.self_s": layer_self["classifier"],
        "evalkit.self_s": layer_self["evalkit"],
        "harness.import_s": own["harness.import"],
        "harness.self_s": layer_self["harness"],
        "trace.run_s": run_s,
        "trace.spans": len(tracer.spans),
        "trace.accounted_share": sum(layer_self[layer] for layer in LAYERS) / run_s,
    }
    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the known layers: {sorted(unknown)}")
    return m
