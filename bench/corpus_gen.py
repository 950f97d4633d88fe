"""Seeded synthetic multi-project comment corpus for the benchmark.

The corpus imitates the shape of the public SATD datasets closely enough to
exercise every layer of satdkit: Java camel-case identifiers, comment
markers, a heavy class imbalance that differs per project, trigger words in
about half of the debt comments (with case and ``:`` variants), decoy words
that contain a trigger but must not match it, and a long-tailed comment
length so that token sequences get truncated.

Everything is drawn from ``random.Random(seed)``: the same seed gives the
same bytes. Comment lengths are log-normal quantiles dealt out in a seeded
order, so every seed has the same length multiset and the amount of work
per corpus does not drift with the seed. The program under test receives
only the CSV files and the manifest that ``generate`` returns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from statistics import NormalDist

PROJECT_NAMES = (
    "ApacheAnt", "ArgoUML", "Columba", "EMF", "Hibernate",
    "JEdit", "JFreeChart", "JMeter", "JRuby", "SQuirrel",
    "Dubbo", "Gradle", "Groovy", "Hive", "Maven",
    "Poi", "SpringFramework", "Storm", "Tomcat", "Zookeeper",
)

# Lower-case forms of the default duplication lexicon; no generated word may
# equal one of these, so the only strict trigger matches are the planted ones.
TRIGGERS = ("todo", "fixme", "xxx", "hack", "ugly")
TRIGGER_VARIANTS = {
    "todo": ("TODO", "todo", "Todo", "TODO:", "todo:"),
    "fixme": ("FIXME", "fixme", "FixMe", "FIXME:"),
    "xxx": ("XXX", "xxx", "XXX:"),
    "hack": ("HACK", "hack", "Hack:", "HACK:"),
    "ugly": ("ugly", "Ugly", "UGLY"),
}
# Contain a trigger but never match it as a whole word.
DECOYS = ("hackathon", "todoList", "hacky", "uglify", "fixmeLater", "Todos", "xxxLarge")

COMMON_WORDS = (
    "the this that is are be we it if to of in for on with not but or and "
    "when then else return value method call null object class field should "
    "can will must may here used use set get new all only one first next "
    "case list map key type name default check result data"
).split()

DEBT_WORDS = (
    "workaround temporary refactor broken kludge remove later cleanup "
    "duplicated wrong incomplete slow hardcoded deprecated"
).split()

DOMAIN_WORDS = list(dict.fromkeys((
    "buffer socket parser stream thread lock cache index node tree graph "
    "token lexer scanner reader writer channel journal request response "
    "handler listener event queue pool worker task job scheduler timer "
    "config property setting option flag entry record row column table "
    "schema query cursor statement connection sensor transaction commit "
    "rollback batch chunk block page frame layout panel widget button "
    "label dialog menu action command plugin module bundle package loader "
    "resolver registry factory emitter visitor adapter proxy wrapper "
    "decorator strategy observer filter mapper reducer encoder decoder "
    "serializer marshaller codec cipher digest hash checksum signature "
    "certificate credential token realm principal role permission policy "
    "quota limit retry backoff timeout deadline lease heartbeat election "
    "replica shard partition segment offset cluster broker topic consumer "
    "producer publisher subscriber router gateway endpoint servlet filter "
    "context container bean injector binding annotation reflection"
).split()))

ACRONYMS = ("XML", "HTTP", "URL", "IO", "SQL", "JSON", "UI", "ID", "JDBC", "DOM")

SYLLABLES = (
    "ba be bo bu da de di do ga ge go ka ke ki ko la le li lo lu ma me mi mo "
    "na ne ni no pa pe pi po ra re ri ro sa se si so ta te ti to va ve vi vo "
    "za ze zi zo"
).split()

SATD_RAW_LABELS = ("DESIGN", "DEFECT", "IMPLEMENTATION", "TEST", "DOCUMENTATION")
NON_SATD_RAW_LABEL = "WITHOUT_CLASSIFICATION"

SHARED_PROJECT_PROB = 0.30
PRIVATE_WORDS_PER_PROJECT = 40
LENGTH_MEDIAN_WORDS = 7.0
LENGTH_SIGMA = 0.85
LENGTH_RANGE = (3, 200)


@dataclass(frozen=True)
class ProjectMeta:
    """What the benchmark knows about one generated project."""

    name: str
    labels: tuple[int, ...]  # 1 = SATD, by comment id (row order)
    n_triggered_satd: int  # SATD comments carrying a strict trigger

    @property
    def n_comments(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Corpus:
    """Generated files (relative path -> bytes) and their ground truth."""

    files: dict[str, bytes]
    projects: tuple[ProjectMeta, ...]
    manifest: str = "manifest.tsv"

    @property
    def n_comments(self) -> int:
        return sum(p.n_comments for p in self.projects)


def _length_quantiles(n: int) -> list[int]:
    dist = NormalDist(math.log(LENGTH_MEDIAN_WORDS), LENGTH_SIGMA)
    lo, hi = LENGTH_RANGE
    return [min(hi, max(lo, round(math.exp(dist.inv_cdf((i + 0.5) / n))))) for i in range(n)]


def _is_trigger(word: str) -> bool:
    return word.lower() in TRIGGERS


def _pseudo_word(rng: random.Random) -> str:
    while True:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if not _is_trigger(word):
            return word


def _identifier(rng: random.Random, pool: list[str]) -> str:
    parts = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.25:
        parts.insert(rng.randint(1, len(parts)), rng.choice(ACRONYMS))
    head = parts[0] if rng.random() < 0.6 else parts[0].capitalize()
    ident = head + "".join(p if p.isupper() else p.capitalize() for p in parts[1:])
    suffix = rng.random()
    if suffix < 0.25:
        ident += "()"
    elif suffix < 0.32:
        ident += "[]"
    elif suffix < 0.40:
        ident += ";"
    return ident


def _comment_text(
    rng: random.Random, n_words: int, pool: list[str], satd: bool, trigger: str | None
) -> str:
    words = []
    for _ in range(n_words):
        r = rng.random()
        if r < 0.55:
            words.append(rng.choice(COMMON_WORDS))
        elif r < 0.85:
            words.append(rng.choice(pool))
        else:
            words.append(_identifier(rng, pool))
    if satd:
        for _ in range(rng.randint(1, 2)):
            words.insert(rng.randint(0, len(words)), rng.choice(DEBT_WORDS))
    elif rng.random() < 0.05:
        words.insert(rng.randint(0, len(words)), rng.choice(DECOYS))
    if trigger is not None:
        variant = rng.choice(TRIGGER_VARIANTS[trigger])
        pos = 0 if rng.random() < 0.5 else rng.randint(0, len(words))
        words.insert(pos, variant)
    body = " ".join(words)
    style = rng.random()
    if style < 0.6:
        return "// " + body
    if style < 0.9:
        return "/* " + body + " */"
    return body


def _csv_bytes(rows: list[tuple[str, str, str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["project", "comment", "raw_label"])
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def generate(seed: int, n_projects: int, comments_per_project: int) -> Corpus:
    """A corpus of ``n_projects`` projects with ``comments_per_project`` each."""
    if not 1 <= n_projects <= len(PROJECT_NAMES):
        raise ValueError(f"n_projects must be in 1..{len(PROJECT_NAMES)}, got {n_projects}")
    rng = random.Random(seed)
    names = PROJECT_NAMES[:n_projects]
    # Fixed-size draws keep the amount of work the same for every seed: each
    # project uses the same share of the domain words, and the SATD rates
    # are evenly spaced over 2-10% and dealt out to the projects.
    n_shared = round(SHARED_PROJECT_PROB * len(DOMAIN_WORDS))
    shared_in = {name: rng.sample(DOMAIN_WORDS, n_shared) for name in names}
    rates = [0.02 + 0.08 * (p + 0.5) / n_projects for p in range(n_projects)]
    rng.shuffle(rates)
    lengths = _length_quantiles(n_projects * comments_per_project)
    rng.shuffle(lengths)
    files: dict[str, bytes] = {}
    metas = []
    manifest_lines = []
    for p, name in enumerate(names):
        private = [_pseudo_word(rng) for _ in range(PRIVATE_WORDS_PER_PROJECT)]
        pool = shared_in[name] + private
        n_satd = max(2, round(rates[p] * comments_per_project))
        flags = [True] * n_satd + [False] * (comments_per_project - n_satd)
        rng.shuffle(flags)
        satd_ids = [i for i, satd in enumerate(flags) if satd]
        triggered = set(rng.sample(satd_ids, n_satd // 2))
        rows = []
        for i, satd in enumerate(flags):
            trigger = rng.choice(TRIGGERS) if i in triggered else None
            text = _comment_text(
                rng, lengths[p * comments_per_project + i], pool, satd, trigger
            )
            raw = rng.choice(SATD_RAW_LABELS) if satd else NON_SATD_RAW_LABEL
            rows.append((name, text, raw))
        files[f"{name}.csv"] = _csv_bytes(rows)
        manifest_lines.append(f"{name}\t{name}.csv")
        metas.append(ProjectMeta(name, tuple(int(s) for s in flags), len(triggered)))
    files["manifest.tsv"] = ("\n".join(manifest_lines) + "\n").encode("utf-8")
    return Corpus(files=files, projects=tuple(metas))


def scores_jsonl(seed: int, corpus: Corpus) -> bytes:
    """Scores an external trainer might return: one line per comment,
    debt comments drawn higher than the rest, so the confusion counts are
    mixed but fixed for a seed."""
    rng = random.Random(f"scores:{seed}")
    lines = []
    for p in corpus.projects:
        for i, label in enumerate(p.labels):
            score = rng.betavariate(4, 2) if label else rng.betavariate(1.5, 6)
            lines.append(json.dumps({"project": p.name, "id": i, "score": round(score, 6)}))
    return ("\n".join(lines) + "\n").encode("utf-8")


def self_check(seed: int, n_projects: int = 4, comments_per_project: int = 50) -> list[str]:
    """Failures of the determinism contract, empty when it holds: the same
    seed must give byte-identical files, a different seed different ones."""
    a = generate(seed, n_projects, comments_per_project)
    b = generate(seed, n_projects, comments_per_project)
    c = generate(seed + 1, n_projects, comments_per_project)
    failures = []
    if a.files != b.files or scores_jsonl(seed, a) != scores_jsonl(seed, b):
        failures.append(f"generator: seed {seed} gave different bytes on two calls")
    differing = [k for k in a.files if k != a.manifest and a.files[k] != c.files.get(k)]
    if not differing:
        failures.append(f"generator: seeds {seed} and {seed + 1} gave identical datasets")
    return failures
