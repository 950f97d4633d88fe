"""Growing a subword vocabulary with domain tokens discovered in a corpus.

A pretrained tokenizer knows English but not code-comment jargon, so
corpus words missing from its vocabulary splinter into many pieces or
become UNK. Discovery collects every word that appears in strictly more
than 25% of the projects and is not already a base token (a whole word or
a "##" continuation piece); after an optional denylist pass the survivors
are appended to the base vocabulary. Tokenization is greedy longest-prefix matching with "##"
continuations.
"""

import tempfile
from pathlib import Path

from satdkit import (
    CorpusCollection,
    Comment,
    Label,
    ProjectDataset,
    WordCache,
    augment_vocabulary,
    char_base_vocabulary,
    discover_candidate_tokens,
    load_denylist,
    split_identifiers,
    tokenize,
)

# eight synthetic projects; "classpath" is corpus jargon appearing in most of
# them, "ns" is a flawed extraction appearing widely too, and "rarity" shows
# up in just one project (below the 25% bar)
projects = []
for i in range(8):
    texts = ["// set the classpath here", "// plain prose comment"]
    if i < 6:
        texts.append("// ns is a flawed fragment")
    if i == 0:
        texts.append("// rarity appears once")
    comments = [
        Comment(j, f"proj{i}", t, Label.NON_SATD, "WITHOUT_CLASSIFICATION")
        for j, t in enumerate(texts)
    ]
    projects.append(ProjectDataset(f"proj{i}", comments))
collection = CorpusCollection("demo", tuple(projects))

base = char_base_vocabulary()  # stand-in base: specials + printable ASCII chars
print(f"base vocabulary size: {base.size}")

# each comment is split and segmented once; discovery counts per-project word sets
words = WordCache()
project_words = words.project_words(c for ds in collection for c in ds.comments)
# discovery maps each candidate word to the number of projects containing it
candidates = discover_candidate_tokens(project_words, base, threshold=0.25)
print("\ndiscovered candidates (word, projects containing it, fraction):")
for token, count in candidates.items():
    print(f"  {token!r:16} {count}  {count / len(project_words):.3f}")
assert "rarity" not in candidates, "1 of 8 is under the bar"

workdir = tempfile.TemporaryDirectory(prefix="satdkit-demo-")
denylist = Path(workdir.name) / "denylist.txt"
denylist.write_text("ns\n", encoding="utf-8")
denied = load_denylist(denylist)  # read once, then a set lookup per candidate
finals = [t for t in candidates if t not in denied]
print(f"\nafter denylisting 'ns': {len(candidates)} -> {len(finals)} candidates")

vocab = augment_vocabulary(base, finals)
print(f"augmented vocabulary size: {base.size} + {len(finals)} = {vocab.size}")

text = split_identifiers("// classpath rarity")
for v, name in ((base, "base"), (vocab, "augmented")):
    seq = tokenize(v, words[text])
    pieces = [v.tokens[i] for i in seq.ids]
    print(f"\n{name} tokenization of {text!r}:")
    print(f"  {pieces}")
print("\n'classpath' is one token after augmentation; 'rarity' still spells out.")

workdir.cleanup()
