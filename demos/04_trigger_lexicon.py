"""Trigger words: the easy/hard comment split and the keyword baseline.

Many debt admissions carry an explicit task tag ("TODO", "FIXME", ...);
those are the easy ones. A training-free classifier that fires on the tags
is a surprisingly strong baseline, and the same machinery later powers
duplication augmentation (strip the tags, keep the admission).
"""

from satdkit import (
    Label,
    TriggerLexicon,
    find_triggers,
    mat_lexicon,
    mat_score,
    remove_triggers,
)
from satdkit.lexicon import FUZZY, STRICT

lexicon = mat_lexicon()


def keyword_baseline(text):
    # a run predicts SATD iff score >= threshold (0.5 by default)
    return Label.SATD if mat_score(lexicon, text) >= 0.5 else Label.NON_SATD


print(f"default tag lexicon: {sorted(lexicon.triggers)} (mode={lexicon.mode})\n")

easy = [
    "//TODO: nothing appears to read this but is set using a public setter.",
    "// MAC OS 9 and previous //TODO: I have no idea how to get it...",
]
hard = [
    "// sorry - otherwise we will get a ClassCastException because the MockCache...",
    "//these are pathological cases, but retained in case somebody //subclassed us.",
]

print("easy comments (clear trigger words):")
for text in easy:
    spans = find_triggers(lexicon, text)
    matched = [text[s:e] for s, e in spans]
    label = keyword_baseline(text)
    print(f"  {label.name:8} triggers={matched}  {text[:60]}")

print("\nhard comments (debt admissions without trigger words):")
for text in hard:
    label = keyword_baseline(text)
    print(f"  {label.name:8} triggers=[]  {text[:60]}")
print("  (the keyword baseline misses these by construction)")

print("\nstrict vs fuzzy matching on 'xtodox' and 'methodology':")
for mode in (STRICT, FUZZY):
    lex = TriggerLexicon(frozenset({"todo"}), mode)
    for word in ("xtodox", "methodology"):
        print(f"  {mode:6} {word!r:14} -> {find_triggers(lex, word)}")

print("\ntrigger removal (used when duplicating minority comments):")
for text in [
    "// FIXME: This should probably...",
    "// TODO TODO fix",
    "// TODO",  # collapses to a bare marker: duplication skips it
]:
    print(f"  {text!r:40} -> {remove_triggers(lexicon, text)!r}")
