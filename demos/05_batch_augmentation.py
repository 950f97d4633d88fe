"""Imbalance-aware batch streams: plain, forced re-sampling, duplication.

With a 3% minority, a plain shuffled batch of 32 often contains zero
minority examples. Forced minority re-sampling flips a seeded coin per
batch (probability 0.10 by default); in adjusted batches it replaces
majority items with draws from the minority pool until majority <= 3x
minority. Duplication additionally appends a trigger-stripped copy of each
tagged minority comment before re-sampling.

Everything derives from (seed, epoch, batch_index): re-running a stream
reproduces it exactly.
"""

import json

from satdkit import (
    Comment,
    Label,
    SamplerConfig,
    dup_augment,
    dup_lexicon,
    fmr_batches,
    plain_batches,
)
from satdkit.augment import batch_record

train = [
    Comment(i, "Demo",
            f"// TODO broken path {i}" if i < 30 else f"// ordinary comment {i}",
            Label.SATD if i < 30 else Label.NON_SATD,
            "DESIGN" if i < 30 else "WITHOUT_CLASSIFICATION")
    for i in range(1000)
]
pool = [c for c in train if c.label is Label.SATD]
print(f"train set: {len(train)} comments, {len(pool)} minority (3%)\n")

cfg = SamplerConfig(seed=42, batch_size=32, trigger_prob=0.10, target_ratio=3.0, epochs=40)

n = n_adjusted = n_zero_minority_plain = 0
worst_ratio_ok = True
for plain, resampled in zip(plain_batches(train, cfg), fmr_batches(train, cfg)):
    n += 1
    n_zero_minority_plain += plain.label_counts()[0] == 0
    if resampled.adjusted:
        n_adjusted += 1
        n_satd, n_non = resampled.label_counts()
        worst_ratio_ok &= n_non <= 3 * n_satd
    else:
        assert resampled == plain  # untouched batches are identical

print(f"batches seen:                {n}")
print(f"plain batches with 0 minority: {n_zero_minority_plain} "
      f"({n_zero_minority_plain / n:.1%})")
print(f"adjusted batches:            {n_adjusted} ({n_adjusted / n:.1%}, coin p=0.10)")
print(f"all adjusted satisfy 3:1 cap: {worst_ratio_ok}")

print("\nduplication on top (trigger-stripped copies of tagged minority comments):")
augmented, n_dup = dup_augment(train, dup_lexicon())
print(f"  {len(train)} comments + {n_dup} duplicates -> {len(augmented)}")
original = train[0]
duplicate = next(c for c in augmented if c.origin_id == original.id)
print(f"  original : id={original.id}  {original.text!r}")
print(f"  duplicate: id={duplicate.id}  {duplicate.text!r} (origin_id={duplicate.origin_id})")

print("\none exported JSONL batch line (the external-trainer wire format):")
first = next(iter(fmr_batches(train, cfg)))
line = json.dumps(batch_record(first))
print(f"  {line[:120]}...")
