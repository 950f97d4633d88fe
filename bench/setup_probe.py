"""Set-up time of a fresh process: import satdkit, build a config, load the corpus.

Usage: python3 setup_probe.py <src-dir> <manifest>
Prints one JSON object with the elapsed seconds and the comments loaded.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import satdkit  # noqa: E402

config = satdkit.build_config(overrides={"manifest": sys.argv[2]})
collection = satdkit.load_collection(config.manifest, satdkit.LabelMapping.standard())
elapsed = time.perf_counter() - START
print(json.dumps({"setup_s": elapsed, "comments": sum(len(p.comments) for p in collection)}))
