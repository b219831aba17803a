#!/usr/bin/env python3
"""Regenerate perfbench/records/classify_pool_histograms.json.

    python3 perfbench/make_records.py

For each seed in SEEDS the record holds the verdict histogram of the
classify_pool inputs, from the answers known by construction (pools.py),
not from the classifier.  A run checks the classifier's verdicts on its
first pass against the record of its seed.  Regenerate only when pools.py
changes on purpose, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pools  # noqa: E402

SEEDS = range(1024)


def main():
    record = {
        "keys": [f"{f}={v}" for f in pools.FIELDS for v in pools.VERDICT_VALUES],
        "seeds": {
            str(seed): pools.verdict_counts(s.expected for s in pools.classify_pool(seed))
            for seed in SEEDS
        },
    }
    path = ROOT / "perfbench" / "records" / "classify_pool_histograms.json"
    text = json.dumps(record, separators=(",", ":"))
    path.write_text(text.replace("],", "],\n") + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
