#!/usr/bin/env python3
"""Fail when a pinned result moves.

    python3 scripts/check_digests.py

Reads what the plain stage of scripts/check.sh leaves behind:
.bench_out/<workload>-seed1.result.json from each one-second fedbench run
(--seed 1 --seconds 1) and build/BENCH_cohort_smoke.json from
`cohort_scale --smoke`. It compares their digests, and fedbench's
bytes_per_round, with the values pinned below. A digest hashes a run's
round CSV and final weights, so an unchanged digest means an unchanged
result, and a change meant to be byte-identical must leave every value
here as it is. A deliberate re-pin edits PINNED and says so in
CHANGES.md. Exits nonzero on any difference or missing file.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = {
    # fedbench workload: (digest, bytes_per_round) at --seed 1 --seconds 1.
    "fedbench": {
        "federation_tcp": ("bac364141b4a2a3b", 300420),
        "cohort_mlp_1k": ("963dc33acd83e173", 54472704),
        "cohort_mlp_1k_int8": ("76de47364f06faae", 9790464),
    },
    # cohort_scale --smoke row digests, in row order: 64, 256 and 4096
    # clients dense, then 4096 clients over the int8 top-k uplink.
    "cohort_smoke": ["c5fee733aae819dd", "465bba660e6404a3", "877e4b81e4cbed52",
                     "882bd6e14114dcdb"],
}


def load(path, errors):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        errors.append("%s: %s" % (os.path.relpath(path, ROOT), e))
        return None


def main():
    errors = []
    for workload, (digest, nbytes) in PINNED["fedbench"].items():
        result = load(os.path.join(ROOT, ".bench_out", workload + "-seed1.result.json"), errors)
        if result is None:
            continue
        got = (result["digest"], result["metrics"]["bytes_per_round"]["value"])
        if got != (digest, nbytes):
            errors.append("fedbench %s: digest %s, bytes_per_round %s; pinned %s, %s"
                          % (workload, got[0], got[1], digest, nbytes))
    rows = load(os.path.join(ROOT, "build", "BENCH_cohort_smoke.json"), errors)
    if rows is not None:
        got = [row["digest"] for row in rows]
        if got != PINNED["cohort_smoke"]:
            errors.append("cohort_scale --smoke row digests %s; pinned %s"
                          % (got, PINNED["cohort_smoke"]))
    for e in errors:
        print("check_digests: " + e, file=sys.stderr)
    if not errors:
        print("check_digests: %d fedbench workloads and %d cohort_scale rows match their pins"
              % (len(PINNED["fedbench"]), len(PINNED["cohort_smoke"])))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
