"""Write reference.json: the record values the correctness gate compares
against.

Run from the repository root, on the commit whose values are the
reference:

    python3 perfbench/make_reference.py

The records of the freefield, modloc and refine suites do not depend on
the seed and are stored once.  The subspace and fock suites draw from
the seeded generator, so their values are stored for each seed in SEEDS;
for any other seed the gate checks their pass flags only.  BLAS runs on
one thread, as in the benchmark's child processes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import BLAS_THREADS, record_values as values  # noqa: E402

os.environ.update(BLAS_THREADS)

from modlab.checks import run_checks, run_refinement  # noqa: E402
from modlab.config import ExperimentConfig  # noqa: E402

SEEDS = list(range(256)) + [1000, 1234, 2024, 4242, 12345, 31337, 54321,
                            99999]
PROBE_SEEDS = (7, 11, 12345)     # seeds compared to find seeded records


def run_records(kind, seed):
    records, _ = run_checks(ExperimentConfig(kind=kind, seed=seed))
    return {r["name"]: r for r in records}


def main():
    probes = [run_records("all", s) for s in PROBE_SEEDS]
    seeded = sorted(n for n in probes[0]
                    if len({tuple(values(p[n])) for p in probes}) > 1)
    reports = {}
    for kind in ("all", "subspace", "fock"):
        recs = probes[0] if kind == "all" else run_records(kind, PROBE_SEEDS[0])
        reports[kind] = {
            "fixed": {n: values(r) for n, r in recs.items() if n not in seeded},
            "seeded": sorted(n for n in recs if n in seeded)}
    refine = [run_refinement(ExperimentConfig(seed=s), [1, 2, 3])[0]
              for s in PROBE_SEEDS[:2]]
    if [values(r) for r in refine[0]] != [values(r) for r in refine[1]]:
        raise SystemExit("refine records depend on the seed")
    reports["refine"] = {"fixed": {r["name"]: values(r) for r in refine[0]},
                         "seeded": []}

    by_seed, failing = {}, {}
    for seed in SEEDS:
        recs = {**run_records("subspace", seed), **run_records("fock", seed)}
        by_seed[str(seed)] = {n: values(recs[n]) for n in seeded}
        bad = sorted(n for n, r in recs.items() if not r["passed"])
        if bad:
            failing[str(seed)] = bad
        print(f"seed {seed}: {'FAIL ' + ', '.join(bad) if bad else 'pass'}",
              flush=True)
    for probe, seed in zip(probes, PROBE_SEEDS):
        if str(seed) in by_seed and any(
                values(probe[n]) != by_seed[str(seed)][n] for n in seeded):
            raise SystemExit(f"kind all and kind subspace/fock disagree at "
                             f"seed {seed}")
        bad = {n for n, r in probe.items() if not r["passed"]}
        if bad:
            failing[str(seed)] = sorted(bad.union(failing.get(str(seed), [])))

    # one line per seed keeps the file diffable
    seeded_lines = ",\n".join(f"{json.dumps(s)}: {json.dumps(v, sort_keys=True)}"
                              for s, v in by_seed.items())
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write(f'{{"reports": {json.dumps(reports, indent=1, sort_keys=True)},\n'
                 f'"failing": {json.dumps(failing, sort_keys=True)},\n'
                 f'"seeded": {{\n{seeded_lines}\n}}}}\n')


if __name__ == "__main__":
    main()
