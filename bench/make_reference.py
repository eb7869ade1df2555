"""Write bench/reference.json from the package as it stands, or check it.

    python3 bench/make_reference.py                  # rewrite the table
    python3 bench/make_reference.py --check [SEED ...]

The table holds the expected output of every instance the workloads run:
decisions and methods, elimination counts, identified states and sweep
boundaries.  Quartet rows are computed on the untransformed quartets; the
benchmark's seeded rotations leave their answer unchanged.  Regenerate only
to add instances: the gate exists to catch changed rows.

``--check`` runs every instance of every input variant of every workload at
each SEED (default: the seeds ``compare.py`` uses) through the gate, prints
the failures and exits 1 if there are any.  A run at a seed only ever uses
these variants, so this shows that the reference rows hold for the seeded
rotations, not just for the untransformed quartets.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from run import BLAS_THREAD_VARS  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from antimark import ensembles  # noqa: E402
from antimark.qcore import PartyLayout  # noqa: E402


def row(inst) -> dict:
    out = inst.run()
    if inst.kind == "decide":
        return {"decision": out.decision, "method": out.method}
    if inst.kind == "lsam":
        return {"decision": out.decision, "method": out.method,
                "parts": {name: sub.decision for name, sub in out.parts.items()}}
    if inst.kind == "sweep":
        return {"boundaries": out.boundaries, "regions": [list(r) for r in out.regions]}
    if inst.kind == "elimination":
        return {"count": out[1]}
    if inst.kind == "identify":
        return {"identified": sorted(out[1].identified)}
    return {"passed": out[1].passed}


def write() -> None:
    quartets = [workloads.decide(
        f"q{workloads.QUARTET_SEED_BASE + i}",
        ensembles.Ensemble("quartet", PartyLayout((3,)), [f"s{j}" for j in range(4)],
                           workloads.base_quartet(i)), **workloads.QUARTET_SEARCH)
        for i in range(workloads.QUARTET_POOL)]
    table = {
        "catalog": workloads.build("catalog", 0).variants[0],
        "random-quartets": quartets,
        "locc-lsam": workloads.build("locc-lsam", 0).variants[0],
    }
    doc = {name: {inst.key: row(inst) for inst in insts} for name, insts in table.items()}
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check(seeds: list[int]) -> int:
    """Gate every instance of every variant at each seed; the failure count."""
    failed = 0
    for seed in seeds:
        for name in workloads.BUILDERS:
            w = workloads.build(name, seed)
            tally = measure.Tally()
            for variant in w.variants:
                for inst in variant:
                    measure.run_instance(name, inst, tally)
            print(f"seed {seed} {name}: {len(w.variants)} variants, "
                  f"{tally.attempted} instances, {tally.failed} failed", flush=True)
            for problem in tally.problems:
                print(f"  FAILED {problem}", flush=True)
            failed += tally.failed
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", type=int, nargs="*", metavar="SEED",
                   help="gate every input variant at these seeds instead of writing")
    args = p.parse_args(argv)
    if args.check is None:
        write()
        return 0
    return 1 if check(args.check or compare.SEEDS) else 0


if __name__ == "__main__":
    sys.exit(main())
