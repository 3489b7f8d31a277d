"""Vertex-averaged complexity over algorithm seeds, and a two-sample
comparison of two such records.

Used to check that a change of the random source leaves the *distribution*
of the randomized rows' T-bar unchanged, even though every seeded
execution changes.  Record one checkout, record the other, compare:

    PYTHONPATH=src python benchmarks/tbar_seeds.py record --out new.json
    PYTHONPATH=<other checkout>/src python benchmarks/tbar_seeds.py record --out old.json
    python benchmarks/tbar_seeds.py compare old.json new.json

``compare`` needs scipy (two-sample Kolmogorov-Smirnov test); it is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics


def record(n: int, seeds: int) -> dict:
    import repro
    from repro.bench import make_workload

    g, _a = make_workload("forest_union_a3")(n, 0)
    rows = {"luby-mis": [], "rand-delta-plus-one": []}
    for s in range(seeds):
        rows["luby-mis"].append(repro.run_luby_mis(g, seed=s).metrics.vertex_averaged)
        rows["rand-delta-plus-one"].append(
            repro.run_rand_delta_plus_one(g, seed=s).metrics.vertex_averaged
        )
    return {"n": n, "seeds": seeds, "tbar": rows}


def compare(old: dict, new: dict) -> str:
    from scipy.stats import ks_2samp

    lines = [
        f"n = {new['n']}, {new['seeds']} seeds per side",
        "",
        "| algorithm | T̄ before (mean ± sd) | T̄ after (mean ± sd) | KS D | p |",
        "|---|---|---|---|---|",
    ]
    for algo, after in new["tbar"].items():
        before = old["tbar"][algo]
        ks = ks_2samp(before, after)
        lines.append(
            f"| {algo} | {statistics.mean(before):.3f} ± {statistics.stdev(before):.3f} "
            f"| {statistics.mean(after):.3f} ± {statistics.stdev(after):.3f} "
            f"| {ks.statistic:.3f} | {ks.pvalue:.2f} |"
        )
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="T-bar per seed for this checkout")
    rec.add_argument("--out", required=True)
    rec.add_argument("--n", type=int, default=4000)
    rec.add_argument("--seeds", type=int, default=30)
    cmp_ = sub.add_parser("compare", help="KS comparison of two records")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "record":
        with open(args.out, "w") as fh:
            json.dump(record(args.n, args.seeds), fh, indent=1)
    else:
        with open(args.old) as fa, open(args.new) as fb:
            print(compare(json.load(fa), json.load(fb)))


if __name__ == "__main__":
    main()
