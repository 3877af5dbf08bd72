"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories of result files written by run.py (or
single result files).  Only untraced results are compared.  Make the two
sets as pairs at the same seeds, alternating which side runs first
(base s1, change s1, change s2, base s2, ...), so that a slow spell of the
host lands on both sides of a pair rather than on one whole set.

Runs are paired by seed, and each pair gives a ratio, change / base for a
lower-is-better metric and base / change otherwise, so a ratio below 1 means
CHANGE did better.  For every workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the median ratio
with its quartile spread, the win fraction of CHANGE over the pairs (ties
count for neither) and a verdict:

* unresolved: the ratios' quartile spread, as a share of their median, is
  wider than the metric's bound, so neither "worse" nor "unchanged" can be
  shown, unless every CHANGE run beats every BASE run ("better");
* worse: the median ratio exceeds 1 by more than the bound;
* better: CHANGE wins at least 9 in 10 pairs and the medians differ by more
  than BASE's own quartile spread;
* unchanged: none of the above.

It warns when the two sets did not overlap in time.  The exit code is 1 when
any verdict is "worse" or CHANGE failed more operations than BASE on some
workload, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Untraced results under path, grouped by workload, in file order."""
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    out = {}
    for f in files:
        with open(f) as fh:
            res = json.load(fh)
        if res.get("trace") == 0:
            out.setdefault(res["workload"], []).append(res)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better):
    """Verdict and statistics for one metric; base/change are paired lists."""
    def better(a, b):  # a better than b
        return a < b if lower_is_better else a > b

    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    ratios = [c / b if lower_is_better else b / c for b, c in zip(base, change)]
    r1, rm, r3 = quartiles(ratios)
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    win_frac = wins / len(ratios)
    spread = (r3 - r1) / rm
    all_better = all(better(c, b) for c in change for b in base)
    if spread > bound:
        v = "better" if all_better else "unresolved"
    elif rm - 1.0 > bound:
        v = "worse"
    elif win_frac >= 0.9 and better(cm, bm) and abs(cm - bm) > b3 - b1:
        v = "better"
    else:
        v = "unchanged"
    return v, {"base": (b1, bm, b3), "change": (c1, cm, c3), "ratio": rm,
               "ratio_spread": spread, "win_frac": win_frac, "pairs": len(ratios)}


def paired(base_runs, change_runs):
    """(base, change) result pairs at the seeds both sides ran, in seed order.

    Where one seed ran several times on a side, its runs pair in file order.
    """
    def by_seed(runs):
        out = {}
        for r in runs:
            out.setdefault(r["seed"], []).append(r)
        return out

    bs, cs = by_seed(base_runs), by_seed(change_runs)
    return [pair for s in sorted(set(bs) & set(cs)) for pair in zip(bs[s], cs[s])]


def overlap_in_time(pairs):
    """True when neither side's runs all ended before the other's began."""
    def span(runs):
        return (min(r["started"] for r in runs), max(r["started"] for r in runs))

    b_lo, b_hi = span([b for b, _ in pairs])
    c_lo, c_hi = span([c for _, c in pairs])
    return b_lo < c_hi and c_lo < b_hi


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base, change = load(argv[0]), load(argv[1])
    status = 0
    fmt = "{:.4g}/{:.4g}/{:.4g}"
    print(f"{'workload':14s} {'metric':12s} {'base q1/median/q3':>26s} "
          f"{'change q1/median/q3':>26s} {'ratio':>6s} {'spread':>6s} {'win':>5s} "
          f"{'pairs':>5s} {'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        pairs = paired(base.get(name, []), change.get(name, []))
        if not pairs:
            print(f"{name:14s} no pair of runs at a common seed")
            continue
        if len(pairs) > 1 and not overlap_in_time(pairs):
            print(f"{name:14s} WARNING: the two sets ran one after the other, "
                  f"so host drift between them is not cancelled")
        for m in bench["end_to_end"]:
            b = [p[0]["metrics"][m["name"]]["value"] for p in pairs]
            c = [p[1]["metrics"][m["name"]]["value"] for p in pairs]
            v, st = verdict(b, c, m["bound"], m["better"] == "lower")
            status |= v == "worse"
            print(f"{name:14s} {m['name']:12s} {fmt.format(*st['base']):>26s} "
                  f"{fmt.format(*st['change']):>26s} {st['ratio']:6.3f} "
                  f"{st['ratio_spread']:6.3f} {st['win_frac']:5.2f} {st['pairs']:5d} "
                  f"{m['bound']:6.2f}  {v}")
        fb = sum(p[0]["failed"] for p in pairs)
        fc = sum(p[1]["failed"] for p in pairs)
        ab = sum(p[0]["attempted"] for p in pairs)
        ac = sum(p[1]["attempted"] for p in pairs)
        print(f"{name:14s} {'failed':12s} {f'{fb}/{ab}':>26s} {f'{fc}/{ac}':>26s}"
              f"{'  MORE FAILURES' if fc > fb else ''}")
        status |= fc > fb
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
