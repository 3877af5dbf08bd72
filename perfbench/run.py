"""maglab scenario benchmark: closed loop, one scenario run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a maglab source tree (it imports `src/maglab`, never an
installed copy).  One client runs one operation at a time, each in a fresh
Python process (perfbench/child.py); an operation runs the workload's
scenario configs, generated from the seed, through `run_scenario` and is
checked by perfbench/workloads.py.  No thread or process runs beside it.

--trace 0 runs untraced operations until the next one would end after S
seconds (at least one), then a few set-up probes, and reports the medians of
wall_s, setup_s and peak_rss_mb.  wall_s and setup_s are scaled to a fixed
host speed, sampled throughout each operation (perfbench/hostspeed.py),
because on a shared host the raw times drift by up to 1.7x with the load of
other tenants; the raw medians and the host speed go to the result file and
the human-readable lines.  --trace 1 runs a traced operation, an untraced one
and a second traced one at the same seed, and reports the per-layer metrics
of the first traced run plus trace.overhead (raw traced wall time / raw
untraced wall time - 1) and trace.counters_repeat (1 when every work counter
of the two traced runs agrees exactly, else 0); both read -1 when the run
cap left no room for the operation they need.

Human-readable lines go to stdout first, failed_frac among them; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}, where
an operation fails on a nonzero exit, a stage error, a non-finite number in
any report or a failed workload check.  Every run also writes a
result file, with machine facts and per-operation records, under
perfbench/out/results/ (compare two sets with perfbench/compare.py) and,
when traced, the spans under perfbench/out/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4
# A run must end within 180 s: the next operation starts only if it should
# end within RUN_CAP_S, and any process still running at RUN_LIMIT_S is killed.
RUN_CAP_S = 150.0
RUN_LIMIT_S = 170.0


def machine_facts():
    """Machine and build facts recorded in every result file."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(os.path.join(SRC, "maglab")),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            def read(name, idx=idx):
                with open(os.path.join(base, idx, name)) as fh:
                    return fh.read().strip()
            facts["caches"][f"L{read('level')}{read('type')[0].lower()}"] = read("size")
    except OSError:
        pass
    return facts


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    """HEAD of the tree's git repository, or None outside one (read, not run)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top):
    h = hashlib.sha256()
    # os.walk visits the pruned, sorted dirnames in order, so the walk is
    # deterministic and never enters __pycache__ (a .pyc embeds an mtime).
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_op(work, workload, seed, k, timeout, trace=False, probe=False):
    """Run one operation (or set-up probe) in a fresh process; return its record."""
    op_dir = os.path.join(work, f"op{k}")
    os.makedirs(op_dir)
    configs = workloads.WORKLOADS[workload][0](seed)
    paths, outs = [], []
    for i, cfg in enumerate(configs):
        paths.append(os.path.join(op_dir, f"scenario{i}.json"))
        outs.append(os.path.join(op_dir, f"reports{i}"))
        with open(paths[-1], "w") as fh:
            json.dump(cfg, fh, indent=1)
    spec = {"src": SRC, "scenarios": paths, "out_dirs": outs, "trace": trace,
            "probe": probe, "run_id": f"{workload}-{seed}-op{k}",
            "result": os.path.join(op_dir, "result.json")}
    spec_path = os.path.join(op_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    rec = {"op": k, "kind": "probe" if probe else ("traced" if trace else "untraced"),
           "failures": []}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rec["failures"].append(f"killed after {timeout:.0f} s")
        return rec
    rec["exit_code"] = proc.returncode
    if proc.returncode != 0:
        rec["failures"].append(f"exit code {proc.returncode}: "
                               f"{proc.stderr.strip().splitlines()[-1:]}")
        return rec
    with open(spec["result"]) as fh:
        rec.update(json.load(fh))
    if probe:
        return rec
    if any(rec["codes"]):
        rec["failures"].append(f"run_scenario exit codes {rec['codes']}")
    for i, kind, error in rec["stage_errors"]:
        rec["failures"].append(f"scenario {i} {kind}: stage error {error!r}")
    reports = []
    for out in outs:
        rep_set = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            if name.endswith(".json"):
                with open(os.path.join(out, name)) as fh:
                    rep_set[name[:-5]] = json.load(fh)
        reports.append(rep_set)
    rec["failures"] += workloads.check(workload, reports)
    return rec


def median(values):
    return statistics.median(values) if values else None


def run_ops(work, args, kinds, stop, deadline):
    """Run operations of the given kinds in order while stop(elapsed, est) is False.

    The first always runs; est is the median duration of those run so far.
    Every operation is killed at the deadline (a time.monotonic() value).
    """
    ops = []
    start = time.monotonic()
    for k, trace in enumerate(kinds):
        elapsed = time.monotonic() - start
        if ops and stop(elapsed, median([o["op_s"] for o in ops])):
            break
        t0 = time.monotonic()
        rec = run_op(work, args.workload, args.seed, k, trace=trace,
                     timeout=deadline - t0)
        rec["op_s"] = time.monotonic() - t0
        ops.append(rec)
    return ops


def run_untraced(work, args, deadline):
    budget = min(args.seconds, RUN_CAP_S)
    ops = run_ops(work, args, itertools.repeat(False),
                  lambda elapsed, est: elapsed + est > budget, deadline)
    probes = [run_op(work, args.workload, args.seed, len(ops) + i, probe=True,
                     timeout=deadline - time.monotonic())
              for i in range(SETUP_PROBES) if time.monotonic() + 5.0 < deadline]
    good = [o for o in ops if "wall_s" in o]
    setups = [o for o in good + probes if "setup_s" in o]
    metrics = {
        "wall_s": median([o["wall_s"] for o in good]),
        "setup_s": median([o["setup_s"] for o in setups]),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in good]),
    }
    raw = {
        "raw_wall_s": median([o["raw_wall_s"] for o in good]),
        "raw_setup_s": median([o["raw_setup_s"] for o in setups]),
        "host_speed": median([o["wall_s"] / o["raw_wall_s"] for o in good]),
    }
    return ops, probes, metrics, {"raw": raw}


def run_traced(work, args, deadline):
    """Traced, untraced, traced: layer metrics, overhead and repeatability."""
    ops = run_ops(work, args, (True, False, True),
                  lambda elapsed, est: elapsed + 2.0 * est > RUN_CAP_S, deadline)
    traced = [o for o in ops if o["kind"] == "traced" and "layer_metrics" in o]
    untraced = [o for o in ops if o["kind"] == "untraced" and "wall_s" in o]
    if not traced:
        return ops, [], {}, {}
    metrics = dict(traced[0]["layer_metrics"])
    metrics["trace.overhead"] = -1.0
    if untraced:
        metrics["trace.overhead"] = (median([o["wall_s"] for o in traced])
                                     / untraced[0]["raw_wall_s"] - 1.0)
    mismatched = None
    metrics["trace.counters_repeat"] = -1.0
    if len(traced) == 2:
        a, b = traced[0]["work_counters"], traced[1]["work_counters"]
        mismatched = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        metrics["trace.counters_repeat"] = float(not mismatched)
    extra = {"counters_mismatched": mismatched, "self_table": traced[0]["self_table"],
             "work_counters": traced[0]["work_counters"]}
    return ops, [], metrics, extra


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maglab", "__init__.py")):
        print(f"error: no maglab source tree at {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    started = time.time()
    facts = machine_facts()
    tag = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
           f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    work = os.path.join(OUT, "work", tag)
    os.makedirs(work)
    try:
        runner = run_traced if args.trace else run_untraced
        ops, probes, measured, extra = runner(work, args, time.monotonic() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for o in ops if o["failures"])
    missing = [name for name, _ in declared if measured.get(name) is None]
    if missing:
        print(f"error: no measurement of {missing}; operation failures: "
              f"{[o['failures'] for o in ops]}", file=sys.stderr)
        return 1
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared}
    spans = {f"op{o['op']}": o.pop("spans") for o in ops if "spans" in o}
    for o in ops:
        for key in ("layer_metrics", "work_counters", "self_table"):
            o.pop(key, None)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "machine": facts,
        "attempted": len(ops), "failed": failed, "failed_frac": failed / len(ops),
        "metrics": metrics, "operations": ops, "setup_probes": probes, **extra,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if spans:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", tag + ".json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": spans}, fh)
    _print_summary(args, result, extra)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_summary(args, result, extra):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, "
          f"failed_frac {result['failed_frac']:.3g} ({result['failed']}/{result['attempted']})")
    for o in result["operations"]:
        for f in o["failures"]:
            print(f"  FAILED op{o['op']} ({o['kind']}): {f}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if extra.get("raw"):
        r = extra["raw"]
        print(f"  unscaled: wall {r['raw_wall_s']:.6g} s, set-up {r['raw_setup_s']:.6g} s; "
              f"host speed {r['host_speed']:.3g} of the reference")
    if extra.get("self_table"):
        print("  self time by layer (first traced run):")
        for layer, row in extra["self_table"].items():
            print(f"    {layer:12s} {row['calls']:10d} calls {row['self_s']:10.4f} s self")
    if extra.get("counters_mismatched"):
        print(f"  WORK COUNTERS DID NOT REPEAT: {extra['counters_mismatched']}")


if __name__ == "__main__":
    sys.exit(main())
