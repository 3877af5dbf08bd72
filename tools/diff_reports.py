"""Run the same scenarios on two maglab source trees and diff what they write.

    python3 tools/diff_reports.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are source trees: a repository root (holding
src/maglab) or its src directory.  Each tree runs
`python -m maglab.cli COMMAND --config config.json --out out` on

* the nine bundled scenarios (src/maglab/scenarios/*.json of that tree),
  each with COMMAND `run` and then, as run NAME.KIND, with the single-stage
  subcommand of every stage KIND in its pipeline (which runs the stage's
  prerequisites silently and writes only that stage's reports),
* `CHART_SWITCH`, a sphere config held here whose flows switch charts
  (no bundled scenario's do), with COMMAND `run`,
* `FLOW_ENTROPY`, two torus configs held here whose entropy stage runs on
  a section return map (no bundled scenario's does), with COMMAND `run`,
* `CRITICAL_SIN`, a critical-value config held here whose searches at k > 0
  find witness loops (no other run's do), with COMMAND `run`,
* `POLYNOMIAL`, the disk example under a polynomial field (no other run's
  field is one), with COMMAND `run`, and
* the configs of the four benchmark workloads at seeds 1-3, generated by
  perfbench/workloads.py of the repository this script sits in (imported,
  never edited), with COMMAND `run`.

Every run gets a fresh directory with the same relative paths on both sides,
so a message naming a path reads the same.  The script compares the report
files (names and bytes), stdout, stderr and the exit code of each run, prints
one line per run and exits 1 on any difference, else 0.  Under a JSON report
that differs it prints the first few JSON paths that differ, with the base
and change values.  Two runs go at a time (one on a single-CPU machine); that
changes the wall time, not the output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import glob
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
JOBS = min(2, os.cpu_count() or 1)
SHOWN_PATHS = 5  # differing JSON paths printed per report
_ABSENT = "<absent>"
# a weak constant field on the unit sphere: the seed's path leaves chart 0,
# and the flows of its stages switch charts 9 times in all
CHART_SWITCH = {
    "surface": {"kind": "sphere", "params": {"radius": 1.0}},
    "field": {"kind": "constant", "value": 0.2},
    "energy": 0.5,
    "seeds": [{"chart": 0, "x": 0.5, "y": 0.0, "vx": 1.0, "vy": 0.3}],
    "pipeline": [
        {"stage": "simulate", "t_final": 12.0, "n_samples": 50},
        {"stage": "orbits", "tol": 1e-10, "max_time": 30.0},
        {"stage": "classify"},
    ],
}


def _flow_entropy(arclength):
    """The hyperbolic orbit of period 1 under sin 2 pi x at energy 0.5, with
    an entropy stage whose branches grow to `arclength`."""
    return {
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 0.5,
        "seeds": [{"chart": 0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": -1.0}],
        "pipeline": [
            {"stage": "orbits", "tol": 1e-10},
            {"stage": "entropy", "orbit_index": 0, "arclength": arclength,
             "tol": 1e-3, "k_max": 1},
        ],
    }


# branches of arclength 0.3 do not cross ("no crossing"); at 1.0 they cross
# once, at an angle of 1.34, and the certifier finds no horseshoe there
FLOW_ENTROPY = {"flow_entropy_short": _flow_entropy(0.3),
                "flow_entropy_long": _flow_entropy(1.0)}


# the critical value of sin 2 pi x on the torus: the bracket's k > 0 searches
# find witnesses, so the fixed candidates and the Nelder-Mead lanes decide its
# c_lo, 0.004058837890625 (every pinned closed form's bracket finds none)
CRITICAL_SIN = {
    "surface": {"kind": "torus"},
    "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
    "energy": 0.5,
    "seed": 0,
    "pipeline": [
        {"stage": "critical-value",
         "eta": {"kind": "sin_primitive", "amplitude": 1.0, "k": [1, 0]},
         "k_range": [-0.25, 1.0], "bisection_tol": 1e-4, "restarts": 8,
         "maxiter": 200},
    ],
}


# disk_example.json's surface, seeds and pipeline under the field -1 + 0.1 x
POLYNOMIAL = {
    "surface": {"kind": "planar",
                "params": {"radius": 3.0, "injectivity_radius": 3.141592653589793}},
    "field": {"kind": "polynomial", "coeffs": [[-1.0, 0.0], [0.1, 0.0]]},
    "energy": 0.5,
    "seed": 0,
    "integrator": {"rel_tol": 1e-11, "abs_tol": 1e-13},
    "seeds": [{"chart": 0, "x": -1.0, "y": 0.0, "vx": 1.0, "vy": 0.0},
              {"chart": 0, "x": -1.0, "y": 0.0, "vx": 0.0, "vy": 1.0}],
    "pipeline": [
        {"stage": "simulate", "t_final": 6.283185307179586, "n_samples": 200,
         "seeds": [1]},
        {"stage": "orbits", "tol": 1e-10},
        {"stage": "classify"},
    ],
}


def source_dir(tree):
    """The directory to put on PYTHONPATH for a tree root or a src directory."""
    tree = os.path.abspath(tree)
    for cand in (os.path.join(tree, "src"), tree):
        if os.path.isdir(os.path.join(cand, "maglab")):
            return cand
    raise SystemExit(f"no maglab package under {tree}")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def cases(src):
    """(name, maglab subcommand, config dict) of every run, bundled
    scenarios first, each followed by its single-stage runs, then the
    chart-switch, flow-entropy, sine critical-value and polynomial-field
    configs and the workloads."""
    out = []
    for path in sorted(glob.glob(os.path.join(src, "maglab", "scenarios", "*.json"))):
        name = os.path.basename(path)[:-5]
        with open(path) as fh:
            cfg = json.load(fh)
        out.append((name, "run", cfg))
        out.extend((f"{name}.{st['stage']}", st["stage"], cfg)
                   for st in cfg["pipeline"])
    out.append(("chart_switch", "run", CHART_SWITCH))
    out.extend((name, "run", cfg) for name, cfg in FLOW_ENTROPY.items())
    out.append(("critical_sin", "run", CRITICAL_SIN))
    out.append(("polynomial_field", "run", POLYNOMIAL))
    for name, (make, _) in sorted(_workloads().items()):
        for seed in SEEDS:
            for i, cfg in enumerate(make(seed)):
                out.append((f"{name}_s{seed}_{i}", "run", cfg))
    return out


def run_case(src, command, cfg, workdir):
    """Run one config through a maglab subcommand in workdir; returns
    (exit code, stdout, stderr)."""
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MAGLAB_LOG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "maglab.cli", command, "--config", "config.json",
         "--out", "out"],
        cwd=workdir, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def json_diffs(a, b, path="$"):
    """(path, base value, change value) at each leaf where two parsed JSON
    documents differ; a key one side lacks reads as <absent>."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from json_diffs(a.get(key, _ABSENT), b.get(key, _ABSENT),
                                  f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def _json_detail(fa, fb):
    """Lines naming the first SHOWN_PATHS differing paths of two JSON files."""
    with open(fa) as ha, open(fb) as hb:
        diffs = list(json_diffs(json.load(ha), json.load(hb)))
    lines = [f"    {path}: {x!r} -> {y!r}" for path, x, y in diffs[:SHOWN_PATHS]]
    if len(diffs) > SHOWN_PATHS:
        lines.append(f"    ... {len(diffs) - SHOWN_PATHS} more path(s)")
    return lines


def compare(a, b):
    """Differences between two run directories' report files: (one message per
    file, detail lines for the JSON reports among them)."""
    da, db = os.path.join(a, "out"), os.path.join(b, "out")
    fa = sorted(os.listdir(da)) if os.path.isdir(da) else []
    fb = sorted(os.listdir(db)) if os.path.isdir(db) else []
    if fa != fb:
        return [f"report files {fa} vs {fb}"], []
    _, mismatch, errors = filecmp.cmpfiles(da, db, fa, shallow=False)
    detail = []
    for name in mismatch:
        if name.endswith(".json"):
            detail.append(f"  {name}:")
            detail.extend(_json_detail(os.path.join(da, name), os.path.join(db, name)))
    return [f"{name} differs" for name in mismatch + errors], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    srcs = {"base": source_dir(args.base), "change": source_dir(args.change)}
    names = [n for n, _, _ in cases(srcs["base"])]
    if names != [n for n, _, _ in cases(srcs["change"])]:
        print("the two trees bundle different scenarios")
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="diff_reports_") as tmp, \
            concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {}
        for side, src in srcs.items():
            for name, command, cfg in cases(src):
                futures[(name, side)] = pool.submit(
                    run_case, src, command, cfg, os.path.join(tmp, side, name))
        for name in names:
            base = futures[(name, "base")].result()
            change = futures[(name, "change")].result()
            diffs, detail = compare(os.path.join(tmp, "base", name),
                                    os.path.join(tmp, "change", name))
            for label, x, y in zip(("exit code", "stdout", "stderr"), base, change):
                if x != y:
                    diffs.append(f"{label} differs" if label != "exit code"
                                 else f"exit code {x} vs {y}")
            failed += bool(diffs)
            print(f"{name}: exit {base[0]}, "
                  f"{'; '.join(diffs) if diffs else 'identical'}")
            for line in detail:
                print(line)
    print(f"{failed} of {len(names)} runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
