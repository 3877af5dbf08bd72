"""One benchmark operation, run in a fresh Python process.

    python3 child.py SPEC.json SPAWN_TIME

SPEC names the maglab source tree, the scenario configs of the operation,
their report directories and a result path.  The child imports maglab from
that tree, loads every scenario (set-up), then runs each pipeline through
`maglab.scenarios.run_scenario`, the entry point behind `maglab run`.  It
writes its timings, peak memory, the errors of failed stages and, when
traced, the per-layer numbers and spans to the result path.  A probe
(`"probe": true`) stops after set-up.

Set-up time runs from SPAWN_TIME, the parent's time.monotonic() just before
it started this process, to the end of loading; both ends read
CLOCK_MONOTONIC, which all processes of the machine share.  An untraced
child samples the host's speed from its first line to its end
(hostspeed.py) and reports setup_s and wall_s scaled to the reference host
speed, next to the raw times (raw_setup_s, raw_wall_s).  A traced child does
not sample, so that no sample lands inside a span; its times are raw.
"""

import json
import os
import resource
import sys
import time

from hostspeed import Sampler, clock


def main(spec_path, t_spawn):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sampler = None if spec["trace"] else Sampler()
    if sampler is not None:
        sampler.start()
    src = spec["src"]
    sys.path.insert(0, src)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
    import maglab
    from maglab.scenarios import load_scenario, run_scenario

    where = os.path.dirname(os.path.abspath(maglab.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"maglab imported from {where}, not from {src}")
    if tracer is not None:
        tracer.install()
    scenarios = [load_scenario(p) for p in spec["scenarios"]]
    t_loaded = clock()
    result = {}
    if not spec["probe"]:
        codes, reports = [], []
        cpu0 = time.process_time()
        t0 = clock()
        for sc, out in zip(scenarios, spec["out_dirs"]):
            if tracer is not None:
                code, reps = tracer.span("scenarios.run_scenario", run_scenario)(
                    sc, out_dir=out)
            else:
                code, reps = run_scenario(sc, out_dir=out)
            codes.append(code)
            reports.append(reps)
        t_end = clock()
        cpu = time.process_time() - cpu0
        # A failed stage writes no report file: keep its error from memory.
        errors = [[i, kind, rep["error"]] for i, reps in enumerate(reports)
                  for kind, rep in reps.items() if "error" in rep]
        result.update(codes=codes, stage_errors=errors, cpu_s=cpu)
        if tracer is not None:
            wall = t_end - t0
            result.update(wall_s=wall,
                          layer_metrics=tracer.layer_metrics(cpu, wall),
                          work_counters=tracer.work_counters(),
                          self_table=tracer.self_table(),
                          spans=tracer.spans)
    if sampler is None:
        result["setup_s"] = t_loaded - t_spawn
    else:
        sampler.stop()
        result["setup_s"], result["raw_setup_s"] = sampler.scaled(t_spawn, t_loaded)
        if not spec["probe"]:
            result["wall_s"], result["raw_wall_s"] = sampler.scaled(t0, t_end)
        result["host_samples"] = len(sampler.samples)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
