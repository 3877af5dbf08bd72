"""Tests of the benchmark harness itself (not of maglab).

    python3 -m pytest perfbench -q

They run no maglab scenario: a stub maglab tree stands in for the package
where an operation has to run end to end.
"""

import json
import math
import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def good_reports(workload):
    """Minimal reports that pass the workload's check."""
    if workload == "sphere_twist":
        return [{"orbits": {"orbits": [{"class": "elliptic"}]},
                 "twist": {"orbits": [{"relative_beta_gap": 0.01}]}}]
    if workload == "franks_ledger":
        surj = {"solved": 2, "targets": 2, "max_residual": 1e-12, "max_A_norm": 1e-3}
        return [{"franks": {"cota": {"min_margin": 5.0, "linearity_defect": 0.0},
                            "constants": {"delta1": 1e-2},
                            "surjectivity": dict(surj),
                            "surjectivity_forward": dict(surj)}}]
    if workload == "torus_survey":
        return [{"simulate": {"trajectories": [{"max_det_defect": 1e-12}]},
                 "orbits": {"orbits": [{"monodromy": [[2.0, 1.0], [1.0, 1.0]]}]},
                 "classify": {"orbits": [{"rotation_vector": {
                     "homology": [0, -1], "rho": [0.0, -1.0], "period": 1.0}}]}}]
    return [{"entropy": {"h_top_lower": 0.2},
             "critical_value": {"c_lo": -1e-5, "c_hi": 1e-5}},
            {"entropy": {"h_top_lower": math.log(2.0)}}]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_good_reports_pass(workload):
    assert workloads.check(workload, good_reports(workload)) == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_nan_anywhere_fails(workload):
    reps = good_reports(workload)
    first = next(iter(reps[0].values()))
    first["extra"] = [1.0, {"deep": float("nan")}]
    fails = workloads.check(workload, reps)
    assert any("non-finite" in f and "/extra/1/deep" in f for f in fails)


def test_missing_report_fails():
    reps = good_reports("sphere_twist")
    del reps[0]["twist"]
    assert any("missing report" in f for f in workloads.check("sphere_twist", reps))


@pytest.mark.parametrize("workload,mutate", [
    ("sphere_twist", lambda r: r[0]["twist"]["orbits"][0].update(relative_beta_gap=0.06)),
    ("sphere_twist", lambda r: r[0]["orbits"]["orbits"][0].update({"class": "hyperbolic"})),
    ("franks_ledger", lambda r: r[0]["franks"]["cota"].update(min_margin=0.99)),
    ("franks_ledger", lambda r: r[0]["franks"]["cota"].update(linearity_defect=2e-6)),
    ("franks_ledger", lambda r: r[0]["franks"]["surjectivity"].update(solved=1)),
    ("franks_ledger", lambda r: r[0]["franks"]["surjectivity_forward"].update(
        max_A_norm=0.02)),
    ("torus_survey", lambda r: r[0]["orbits"]["orbits"][0].update(
        monodromy=[[2.0, 1.0], [1.0, 1.00001]])),
    ("torus_survey", lambda r: r[0]["classify"]["orbits"][0]["rotation_vector"].update(
        homology=[0, 2])),
    ("torus_survey", lambda r: r[0]["classify"]["orbits"][0]["rotation_vector"].update(
        period=1.0 + 1e-6)),
    ("torus_survey", lambda r: r[0]["classify"]["orbits"].clear()),
    ("entropy_mane", lambda r: r[1]["entropy"].update(h_top_lower=math.log(2.0) + 1e-9)),
    ("entropy_mane", lambda r: r[0]["critical_value"].update(c_lo=-3e-4)),
    ("entropy_mane", lambda r: r[0]["entropy"].update(h_top_lower=0.0)),
])
def test_out_of_tolerance_fails(workload, mutate):
    reps = good_reports(workload)
    mutate(reps)
    assert workloads.check(workload, reps)


def test_generators_follow_the_seed():
    for name, (gen, _) in workloads.WORKLOADS.items():
        assert gen(3) == gen(3), name
    assert workloads.torus_survey(3) != workloads.torus_survey(4)
    assert workloads.sphere_twist(3) != workloads.sphere_twist(4)


STUB_SCENARIOS = textwrap.dedent("""
    import json, os
    def load_scenario(path):
        with open(path) as fh:
            return json.load(fh)
    def run_scenario(scenario, out_dir=None):
        # seed 1: a NaN in a written report; seed 2: a failed stage, which
        # run_scenario keeps in memory and does not write
        os.makedirs(out_dir, exist_ok=True)
        gap = float("nan") if scenario["seed"] == 1 else 0.01
        reports = {"orbits": {"orbits": [{"class": "elliptic"}]},
                   "twist": {"orbits": [{"relative_beta_gap": gap}]}}
        if scenario["seed"] == 2:
            reports["twist"] = {"stage": "twist", "error": "boom"}
        for name, rep in reports.items():
            if "error" not in rep:
                with open(os.path.join(out_dir, name + ".json"), "w") as fh:
                    json.dump(rep, fh)
        return (3 if scenario["seed"] == 2 else 0), reports
""")


@pytest.fixture
def stub_tree(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "maglab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "scenarios.py").write_text(STUB_SCENARIOS)
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    return tmp_path


def test_operation_with_corrupted_report_counts_as_failed(stub_tree):
    ok = run.run_op(str(stub_tree / "work"), "sphere_twist", 0, 0, 60)
    assert ok["failures"] == [] and ok["wall_s"] > 0 and ok["setup_s"] > 0
    bad = run.run_op(str(stub_tree / "work"), "sphere_twist", 1, 1, 60)
    assert any("non-finite" in f for f in bad["failures"])


def test_stage_error_kept_in_memory_counts_as_failed(stub_tree):
    rec = run.run_op(str(stub_tree / "work"), "sphere_twist", 2, 0, 60)
    assert any("stage error 'boom'" in f for f in rec["failures"])


def test_tree_digest_ignores_bytecode(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    before = run._tree_digest(str(tmp_path))
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert run._tree_digest(str(tmp_path)) == before
    (tmp_path / "a.py").write_text("x = 2\n")
    assert run._tree_digest(str(tmp_path)) != before


def test_missing_source_tree_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "sphere_twist", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) != 0


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_subtracts_nested_wrapped_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf", clock)
    tr = tracing.Tracer("r")

    def leaf():
        clock.tick(1.0)

    hot_leaf = tr.hot("mod.leaf", leaf)

    def inner():
        clock.tick(2.0)
        hot_leaf()

    span_inner = tr.span("mod.inner", inner)

    def outer():
        clock.tick(3.0)
        hot_leaf()
        span_inner()

    tr.span("mod.outer", outer)()
    assert tr.stats["mod.outer"] == [1, 7.0, 3.0]
    assert tr.stats["mod.inner"] == [1, 3.0, 2.0]
    assert tr.stats["mod.leaf"] == [2, 2.0, 2.0]
    outer_span, inner_span = tr.spans
    assert outer_span[0] == "mod.outer" and outer_span[3] is None
    assert inner_span[0] == "mod.inner" and inner_span[3] == 0
    assert tr.self_table() == {"mod": {"calls": 4, "self_s": 7.0}}


def test_raised_calls_are_counted():
    tr = tracing.Tracer("r")

    def fails():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.span("orbits.find_closed_orbit", fails)()
    assert tr.counts["orbits.find_closed_orbit.raised"] == 1
    assert tr.stack == [tr.root]
    m = tr.layer_metrics(1.0, 2.0)
    assert m["orbits.searches_failed"] == 1 and m["orbits.found_ratio"] == 0.0


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.Tracer("r").layer_metrics(1.0, 1.0))
    produced |= {"trace.overhead", "trace.counters_repeat"}
    assert produced == declared


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [5.0, 15.0, 10.0, 8.0, 12.0, 10.0, 6.0, 14.0, 10.0, 10.0]
    assert compare.verdict(base, faster, 0.1, True)[0] == "better"
    assert compare.verdict(base, slower, 0.1, True)[0] == "worse"
    assert compare.verdict(base, slower, 0.1, False)[0] == "better"
    assert compare.verdict(base, list(base), 0.1, True)[0] == "unchanged"
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"
    v, st = compare.verdict(base, faster, 0.1, True)
    assert st["win_frac"] == 1.0 and st["pairs"] == 10


def result(seed, started, wall):
    return {"seed": seed, "started": started, "failed": 0, "attempted": 1,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_compare_pairs_by_seed_and_checks_overlap():
    base = [result(2, 0.0, 2.0), result(1, 10.0, 1.0), result(3, 20.0, 3.0)]
    change = [result(1, 5.0, 1.5), result(2, 15.0, 2.5)]
    pairs = compare.paired(base, change)
    assert [(b["seed"], c["seed"]) for b, c in pairs] == [(1, 1), (2, 2)]
    assert compare.overlap_in_time(pairs)
    later = [result(1, 100.0, 1.5), result(2, 110.0, 2.5)]
    assert not compare.overlap_in_time(compare.paired(base, later))


def test_compare_drift_across_pairs_cancels():
    # identical code; the host slows steadily over the runs, which alternate
    base = [10.0 * (1.0 + 0.05 * i) for i in range(10)]
    change = [b * (1.0 + (0.01 if i % 2 else -0.01)) for i, b in enumerate(base)]
    assert compare.verdict(base, change, 0.1, True)[0] == "unchanged"


def test_host_speed_scaling():
    s = hostspeed.Sampler()
    ref = hostspeed.REF_S
    # one sample a second: reference speed, then a host twice as slow, with
    # one descheduled sample on each side that must not count
    durs = [ref, ref, 5 * ref, ref, ref, ref,
            2 * ref, 2 * ref, 8 * ref, 2 * ref, 2 * ref, 2 * ref]
    s.samples = [(float(i), d) for i, d in enumerate(durs)]
    # [0.5, 3.5] holds the samples at 1, 2 and 3 s, [8.5, 11.5] those at 9-11 s
    assert s.scaled(0.5, 3.5) == pytest.approx((3.0 - 7 * ref, 3.0 - 7 * ref))
    assert s.scaled(8.5, 11.5) == pytest.approx(((3.0 - 6 * ref) / 2, 3.0 - 6 * ref))
    # before the first and after the last sample
    assert s.scaled(-1.0, 0.0) == pytest.approx((1.0, 1.0))
    assert s.scaled(12.0, 13.0) == pytest.approx((0.5, 1.0))
    scaled, raw = s.scaled(-1.0, 13.0)
    assert raw == pytest.approx(14.0 - sum(durs))


def test_sampler_samples_while_work_runs():
    s = hostspeed.Sampler()
    s.start()
    t0 = hostspeed.clock()
    while hostspeed.clock() - t0 < 3 * hostspeed.INTERVAL_S:
        sum(i * i for i in range(1000))
    s.stop()
    assert len(s.samples) >= 4
    scaled, raw = s.scaled(t0, hostspeed.clock())
    assert 0.0 < raw < hostspeed.clock() - t0 and scaled > 0.0
