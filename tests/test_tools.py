import glob
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _diff_reports():
    return _tool("diff_reports")


def test_json_diffs_name_paths_and_values():
    mod = _diff_reports()
    a = {"orbits": [{"trace": 1.5, "eigenvalues": [2.0, 0.5]}, {"class": "e"}],
         "n": 2, "same": [1, 2]}
    b = {"orbits": [{"trace": 1.25}, {"class": "e"}], "n": [2, 3], "same": [1, 2]}
    assert list(mod.json_diffs(a, b)) == [
        ("$.n", 2, [2, 3]),
        ("$.orbits[0].eigenvalues", [2.0, 0.5], "<absent>"),
        ("$.orbits[0].trace", 1.5, 1.25),
    ]
    assert list(mod.json_diffs(a, json.loads(json.dumps(a)))) == []


def test_compare_lists_the_first_differing_paths(tmp_path):
    mod = _diff_reports()
    for side, values in (("a", range(8)), ("b", range(1, 9))):
        out = tmp_path / side / "out"
        out.mkdir(parents=True)
        (out / "r.json").write_text(json.dumps({"v": list(values)}))
        (out / "same.csv").write_text("x\n")
    diffs, detail = mod.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert diffs == ["r.json differs"]
    assert detail[0] == "  r.json:"
    assert detail[1] == "    $.v[0]: 0 -> 1"
    assert len(detail) == 2 + mod.SHOWN_PATHS
    assert detail[-1] == f"    ... {8 - mod.SHOWN_PATHS} more path(s)"


def test_cases_run_each_bundled_stage_through_its_subcommand():
    mod = _diff_reports()
    src = os.path.join(ROOT, "src")
    cases = mod.cases(src)
    names = [name for name, _, _ in cases]
    assert len(set(names)) == len(names)
    bundled = sorted(glob.glob(os.path.join(src, "maglab", "scenarios", "*.json")))
    want = []
    for path in bundled:
        name = os.path.basename(path)[:-5]
        with open(path) as fh:
            cfg = json.load(fh)
        want.append((name, "run", cfg))
        want += [(f"{name}.{st['stage']}", st["stage"], cfg) for st in cfg["pipeline"]]
    assert cases[:len(want)] == want
    # then the chart-switch config, which no bundled scenario duplicates
    assert cases[len(want)] == ("chart_switch", "run", mod.CHART_SWITCH)
    assert mod.CHART_SWITCH not in [cfg for _, _, cfg in want]
    assert mod.CHART_SWITCH["surface"]["kind"] == "sphere"
    # then the flow-entropy configs, whose entropy stages read an orbit
    flow = [(name, "run", cfg) for name, cfg in mod.FLOW_ENTROPY.items()]
    assert cases[len(want) + 1:len(want) + 1 + len(flow)] == flow
    for _, _, cfg in flow:
        assert cfg["pipeline"][-1]["stage"] == "entropy"
        assert "map" not in cfg["pipeline"][-1]
    # then the sine critical-value config, whose k > 0 searches find witnesses
    sin = len(want) + 1 + len(flow)
    assert cases[sin] == ("critical_sin", "run", mod.CRITICAL_SIN)
    assert [st["stage"] for st in mod.CRITICAL_SIN["pipeline"]] == ["critical-value"]
    assert mod.CRITICAL_SIN["pipeline"][0]["eta"]["kind"] == "sin_primitive"
    # then the disk example under a polynomial field, the one run of that kind
    with open(os.path.join(src, "maglab", "scenarios", "disk_example.json")) as fh:
        disk = json.load(fh)
    assert cases[sin + 1] == ("polynomial_field", "run", mod.POLYNOMIAL)
    assert mod.POLYNOMIAL["field"]["kind"] == "polynomial"
    assert all(mod.POLYNOMIAL[key] == disk[key] for key in ("surface", "seeds", "pipeline"))
    kinds = [cfg.get("field", {}).get("kind") for _, _, cfg in cases]
    assert kinds.count("polynomial") == 1
    # they and the benchmark workloads run whole pipelines only
    assert {command for _, command, _ in cases[len(want):]} == {"run"}
    assert len(cases) - sin - 2 == len(mod.SEEDS) * sum(
        len(make(1)) for make, _ in mod._workloads().values())


def test_run_case_runs_the_given_subcommand(tmp_path):
    mod = _diff_reports()
    with open(os.path.join(ROOT, "src", "maglab", "scenarios",
                           "torus_geodesic.json")) as fh:
        cfg = json.load(fh)
    code, out, err = mod.run_case(os.path.join(ROOT, "src"), "orbits", cfg,
                                  str(tmp_path / "w"))
    assert (code, out, err) == (0, b"", b"")
    assert os.listdir(tmp_path / "w" / "out") == ["orbits.json"]


def test_src_stats_counts_lines_and_defaulted_parameters(tmp_path, capsys):
    pkg = tmp_path / "src" / "maglab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def f(x, y=1, *, z=None, w):\n"
        "    return lambda u, v=2: u\n")
    (pkg / "b.py").write_text(
        "class C:\n"
        "    def g(self, *args, k=None, **kw):\n"
        "        pass\n")
    (pkg / "notes.txt").write_text("def h(a=1):\n")  # not a module
    mod = _tool("src_stats")
    # y, z and v in a.py, k in b.py; the keyword-only w has no default
    assert mod.stats(str(tmp_path)) == (5, 4)
    assert mod.stats(str(tmp_path / "src")) == (5, 4)
    # each function and lambda with a default, by name, with its parameters
    assert mod.defaulted(str(tmp_path)) == [
        "a.f(y, z)", "a.f.<lambda>(v)", "b.C.g(k)"]
    assert mod.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"{tmp_path}: 5 lines, 4 defaulted parameters, 3 uncalled definitions\n"
        "  defaulted: a.f(y, z), a.f.<lambda>(v), b.C.g(k)\n"
        "  uncalled: a.f, b.C, b.C.g\n")


def test_src_stats_names_the_uncalled_definitions(tmp_path, capsys):
    pkg = tmp_path / "src" / "maglab"
    pkg.mkdir(parents=True)
    # __init__.py and __all__ name `unused`, which only makes it public
    (pkg / "__init__.py").write_text("from .a import Runner, unused\n")
    (pkg / "a.py").write_text(
        "__all__ = ['Runner', 'unused']\n"
        "def used(x):\n"
        "    return x\n"
        "def unused():\n"
        "    pass\n"
        "class Runner:\n"
        "    def __call__(self):\n"
        "        return getattr(self, 'go')()\n"
        "    def go(self):\n"
        "        return used(1)\n")
    (pkg / "b.py").write_text("from .a import Runner\nRESULT = Runner()()\n")
    mod = _tool("src_stats")
    assert mod.uncalled(str(tmp_path)) == ["a.unused"]
    assert mod.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["  uncalled: a.unused"]


def test_step_cost_prints_each_layer_with_its_counters(capsys):
    mod = _tool("step_cost")
    assert mod.main(["--reps", "1", ROOT]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    assert head == f"{ROOT}:"
    assert [line.split()[0] for line in lines] == [
        "rhs", "step", "stage", "DenseStep", "monitor", "return", "twist", "torus10",
        "lookup", "window", "loop", "bracket", "certify"]
    counts = {line.split()[0]: line[line.index("("):] for line in lines}
    # the replayed integrate calls take the recorded return's steps
    n_steps = counts["DenseStep"].split()[0][1:]
    assert counts["step"].startswith(f"({n_steps} steps, 0 rejected")
    assert counts["monitor"].startswith(f"({n_steps} calls, ")
    assert counts["monitor"].endswith(" offset_at calls per return)")
    assert int(counts["monitor"].split()[2].replace(",", "")) > 0
    assert counts["return"].startswith(f"(1 return, {n_steps} steps")
    # jet3's 41 returns, the fit's 4 for its Jacobian and 50 per radius
    assert counts["twist"].startswith("(145 returns in-process; ")
    assert counts["twist"].endswith(f" fanned out over {len(os.sched_getaffinity(0))} CPUs)")
    assert counts["lookup"].startswith("(100 lookups over ")
    assert counts["lookup"].endswith(" ns per time)")
    assert counts["window"].startswith("(4,096 window steps; ")
    assert counts["window"].endswith(" ns per window step)")
    loop = "(k 0.3, 8 modes, 8 restarts, maxiter 200; no witness; "
    assert counts["loop"].startswith(loop)
    assert counts["loop"].endswith(" ms in 265 _loop_functional calls)")
    assert counts["bracket"] == "(critical_value.json; 16 searches)"
    # one points call per box and iterate: 3 boxes x 20 iterates
    assert counts["certify"] == ("(StandardMap(1.5), 3 boxes, k 1..20; "
                                 "86,400 point images, 60 oracle calls)")


def _horseshoe_case():
    """The bundled horseshoe-map scenario as traffic_cover's one case."""
    path = os.path.join(ROOT, "src", "maglab", "scenarios", "horseshoe_entropy.json")
    with open(path) as fh:
        return [("horseshoe_entropy", "run", json.load(fh))]


def test_traffic_cover_lists_the_statements_no_run_reaches():
    """On the horseshoe-map scenario, manifold growth never runs (the
    horseshoe map's strips are fixed) and the certifier does: every
    statement of grow_manifold is listed, and certify_horseshoe's first is
    not."""
    mod = _tool("traffic_cover")
    src = os.path.join(ROOT, "src")
    missed = mod.unexecuted(src, _horseshoe_case(), None)
    stmts = mod.statements(os.path.join(src, "maglab", "chaos.py"))
    grow = [r[0] for r in stmts["chaos.grow_manifold"]]
    assert missed["chaos.grow_manifold"] == grow
    certify = [r[0] for r in stmts["chaos.certify_horseshoe"]]
    assert certify[0] not in missed.get("chaos.certify_horseshoe", [])
    assert len(missed.get("chaos.certify_horseshoe", [])) < len(certify)


def test_traffic_cover_tests_reach_what_the_runs_do_not():
    """With a pytest selection after the run, a statement only the tests
    execute is no longer listed and one neither reaches still is: the
    horseshoe scenario never maps a standard map's points and a test of
    tests/test_maps.py does, while neither grows a manifold."""
    mod = _tool("traffic_cover")
    src = os.path.join(ROOT, "src")
    runs = mod.unexecuted(src, _horseshoe_case(), None)
    test = os.path.join(ROOT, "tests", "test_maps.py")
    both = mod.unexecuted(src, _horseshoe_case(),
                          [f"{test}::test_standard_map_points_fail_where_sin_raises"])
    assert "maps.StandardMap.points" in runs
    assert "maps.StandardMap.points" not in both
    assert both["chaos.grow_manifold"] == runs["chaos.grow_manifold"]
    assert set(both) <= set(runs)
