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
    assert mod.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: 5 lines, 4 defaulted parameters\n"
