import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _diff_reports():
    path = os.path.join(ROOT, "tools", "diff_reports.py")
    spec = importlib.util.spec_from_file_location("_diff_reports", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
