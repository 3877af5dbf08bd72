"""Every stage record is its report.

The stages write `dataclasses.asdict` of their records, so a report in
memory is the JSON it wrote, and a record reads back from the written file
as Type(**report): a stored certificate can be re-checked from its file
alone.
"""

import functools
import json
import math
import operator
import os
from dataclasses import asdict, fields

import numpy as np
import pytest

import maglab
from maglab.chaos import EntropyReport
from maglab.franks import CotaReport, SurjectivityReport
from maglab.mane import (
    _LOOP_KINDS,
    CriticalBracket,
    FourierLoop,
    LagrangianSpec,
    RotationVector,
    RoundedRectangleLoop,
    SinPrimitiveForm,
    loop_action,
    verify_witness,
)
from maglab.normalform import TwistData, TwistFit
from maglab.scenarios import STAGE_TABLE, Scenario, load_scenario, run_scenario

from test_tools import _tool

SCENARIO_DIR = os.path.join(os.path.dirname(maglab.__file__), "scenarios")
BUNDLED = sorted(n for n in os.listdir(SCENARIO_DIR) if n.endswith(".json"))


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """name -> (out_dir, reports) of one run of each bundled scenario."""
    runs = {}
    for name in BUNDLED:
        out = str(tmp_path_factory.mktemp(name.removesuffix(".json")))
        code, reports = run_scenario(load_scenario(os.path.join(SCENARIO_DIR, name)),
                                     out_dir=out)
        assert code == 0, (name, reports)
        runs[name] = out, reports
    return runs


def _written(out, kind):
    with open(os.path.join(out, STAGE_TABLE[kind].report)) as fh:
        return json.load(fh)


def _read_back(cls, report):
    return cls(**{f.name: report[f.name] for f in fields(cls)})


def _lagrangian(sc):
    entry = next(st for st in sc.pipeline if st["stage"] == "critical-value")
    return LagrangianSpec(sc.surface, entry["eta"])


@pytest.mark.parametrize("name", BUNDLED)
def test_reports_equal_the_files_they_wrote(bundled, name):
    """== holds only if no record keeps a tuple or a non-string key; the
    orbits report is compared with orbits.json as rewritten after twist."""
    out, reports = bundled[name]
    assert reports
    for kind, rep in reports.items():
        assert _written(out, kind) == rep, (name, kind)
    if "twist" in reports:
        assert any("twist" in r for r in reports["orbits"]["orbits"])


def test_critical_bracket_reads_back_and_rechecks_its_witness(bundled, tmp_path):
    """The bracket rebuilt from critical_value.json re-evaluates its witness
    to the stored action, bit for bit: for the bundled scenario and for a
    sin-field config whose witness is found at k > 0."""
    sin = Scenario(_tool("diff_reports").CRITICAL_SIN)
    code, _ = run_scenario(sin, out_dir=str(tmp_path))
    assert code == 0
    cases = [(load_scenario(os.path.join(SCENARIO_DIR, "critical_value.json")),
              bundled["critical_value.json"][0]), (sin, str(tmp_path))]
    for sc, out in cases:
        rep = _written(out, "critical-value")
        br = _read_back(CriticalBracket, rep)
        assert br.witness_action < 0.0
        assert verify_witness(_lagrangian(sc), br) == rep["witness_action"]
    assert br.c_lo > 0.0  # the sin config's witness is found at k > 0


@pytest.mark.parametrize("loop", [
    RoundedRectangleLoop((0.5, 0.25), (0.15, 0.09), 2.5, 0.7),
    FourierLoop(1.3, np.array([[0.5, 0.2, 0.01, 0.0, 0.03], [0.5, 0.0, -0.02, 0.2, 0.0]])),
], ids=["rounded_rectangle", "fourier"])
def test_witness_loop_rebuilds_from_its_description(torus, loop):
    """A loop's describe(), through JSON and `_LOOP_KINDS`, samples == the
    original, and verify_witness evaluates the loop it describes."""
    rest = json.loads(json.dumps(loop.describe()))
    kind = rest.pop("kind")
    again = _LOOP_KINDS[kind](**rest)
    assert type(again) is type(loop) and again.describe() == loop.describe()
    for got, want in zip(again.sample(64), loop.sample(64)):
        assert np.array_equal(got, want)
    lag = LagrangianSpec(torus, SinPrimitiveForm(1.0, (1, 0)))
    br = CriticalBracket(0.1, 0.2, loop.describe(), math.nan, {})
    assert verify_witness(lag, br) == loop_action(lag, loop, 0.1)


# (scenario, report kind, path to the record in the report, record type,
# a check of the certificate made on the record alone)
_RECORDS = [
    ("sphere_twist.json", "twist", ("orbits", 0, "jet"), TwistData,
     lambda r: all(r.nonresonant.values()) and r.verdict == (
         "twist" if abs(r.beta) > 3.0 * r.beta_error else "no-twist")),
    ("sphere_twist.json", "twist", ("orbits", 0, "fit"), TwistFit,
     lambda r: len(r.radii) == len(r.rotation_numbers) > 1),
    ("franks_verify.json", "franks-verify", ("cota",), CotaReport,
     lambda r: r.min_margin == min(r.margins) >= 1.0 and r.samples == len(r.margins)),
    ("franks_verify.json", "franks-verify", ("surjectivity",), SurjectivityReport,
     lambda r: r.targets == len(r.details) == r.solved),
    ("franks_verify.json", "franks-verify", ("surjectivity_forward",),
     SurjectivityReport, lambda r: r.targets == len(r.details) == r.solved),
    ("torus_hyperbolic.json", "classify", ("orbits", 0, "rotation_vector"),
     RotationVector, lambda r: r.rho == [n / r.period for n in r.homology]),
    ("critical_value.json", "critical-value", (), CriticalBracket,
     lambda r: r.c_lo <= r.c_hi and r.witness_action < 0.0),
    ("standard_map_entropy.json", "entropy", (), EntropyReport,
     lambda r: r.status == "certified" and r.h_top_lower == math.log(
         r.horseshoe["N"]) / (r.horseshoe["k"] * r.horseshoe["T_ret"])),
]


@pytest.mark.parametrize("name, kind, path, cls, check", _RECORDS,
                         ids=[f"{r[0]}:{'.'.join(map(str, r[2])) or r[1]}"
                              for r in _RECORDS])
def test_record_reads_back_from_its_file(bundled, name, kind, path, cls, check):
    """Type(**section) of the written report gives back the section (a nested
    section has no key but its fields) and passes its certificate's check."""
    section = functools.reduce(operator.getitem, path, _written(bundled[name][0], kind))
    record = _read_back(cls, section)
    assert asdict(record) == (section if path else
                              {f.name: section[f.name] for f in fields(cls)})
    assert check(record)
