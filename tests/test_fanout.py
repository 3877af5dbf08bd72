"""The fork-join of `maglab.fanout` and its two callers in `normalform`.

The CPU count is forced through `fanout._cpus`, so the forked path runs on
any host with `os.fork`; every test that forks checks that no child is left
behind.
"""

import json
import os
import signal

import numpy as np
import pytest

from maglab import fanout, scenarios
from maglab.dynamics import IntegratorOptions
from maglab.errors import EscapeError, FixedPointError, WorkerError
from maglab.field import MagneticField, ZonalSphereField
from maglab.geometry import PhasePoint, sphere
from maglab.normalform import jet3, twist_by_rotation_number
from maglab.orbits import SectionReturnMap, find_closed_orbit
from maglab.scenarios import Scenario, run_scenario

from oracles import TwistMap
from stage_defaults import orbit_search

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

TIGHT = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
SPHERE_TWIST = os.path.join(os.path.dirname(scenarios.__file__), "scenarios",
                            "sphere_twist.json")


def cpus(monkeypatch, n):
    monkeypatch.setattr(fanout, "_cpus", lambda: n)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def sphere_orbit():
    """The bundled sphere_twist scenario's elliptic orbit."""
    orb = find_closed_orbit(sphere(1.0), MagneticField(ZonalSphereField(1.6)), 0.5,
                            PhasePoint(0, 0.35, 0.0, 0.0, 0.5),
                            **orbit_search(tol=1e-10, max_time=30.0, options=TIGHT))
    assert orb.floquet_class == "elliptic"
    return orb


def test_forked_twist_paths_match_in_process(sphere_orbit, monkeypatch):
    """jet3 and the rotation-number fit on a section return map give `==`
    results on one CPU and forked across two."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    rmap = sphere_orbit.return_map
    runs = {}
    for n in (1, 2):
        cpus(monkeypatch, n)
        runs[n] = (jet3(rmap, (0.0, 0.0), fd_scale=2e-3),
                   twist_by_rotation_number(rmap, [0.01, 0.02], n_iter=20))
        no_children_left()
    assert len(forks) == 2  # one per fan-out on two CPUs
    (jet1, fit1), (jet2, fit2) = runs[1], runs[2]
    for name in ("coeffs", "errors", "coarse_coeffs"):
        assert np.array_equal(getattr(jet1, name), getattr(jet2, name))
    assert jet1.fixed_point_residual == jet2.fixed_point_residual
    assert fit1 == fit2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_results_come_back_in_task_order(n, monkeypatch):
    cpus(monkeypatch, n)
    assert fanout.run(lambda t: t * t, range(7)) == [0, 1, 4, 9, 16, 25, 36]
    no_children_left()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_failing_task_in_task_order_raises(n, monkeypatch):
    """Tasks 2 and 4 raise: task 2's error comes back, type and message, on
    any number of CPUs, whichever share each task falls in."""
    cpus(monkeypatch, n)

    def fn(t):
        if t == 2:
            raise EscapeError("task 2")
        if t == 4:
            raise FixedPointError("task 4")
        return t

    with pytest.raises(EscapeError, match="^task 2$"):
        fanout.run(fn, range(6))
    no_children_left()


def test_a_share_stops_at_its_first_failure(tmp_path, monkeypatch):
    """On two CPUs the child runs tasks 3, 4 and 5; task 4 raises, and task 5
    never runs."""
    cpus(monkeypatch, 2)
    log = tmp_path / "ran"

    def fn(t):
        with open(log, "a") as fh:
            fh.write(f"{t}\n")
        if t == 4:
            raise KeyError(t)
        return t

    with pytest.raises(KeyError):
        fanout.run(fn, range(6))
    no_children_left()
    assert sorted(map(int, log.read_text().split())) == [0, 1, 2, 3, 4]


def test_a_killed_child_raises_worker_error(monkeypatch):
    """A child that dies mid-task raises WorkerError; an alarm bounds the
    wait, so a hang fails the test instead of stalling it."""
    cpus(monkeypatch, 2)

    def fn(t):
        if t == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return t

    def timeout(signum, frame):
        raise TimeoutError("fan-out still waiting after 20 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        with pytest.raises(WorkerError, match="ended without its results"):
            fanout.run(fn, range(4))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    no_children_left()


def test_closed_form_maps_and_plain_functions_run_in_process(monkeypatch):
    """Only an oracle with `fan_out` forks: a closed-form map and a plain
    function run as before, even with two CPUs."""
    cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    tm = TwistMap(0.3, 2.0)
    for oracle in (tm, lambda z: tm(z)):
        jet3(oracle, (0.0, 0.0), fd_scale=5e-3)
        twist_by_rotation_number(oracle, [0.01, 0.02], n_iter=20)


class _Escaping(SectionReturnMap):
    """A rotation by 0.3 turns inside radius 0.015 and the same rotation
    scaled by 1000 outside it: the fit's iterates escape from radius 0.02."""

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        c, s = np.cos(0.6 * np.pi), np.sin(0.6 * np.pi)
        w = np.array([c * z[0] - s * z[1], s * z[0] + c * z[1]])
        return w if np.hypot(z[0], z[1]) < 0.015 else 1e3 * w


def test_escaping_twist_fit_ends_the_run_with_exit_3(tmp_path, monkeypatch):
    """A twist stage whose return map's iterates escape ends run_scenario
    with exit 3 and the error in the twist report, the same whether the
    escaping chain ran in a forked child or in-process."""
    real_orbits = scenarios._STAGES["orbits"]

    def escaping_orbits(sc, st, ctx):
        rep = real_orbits(sc, st, ctx)
        for orb in ctx["orbits"]:
            rm = orb.return_map
            orb.return_map = _Escaping(rm.section, rm.max_time, rm.options)
        return rep

    monkeypatch.setitem(scenarios._STAGES, "orbits", escaping_orbits)
    with open(SPHERE_TWIST) as fh:
        cfg = json.load(fh)
    cfg["pipeline"][1].update(radii=[0.01, 0.02], n_iter=20)
    twist = {}
    for n in (1, 2):
        cpus(monkeypatch, n)
        code, reports = run_scenario(Scenario(cfg), out_dir=str(tmp_path / str(n)))
        no_children_left()
        assert code == 3
        twist[n] = reports["twist"]
    assert twist[1] == twist[2]
    assert twist[1]["error"].startswith("iterates escaped (radius ")
