"""The bench harness's tracing names still resolve in maglab.

perfbench/tracing.py wraps maglab functions by name from outside the
package.  This loads it as it is and checks every name it will look up, so
a rename in maglab fails here rather than in a bench run.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TRACING = _tracing()


@pytest.mark.parametrize("module, path, name", _TRACING.SPANS + _TRACING.HOT,
                         ids=[n for _, _, n in _TRACING.SPANS + _TRACING.HOT])
def test_traced_name_resolves(module, path, name):
    owner = importlib.import_module(f"maglab.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_integrate_takes_the_traced_callbacks():
    from maglab.integrate import integrate

    params = inspect.signature(integrate).parameters
    assert {"rhs", "post_step", "observer"} <= set(params)


def test_franks_kit_has_window_steps():
    from maglab.franks import FranksKit

    assert FranksKit.n_window_steps > 0
