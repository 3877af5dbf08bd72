import math

import pytest
from hypothesis import settings

from maglab.geometry import flat_torus, planar_chart, sphere, PhasePoint
from maglab.field import (
    ConstantField,
    MagneticField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from maglab.dynamics import IntegratorOptions

# Example run times vary with machine load, so no example has a deadline;
# example counts stay at hypothesis' defaults.
settings.register_profile("maglab", deadline=None)
settings.load_profile("maglab")


@pytest.fixture(scope="session")
def torus():
    return flat_torus()


@pytest.fixture(scope="session")
def unit_sphere():
    return sphere(1.0)


@pytest.fixture(scope="session")
def disk():
    return planar_chart(3.0, math.pi)


@pytest.fixture(scope="session")
def zero_field():
    return MagneticField(ConstantField(0.0))


@pytest.fixture(scope="session")
def minus_one_field():
    return MagneticField(ConstantField(-1.0))


@pytest.fixture(scope="session")
def sin_field():
    return MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0))


@pytest.fixture(scope="session")
def tight_options():
    return IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)


@pytest.fixture(scope="session")
def disk_seed():
    # the constant-intensity example: energy 1/2 on the flat disk
    return PhasePoint(0, -1.0, 0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def disk_circle_seed():
    # initial state whose trajectory is the origin-centered unit circle
    return PhasePoint(0, -1.0, 0.0, 0.0, 1.0)
