"""The pipeline's default settings, for tests that call the library directly.

The library takes these settings as required arguments; each value is read
here from its one home, the stage keys in `STAGE_TABLE`, a scenario's
defaults and `IntegratorOptions()`, so a test that leaves one out gets what
a stage gets.
"""

from maglab.dynamics import IntegratorOptions
from maglab.scenarios import STAGE_TABLE, Scenario

# tol, max_time, half_width and class_tol of the orbits stage
ORBITS = STAGE_TABLE["orbits"].keys
# k_range, bisection_tol and modes (among others) of the critical-value stage
CRITICAL_VALUE = STAGE_TABLE["critical-value"].keys
# the random seed and the integrator options of a scenario that sets none
SEED = Scenario({}).random_seed
OPTIONS = IntegratorOptions()


def orbit_search(**given):
    """find_closed_orbit's settings: the orbits stage's defaults and
    `OPTIONS`, with the given ones in their place."""
    return {**ORBITS, "options": OPTIONS, **given}
