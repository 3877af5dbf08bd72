"""maglab: a numerical laboratory for magnetic flows on surfaces."""

from .geometry import (PhasePoint, Surface, flat_torus, sphere, planar_chart,
                       rotate90, energy)
from .field import (MagneticField, ConstantField, SinusoidalTorusField,
                    ZonalSphereField, PolynomialField, PerturbationField,
                    is_exact, add_perturbation)
from .dynamics import (flow, flow_with_variation, magnetic_curvature,
                       injectivity_time, fd_monodromy, IntegratorOptions)
from .orbits import (Section, first_return, SectionReturnMap, ClosedOrbit,
                     find_closed_orbit, classify, continue_orbit, seed_grid)
from .normalform import jet3, birkhoff_beta, twist_by_rotation_number, Jet3, TwistData
from .franks import (build_tubular_chart, build_franks_kit, compute_constants,
                     build_GA, PerturbA, franks_response, variational_response,
                     verify_cota, verify_ball_surjectivity, segment_split)
from .chaos import (grow_manifold, detect_homoclinic, certify_horseshoe,
                    dominated_splitting_check)
from .mane import (LagrangianSpec, loop_action, estimate_critical_value,
                   rotation_vector)

__version__ = "0.1.0"
