"""Geometry of once-punctured tori built from ideal quadrilaterals.

Closed-form laws for random cross ratios and geodesic lengths, the
Fuchsian group and accessory-parameter machinery connecting a
quadrilateral's cross ratio to the modulus of the rectangular torus it
glues into, and Monte Carlo checks for all of it.
"""
from __future__ import annotations

from .closedform import (
    LENGTH_THRESHOLD,
    QuadCrInverseCdf,
    crossratio_cdf,
    crossratio_pdf,
    dilog,
    length_branch_cdf,
    length_branch_median,
    length_cdf,
    length_mean,
    length_pdf,
    length_pdf_dual,
    perpendicular_length,
    quad_cr_cdf,
    quad_cr_median,
    quad_cr_pdf,
    sample_length_values,
    sample_quad_cr_values,
    star_cdf,
    star_pdf,
)
from .hypgeom import (
    CrossRatio,
    MoebiusMap,
    canonical_representative,
    cross_ratio,
    s4_orbit,
)
from .lame import (
    TAU_MAX,
    TAU_MIN,
    AccessorySolve,
    BracketError,
    CircleInvariants,
    LameEndpointData,
    SolverFailure,
    circle_invariants,
    integrate_lame,
    solve_accessory,
)
from .mc import (
    PAIRING_PROBABILITY,
    EmpiricalSummary,
    McConfig,
    run_law,
)
from .modmap import (
    CrMapTable,
    asymptotic_bounds,
    build_cr_table,
    cr_of_modulus,
    modulus_of_cr,
    modulus_pdf,
    quasimobius_K,
    summary_stats,
    teich_pdf,
)
from .torusgroup import (
    GeneratorPair,
    IsometricCircle,
    TorusSample,
    angle_relation,
    commutator,
    commutator_trace_general,
    compose,
    inverse,
    isometric_circle,
    nonrectangular_pair,
    quad_cross_ratio_from_group,
    rectangular_generators,
    sample_torus,
    tangency_vertices,
)

__version__ = "0.1.0"
