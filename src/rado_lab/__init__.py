"""Exact polytope-normed geometry and random unit-distance graphs.

The library makes a family of desk-scale experiments computable with
exact rational arithmetic: gauge norms of symmetric polytope balls, the
max-norm direct-sum decomposition of a finite-dimensional normed space,
the explicit step-isometry family, unit-distance Bernoulli graphs over
typical finite samples, and back-and-forth partial isomorphisms on
fibred samples.
"""

from .errors import (
    BadFile,
    BadGraph,
    BadRational,
    CrossCheckFailure,
    DegenerateSpan,
    DimensionMismatch,
    DuplicatePoint,
    IndexOutOfRange,
    NotAffineBasis,
    NotAnIsometry,
    NotInjective,
    NotOnSphere,
    NotSymmetric,
    NotUnitNorm,
    OutOfDomain,
    RadoLabError,
    SingularMatrix,
    TooManyVertices,
    UnknownBuiltin,
    UnknownSubcommand,
    WindowTooSmall,
)
from .geometry import (
    BUILTIN_BALLS,
    PolytopeBall,
    closed_ball_membership,
    cross_polytope_ball,
    cube_ball,
    hexagon_ball,
    hexagonal_prism_ball,
    is_extreme_point,
    is_extreme_via_balls,
    l1_plane_ball,
    norm,
    square_ball,
    validate_ball,
)
from .decomposition import (
    ExtremeLine,
    LatticeCoeffs,
    LinearIsometry,
    LinfDecomposition,
    LinfDirection,
    LinfRejection,
    extreme_lines,
    is_linf_direction,
    lattice_cover,
    linear_isometry_group,
    linf_decomposition,
    linf_directions,
    max_well_spanned_subspace,
)
from .step_isometry import (
    FactorizedStepIsometry,
    MonotoneBijection01,
    StepIsometrySpec,
    affine_isometry_from_basis,
    apply_factorized,
    apply_linf,
    check_factorization_consistency,
    random_step_isometry,
    verify_step_isometry,
)
from .random_graphs import (
    GeomGraph,
    PointSample,
    bernoulli_subgraph,
    bj_audit,
    edge_agreement_probability,
    sample_typical_points,
    unit_graph,
)
from .back_forth import (
    BfReport,
    FibreGraph,
    FibredSample,
    PartialIso,
    S0Gadget,
    attach_s0_gadget,
    bf_run,
    bf_step,
    make_fibred_sample,
    s0_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
