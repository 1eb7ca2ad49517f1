"""Entropy distance from exponential families of quantum states.

Block-diagonal matrix algebras, relative entropy projections onto
exponential families, mean value sets with exposed / non-exposed face
classification, the three closures (geodesic, reverse-information, norm),
the cone-model metamorphosis with the Staffelberg and swallow families, and
the local-maximizer certificate for the entropy distance.
"""

from .linalg import (
    Algebra,
    HermitianElement,
    SpectralData,
    apply_matrix_function,
    coords,
    diagonal,
    dexp,
    dlog,
    eigh,
    embed_block,
    expm,
    frechet_derivative,
    from_coords,
    gram_schmidt,
    hs_inner,
    identity,
    logm,
    trace_norm,
    traceless_part,
    zero,
)
from .states import (
    Projector,
    State,
    SupportBasis,
    compress,
    exposed_face_membership,
    log_on_support,
    max_eig_data,
    pinsker_gap,
    pure_state,
    relative_entropy,
    support_projector,
    tracial_state,
    vn_entropy,
)
from .family import (
    ExponentialFamily,
    ProjectionResult,
    distance_continuation,
    entropy_distance,
    exp1,
    free_energy,
    ln0,
    make_compressed_family,
    make_family,
    mean_value_projection,
    project_to_family,
    pythagorean_residual,
)
from .boundary import (
    BoundaryClassification,
    BoundaryFace,
    MeanValueBoundary,
    classify_boundary_faces,
    mean_value_boundary_sweep,
)
from .closures import (
    AtlasGroup,
    ClosureAtlas,
    egeodesic_limit,
    geodesic_closure_atlas,
    inclusion_chain_check,
    rI_membership,
    reduce_distance_to_face,
    sweep_direction,
)
from .maximizer import (
    MaximizerCertificate,
    SearchCandidate,
    dE_directional_derivative,
    dlnp,
    local_max_search,
    maximizer_certificate,
)
from .findings import Finding, Report
from .errors import (
    AlgebraMismatchError,
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
    SolverError,
    UnderResolvedSweepError,
)

__version__ = "0.1.0"
