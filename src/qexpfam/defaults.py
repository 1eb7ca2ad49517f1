"""Numerical tolerances and solver defaults used across the package.

Every cutoff lives here so the same knob is used wherever the same kind of
decision is made (support membership, eigenvalue degeneracy, ...).  The one
eigenvalue-merge test is linalg.top_eigenspace.  Whether a projection is
attained has no cutoff of its own: it is the exposed-face decision, made
with that test and FACE_VALUE_TOL.
"""

# Largest total matrix dimension an algebra may have.
MAX_TOTAL_DIM = 16

# Hermiticity: constructors symmetrize (a + a*)/2 and reject inputs whose
# anti-Hermitian part exceeds this.
HERMITIZE_REJECT = 1e-9

# Rank / image decisions: eigenvalues below this count as zero wherever an
# image-inclusion or support question is asked.
SUPPORT_CUTOFF = 1e-10

# State validation: eigenvalues in [-STATE_TOL, 0) are clamped to 0,
# anything more negative is rejected; |trace - 1| must stay below this too.
STATE_TOL = 1e-12

# Projectors: ||p^2 - p|| tolerance.
PROJECTOR_TOL = 1e-12

# Spectral gap below which eigenvalues merge into one maximal projector: the only merge
# test is linalg.top_eigenspace.  Other readers: the rank cuts of make_compressed_family
# and _scalar_directions, _check_tangent's residual cut, projector equality in the atlas
# merge, _steepest_margin's margin stop and locate_crossings' third-branch test.
MAX_EIG_GAP = 1e-9

# Exposed-face membership: |<rho,u> - mu_+(u)| tolerance.
FACE_VALUE_TOL = 1e-10

# Orthonormalization (modified Gram-Schmidt) rank tolerance.
GRAM_SCHMIDT_TOL = 1e-12

# Projection solver.
SOLVER_TOL = 1e-10
PARAM_CAP = 80.0
MAX_ITER = 500
ARMIJO_C1 = 1e-4
ARMIJO_MAX_HALVINGS = 60

# Reverse-information membership.
RI_EPS = 1e-3
RI_PARAM_CAP = 200.0
# Inclusion chain: each e-geodesic exp1(x + t u) is evaluated once, at t gap =
# CHAIN_GAP_T for unit u, gap the eigenvalue gap below u's maximal eigenspace.
# Where x couples that eigenspace the error falls like 1 / (t gap).
CHAIN_GAP_T = 1e4

# Boundary sweeps.
SWEEP_ANGLES = 720
SWEEP_MIN_ANGLES = 64
# Crossing locator stop (kinks and spikes): Newton step |f / f'| or bracket width.
SWEEP_CROSSING_TOL = 1e-13
