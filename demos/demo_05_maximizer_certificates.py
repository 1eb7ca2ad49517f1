"""Directional derivatives of the entropy distance and maximizer certificates.

At a state with attained projection the distance is differentiable along
traceless directions of its own face algebra, with a closed-form derivative.
A local maximizer must reproduce itself as the compressed exponential of its
projection's parameter; on the classical diagonal this is the familiar
conditional distribution on the support.
"""

import numpy as np

from qexpfam import (
    dE_directional_derivative,
    entropy_distance,
    local_max_search,
    maximizer_certificate,
)
from qexpfam import cone
from qexpfam.linalg import Algebra, diagonal
from qexpfam.family import make_family, project_to_family
from qexpfam.sampling import random_state, random_traceless
from qexpfam.states import Projector, State

family = cone.staffelberg_family()
rng = np.random.default_rng(5)

print("analytic directional derivative vs central finite differences:")
h = 1e-4
for k in range(3):
    rho = random_state(cone.ALGEBRA, rng, invertible=True, min_eig=5e-2)
    u = random_traceless(cone.ALGEBRA, rng, 0.3)
    analytic = dE_directional_derivative(rho, u, family)
    dp, _ = entropy_distance(State(rho.element + h * u), family, tol=1e-12)
    dm, _ = entropy_distance(State(rho.element - h * u), family, tol=1e-12)
    fd = (dp - dm) / (2.0 * h)
    print(f"  sample {k}: analytic {analytic:+.8f}  finite-diff {fd:+.8f}")

print("\nclassical imprint on the diagonal algebra C^3:")
abelian = Algebra((1, 1, 1))
fam_ab = make_family(abelian, [diagonal(abelian, [1.0, -1.0, 0.0])])
rho = State(diagonal(abelian, [0.7, 0.3, 0.0]))
cert = maximizer_certificate(rho, fam_ab)
sigma = np.array([b[0, 0].real
                  for b in project_to_family(rho, fam_ab).sigma_star.element.blocks])
trunc = sigma * np.array([1.0, 1.0, 0.0])
trunc /= trunc.sum()
print("  projection:", np.round(sigma, 6))
print("  its conditional on supp(rho):", np.round(trunc, 6))
print("  certificate residual |rho - exp1^p(p theta p)|:", cert.residual)
print("  certificate holds:", cert.holds,
      "- certified value:", cert.certified_value)

print("\nsearch for maximizers on the face [rho(0), apex] of the Staffelberg")
print("family (the distance there is S(. , c), maximal at the endpoints);")
print("the search solves in the family that the face chain of the face's")
print("center reaches, so no direction is passed:")
p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
candidates = local_max_search(family, p, n_starts=5)
for c in candidates:
    print(f"  start {c.start_index}: value {c.value:.9f}  "
          f"stationary: {c.stationary}")
print("  ln 2 =", np.log(2.0))
