"""The Staffelberg family: a discontinuous entropy distance.

The family's closure splits three ways.  E-geodesics reach the punctured
base circle and the single extra state c, so those have entropy distance
zero.  In norm one can additionally approximate the half segment from
rho(0) to c.  But the entropy distance on the whole generating line
[rho(0), apex] equals S(. , c), which is ln 2 at rho(0) - a jump against the
distance-zero circle states arbitrarily close by.
"""

import numpy as np

from qexpfam import (
    distance_continuation,
    entropy_distance,
    face_chain,
    project_to_family,
    rI_membership,
)
from qexpfam import cone
from qexpfam.linalg import hs_inner

family = cone.staffelberg_family()
rho0 = cone.base_circle_state(0.0)

print("exact distance at rho(0), solved in the family its face chain ends in:")
chain, _ = face_chain(rho0, family)
print("  face chain ranks:", [p.rank for p in chain])
exact, _ = entropy_distance(rho0, family)
print(f"  d(rho(0)) = {exact:.12f}   (ln 2 = {np.log(2):.12f})")

print("\ndirect minimization approaches the same value from above:")
for cap, value, attained in distance_continuation(rho0, family,
                                                  caps=(10, 20, 40, 80)):
    print(f"  cap {cap:5.0f}:  value - ln2 = {value - np.log(2):+.3e}   "
          f"attained: {attained}")

print("\nbut arbitrarily close on the base circle the distance vanishes:")
for alpha in (0.5, 0.3, 0.15):
    d = project_to_family(cone.base_circle_state(alpha), family, param_cap=200.0).distance
    print(f"  d(rho({alpha})) = {d:.3e}")

print("\nreverse-information membership:")
print("  rho(0):  ", rI_membership(rho0, family))
print("  rho(0.3):", rI_membership(cone.base_circle_state(0.3), family))

print("\nnorm closure reaches only half the generating line; the")
print("tau path sigma(alpha(t), t) approximates tau(lam) inside [rho(0), c]:")
for lam in (0.25, 0.5, 0.75):
    sigma, tau = cone.staffelberg_tau_path(lam, 4.0e4)
    print(f"  lam = {lam}:  |sigma - tau| = "
          f"{(sigma.element - tau.element).norm():.2e}")

m = 0.5 * (cone.midpoint_state().element + cone.APEX)
print("\nthe upper half ]c, apex] is excluded by a half-space certificate:")
print("  <midpoint, v3> =", hs_inner(m, cone.staffelberg_v3()),
      "> 0, while every family member has <sigma, v3> <= 0")
