"""The swallow family: non-exposed faces with a continuous entropy distance.

Its geodesic closure consists of the family, two open boundary segments, the
apex, and three quarters of the base circle.  The corners rho(0) and
rho(pi/2) are missed by every single e-geodesic, yet their entropy distance
is zero: a geodesic limit INTO the compressed segment family followed by a
second geodesic inside it reaches them.  In the mean value set they project
exactly onto the two non-exposed boundary points.
"""

import numpy as np

from qexpfam import (
    classify_boundary_faces,
    entropy_distance,
    face_chain,
    geodesic_closure_atlas,
    mean_value_boundary_sweep,
    project_to_family,
)
from qexpfam import cone

family = cone.swallow_family()
rho0 = cone.base_circle_state(0.0)

print("closure atlas groups by maximal projector:")
atlas = geodesic_closure_atlas(family)
spikes = sorted(atlas.spike_groups(), key=lambda g: g.alpha_lo)
for g in spikes:
    print(f"  crossing at alpha = {g.alpha_lo:.9f}: rank-{g.rank} projector, "
          f"{g.family_dim}-dimensional segment family")
apex_groups = [g for g in atlas.groups if not g.spike and g.n_samples > 10]
print(f"  constant apex group over ({apex_groups[0].alpha_lo:.4f}, "
      f"{apex_groups[0].alpha_hi:.4f})")
moving = sum(1 for g in atlas.groups if not g.spike and g.n_samples == 1)
print(f"  {moving} moving rank-one groups tracing the base circle")

print("\nrho(0) is not a member of the segment family (projection recedes):")
res = project_to_family(rho0, spikes[0].family, param_cap=60.0)
print("  attained:", res.attained, " best value:", res.distance)

print("\nyet its entropy distance vanishes through the two-stage face chain:")
chain, _ = face_chain(rho0, family)
print("  face chain ranks:", [p.rank for p in chain])
d, _ = entropy_distance(rho0, family)
print("  d(rho(0)) =", d)

print("\nboundary classification of the mean value set:")
boundary = mean_value_boundary_sweep(family, 720)
classes = classify_boundary_faces(boundary)
t1, t2 = cone.swallow_polar_tangents()
print("  non-exposed points found:", classes.n_nonexposed)
for p in classes.nonexposed:
    d1 = np.hypot(p[0] - t1[0], p[1] - t1[1])
    d2 = np.hypot(p[0] - t2[0], p[1] - t2[1])
    print(f"  marker at ({p[0]:+.6f}, {p[1]:+.6f}), distance to a polar "
          f"tangent point: {min(d1, d2):.2e}")

print("\nthe quadric identity behind the tangent points:")
worst = max(
    abs(cone.swallow_bilinear(cone.base_circle_state(a).element,
                              cone.base_circle_state(a).element))
    for a in np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
)
print("  max |beta(rho(a), rho(a))| over the circle:", worst)
print("  beta(rho(0), apex) =",
      cone.swallow_bilinear(rho0.element, cone.APEX_STATE.element))
