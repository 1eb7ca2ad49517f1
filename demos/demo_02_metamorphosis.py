"""The metamorphosis of 2D mean value sets in Mat(2,C) + C.

Tilting a 2D tangent plane against the cone axis sweeps the mean value set
from the classical triangle through shapes with a corner and two non-exposed
tangent points to an ellipse.  Non-exposed boundary points exist exactly for
tilt angles strictly between 0 and pi/3; the transition shape at pi/3 is the
mean value set of the Staffelberg family.

Writes one SVG per angle into demos_out/.
"""

import os

import numpy as np

from qexpfam import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam import cone
from qexpfam.output import boundary_svg

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "demos_out")

print("angle      shape                 non-exposed  segments")
for k in range(7):
    phi = k * np.pi / 12.0
    family = cone.plane_for_angle(phi)
    boundary = mean_value_boundary_sweep(family, 720)
    classes = classify_boundary_faces(boundary)
    shape = cone.classify_by_angle(phi)
    print(f"{k}pi/12     {shape.value:22s}{classes.n_nonexposed:2d}       "
          f"{len(boundary.segments()):2d}")
    assert classes.n_nonexposed == shape.n_nonexposed
    boundary_svg(os.path.join(OUT, f"metamorphosis_{k}.svg"), boundary, classes)

print(f"\nSVG drawings written to {os.path.relpath(OUT, os.path.dirname(HERE))}/")
print("the non-exposed points (red circles) are tangent points of the two")
print("tangent lines from the projected apex to the projected base circle")
