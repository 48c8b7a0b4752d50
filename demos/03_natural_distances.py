#!/usr/bin/env python3
"""From a moment field to natural semi-distances on the index set.

The per-point and per-pair L_p curves of a difference field induce the
natural generating function (pointwise max of point curves), increment
distances per difference index, their averaged version, the fixed-order
distance, the sub-q distance, and the running-variance functional.
"""
import math

import numpy as np

from uclt import (
    PairwiseMomentField,
    distance_bar,
    distance_di,
    distance_matrix,
    natural_function,
    pisier_distance,
    rho_q_distance,
    sigma_squared,
)

# analytic field: i.i.d. Gaussian draws of a Brownian-like profile, so that
# increments between x1 and x2 have standard deviation sqrt(|x1 - x2|)
coords = np.linspace(0.2, 1.0, 6)
field = PairwiseMomentField.from_gaussian_kernel(
    np.minimum.outer(coords, coords), p_grid=[2, 2.5, 3, 4, 6, 8], m=16)
labels = field.x_labels

print("== natural generating function ==")
psi = natural_function(field)
for p in (2.0, 4.0, 8.0):
    print(f"  psi({p}) = {psi.value(p):.4f}")

print("\n== distances between the endpoints ==")
a, b = labels[0], labels[-1]
delta = abs(coords[-1] - coords[0])
print(f"  coordinate separation {delta:.2f}, sqrt = {math.sqrt(delta):.4f}")
print(f"  d_i (index 3)      : {distance_di(field, 3, a, b, psi):.4f}")
print(f"  averaged distance  : {distance_bar(field, a, b, psi, [1, 2, 4, 8, 16]):.4f}")
print(f"  fixed-order (r=2)  : {pisier_distance(field, a, b, 2.0):.4f}")
print(f"  sub-q (q=2)        : {rho_q_distance(field, a, b, 2.0):.4f}")
print("  (for this field the increment curve is proportional to the point "
      "curve, so the first two cancel to sqrt separation exactly)")

print("\n== variance functional ==")
s2 = sigma_squared(field, [1, 2, 4, 8, 16])
print(f"  inf over points of running variance averages: {s2:.4f} "
      f"(the smallest marginal variance, {coords[0]:.2f})")

print("\n== assembled semi-metric space ==")
space = distance_matrix(field, "dbar", psi=psi, n_grid=[1, 2, 4, 8, 16])
print("  averaged-distance matrix (rounded):")
for lb, row in zip(labels, space.dist):
    print("   ", lb, np.round(row, 3))
print("  symmetric with zero diagonal; ready for covering-number machinery")
