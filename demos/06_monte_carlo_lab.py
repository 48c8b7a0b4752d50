#!/usr/bin/env python3
"""End-to-end Monte Carlo laboratory run on a dependent difference field.

Builds a volatility-modulated field, verifies the difference property,
estimates moment curves, checks the moment inequality and the uniform
increment modulus, and finishes with distributional-stabilization
diagnostics.  Everything is reproducible: one seeded substream per chunk
makes results independent of worker threads.
"""
import math

import numpy as np

from uclt import (
    MartingaleFieldModel,
    OSEKOWSKI_CONSTANT,
    clt_diagnostic,
    covariance_estimate,
    equicontinuity_check,
    estimate_moment_curves,
    grid_coords,
    martingale_difference_check,
    natural_function,
    osekowski_check,
    sigma_squared,
    simulate_eta,
    tail_domination_check,
)

model = MartingaleFieldModel(
    "garch-demo", "garch_like", grid_coords(5),
    {"kernel": {"name": "rbf", "length_scale": 0.5}}, horizon=256, seed=2026)

print("== difference property (orthogonality to the past) ==")
for row in martingale_difference_check(model, [2, 32, 256], R=20000):
    print(f"  index {row['index']:>3}  vs {row['regressor']:<13} "
          f"mean {row['mean']:+.5f} (se {row['se']:.5f})  ok={row['ok']}")

print("\n== normalized sums and covariance ==")
eta = simulate_eta(model, 64, 20000)
print(f"  var(eta_64) per point: {np.round(eta.var(axis=0), 3)}")
cov, se, _ = covariance_estimate(model, 64, 20000)
print(f"  covariance diagonal : {np.round(np.diag(cov), 3)}")

print("\n== moment inequality ==")
rows = osekowski_check(model, [2, 3, 4, 6], [16, 256], 30000)
print(f"  universal constant {OSEKOWSKI_CONSTANT}; exact p=2 value ln2/2 = {math.log(2)/2:.4f}")
for r in rows:
    print(f"  p={r['p']:<3} n={r['n']:<4} ratio {r['ratio']:.4f} (se {r['se']:.4f})")

print("\n== uniform increment modulus ==")
field = estimate_moment_curves(model, [("x0", "x4"), ("x1", "x3")], [2, 3, 4, 6],
                               20000, i_max=64)
psi = natural_function(field)
print(f"  natural function at p=2,4: {psi.value(2.0):.3f}, {psi.value(4.0):.3f}")
print(f"  variance functional: {sigma_squared(field, [1, 4, 16, 64]):.3f}")
for r in equicontinuity_check(model, [("x0", "x4"), ("x1", "x3")], [2, 3, 4, 6],
                              [1, 4, 16, 64], 20000, field=field, psi=psi):
    print(f"  pair {r['pair']}: modulus {r['lhs']:.4f} <= {r['rhs']:.4f} "
          f"(ratio {r['ratio']:.3f})")

print("\n== uniform tail domination ==")
for r in tail_domination_check(model, None, [1.5, 2.0, 3.0], [256], 100000):
    print(f"  x={r['x']:3.1f}  empirical {r['empirical']:.5f}  bound {r['bound']:.5f}")

print("\n== distributional stabilization ==")
diag = clt_diagnostic(model, (32, 256), 2000)
print(f"  sup-norm two-sample KS between n=32 and n=256: {diag['ks_supnorm']:.4f} "
      f"(5% critical {diag['ks_critical_5pct']:.4f})")
print("  small values are evidence of a stabilizing law, not a proof")
