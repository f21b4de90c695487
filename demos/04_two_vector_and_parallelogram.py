#!/usr/bin/env python3
"""The two-vector metric tensor, its covariant version, and vector
addition by geodesic parallelograms.

The mixed second derivative of the scalar product is a two-point tensor
that collapses to the one-vector metric at coincidence.  The sum of two
vectors compatible with the geodesic tetragon ("opposite sides of equal
length") has a first-order closed form in k = 1/h - 1 and an exact
closed form.
"""

import math

import numpy as np

import finsleroid as fl

par = fl.make_parameter(0.8)
ctx = fl.MetricContext(3)

t1 = np.array([1.0, 0.1, 0.3])
t2 = np.array([0.3, 0.9, 0.4])

tv = fl.two_vector_metric(par, ctx, t1, t2)
print("two-vector tensor n(t1, t2):")
print(np.array_str(tv.n_lower, precision=6))
one = fl.quasi_metric(par, ctx, t1).n_lower
print("\ncoincidence: |n(t1, t1 + eps v) - n(t1)|_max")
v = np.array([0.2, -0.5, 0.7])
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    tvc = fl.two_vector_metric(par, ctx, t1, t1 + eps * v)
    print(f"  eps = {eps:.0e}   {np.max(np.abs(tvc.n_lower - one)):.3e}")
print()

# covariant version and its inversion
cp = fl.covector_pair(par, ctx, t1, t2)
alpha = fl.angle(par, ctx, t1, t2)
r1, r2 = fl.invert_covectors(par, ctx, cp.T1, cp.T2, alpha)
print(f"covariant roundtrip t -> T -> t: max gap "
      f"{max(np.max(np.abs(r1 - t1)), np.max(np.abs(r2 - t2))):.2e}")
print(f"implicit angle recovered from the co-pair: "
      f"{fl.solve_co_angle(par, ctx, cp.T1, cp.T2):.12f} vs {alpha:.12f}")
print()

# parallelogram law
first = fl.oplus_first_order(par, ctx, t1, t2)
exact = fl.parallelogram_refine(par, ctx, t1, t2)
print(f"euclidean sum        : {t1 + t2}")
print(f"first-order sum      : {first}")
print(f"refined (exact) sum  : {exact}")
r1_, r2_ = fl.parallelogram_residuals(par, ctx, t1, t2, first)
e1_, e2_ = fl.parallelogram_residuals(par, ctx, t1, t2, exact)
print(f"defining-equation residuals: first order ({r1_:+.2e}, {r2_:+.2e}), "
      f"refined ({e1_:+.2e}, {e2_:+.2e})")
print()

print("residual of the first-order sum shrinks like k^2 = (1/h - 1)^2:")
for k in (1e-1, 1e-2, 1e-3):
    h = 1.0 / (1.0 + k)
    p = fl.make_parameter(2.0 * math.sqrt(1.0 - h * h))
    t3 = fl.oplus_first_order(p, ctx, t1, t2)
    rr1, rr2 = fl.parallelogram_residuals(p, ctx, t1, t2, t3)
    print(f"  k = {k:.0e}   max residual = {max(abs(rr1), abs(rr2)):.3e}")

# the difference undoes the sum to first order
back = fl.ominus_first_order(par, ctx, t1, fl.oplus_first_order(par, ctx, t1, t2))
print(f"\nominus(oplus(t1, t2), t1) - t2: {np.max(np.abs(back - t2)):.2e} "
      f"(O(k^2) with k = {1/par.h - 1:.3f})")
