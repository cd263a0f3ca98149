"""
Step-function flows and matrix elements
=======================================

Test functions are complex step functions of time. Between exponential
vectors the flow reduces to an ordered product of matrix exponentials
over the refinement grid, weighted by the overlap outside the window.
This script exercises composition, unitality, the norm bound, and the
block positivity of the resulting kernel.
"""

import numpy as np

from qmflow import (
    StepFunction, build_evans_hudson, evolution_map, flow_matrix_element,
    kernel_cp_residual, max_abs, schur_product_check, step_inner_product,
)

rng = np.random.default_rng(13)
f_op = np.array([[0.0, 1.0], [0.0, 0.0]])
sm = build_evans_hudson(np.zeros((2, 2)), f_op, 1.0, 0.0)

# 1. step functions and their pairing
f = StepFunction(pieces=((0.0, 1.0, 1 + 1j), (1.0, 2.0, 0.5)))
g = StepFunction.indicator(0.5, 1.5, -1j)
print("inner product:", step_inner_product(f, g))
print("restricted to [0, 1]:", step_inner_product(f, g, window=(0.0, 1.0)))

# 2. evolutions compose over adjacent windows and ignore refinement
m_whole = evolution_map(sm, f, g, 0.0, 2.0)
m_split = (evolution_map(sm, f, g, 0.0, 0.7)
           @ evolution_map(sm, f, g, 0.7, 2.0))
print("\ncomposition defect:", max_abs(m_whole - m_split))

# 3. matrix element: overlap weight outside the window times the evolved
#    observable; on the identity only the overlap survives
x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
el = flow_matrix_element(sm, f, g, 0.0, 1.0, x)
print("element:\n", np.round(el, 6))
unit = flow_matrix_element(sm, f, g, 0.0, 2.0, np.eye(2))
print("identity element matches overlap:",
      max_abs(unit - np.exp(step_inner_product(f, g)) * np.eye(2)) < 1e-12)

# 4. the norm bound for constant test values on the unit disc
ok = True
for _ in range(200):
    f0 = complex(*rng.uniform(-0.7, 0.7, 2))
    g0 = complex(*rng.uniform(-0.7, 0.7, 2))
    t = float(rng.uniform(0.1, 1.5))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    el = flow_matrix_element(sm, f0, g0, 0.0, t, y)
    bound = np.exp(t * (abs(f0) ** 2 + abs(g0) ** 2) / 2) * np.linalg.norm(y, 2)
    ok = ok and np.linalg.norm(el, 2) <= bound * (1 + 1e-10)
print("\nnorm bound held on 200 draws:", ok)

# 5. the kernel is completely positive blockwise and closed under the
#    pointwise product of two window lengths
fs = [StepFunction.indicator(0.0, 1.0, complex(*rng.uniform(-0.8, 0.8, 2)))
      for _ in range(3)]
xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
      for _ in range(3)]
print("kernel block min eig: %+.3e" % kernel_cp_residual(sm, fs, xs, 0.7))
print("Schur product min eig: %+.3e" % schur_product_check(sm, fs, xs, 0.4, 0.3))
