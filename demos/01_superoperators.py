"""
Superoperators, vectorization, and the positivity detector
==========================================================

Operators are plain complex ndarrays; linear maps on them are d^2 x d^2
matrices acting on column-stacked coordinates. This walk-through builds a
few maps, round-trips the stacking convention, and shows the Choi-matrix
test separating completely positive maps from merely positive ones.
"""

import numpy as np

from qmflow import (
    apply_superop, choi_of_map, commutator_map, devectorize, dissipator_map,
    min_eig, sandwich_map, vectorize,
)

# 1. column stacking: columns are laid out one after another
x = np.array([[1.0, 2.0], [3.0, 4.0]])
print("operator:\n", x)
print("stacked:", vectorize(x))          # (1, 3, 2, 4)
print("round trip ok:", np.array_equal(devectorize(vectorize(x), 2), x))

# 2. a sandwich map a . b acts through kron(b.T, a) on coordinates
a = np.array([[0.0, 1.0], [0.0, 0.0]])
s = sandwich_map(a, a.conj().T)
print("\nsandwich applied:", np.allclose(apply_superop(s, x), a @ x @ a.conj().T))

# 3. commutators and dissipators kill the identity (unital building blocks)
for name, m in [("commutator", commutator_map(a + a.T)),
                ("dissipator", dissipator_map(a, 1.0))]:
    res = np.max(np.abs(apply_superop(m, np.eye(2))))
    print(f"{name} on identity: {res:.1e}")

# 4. Choi test: the dissipator semigroup is CP, the transpose map is not
from qmflow import matrix_exponential

semi = matrix_exponential(dissipator_map(a, 1.0), 0.7)
print("\nsemigroup Choi min eig: %.3e" % min_eig(choi_of_map(semi)))

transpose = np.zeros((4, 4), dtype=complex)
for i in range(2):
    for j in range(2):
        e = np.zeros((2, 2)); e[i, j] = 1.0
        transpose[:, j * 2 + i] = vectorize(e.T)
print("transpose Choi min eig: %.3e (positive map, not CP)"
      % min_eig(choi_of_map(transpose)))
