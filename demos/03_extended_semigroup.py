"""
The extended semigroup on 2 x 2 operator blocks
===============================================

A single one-parameter semigroup acting entrywise on 2 x 2 block matrices
carries all four matrix-element semigroups of the underlying flow. Its
generator is assembled from the structure maps; this script checks the
properties that characterize a legitimate flow, and shows what breaks
when the noise is too weak.
"""

import numpy as np

from qmflow import (
    BlockOp2, build_evans_hudson, build_extended_generator,
    commutation_residual, conservativity_residual, dissipativity_residual_min_eig,
    extended_choi_min_eig, generator_cp_min_eig, kappa_residual,
    matrix_exponential, max_abs, normalization_residual, resolvent_generator,
)

rng = np.random.default_rng(11)
f = np.array([[0.0, 1.0], [0.0, 0.0]])
sm = build_evans_hudson(np.zeros((2, 2)), f, 1.0, 0.0)

# 1. two normalizations of the same data: the physical generator adds the
#    identity map to the lower-right entry
gp = build_extended_generator(sm, "physical")
gc = build_extended_generator(sm, "conservative")
print("corner difference is the identity map:",
      max_abs(gp.block(1, 1) - gc.block(1, 1) - np.eye(4)) == 0.0)

# 2. complete positivity lives in the physical normalization
for t in (0.1, 0.5, 1.0):
    print(f"t={t}: physical Choi min eig {extended_choi_min_eig(gp, t):+.2e}, "
          f"conservative {extended_choi_min_eig(gc, t):+.2e}")

# 3. unit profiles: the conservative map fixes the unit block matrix, the
#    physical map scales its corner by e^t; the corner condition is exact
print("\nconservativity residual:", conservativity_residual(gc, 0.8))
print("normalization residual:", normalization_residual(gp, 0.8))
print("corner condition residual:", kappa_residual(gp))

# 4. complete positivity for every t at once: the generator is
#    conditionally completely positive (its Choi matrix is positive off the
#    maximally entangled vector), so no draw of the dissipativity form, the
#    pointwise witness, goes negative
print("\ngenerator CP min eig (exact): %+.3e" % generator_cp_min_eig(gp))
worst = min(dissipativity_residual_min_eig(
    gc, BlockOp2.from_full(rng.standard_normal((4, 4))
                           + 1j * rng.standard_normal((4, 4))))
    for _ in range(50))
print("worst dissipativity min eig over 50 draws: %+.3e" % worst)

# 5. drop the noise weight below the threshold and every detector fires
weak = build_extended_generator(build_evans_hudson(np.zeros((2, 2)), f, 0.25, 0.0),
                                "physical")
weak_c = build_extended_generator(build_evans_hudson(np.zeros((2, 2)), f, 0.25, 0.0),
                                  "conservative")
print("weak model Choi min eig: %+.3e" % extended_choi_min_eig(weak, 0.5))
print("weak model generator CP min eig (exact): %+.3e" % generator_cp_min_eig(weak))
weak_worst = min(dissipativity_residual_min_eig(
    weak_c, BlockOp2.from_full(rng.standard_normal((4, 4))
                               + 1j * rng.standard_normal((4, 4))))
    for _ in range(50))
print("weak model dissipativity: %+.3e" % weak_worst)

# 6. the generator, built at operator level from the structure maps,
#    commutes with the inner-derivation square and is the table the
#    semigroup exponentiates (the residual is the rounding-level gap between
#    the two); the resolvent regularization converges at first order
print("\ncommutation residual: %.3e" % commutation_residual(gc))
errs = []
eps_grid = (1e-2, 5e-3, 2.5e-3)
for eps in eps_grid:
    ge = resolvent_generator(gc, eps)
    errs.append(max(max_abs(matrix_exponential(ge[i][j], 1.0)
                            - matrix_exponential(gc.block(i, j), 1.0))
                    for i in (0, 1) for j in (0, 1)))
slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
print("resolvent error slope: %.3f (expected about 1)" % slope)
