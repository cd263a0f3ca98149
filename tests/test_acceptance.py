"""Acceptance gate: the eleven headline guarantees, one test each.

Each test prints a single pass/fail line and asserts at the stated
tolerance. Models: the three-site periodic chain with seeded random
constants (dim 8) and the lowering-operator qubit toy model (dim 2).
"""

import numpy as np

from qmflow import (
    BlockOp2,
    StepFunction,
    build_F_lambda,
    build_site_operator,
    check_conjugation,
    check_unital,
    commutation_residual,
    conservativity_residual,
    delta_sq_map,
    delta_sq_semigroup,
    apply_superop,
    devectorize,
    dissipativity_residual_min_eig,
    evolution_map,
    extended_choi_min_eig,
    kappa_residual,
    kernel_cp_residual,
    leibnitz_residual,
    matrix_exponential,
    max_abs,
    normalization_residual,
    resolvent_generator,
    schur_product_check,
    shift_matrix,
    step_inner_product,
    vectorize,
)
from conftest import random_op

T_GRID = (0.1, 0.25, 0.5, 1.0)


def _report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_criterion_01_extended_complete_positivity(glauber_gen_phys):
    worst = min(extended_choi_min_eig(glauber_gen_phys, t) for t in T_GRID)
    _report(1, "extended-semigroup complete positivity", worst >= -1e-9,
            f"min Choi eigenvalue {worst:.3e} >= -1e-9")


def test_criterion_02_normalization(glauber_gen_phys, glauber_gen_cons):
    worst_phys = max(normalization_residual(glauber_gen_phys, t) for t in T_GRID)
    worst_cons = max(conservativity_residual(glauber_gen_cons, t) for t in T_GRID)
    ok = worst_phys <= 1e-10 and worst_cons <= 1e-10
    _report(2, "unit-profile normalization", ok,
            f"physical {worst_phys:.3e}, conservative {worst_cons:.3e} <= 1e-10")


def test_criterion_03_corner_domain_condition(glauber_gen_phys):
    res = kappa_residual(glauber_gen_phys)
    _report(3, "generator corner condition", res <= 1e-12,
            f"residual {res:.3e} <= 1e-12")


def test_criterion_04_structure_map_axioms(glauber_sm):
    rng = np.random.default_rng([42, 0xA1])
    d = glauber_sm.dim
    worst_exact = max(check_unital(glauber_sm), check_conjugation(glauber_sm))
    worst_drift = 0.0
    for _ in range(100):
        x = random_op(rng, d, unit=False)
        y = random_op(rng, d, unit=False)
        res = leibnitz_residual(glauber_sm, x, y)
        worst_exact = max(worst_exact, res[-1], res[1])
        worst_drift = max(worst_drift, res[0])
    ok = worst_exact <= 1e-10 and worst_drift <= 1e-9
    _report(4, "structure-map axioms", ok,
            f"exact rules {worst_exact:.3e} <= 1e-10, drift rule "
            f"{worst_drift:.3e} <= 1e-9 over 100 pairs")


def _random_step(rng, horizon=2.0):
    k = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.0, horizon, size=2 * k))
    pieces = []
    for i in range(k):
        a, b = float(cuts[2 * i]), float(cuts[2 * i + 1])
        if b - a < 1e-3:
            b = a + 1e-3
        pieces.append((a, b, complex(*rng.uniform(-1.0, 1.0, 2))))
    return StepFunction(pieces=tuple(pieces))


def test_criterion_05_evolution_factorization(qubit_sm):
    rng = np.random.default_rng([42, 0xA5])
    worst = 0.0
    for _ in range(50):
        f = _random_step(rng)
        g = _random_step(rng)
        s, u, t = np.sort(rng.uniform(0.0, 2.0, size=3))
        whole = evolution_map(qubit_sm, f, g, s, t)
        split = (evolution_map(qubit_sm, f, g, s, u)
                 @ evolution_map(qubit_sm, f, g, u, t))
        worst = max(worst, max_abs(whole - split) / max(1.0, max_abs(whole)))
        # refinement: splitting a piece at an interior point changes nothing
        a, b, v = f.pieces[0]
        mid = 0.5 * (a + b)
        refined = StepFunction(pieces=((a, mid, v), (mid, b, v)) + f.pieces[1:])
        again = evolution_map(qubit_sm, refined, g, s, t)
        worst = max(worst, max_abs(whole - again) / max(1.0, max_abs(whole)))
    _report(5, "evolution factorization and refinement", worst <= 1e-10,
            f"worst relative deviation {worst:.3e} <= 1e-10 over 50 pairs")


def test_criterion_06_unitality_and_norm_bound(qubit_sm):
    rng = np.random.default_rng([42, 0xA6])
    eye = np.eye(qubit_sm.dim)
    worst_unit = 0.0
    bound_ok = True
    for _ in range(100):
        f = _random_step(rng)
        g = _random_step(rng)
        s, t = np.sort(rng.uniform(0.0, 2.0, size=2))
        got = apply_superop(evolution_map(qubit_sm, f, g, s, t), eye)
        scale = np.exp(step_inner_product(f, g, window=(s, t)))
        worst_unit = max(worst_unit,
                         max_abs(got - scale * eye) / max(1.0, abs(scale)))
    for _ in range(100):
        r1, r2 = np.sqrt(rng.uniform(0, 1, 2))
        ph = rng.uniform(0, 2 * np.pi, 2)
        f0 = r1 * np.exp(1j * ph[0])
        g0 = r2 * np.exp(1j * ph[1])
        t = float(rng.uniform(0.1, 1.5))
        x = random_op(rng, qubit_sm.dim)
        k = evolution_map(qubit_sm,
                          StepFunction.indicator(0.0, t, f0),
                          StepFunction.indicator(0.0, t, g0), 0.0, t)
        lhs = float(np.linalg.norm(apply_superop(k, x), 2))
        rhs = float(np.exp(t * (abs(f0) ** 2 + abs(g0) ** 2) / 2)
                    * np.linalg.norm(x, 2))
        if lhs > rhs * (1 + 1e-10):
            bound_ok = False
    ok = worst_unit <= 1e-10 and bound_ok
    _report(6, "unitality and norm bound", ok,
            f"unitality residual {worst_unit:.3e} <= 1e-10, "
            f"norm bound {'held' if bound_ok else 'violated'} on 100 draws")


def test_criterion_07_kernel_positivity_and_schur(qubit_sm):
    rng = np.random.default_rng([42, 0xA7])
    fs = [_random_step(rng) for _ in range(3)] + [1.0]
    xs = [random_op(rng, qubit_sm.dim) for _ in range(4)]
    kcp = kernel_cp_residual(qubit_sm, fs, xs, 0.7)
    schur = schur_product_check(qubit_sm, fs, xs, 0.4, 0.3)
    ok = kcp >= -1e-9 and schur >= -1e-9
    _report(7, "kernel block positivity and Schur closure", ok,
            f"kernel min eig {kcp:.3e}, Schur min eig {schur:.3e} >= -1e-9")


def test_criterion_08_dissipativity_and_delta(glauber_gen_cons):
    rng = np.random.default_rng([42, 0xA8])
    d = glauber_gen_cons.dim
    worst_dissip = min(
        dissipativity_residual_min_eig(glauber_gen_cons,
                                       BlockOp2.from_full(random_op(rng, 2 * d)))
        for _ in range(100))
    # independent oracle for the doubled-space semigroup generated by
    # half the squared commutator map: exponentiate its assembled matrix
    n = 2 * d
    sq = np.zeros((n * n, n * n), dtype=complex)
    for p in range(n * n):
        e = np.zeros(n * n)
        e[p] = 1.0
        sq[:, p] = vectorize(delta_sq_map(BlockOp2.from_full(devectorize(e, n))).as_full())
    worst_delta = 0.0
    for t in (0.3, 0.7):
        prop = matrix_exponential(0.5 * sq, t)
        for _ in range(5):
            x = random_op(rng, n, unit=False)
            via_oracle = devectorize(prop @ vectorize(x), n)
            via_formula = delta_sq_semigroup(t, BlockOp2.from_full(x)).as_full()
            worst_delta = max(worst_delta, max_abs(via_oracle - via_formula))
    comm = commutation_residual(glauber_gen_cons)
    ok = worst_dissip >= -1e-8 and worst_delta <= 1e-12 and comm <= 1e-12
    _report(8, "dissipativity and inner-derivation identities", ok,
            f"min form eigenvalue {worst_dissip:.3e} >= -1e-8, semigroup "
            f"formula {worst_delta:.3e} <= 1e-12, commutation {comm:.3e} <= 1e-12")


def test_criterion_09_resolvent_convergence(qubit_gen_cons):
    eps_grid = (1e-2, 5e-3, 2.5e-3)
    errs = []
    for eps in eps_grid:
        ge = resolvent_generator(qubit_gen_cons, eps)
        errs.append(max(
            max_abs(matrix_exponential(ge[i][j], 1.0)
                    - matrix_exponential(qubit_gen_cons.block(i, j), 1.0))
            for i in (0, 1) for j in (0, 1)))
    slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
    _report(9, "resolvent first-order convergence", 0.8 <= slope <= 1.2,
            f"log-log slope {slope:.3f} within 1.0 +/- 0.2")


def test_criterion_10_ode_oracle(qubit_gen_cons):
    t, h = 0.7, 1e-4
    steps = int(round(t / h))
    worst = 0.0
    for i in (0, 1):
        for j in (0, 1):
            l = qubit_gen_cons.block(i, j)
            p = np.eye(l.shape[0], dtype=complex)
            for _ in range(steps):
                k1 = p @ l
                k2 = (p + 0.5 * h * k1) @ l
                k3 = (p + 0.5 * h * k2) @ l
                k4 = (p + h * k3) @ l
                p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            worst = max(worst, max_abs(p - matrix_exponential(l, t)))
    _report(10, "exponential matches ODE integration", worst <= 1e-8,
            f"worst entry deviation {worst:.3e} <= 1e-8 at t = 0.7")


def test_criterion_11_chain_construction_exact(glauber_cfg):
    n = glauber_cfg.sites

    def bit(state, slot):
        return (state >> (n - 1 - slot)) & 1

    def oracle(r, eps, mu):
        dim = 2 ** n
        out = np.zeros((dim, dim))
        left, mid, right = r - 2, r - 1, r % n
        for c in range(dim):
            flipped = c ^ (1 << (n - 1 - mid))
            s = 1 if bit(flipped, mid) else -1
            sl = 1 if bit(c, left % n) else -1
            sr = 1 if bit(c, right) else -1
            if sl == eps * s and sr == mu * s:
                out[flipped, c] = 1.0
        return out

    positions_ok = all(
        np.array_equal(build_site_operator(glauber_cfg, r, eps, mu),
                       oracle(r, eps, mu))
        for r in range(1, n + 1) for eps in (-1, 1) for mu in (-1, 1))
    adjoint_ok = np.array_equal(build_F_lambda(glauber_cfg, 1, 1).conj().T,
                                build_F_lambda(glauber_cfg, -1, -1))
    u = shift_matrix(n)
    f = build_F_lambda(glauber_cfg, 1, 1)
    translation_ok = np.array_equal(u @ f @ u.T, f)
    ok = positions_ok and adjoint_ok and translation_ok
    _report(11, "chain operators exact", ok,
            f"positions {'match' if positions_ok else 'differ'}, adjoint "
            f"{'exact' if adjoint_ok else 'broken'}, translation "
            f"{'covariant' if translation_ok else 'broken'}")
