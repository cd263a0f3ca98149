import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmflow import (
    StepFunction,
    apply_superop,
    block_form,
    evolution_map,
    flow_matrix_element,
    kernel_cp_residual,
    matrix_exponential,
    max_abs,
    point_generator,
    q_bound_check,
    schur_product_check,
    step_inner_product,
)
from conftest import random_op


class TestStepFunction:
    def test_value_semantics(self):
        f = StepFunction(pieces=((0.0, 1.0, 1 + 2j), (2.0, 3.0, -1.0)))
        assert f.value_at(0.0) == 1 + 2j     # left endpoint included
        assert f.value_at(0.5) == 1 + 2j
        assert f.value_at(1.0) == 0.0        # right endpoint excluded
        assert f.value_at(1.5) == 0.0
        assert f.value_at(2.5) == -1.0
        assert f.value_at(-1.0) == 0.0

    def test_touching_pieces_allowed(self):
        f = StepFunction(pieces=((0.0, 1.0, 1.0), (1.0, 2.0, 2.0)))
        assert f.value_at(1.0) == 2.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="empty or reversed"):
            StepFunction(pieces=((1.0, 1.0, 1.0),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            StepFunction(pieces=((0.0, 2.0, 1.0), (1.0, 3.0, 1.0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StepFunction(pieces=((0.0, np.inf, 1.0),))
        with pytest.raises(ValueError, match="finite"):
            StepFunction(pieces=((0.0, 1.0, np.nan),))

    def test_constructors(self):
        f = StepFunction.indicator(0.0, 2.0, 3j)
        assert f.value_at(1.0) == 3j
        z = StepFunction.zero()
        assert z.value_at(0.0) == 0.0
        assert z.pieces == ()


class TestInnerProduct:
    def test_hand_value(self):
        # overlap of [0,2] and [1,3] is [1,2]; conj(1) * (1+1j) * 1
        f = StepFunction.indicator(0.0, 2.0, 1.0)
        g = StepFunction.indicator(1.0, 3.0, 1 + 1j)
        assert step_inner_product(f, g) == pytest.approx(1 + 1j)

    def test_conjugation_slot(self):
        f = StepFunction.indicator(0.0, 1.0, 2j)
        g = StepFunction.indicator(0.0, 1.0, 3.0)
        # first argument enters conjugated
        assert step_inner_product(f, g) == pytest.approx(-6j)
        assert step_inner_product(g, f) == pytest.approx(6j)

    def test_window_and_complement(self):
        f = StepFunction.indicator(0.0, 4.0, 1.0)
        g = StepFunction.indicator(0.0, 4.0, 2.0)
        w = (1.0, 2.0)
        assert step_inner_product(f, g, window=w) == pytest.approx(2.0)
        assert step_inner_product(f, g, window=w, complement=True) == pytest.approx(6.0)
        full = step_inner_product(f, g)
        assert full == pytest.approx(8.0)

    def test_complement_requires_window(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="window"):
            step_inner_product(f, f, complement=True)

    def test_reversed_window_rejected(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="window"):
            step_inner_product(f, f, window=(2.0, 1.0))

    def test_multi_piece_oracle(self):
        f = StepFunction(pieces=((0.0, 1.0, 1 + 1j), (1.0, 3.0, 2.0)))
        g = StepFunction(pieces=((0.5, 2.0, -1j),))
        # [0.5,1): conj(1+1j)(-1j)(0.5), [1,2): conj(2)(-1j)(1)
        want = (1 - 1j) * (-1j) * 0.5 + 2 * (-1j) * 1.0
        assert step_inner_product(f, g) == pytest.approx(want)

    @pytest.mark.parametrize("window", [None, (0.0, 2.0), (0.3, 1.1), (-1.0, 3.0)])
    def test_piece_overlap_oracle(self, window):
        # sum over pairs of pieces of conj(v) w times the length of their
        # overlap inside the span(s): no segment walk
        def overlap(f, g, spans):
            terms = [np.conj(v) * w * max(0.0, min(b1, b2, hi) - max(a1, a2, lo))
                     for a1, b1, v in f.pieces for a2, b2, w in g.pieces for lo, hi in spans]
            return sum(terms), sum(abs(z) for z in terms)

        rng = np.random.default_rng(61)
        for _ in range(200):
            f, g = (_random_steps(rng) for _ in range(2))
            cases = [({}, [(-np.inf, np.inf)])] if window is None else [
                ({"window": window}, [window]),
                ({"window": window, "complement": True},
                 [(-np.inf, window[0]), (window[1], np.inf)])]
            for kwargs, spans in cases:
                want, scale = overlap(f, g, spans)
                got = step_inner_product(f, g, **kwargs)
                assert abs(got - want) <= 1e-12 * max(scale, 1e-300)


def _random_steps(rng):
    """1 to 4 pieces with values in the unit square, on [-0.5, 2.5]."""
    k = int(rng.integers(1, 5))
    pts = np.sort(rng.uniform(-0.5, 2.5, size=2 * k))
    return StepFunction(tuple((pts[2 * i], pts[2 * i + 1], complex(*rng.uniform(-1, 1, 2)))
                              for i in range(k)))


class TestPointGenerator:
    def test_four_corner_table(self, qubit_sm):
        m0, mm, mp = qubit_sm.theta_zero, qubit_sm.theta_minus, qubit_sm.theta_plus
        eye = np.eye(4)
        # conservative: no scalar term
        assert_allclose(point_generator(qubit_sm, 0, 0, "conservative"), m0)
        assert_allclose(point_generator(qubit_sm, 0, 1, "conservative"), m0 + mm)
        assert_allclose(point_generator(qubit_sm, 1, 0, "conservative"), m0 + mp)
        assert_allclose(point_generator(qubit_sm, 1, 1, "conservative"), m0 + mp + mm)
        # physical adds conj(f0) g0 times the identity map
        assert_allclose(point_generator(qubit_sm, 1, 1, "physical"), m0 + mp + mm + eye)
        assert_allclose(point_generator(qubit_sm, 1j, 1j, "physical"),
                        m0 - 1j * mp + 1j * mm + eye)

    def test_bad_mode(self, qubit_sm):
        with pytest.raises(ValueError, match="mode"):
            point_generator(qubit_sm, 0, 0, "other")


class TestEvolutionMap:
    def test_single_piece_is_exponential(self, qubit_sm):
        f = StepFunction.indicator(0.0, 2.0, 0.5 + 0.5j)
        g = StepFunction.indicator(0.0, 2.0, -0.3j)
        m = evolution_map(qubit_sm, f, g, 0.0, 1.5)
        k = point_generator(qubit_sm, 0.5 + 0.5j, -0.3j, "physical")
        assert_allclose(m, matrix_exponential(k, 1.5), atol=1e-13)

    def test_ordered_product_of_segments(self, qubit_sm):
        # values change at t=1; factors do not commute, so the order of
        # composition is observable: earliest segment acts leftmost
        f = StepFunction(pieces=((0.0, 1.0, 1.0), (1.0, 2.0, 0.0)))
        g = StepFunction.indicator(0.0, 2.0, 1.0)
        m = evolution_map(qubit_sm, f, g, 0.0, 2.0)
        k1 = point_generator(qubit_sm, 1.0, 1.0, "physical")
        k2 = point_generator(qubit_sm, 0.0, 1.0, "physical")
        want = matrix_exponential(k1, 1.0) @ matrix_exponential(k2, 1.0)
        assert_allclose(m, want, atol=1e-12)
        wrong = matrix_exponential(k2, 1.0) @ matrix_exponential(k1, 1.0)
        assert max_abs(m - wrong) > 1e-3

    def test_degenerate_window_is_identity(self, qubit_sm):
        f = StepFunction.indicator(0.0, 1.0, 1.0)
        m = evolution_map(qubit_sm, f, f, 0.5, 0.5)
        assert_allclose(m, np.eye(4))

    def test_reversed_window_rejected(self, qubit_sm):
        f = StepFunction.zero()
        with pytest.raises(ValueError, match="window"):
            evolution_map(qubit_sm, f, f, 1.0, 0.0)

    def test_composition_law(self, qubit_sm):
        rng = np.random.default_rng(60)
        for _ in range(20):
            pts = np.sort(rng.uniform(0.0, 3.0, size=3))
            s, u, t = map(float, pts)
            f = StepFunction(pieces=((0.0, 1.3, complex(*rng.uniform(-1, 1, 2))),
                                     (1.3, 3.0, complex(*rng.uniform(-1, 1, 2)))))
            g = StepFunction(pieces=((0.0, 2.1, complex(*rng.uniform(-1, 1, 2))),
                                     (2.1, 3.0, complex(*rng.uniform(-1, 1, 2)))))
            whole = evolution_map(qubit_sm, f, g, s, t)
            split = (evolution_map(qubit_sm, f, g, s, u)
                     @ evolution_map(qubit_sm, f, g, u, t))
            assert max_abs(whole - split) / max(1.0, max_abs(whole)) < 1e-11


class TestFlowElement:
    def test_identity_observable_scalar(self, qubit_sm):
        # on the identity the element is exp of the full inner product
        f = StepFunction.indicator(0.0, 2.0, 1.0)
        g = StepFunction.indicator(0.0, 2.0, 0.5)
        el = flow_matrix_element(qubit_sm, f, g, 0.0, 2.0, np.eye(2))
        assert_allclose(el, np.exp(2.0 * 0.5) * np.eye(2), atol=1e-12)

    def test_window_complement_weight(self, qubit_sm):
        # support [-1,2], window [0,1]: complement contributes [-1,0)+[1,2]
        v = 1.0 + 0.0j
        f = StepFunction.indicator(-1.0, 2.0, v)
        g = StepFunction.indicator(-1.0, 2.0, v)
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        el = flow_matrix_element(qubit_sm, f, g, 0.0, 1.0, x)
        k = point_generator(qubit_sm, v, v, "physical")
        from qmflow import apply_superop
        want = np.exp(2.0) * apply_superop(matrix_exponential(k, 1.0), x)
        assert_allclose(el, want, atol=1e-12)

    def test_scalar_time_arguments(self, qubit_sm):
        # bare scalars stand for indicators on the window
        el_a = flow_matrix_element(qubit_sm, 0.7, 0.2j, 0.0, 1.0, np.eye(2))
        f = StepFunction.indicator(0.0, 1.0, 0.7)
        g = StepFunction.indicator(0.0, 1.0, 0.2j)
        el_b = flow_matrix_element(qubit_sm, f, g, 0.0, 1.0, np.eye(2))
        assert_allclose(el_a, el_b)

    def test_unitality(self, qubit_sm):
        rng = np.random.default_rng(61)
        for _ in range(30):
            f0 = complex(*rng.uniform(-1, 1, 2))
            g0 = complex(*rng.uniform(-1, 1, 2))
            t = float(rng.uniform(0.1, 1.5))
            el = flow_matrix_element(qubit_sm, f0, g0, 0.0, t, np.eye(2))
            want = np.exp(np.conj(f0) * g0 * t) * np.eye(2)
            assert max_abs(el - want) / max(1.0, abs(np.exp(np.conj(f0) * g0 * t))) < 1e-11

    def test_norm_bound(self, qubit_sm):
        rng = np.random.default_rng(62)
        for _ in range(50):
            f0 = complex(*rng.uniform(-0.7, 0.7, 2))
            g0 = complex(*rng.uniform(-0.7, 0.7, 2))
            t = float(rng.uniform(0.1, 1.5))
            x = random_op(rng, 2)
            el = flow_matrix_element(qubit_sm, f0, g0, 0.0, t, x)
            lhs = np.linalg.norm(el, 2)
            rhs = np.exp(t * (abs(f0) ** 2 + abs(g0) ** 2) / 2) * np.linalg.norm(x, 2)
            assert lhs <= rhs * (1 + 1e-10)


class TestKernels:
    def test_kernel_cp(self, qubit_sm):
        rng = np.random.default_rng(63)
        fs = [StepFunction.indicator(0.0, 1.0, complex(*rng.uniform(-0.8, 0.8, 2)))
              for _ in range(3)]
        xs = [random_op(rng, 2) for _ in range(3)]
        assert kernel_cp_residual(qubit_sm, fs, xs, 0.7) > -1e-9

    def test_kernel_length_mismatch(self, qubit_sm):
        f = StepFunction.zero()
        with pytest.raises(ValueError, match="as many operators"):
            kernel_cp_residual(qubit_sm, [f], [np.eye(2), np.eye(2)], 0.5)

    def test_schur_closure(self, qubit_sm):
        rng = np.random.default_rng(64)
        fs = [StepFunction.indicator(0.0, 1.0, complex(*rng.uniform(-0.8, 0.8, 2)))
              for _ in range(3)]
        xs = [random_op(rng, 2) for _ in range(3)]
        assert schur_product_check(qubit_sm, fs, xs, 0.4, 0.3) > -1e-9

    def test_q_bound(self, qubit_sm):
        rng = np.random.default_rng(65)
        for _ in range(10):
            f0 = complex(*rng.uniform(-0.8, 0.8, 2))
            g0 = complex(*rng.uniform(-0.8, 0.8, 2))
            x = random_op(rng, 2)
            assert q_bound_check(qubit_sm, [f0, g0, 0.0], 0.6, x) > -1e-9

    def test_scalars_at_zero_time(self, qubit_sm):
        # at t = 0 every window map is the identity, scalars included
        rng = np.random.default_rng(66)
        x = random_op(rng, 2)
        got = block_form(qubit_sm, [1.0, 0.5], 0.0, x)
        assert np.array_equal(got, np.block([[x, x], [x, x]]))
        fs, xs = [1.0, 0.5j], [random_op(rng, 2) for _ in range(2)]
        assert kernel_cp_residual(qubit_sm, fs, xs, 0.0) > -1e-12
        assert schur_product_check(qubit_sm, fs, xs, 0.0, 0.0) > -1e-12
        assert q_bound_check(qubit_sm, fs, 0.0, x) > -1e-12


class TestGridApplication:
    """block_form is bit-identical to applying each window map through the
    public apply_superop."""

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_block_form_bitwise_equal_to_reference(self, model, request):
        sm = request.getfixturevalue(model)
        rng = np.random.default_rng(67)
        fs = [StepFunction(((0.0, 0.3, complex(*rng.uniform(-1, 1, 2))),
                            (0.3, 0.9, complex(*rng.uniform(-1, 1, 2)))))
              for _ in range(3)]
        x = random_op(rng, sm.dim)
        got = block_form(sm, fs, 0.7, x)
        maps = [[evolution_map(sm, fj, fk, 0.0, 0.7) for fk in fs] for fj in fs]
        want = np.block([[apply_superop(m, x) for m in row] for row in maps])
        assert np.array_equal(got, want)
