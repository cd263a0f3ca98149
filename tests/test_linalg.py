import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qmflow import (
    adjoint_superop_matrix,
    apply_superop,
    choi_of_map,
    commutator_map,
    devectorize,
    dissipator_map,
    hermitian_part,
    is_psd,
    left_mul_map,
    matrix_exponential,
    max_abs,
    min_eig,
    right_mul_map,
    sandwich_map,
    vectorize,
)
import qmflow.linalg
from qmflow.linalg import (
    _block,
    _block_plan,
    _component_labels,
    _diagonal_blocks,
    _hermitian_eigvals,
    _labels_plan,
)
from conftest import (
    assert_same_plan,
    previous_is_psd,
    previous_min_eig,
    random_op,
    strong_components_plan,
)


class TestVectorization:
    def test_column_stacking_convention(self):
        # vec(X)[j*d + i] = X[i, j]: the identity stacks to (1,0,0,1) and
        # the (0,1) matrix unit lands at flat position 1*2 + 0 = 2.
        assert_allclose(vectorize(np.eye(2)), [1, 0, 0, 1])
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        assert_allclose(vectorize(e01), [0, 0, 1, 0])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 5):
            x = random_op(rng, d, unit=False)
            assert_allclose(devectorize(vectorize(x), d), x)
            assert_allclose(devectorize(vectorize(x)), x)

    def test_devectorize_rejects_bad_length(self):
        with pytest.raises(ValueError, match="stacked"):
            devectorize(np.zeros(5))

    def test_vectorize_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            vectorize(np.zeros((2, 3)))

    def test_vectorize_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            vectorize(np.array([[np.nan, 0], [0, 0]]))


class TestMultiplicationMaps:
    def test_sandwich_matches_direct_product(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            a, b, x = (random_op(rng, d, unit=False) for _ in range(3))
            got = apply_superop(sandwich_map(a, b), x)
            assert_allclose(got, a @ x @ b, atol=1e-13)

    def test_left_right_factors(self):
        rng = np.random.default_rng(2)
        a, x = random_op(rng, 3), random_op(rng, 3)
        assert_allclose(apply_superop(left_mul_map(a), x), a @ x, atol=1e-14)
        assert_allclose(apply_superop(right_mul_map(a), x), x @ a, atol=1e-14)

    def test_maps_equal_numpy_kron_bitwise(self):
        # the builders copy transposed views before np.kron; the bits are kron's
        rng = np.random.default_rng(16)
        a, b = random_op(rng, 4, unit=False), random_op(rng, 4, unit=False)
        a.real[a.real < 0] = -0.0   # signed zeros, which kron's products keep
        eye = np.eye(4)
        for got, want in ((sandwich_map(a.conj().T, b), np.kron(b.T, a.conj().T)),
                          (left_mul_map(a.conj().T), np.kron(eye, a.conj().T)),
                          (right_mul_map(a), np.kron(a.T, eye))):
            assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            sandwich_map(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="match"):
            apply_superop(np.eye(4), np.eye(3))


class TestCommutatorMap:
    def test_matches_commutator(self):
        rng = np.random.default_rng(3)
        a, x = random_op(rng, 3), random_op(rng, 3)
        got = apply_superop(commutator_map(a), x)
        assert_allclose(got, -1j * (x @ a - a @ x), atol=1e-14)

    def test_kills_identity(self):
        rng = np.random.default_rng(4)
        a = random_op(rng, 4, unit=False)
        resid = apply_superop(commutator_map(a), np.eye(4))
        assert max_abs(resid) < 1e-14


class TestDissipatorMap:
    def test_matches_formula(self):
        rng = np.random.default_rng(5)
        l, x = random_op(rng, 3), random_op(rng, 3)
        w = 0.7
        got = apply_superop(dissipator_map(l, w), x)
        ls = l.conj().T
        want = w * (2 * ls @ x @ l - (x @ ls @ l + ls @ l @ x))
        assert_allclose(got, want, atol=1e-13)

    def test_mirrored_swaps_roles(self):
        rng = np.random.default_rng(6)
        l, x = random_op(rng, 2), random_op(rng, 2)
        got = apply_superop(dissipator_map(l, 1.0, mirrored=True), x)
        ls = l.conj().T
        want = 2 * l @ x @ ls - (x @ l @ ls + l @ ls @ x)
        assert_allclose(got, want, atol=1e-13)

    def test_kills_identity(self):
        rng = np.random.default_rng(7)
        l = random_op(rng, 3, unit=False)
        assert max_abs(apply_superop(dissipator_map(l, 2.0), np.eye(3))) < 1e-13

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(8)
        l = random_op(rng, 3)
        x = random_op(rng, 3)
        m = dissipator_map(l, 1.3)
        lhs = apply_superop(m, x.conj().T)
        rhs = apply_superop(m, x).conj().T
        assert_allclose(lhs, rhs, atol=1e-13)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dissipator_map(np.eye(2), -0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [dissipator_map, qmflow.linalg._csr_dissipator])
    def test_non_finite_weight_rejected(self, build, w):
        # refused by name before any product: no NaN map, no overflow warning
        message = rf"^dissipator weight must be finite and nonnegative, got {w}$"
        with pytest.raises(ValueError, match=message):
            build(np.eye(2), w)


class TestMatrixExponential:
    def test_nilpotent_exact(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(matrix_exponential(n), np.eye(2) + n)

    def test_series_oracle(self):
        # Truncated Taylor series on a small-norm matrix is an independent
        # reference accurate to machine precision.
        rng = np.random.default_rng(9)
        m = 0.1 * random_op(rng, 4, unit=False)
        series = np.zeros((4, 4), dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(30):
            series += term
            term = term @ m / (k + 1)
        assert_allclose(matrix_exponential(m), series, atol=1e-14)

    def test_time_scaling(self):
        rng = np.random.default_rng(10)
        m = random_op(rng, 3)
        assert_allclose(matrix_exponential(m, 0.7),
                        matrix_exponential(0.7 * m), atol=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exponential(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            matrix_exponential(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            matrix_exponential(np.eye(2), t=np.nan)


    @pytest.mark.parametrize("m, t, message", [
        # t * M itself overflows
        (np.array([[2.0]]), 1e308, r"^t \* M overflows at t = 1e\+308: "),
        # t * M is finite, its exponential is not (one block of two)
        (np.diag([1.0, -1.0]), 1000.0, r"^exp\(t \* M\) overflows at t = 1000\.0: "),
        (np.array([[0.0, 1.0], [0.0, 0.0]]) + np.diag([0.0, 750.0]), 1.0,
         r"^exp\(t \* M\) overflows at t = 1\.0: "),
    ])
    def test_refuses_overflow_naming_t(self, m, t, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the error replaces numpy's warning
            with pytest.raises(ValueError, match=message):
                matrix_exponential(m, t)

    def test_large_finite_exponential_allowed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = matrix_exponential(np.diag([1.0, -1.0]), 700.0)
        assert np.all(np.isfinite(e)) and e[0, 0] == np.exp(700.0)


def _choi_by_loop(s, d):
    # Direct construction: C = sum_ij e_ij (x) Phi(e_ij).
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0
            phi = apply_superop(s, e)
            unit = np.zeros((d, d))
            unit[i, j] = 1.0
            c += np.kron(unit, phi)
    return c


class TestChoi:
    def test_reshuffle_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            # hermiticity-preserving random map: sum of sandwich terms
            s = sum(sandwich_map(a.conj().T, a)
                    for a in (random_op(rng, d) for _ in range(3)))
            assert_allclose(choi_of_map(s), _choi_by_loop(s, d), atol=1e-13)

    def test_identity_map_choi_is_rank_one(self):
        d = 3
        c = choi_of_map(np.eye(d * d))
        evals = np.linalg.eigvalsh(c)
        assert_allclose(evals[-1], d, atol=1e-12)
        assert max_abs(evals[:-1]) < 1e-12

    def test_sandwich_map_is_completely_positive(self):
        rng = np.random.default_rng(12)
        a = random_op(rng, 3, unit=False)
        c = choi_of_map(sandwich_map(a.conj().T, a))
        assert min_eig(c) > -1e-12

    def test_transpose_map_detected(self):
        # The transpose map is positive but not completely positive; its
        # Choi matrix is the swap with smallest eigenvalue exactly -1.
        d = 2
        s = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                s[i * d + j, j * d + i] = 1.0
        assert_allclose(min_eig(choi_of_map(s)), -1.0, atol=1e-12)

    def test_non_hermiticity_preserving_rejected(self):
        rng = np.random.default_rng(13)
        s = left_mul_map(random_op(rng, 2))  # one-sided product is not HP
        with pytest.raises(ValueError, match="hermiticity"):
            choi_of_map(s)


class TestEigTools:
    def test_min_eig_diagonal(self):
        assert min_eig(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)

    def test_min_eig_uses_hermitian_part(self):
        x = np.array([[1.0, 5.0], [0.0, 1.0]])
        assert min_eig(x) == pytest.approx(min_eig(hermitian_part(x)))

    def test_is_psd_tolerance_floor(self):
        assert is_psd(np.diag([1.0, -1e-10]))
        assert not is_psd(np.diag([1.0, -1e-6]))
        # relative scaling: a tiny dip next to a huge eigenvalue passes
        assert is_psd(np.diag([1e6, -1e-4]))

    @pytest.mark.parametrize("fn", [min_eig, is_psd])
    def test_empty_matrix_refused(self, fn):
        with pytest.raises(ValueError, match=r"^h is an empty \(0x0\) matrix: it has no eigenvalues$"):
            fn(np.zeros((0, 0)))


class TestAdjointTransform:
    def test_realizes_conjugated_map(self):
        rng = np.random.default_rng(14)
        for d in (2, 3):
            s = random_op(rng, d * d, unit=False)
            n = adjoint_superop_matrix(s)
            for _ in range(5):
                x = random_op(rng, d)
                want = apply_superop(s, x.conj().T).conj().T
                assert_allclose(apply_superop(n, x), want, atol=1e-13)

    def test_involution(self):
        rng = np.random.default_rng(15)
        s = random_op(rng, 9, unit=False)
        assert_allclose(adjoint_superop_matrix(adjoint_superop_matrix(s)), s)


def _permuted_blocks(sizes, seed):
    """A matrix that is block diagonal with the given block sizes after a
    seeded permutation of its rows, and its blocks as sorted index lists. Each
    block is connected only one way (entries m[i, j] with i before j in
    the block, never m[j, i]); singletons hold a diagonal entry, possibly
    0."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    m = np.zeros((n, n), dtype=complex)
    blocks, start = [], 0
    for s in sizes:
        idx = perm[start:start + s]
        start += s
        blocks.append(sorted(idx.tolist()))
        m[idx, idx] = rng.uniform(-1, 1, s) * (rng.random(s) < 0.8)
        for a in range(s - 1):
            # a chain that connects the block, plus a few more forward entries
            m[idx[a], idx[a + 1]] = complex(*rng.uniform(-1, 1, 2)) or 1.0
            for b in range(a + 2, s):
                if rng.random() < 0.3:
                    m[idx[a], idx[b]] = complex(*rng.uniform(-1, 1, 2))
    return m, blocks


_block_sizes = st.lists(st.integers(1, 5), min_size=2, max_size=7)
_seeds = st.integers(0, 2**32 - 1)


class TestDiagonalBlocks:
    """matrix_exponential, min_eig and is_psd solve each diagonal block of
    the permuted input on its own; a single block is a stack of one, with
    the bits of the dense call."""

    @settings(max_examples=60, deadline=None)
    @given(_block_sizes, _seeds)
    def test_plan_is_the_blocks(self, sizes, seed):
        m, blocks = _permuted_blocks(sizes, seed)
        plan = _diagonal_blocks(m)
        assert [idx.shape[1] for idx in plan] == sorted(set(sizes))
        assert sorted(sorted(row) for idx in plan for row in idx.tolist()) \
            == sorted(blocks)

    @settings(max_examples=60, deadline=None)
    @given(_block_sizes, _seeds, st.floats(-2.0, 2.0))
    def test_exponential_matches_dense(self, sizes, seed, t):
        m, blocks = _permuted_blocks(sizes, seed)
        got = matrix_exponential(m, t)
        want = scipy.linalg.expm(t * m)
        assert max_abs(got - want) <= 1e-13 * max(1.0, max_abs(want))
        same_block = np.zeros(m.shape, dtype=bool)
        for b in blocks:
            same_block[np.ix_(b, b)] = True
        assert np.all(got[~same_block] == 0)

    @settings(max_examples=60, deadline=None)
    @given(_block_sizes, _seeds)
    def test_eigenvalues_match_dense(self, sizes, seed):
        m, _ = _permuted_blocks(sizes, seed)
        evals = np.linalg.eigvalsh(hermitian_part(m))
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert abs(min_eig(m) - evals[0]) <= 1e-13 * scale
        # shifted to a least eigenvalue of +1e-3 and then -1e-3 times the scale
        shifted = m - (evals[0] - 1e-3 * scale) * np.eye(len(m))
        assert is_psd(shifted) and not is_psd(shifted - 2e-3 * scale * np.eye(len(m)))

    @pytest.mark.parametrize("pattern", ["dense", "one-way chain"])
    def test_single_block_takes_the_dense_call(self, pattern):
        rng = np.random.default_rng(40)
        m = random_op(rng, 7, unit=False)
        if pattern == "one-way chain":
            # connected only through m[i, i + 1]: one block once symmetrized
            m = np.triu(np.tril(m, 1))
        (plan,) = _diagonal_blocks(m)
        assert np.array_equal(plan, np.arange(7)[None])
        assert np.array_equal(matrix_exponential(m, 0.3), scipy.linalg.expm(0.3 * m))
        evals = np.linalg.eigvalsh(hermitian_part(m))
        assert min_eig(m) == evals[0]
        scale = max(1.0, float(np.max(np.abs(evals))))
        assert is_psd(m) == bool(evals[0] >= -1e-9 * scale)

    @settings(max_examples=30, deadline=None)
    @given(_block_sizes, _seeds)
    def test_blockwise_hermitian_part_has_the_dense_bits(self, sizes, seed):
        # the Hermitian part of each gathered block, never of the whole
        # matrix, gives the bits of eigvalsh on blocks of hermitian_part(m)
        m, _ = _permuted_blocks(sizes, seed)
        hp = hermitian_part(m)
        want = np.sort(np.concatenate(
            [np.linalg.eigvalsh(_block(hp, idx)).ravel() for idx in _diagonal_blocks(hp)]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qmflow.linalg, "hermitian_part", None)
            got = _hermitian_eigvals(m)
        assert got.tobytes() == want.tobytes()

    def test_isolated_negative_entry_is_found(self):
        # PSD 4x4 block plus one isolated diagonal entry -0.5, permuted
        rng = np.random.default_rng(41)
        a = random_op(rng, 4, unit=False)
        h = np.zeros((5, 5), dtype=complex)
        h[:4, :4] = a @ a.conj().T + np.eye(4)
        h[4, 4] = -0.5
        perm = rng.permutation(5)
        h = h[np.ix_(perm, perm)]
        assert len(_diagonal_blocks(h)) == 2
        assert min_eig(h) == -0.5
        assert not is_psd(h)
        h[perm.tolist().index(4)] *= -1   # the entry flips to +0.5
        assert min_eig(h) > 0 and is_psd(h)

    def test_one_entry_changes_the_plan(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[2, 3] = 1.0
        split = _diagonal_blocks(m)
        assert [sorted(row) for row in split[0].tolist()] == [[0, 1], [2, 3]]
        joined = m.copy()
        joined[1, 2] = 1.0
        assert [idx.tolist() for idx in _diagonal_blocks(joined)] == [[[0, 1, 2, 3]]]
        assert _diagonal_blocks(m) is split   # memoized under its pattern
        assert _diagonal_blocks(3 * m) is split

    def test_plan_memo_is_bounded(self):
        slots = _block_plan.cache_info().maxsize
        for k in range(slots + 5):
            m = np.eye(40)
            m[k, (k + 1) % 40] = 1.0
            _diagonal_blocks(m)
        assert _block_plan.cache_info().currsize == slots == 32


def _signed_block_sparse(seed):
    """A seeded Hermitian-ish matrix, block diagonal after a permutation of
    its rows, with +0j, -0j and (-0, +0) entries inside and between its
    blocks; half of them are shifted to be positive semidefinite."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    labels = rng.integers(0, max(1, n // 3), n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    m[labels[:, None] != labels[None, :]] = 0
    m[rng.random((n, n)) < 0.2] = 0
    for zero in (-0.0 + 0j, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)):
        m[rng.random((n, n)) < 0.05] = zero
    if seed % 2:
        m += (np.abs(np.linalg.eigvalsh(hermitian_part(m))).max() + 1e-3) * np.eye(n)
    return m


class TestFiniteOnTheBlocks:
    """min_eig and is_psd check the shape on entry, read the pattern once
    and refuse a non-finite entry on the gathered blocks: the same bits and
    the same messages as the dense finiteness pass over the whole input
    (``conftest.previous_min_eig``, ``conftest.previous_is_psd``)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_bits_as_the_dense_pass(self, seed):
        m = _signed_block_sparse(seed)
        got, want = min_eig(m), previous_min_eig(m)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert is_psd(m) == previous_is_psd(m)

    @pytest.mark.parametrize("where", ["nan in a block", "inf on the diagonal",
                                       "nan in a zero row", "complex(0, nan)"])
    @pytest.mark.parametrize("fn, previous", [(min_eig, previous_min_eig),
                                              (is_psd, previous_is_psd)])
    def test_non_finite_refused_with_the_message(self, where, fn, previous):
        m = _signed_block_sparse(3).astype(complex)
        n = m.shape[0]
        r = int(np.argmax(np.count_nonzero(m, axis=1)))
        if where == "nan in a block":
            m[r, np.flatnonzero(m[r])[-1]] = np.nan
        elif where == "inf on the diagonal":
            m[r, r] = np.inf
        elif where == "nan in a zero row":
            m[n - 1] = m[:, n - 1] = 0
            m[n - 1, 0] = np.nan
        else:
            m[r, r] = complex(0, np.nan)
        for f in (fn, previous):
            with pytest.raises(ValueError, match="^operator contains non-finite entries$"):
                f(m)

    @pytest.mark.parametrize("fn", [min_eig, is_psd])
    def test_shape_checked_first(self, fn):
        with pytest.raises(ValueError, match=r"^operator must be a square matrix, got shape \(2, 3\)$"):
            fn(np.full((2, 3), np.nan))


_patterns = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)))


class TestComponentPlan:
    """Every plan is ``_labels_plan(_component_labels(n, rows, cols))``:
    weak components of raw positions, which may repeat and need not be
    symmetric, numbered by least index. It equals the plan of the strong
    components of the symmetrized pattern."""

    @settings(max_examples=200, deadline=None)
    @given(_patterns)
    def test_equals_the_symmetrized_strong_plan(self, pattern):
        n, pairs = pattern
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        want = strong_components_plan(n, rows, cols)
        assert_same_plan(_labels_plan(_component_labels(n, rows, cols)), want)
        m = np.zeros((n, n))
        m[rows, cols] = 1.0
        assert_same_plan(_diagonal_blocks(m), want)

    def test_labels_follow_the_least_index(self):
        # 3 -> 0 and 1 -> 2, one way each: two components, the one holding
        # 0 first
        labels = _component_labels(4, np.array([3, 1, 1]), np.array([0, 2, 2]))
        assert labels.tolist() == [0, 1, 1, 0]
