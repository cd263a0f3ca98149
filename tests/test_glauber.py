import numpy as np
import pytest

import qmflow.glauber
from qmflow import (
    GlauberConfig,
    LABELS,
    build_F_lambda,
    build_glauber_structure_maps,
    build_site_operator,
    build_spin_operators,
    default_constants,
    leibnitz_residual,
    shift_matrix,
)

_S = {"p": 1, "m": -1}


def _bit(state, slot, n):
    # slot 0 is the leftmost site; bit value 1 means spin up
    return (state >> (n - 1 - slot)) & 1


def _site_oracle(n, r, eps, mu):
    """Direct enumeration of the one-site flip operator.

    Column state c maps to row state r' where site r (1-based) flips; the
    entry is 1 when the two neighbors match the signs demanded by eps and
    mu relative to the spin at site r after the flip.
    """
    dim = 2 ** n
    out = np.zeros((dim, dim))
    left, mid, right = r - 2, r - 1, r % n  # slots, periodic wrap
    for c in range(dim):
        flipped = c ^ (1 << (n - 1 - mid))
        s = 1 if _bit(flipped, mid, n) else -1  # spin at r after the flip
        sl = 1 if _bit(c, left % n, n) else -1
        sr = 1 if _bit(c, right, n) else -1
        if sl == eps * s and sr == mu * s:
            out[flipped, c] = 1.0
    return out


class TestConfig:
    def test_site_range(self):
        for n in (2, 6, 7):
            with pytest.raises(ValueError, match="sites"):
                GlauberConfig.with_random_constants(sites=n, boundary="periodic", seed=1)

    def test_boundary_validated(self):
        with pytest.raises(ValueError, match="boundary"):
            GlauberConfig.with_random_constants(sites=3, boundary="twisted", seed=1)

    def test_label_set_validated(self):
        gp, gm = default_constants(0)
        bad_plus = dict(gp)
        del bad_plus["mm"]
        with pytest.raises(ValueError, match="label"):
            GlauberConfig(sites=3, boundary="periodic",
                          gg_plus=bad_plus, gg_minus=gm)

    def test_negative_real_part_rejected(self):
        gp, gm = default_constants(0)
        bad = dict(gp)
        bad["pp"] = -0.1 + 0.2j
        with pytest.raises(ValueError, match="real part"):
            GlauberConfig(sites=3, boundary="periodic",
                          gg_plus=bad, gg_minus=gm)

    def test_non_finite_rejected(self):
        gp, gm = default_constants(0)
        bad = dict(gm)
        bad["pm"] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            GlauberConfig(sites=3, boundary="periodic",
                          gg_plus=gp, gg_minus=bad)

    def test_default_constants_window_and_determinism(self):
        a = default_constants(7)
        b = default_constants(7)
        c = default_constants(8)
        assert a == b
        assert a != c
        for table in a:
            for lab in LABELS:
                v = table[lab]
                assert 0.5 <= v.real <= 1.5
                assert -0.5 <= v.imag <= 0.5


class TestSiteOperators:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_bit_oracle_periodic(self, n):
        cfg = GlauberConfig.with_random_constants(sites=n, boundary="periodic", seed=3)
        for r in range(1, n + 1):
            for le, lm in [(a, b) for a in "pm" for b in "pm"]:
                got = build_site_operator(cfg, r, _S[le], _S[lm])
                want = _site_oracle(n, r, _S[le], _S[lm])
                assert np.array_equal(got, want), (n, r, le, lm)

    def test_interior_sites_match_oracle_open(self):
        cfg = GlauberConfig.with_random_constants(sites=4, boundary="open", seed=3)
        for r in (2, 3):
            got = build_site_operator(cfg, r, 1, -1)
            want = _site_oracle(4, r, 1, -1)
            assert np.array_equal(got, want)

    def test_known_positions_three_sites(self):
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=3)
        m = build_site_operator(cfg, 2, 1, 1)
        rows, cols = np.nonzero(m)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 2), (7, 5)]

    def test_each_site_contributes_two_entries(self):
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=3)
        for r in (1, 2, 3):
            for le in (-1, 1):
                for lm in (-1, 1):
                    m = build_site_operator(cfg, r, le, lm)
                    assert int(np.count_nonzero(m)) == 2

    def test_edge_site_rejected_open(self):
        cfg = GlauberConfig.with_random_constants(sites=4, boundary="open", seed=3)
        for r in (1, 4):
            with pytest.raises(ValueError, match="no flip term"):
                build_site_operator(cfg, r, 1, 1)

    def test_site_index_validated(self):
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=3)
        for r in (0, 4):
            with pytest.raises(ValueError, match="site"):
                build_site_operator(cfg, r, 1, 1)


_PROJ = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}    # onto spin up, down
_FLIP = {1: np.array([[0.0, 1.0], [0.0, 0.0]]),              # |+><-|
         -1: np.array([[0.0, 0.0], [1.0, 0.0]])}             # |-><+|


def _kron_site_operator(n, r, eps, mu):
    """The site-r term as the np.kron product of its site factors, summed
    over the spin s at r after the flip."""
    slot = r - 1
    total = np.zeros((2 ** n, 2 ** n))
    for s in (1, -1):
        factors = [np.eye(2)] * n
        factors[(slot - 1) % n] = _PROJ[eps * s]
        factors[slot] = _FLIP[s]
        factors[(slot + 1) % n] = _PROJ[mu * s]
        term = factors[0]
        for fac in factors[1:]:
            term = np.kron(term, fac)
        total = total + term
    return total


def _assert_index_built_equals_kron(cfg):
    n = cfg.sites
    sites = range(1, n + 1) if cfg.boundary == "periodic" else range(2, n)
    for lab in LABELS:
        eps, mu = _S[lab[0]], _S[lab[1]]
        want = np.zeros((cfg.dim, cfg.dim))
        for r in sites:
            term = _kron_site_operator(n, r, eps, mu)
            assert build_site_operator(cfg, r, eps, mu).tobytes() == term.tobytes()
            want = want + term
        assert build_F_lambda(cfg, eps, mu).tobytes() == want.tobytes(), lab


class TestIndexBuiltOperators:
    """F(label) comes from the basis-index bits; its bytes are those of the
    np.kron product of the site factors."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_equals_kron_product(self, n, boundary):
        _assert_index_built_equals_kron(
            GlauberConfig.with_random_constants(sites=n, boundary=boundary, seed=0))

    def test_flipped_neighbor_mask_fails(self, monkeypatch):
        inner = qmflow.glauber._flip_entries
        monkeypatch.setattr(qmflow.glauber, "_flip_entries",
                            lambda cfg, r, eps, mu: inner(cfg, r, -eps, mu))
        with pytest.raises(AssertionError):
            _assert_index_built_equals_kron(
                GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=0))


class TestCollectiveOperators:
    def test_total_is_sum_of_sites(self):
        cfg = GlauberConfig.with_random_constants(sites=4, boundary="periodic", seed=5)
        f = build_F_lambda(cfg, 1, -1)
        want = sum(build_site_operator(cfg, r, 1, -1) for r in range(1, 5))
        assert np.array_equal(f, want)

    def test_open_chain_sums_interior(self):
        cfg = GlauberConfig.with_random_constants(sites=4, boundary="open", seed=5)
        f = build_F_lambda(cfg, -1, 1)
        want = sum(build_site_operator(cfg, r, -1, 1) for r in (2, 3))
        assert np.array_equal(f, want)

    def test_nonzero_count_three_sites(self):
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=5)
        f = build_F_lambda(cfg, 1, 1)
        assert int(np.count_nonzero(f)) == 6

    def test_adjoint_flips_both_labels(self):
        for n in (3, 4):
            cfg = GlauberConfig.with_random_constants(sites=n, boundary="periodic", seed=5)
            ops = build_spin_operators(cfg)
            for le in (-1, 1):
                for lm in (-1, 1):
                    a = build_F_lambda(cfg, le, lm).conj().T
                    b = build_F_lambda(cfg, -le, -lm)
                    assert np.array_equal(a, b)
            # the labeled dictionary agrees with direct construction
            assert np.array_equal(ops["pm"], build_F_lambda(cfg, 1, -1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shift_matrix_bits(self, n):
        # the matrix from the index bits, built one index at a time
        dim = 2 ** n
        want = np.zeros((dim, dim))
        for idx in range(dim):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            new = 0
            for b in [bits[-1]] + bits[:-1]:
                new = (new << 1) | b
            want[new, idx] = 1.0
        assert shift_matrix(n).tobytes() == want.tobytes()

    def test_translation_covariance(self):
        n = 4
        cfg = GlauberConfig.with_random_constants(sites=n, boundary="periodic", seed=5)
        u = shift_matrix(n)
        for r in range(1, n + 1):
            a = u @ build_site_operator(cfg, r, 1, -1) @ u.T
            b = build_site_operator(cfg, (r % n) + 1, 1, -1)
            assert np.array_equal(a, b)
        f = build_F_lambda(cfg, 1, -1)
        assert np.array_equal(u @ f @ u.T, f)

    def test_distant_sites_commute(self):
        # sites 1 and 3 share only site 2, where both act by projections
        cfg = GlauberConfig.with_random_constants(sites=5, boundary="periodic", seed=5)
        for eps in (1, -1):
            for mu in (1, -1):
                a = build_site_operator(cfg, 1, eps, mu)
                b = build_site_operator(cfg, 3, eps, mu)
                assert np.array_equal(a @ b, b @ a)

    def test_partial_isometry_blocks(self):
        # each site term has F*F and FF* diagonal 0/1 projections
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=5)
        m = build_site_operator(cfg, 2, 1, 1)
        for p in (m.T @ m, m @ m.T):
            assert np.array_equal(p, np.diag(np.diag(p)))
            assert set(np.diag(p).tolist()) <= {0.0, 1.0}

    def test_annihilates_aligned_state(self):
        # with all spins up, no site has an up-down neighbor pattern that
        # the (+,-) operator accepts after flipping down
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=5)
        e_up = np.zeros(8)
        e_up[0b111] = 1.0
        f = build_F_lambda(cfg, 1, -1)
        assert np.array_equal(f @ e_up, np.zeros(8))


class TestShiftMatrix:
    def test_permutation_orthogonal(self):
        for n in (3, 4):
            u = shift_matrix(n)
            d = 2 ** n
            assert u.shape == (d, d)
            assert np.array_equal(u @ u.T, np.eye(d))
            assert np.array_equal(np.sort(np.nonzero(u)[1]), np.arange(d))

    def test_cycles_back(self):
        n = 3
        u = shift_matrix(n)
        assert np.array_equal(np.linalg.matrix_power(u, n), np.eye(2 ** n))


class TestStructureMaps:
    def test_axioms_hold(self, glauber_sm):
        rng = np.random.default_rng(70)
        d = glauber_sm.dim
        for _ in range(10):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            res = leibnitz_residual(glauber_sm, x, y)
            assert res[-1] < 1e-10
            assert res[1] < 1e-10
            assert res[0] < 1e-9

    def test_ito_constants_from_rates(self, glauber_cfg, glauber_sm):
        assert glauber_sm.ito.c_mp == pytest.approx(
            2.0 * glauber_cfg.gg_minus["pp"].real, abs=1e-8)
        assert glauber_sm.ito.c_pm == pytest.approx(
            2.0 * glauber_cfg.gg_plus["pp"].real, abs=1e-8)

    def test_drift_is_hermiticity_preserving(self, glauber_sm):
        from qmflow import choi_of_map
        choi_of_map(glauber_sm.theta_zero)  # raises if not

    def test_effective_hamiltonian_enters_hermitian(self):
        # building twice with conjugated imaginary parts flips the sign of
        # the commutator piece only; the difference must be a commutator
        # map, hence kill the identity
        cfg = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=9)
        sm = build_glauber_structure_maps(cfg)
        d = cfg.dim
        assert np.max(np.abs(sm.theta_zero @ np.eye(d).flatten(order="F"))) < 1e-12
