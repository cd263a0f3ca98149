"""The character basis of the periodic chain's symmetries: detection from
the maps, the extended exponentials computed in it, and the trivial
group's basis of every other model, which keeps the per-entry
exponentials bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qmflow import (
    GlauberConfig,
    LABELS,
    build_extended_generator,
    build_glauber_structure_maps,
    check_cp_rows,
    commutator_map,
    matrix_exponential,
    parse_config,
    save_json,
    structure_maps_to_obj,
)
from qmflow import extended
from qmflow.extended import _semigroup, _table_choi, _unit_images
from qmflow.linalg import _apply, _diagonal_blocks, _unblock
from qmflow.structure import _cyclic_shift, _symmetries, _vec_permutation

DEFAULT_GRID = parse_config({}).t_grid


def chain(sites, boundary="periodic", seed=0):
    return build_glauber_structure_maps(
        parse_config({"seed": seed,
                      "model": {"glauber": {"sites": sites, "boundary": boundary}}}).glauber)


@pytest.fixture(scope="module")
def periodic3():
    return chain(3)


@pytest.fixture(scope="module")
def periodic4():
    return chain(4)


@pytest.fixture(scope="module")
def open4():
    return chain(4, "open")


def off_blocks(m):
    """Mask of the entries of m outside its diagonal blocks."""
    n = m.shape[0]
    plan = _diagonal_blocks(m)
    return _unblock([np.ones((idx.shape[0], idx.shape[1], idx.shape[1])) for idx in plan],
                    plan, n) == 0


def padded_choi_plan(table, d):
    """The plan of the zero-padded (2d)**2-side Choi matrix that
    extended_choi_min_eig hands to min_eig."""
    c = _table_choi(table, d)
    p, k = np.divmod(np.arange(d * d), d)
    rows = np.concatenate([(i * d + p) * (2 * d) + i * d + k for i in (0, 1)])
    full = np.zeros((4 * d * d, 4 * d * d), dtype=complex)
    full[rows[:, None], rows] = c
    return _diagonal_blocks(full)


def assert_trivial_basis(sm):
    """sm's sector basis is the trivial group's, sm.blocks itself: Q is the
    identity and each index its own orbit."""
    sectors, n = sm._sectors, sm.dim ** 2
    assert sectors is sm.blocks
    assert np.array_equal(sectors.position, np.arange(n))
    assert [f.shape for _, f in sectors.fourier] == [(n, 1, 1)]
    assert np.all(sectors.fourier[0][1] == 1)


def site_z_breaker(sm):
    """sm with -i [., sigma_z on site 1] added to theta_0: a Hermitian
    commutator term, so the set stays valid, on one site only."""
    n = sm.dim.bit_length() - 1
    z = np.kron(np.diag([1.0, -1.0]), np.eye(2 ** (n - 1)))
    return replace(sm, theta_zero=sm.theta_zero + commutator_map(z))


class TestDetection:
    @pytest.mark.parametrize("sites", [3, 4, 5])
    def test_periodic_chain_has_shift_and_flip(self, sites):
        found = _symmetries(chain(sites))
        assert [order for order, _ in found] == [sites, 2]
        assert np.array_equal(found[0][1], _cyclic_shift(sites))
        assert np.array_equal(found[1][1], np.arange(2 ** sites) ^ (2 ** sites - 1))

    def test_open_chain_has_the_flip_alone_and_no_sectors(self, open4):
        assert [order for order, _ in _symmetries(open4)] == [2]
        # the flip leaves a 9-row block, as large as the largest component,
        # so the basis falls back to the trivial group
        assert_trivial_basis(open4)

    def test_qubit_has_none(self, qubit_sm):
        assert _symmetries(qubit_sm) == []
        assert_trivial_basis(qubit_sm)

    @settings(max_examples=12, deadline=None)
    @given(sites=st.integers(3, 5),
           values=st.lists(st.tuples(st.floats(0, 5), st.floats(-5, 5)),
                           min_size=8, max_size=8))
    def test_detected_for_drawn_constants(self, sites, values):
        consts = [complex(re, im) for re, im in values]
        cfg = GlauberConfig(sites=sites, boundary="periodic",
                            gg_plus=dict(zip(LABELS, consts[:4])),
                            gg_minus=dict(zip(LABELS, consts[4:])))
        sm = build_glauber_structure_maps(cfg)
        assert [order for order, _ in _symmetries(sm)] == [sites, 2]

    def test_invariance_is_exact(self, periodic3):
        # the shift's vec permutation moves every map onto itself bit for bit
        vec = _vec_permutation(_cyclic_shift(3))
        for m in periodic3.maps().values():
            assert np.array_equal(m[np.ix_(vec, vec)], m)

    def test_one_ulp_off_defeats_both(self, periodic3):
        # one stored entry of theta_0 moved by one ulp: no longer exact
        tz = periodic3.theta_zero.copy()
        r, c = np.argwhere(tz != 0)[5]
        tz[r, c] = np.nextafter(tz[r, c].real, np.inf) + 1j * tz[r, c].imag
        broken = replace(periodic3, theta_zero=tz)
        assert _symmetries(broken) == []
        assert_trivial_basis(broken)

    def test_site_dependent_term_takes_the_entry_path(self, periodic4):
        bad = site_z_breaker(periodic4)
        assert _symmetries(bad) == []
        assert_trivial_basis(bad)
        gen = build_extended_generator(bad, "physical")
        eye = np.eye(bad.dim)
        for t in (0.1, 1.0):
            table, images = _semigroup(gen, t), _unit_images(gen, t)
            for i in (0, 1):
                for j in (0, 1):
                    want = matrix_exponential(gen.block(i, j), t)
                    assert np.array_equal(table[i][j], want)
                    assert np.max(np.abs(images[i][j] - _apply(want, eye))) <= 1e-14


class TestSectorBasis:
    def test_four_site_blocks(self, periodic4):
        sectors = periodic4._sectors
        assert [idx.shape for idx in sectors.plan] == [(16, 1), (16, 6), (4, 16), (1, 18),
                                                       (2, 20), (1, 22)]
        assert sum(idx.size for idx in sectors.unit_plan) == sectors.unit_one.size == 23

    @pytest.mark.parametrize("model", ["periodic3", "periodic4"])
    def test_maps_are_block_diagonal_in_it(self, request, model):
        sm = request.getfixturevalue(model)
        sectors, n = sm._sectors, sm.dim ** 2
        everything = (np.arange(n)[None],)
        for alpha, m in sm.maps().items():
            back = sectors.to_standard(_unblock(sectors.stacks[alpha], sectors.plan, n),
                                       everything)
            assert np.max(np.abs(back - m)) <= 1e-14 * np.max(np.abs(m))


class TestSectorSemigroup:
    @pytest.mark.parametrize("model", ["periodic3", "periodic4"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_against_expm(self, request, model, mode):
        sm = request.getfixturevalue(model)
        gen = build_extended_generator(sm, mode)
        for t in DEFAULT_GRID:
            table = _semigroup(gen, t)
            for i in (0, 1):
                for j in (0, 1):
                    want = scipy.linalg.expm(t * gen.block(i, j))
                    got = table[i][j]
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (t, i, j)
                    # exact zeros where the exact map is 0
                    assert not np.any(got[off_blocks(gen.block(i, j))])

    @pytest.mark.parametrize("model", ["periodic3", "periodic4"])
    def test_padded_choi_plan_unchanged(self, request, model):
        sm = request.getfixturevalue(model)
        gen = build_extended_generator(sm, "physical")
        for t in DEFAULT_GRID:
            got = padded_choi_plan(_semigroup(gen, t), sm.dim)
            # each entry's own exponential
            want = padded_choi_plan([[matrix_exponential(gen.block(i, j), t) for j in (0, 1)]
                                     for i in (0, 1)], sm.dim)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("model", ["periodic3", "periodic4"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_unit_images_match_the_full_maps(self, request, model, mode):
        sm = request.getfixturevalue(model)
        gen = build_extended_generator(sm, mode)
        eye = np.eye(sm.dim)
        for t in DEFAULT_GRID:
            table, images = _semigroup(gen, t), _unit_images(gen, t)
            for i in (0, 1):
                for j in (0, 1):
                    assert np.max(np.abs(images[i][j] - _apply(table[i][j], eye))) <= 1e-14

    def test_one_exponential_per_entry(self, periodic4, monkeypatch):
        sides = []
        original = extended.matrix_exponential
        monkeypatch.setattr(extended, "matrix_exponential",
                            lambda m, t=1.0: sides.append(m.shape[0]) or original(m, t))
        gen = build_extended_generator(periodic4, "physical")
        _semigroup(gen, 0.5)
        _unit_images(gen, 0.5)
        assert sides == [256] * 4 + [23] * 4

    def test_negative_time_refused(self, periodic3):
        gen = build_extended_generator(periodic3, "physical")
        for fn in (_semigroup, _unit_images):
            with pytest.raises(ValueError, match="^evolution time must be nonnegative"):
                fn(gen, -0.5)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_refused(self, periodic3, t):
        gen = build_extended_generator(periodic3, "physical")
        for fn in (_semigroup, _unit_images):
            with pytest.raises(ValueError, match=f"^evolution time must be finite, got {t}$"):
                fn(gen, t)


class TestEntryPathUnchanged:
    """Models without a splitting symmetry are exponentiated in the trivial
    group's basis, which keeps the per-entry exponentials bit for bit; the
    images of 1 come from the blocks that hold vec(1) alone."""

    @pytest.mark.parametrize("model", ["open4", "qubit_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_bitwise(self, request, model, mode):
        sm = request.getfixturevalue(model)
        gen = build_extended_generator(sm, mode)
        eye = np.eye(sm.dim)
        for t in (0.1, 0.5):
            table, images = _semigroup(gen, t), _unit_images(gen, t)
            for i in (0, 1):
                for j in (0, 1):
                    want = matrix_exponential(gen.block(i, j), t)
                    assert np.array_equal(table[i][j], want)
                    assert np.max(np.abs(images[i][j] - _apply(want, eye))) <= 1e-14


def test_chain_and_its_file_give_the_same_rows(tmp_path, periodic4):
    path = tmp_path / "maps.json"
    save_json(structure_maps_to_obj(periodic4), path)
    loaded = parse_config({"model": {"structure_maps": str(path)}})
    direct = parse_config({"model": {"glauber": {"sites": 4, "boundary": "periodic"}}})
    rows, passed = check_cp_rows(loaded)
    assert passed
    assert rows == check_cp_rows(direct)[0]
