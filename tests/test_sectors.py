"""The character basis of the periodic chain's symmetries: detection from
the maps, the extended exponentials computed in it, the trivial group's
basis of every other model, which keeps the per-entry exponentials bit for
bit, and the equal-block copies, which keep the factors bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qmflow import (
    DEFAULT_TOLERANCES,
    GlauberConfig,
    LABELS,
    build_extended_generator,
    build_glauber_structure_maps,
    check_cp_rows,
    extended_choi_min_eig,
    generator_cp_min_eig,
    matrix_exponential,
    parse_config,
    save_json,
    structure_maps_to_obj,
)
from qmflow import extended, flows, linalg, structure
from qmflow.extended import _semigroup, _unit_images
from qmflow.linalg import _apply, _block, _diagonal_blocks, _unblock
from qmflow.structure import _cyclic_shift, _symmetries, _vec_permutation
from conftest import (
    assert_same_plan,
    one_ulp_off,
    padded,
    site_z_breaker,
    std_choi_min_eig,
    std_generator_cp_min_eig,
    strong_components_plan,
    table_choi,
)

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
    return _diagonal_blocks(padded(table_choi(table, d), d))


def assert_trivial_basis(sm):
    """sm's sector basis is the trivial group's, on the components of the
    maps' union pattern: Q is the identity and each index its own orbit."""
    sectors, n = sm._sectors, sm.dim ** 2
    assert sm._group == [] and sectors.side == n
    assert all(np.array_equal(a, b) for a, b in zip(sectors.plan, sm._plan, strict=True))
    assert np.array_equal(sectors.position, np.arange(n))
    assert [f.shape for _, f in sectors.fourier] == [(n, 1, 1)]
    assert np.all(sectors.fourier[0][1] == 1)


class TestDetection:
    @pytest.mark.parametrize("sites", [3, 4, 5])
    def test_periodic_chain_has_shift_and_flip(self, sites):
        found = _symmetries(chain(sites))
        assert [order for order, _ in found] == [sites, 2]
        assert np.array_equal(found[0][1], _cyclic_shift(sites))
        assert np.array_equal(found[1][1], np.arange(2 ** sites) ^ (2 ** sites - 1))

    def test_open_chain_has_the_flip_alone_and_no_sectors(self, open4):
        assert [order for order, _ in _symmetries(open4)] == [2]
        # the flip pairs the components and fixes none, so the basis holds
        # one of each pair and no character splits it: Q is the identity
        sectors = open4._sectors
        assert sectors.side == 128
        assert [f.shape for _, f in sectors.fourier] == [(128, 1, 1)]
        assert np.all(sectors.fourier[0][1] == 1)

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
        broken = one_ulp_off(periodic3)
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


def representatives(sm):
    """The rows of sm._plan that are representatives, one boolean
    array per plan group: the components whose indices copy themselves."""
    source = sm._sectors.source
    return [np.all(source[idx] == idx, axis=1) for idx in sm._plan]


def stabilizers(sm):
    """The stabilizer of each representative component, computed from the
    group alone: the coords of the elements g with g(C) = C."""
    _, coords, act = structure._group_elements(sm._group)
    out = []
    for idx, reps in zip(sm._plan, representatives(sm)):
        for comp in idx[reps]:
            out.append({tuple(a) for a in coords
                        if np.array_equal(np.sort(act(a, comp)), comp)})
    return out


class TestOrbits:
    """Orbit copies outside: one representative component per orbit of the
    maps' symmetry group, every other member an exact copy of it."""

    @pytest.mark.parametrize("sites, boundary, copies, side", [
        (3, "periodic", (2, 4), (32, 64)), (4, "open", (32, 64), (128, 256)),
        (5, "open", (50, 100), (512, 1024)), (5, "periodic", (2, 4), (512, 1024))])
    def test_members_gather_their_representatives_stacks(self, sites, boundary, copies, side):
        sm = chain(sites, boundary)
        sectors, n = sm._sectors, sm.dim ** 2
        assert (sectors.side, n) == side
        count = sum(idx.shape[0] for idx in sm._plan)
        assert (count - sum(r.sum() for r in representatives(sm)), count) == copies
        for idx in sm._plan:
            for m in sm.maps().values():
                # every member's dense blocks are its representative's, exactly
                assert np.array_equal(_block(m, idx), _block(m, sectors.source[idx]))
        # the basis's own stacks map back to each map, 0 off its blocks
        off = off_blocks(sum(np.abs(m) for m in sm.maps().values()) + np.eye(n))
        for alpha, m in sm.maps().items():
            back = sectors.to_standard(sectors.stacks[alpha], sm._plan)
            assert np.max(np.abs(back - m)) <= 1e-14 * max(1.0, np.max(np.abs(m)))
            assert not np.any(back[off])

    @pytest.mark.parametrize("sites, boundary", [(3, "periodic"), (4, "open"), (4, "periodic")])
    def test_aligned_plan_covers_every_index_once(self, sites, boundary):
        sm = chain(sites, boundary)
        sectors = sm._sectors
        held = [idx[reps] for idx, reps in zip(sm._plan, representatives(sm))]
        # each component copies one representative, each of its indices once
        for idx, rep in zip(sm._plan, held):
            copied = np.sort(sectors.source[idx], axis=1)
            assert np.all((copied[:, None, :] == rep[None]).all(axis=2).sum(axis=1) == 1)
        # the compact side is the representatives' indices, and its plan
        # covers it once
        assert sectors.side == sum(rep.size for rep in held)
        assert np.array_equal(np.sort(np.concatenate([p.ravel() for p in sectors.plan])),
                              np.arange(sectors.side))

    @pytest.mark.parametrize("sites, boundary, orders", [
        (3, "periodic", {3}), (4, "periodic", {8, 2}), (5, "periodic", {5}),
        (3, "open", {1}), (4, "open", {1}), (5, "open", {1})])
    def test_stabilizer_orders(self, sites, boundary, orders):
        sm = chain(sites, boundary)
        found = stabilizers(sm)
        assert {len(h) for h in found} == orders
        if boundary == "periodic" and sites != 4:
            # the shift alone: every power of it, and no flip
            assert all(h == {(a, 0) for a in range(sites)} for h in found)
        # each stabilizer orbit has as many columns as rows, and a trivial
        # stabilizer leaves Q the identity
        sizes = {f.shape[1] for _, f in sm._sectors.fourier}
        assert all(any(order % s == 0 for order in orders) for s in sizes)
        assert (sizes == {1}) == (orders == {1})

    @pytest.mark.parametrize("broken", [site_z_breaker, one_ulp_off], ids=["site-z", "one-ulp"])
    def test_without_symmetry_every_component_is_its_own(self, periodic4, broken):
        sm = broken(periodic4)
        assert _symmetries(sm) == []
        sectors = sm._sectors
        assert sm._group == [] and sectors.side == sm.dim ** 2
        assert np.array_equal(sectors.source, np.arange(sm.dim ** 2))

    def test_group_detected_once(self, monkeypatch):
        calls = []
        original = structure._symmetries
        monkeypatch.setattr(structure, "_symmetries",
                            lambda sm: calls.append(sm) or original(sm))
        sm = chain(3)
        gen = build_extended_generator(sm, "physical")
        _semigroup(gen, 0.5)
        _unit_images(gen, 0.5)
        sm._sectors, sm._plan
        assert len(calls) == 1


class TestSectorBasis:
    def test_four_site_blocks(self, periodic4):
        sectors = periodic4._sectors
        assert [idx.shape for idx in sectors.plan] == [(4, 1), (4, 6), (4, 16), (1, 18),
                                                       (2, 20), (1, 22)]
        assert sectors.side == 172
        assert sum(idx.size for idx in sectors.unit_plan) == sectors.unit_one.size == 23

    @pytest.mark.parametrize("model", ["periodic3", "periodic4"])
    def test_maps_are_block_diagonal_in_it(self, request, model):
        sm = request.getfixturevalue(model)
        sectors = sm._sectors
        for alpha, m in sm.maps().items():
            back = sectors.to_standard(sectors.stacks[alpha], sm._plan)
            assert np.max(np.abs(back - m)) <= 1e-14 * np.max(np.abs(m))

    @pytest.mark.parametrize("model", ["periodic3", "periodic4", "open4", "qubit_sm"])
    def test_entry_plans_from_the_stacks(self, request, model):
        # L_ij's plan read from its CSR sum has the bytes of the dense pass
        # over the entry
        sm = request.getfixturevalue(model)
        for mode in ("physical", "conservative"):
            gen = build_extended_generator(sm, mode)
            for i in (0, 1):
                for j in (0, 1):
                    got, want = gen._plans[i][j], _diagonal_blocks(gen.block(i, j))
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and np.array_equal(a, b)


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
        for module in (extended, flows):
            monkeypatch.setattr(module, "matrix_exponential",
                                lambda m, t=1.0: sides.append(m.shape[0]) or original(m, t))
        gen = build_extended_generator(periodic4, "physical")
        _semigroup(gen, 0.5)
        _unit_images(gen, 0.5)
        # the compact side: 7 representatives of the 25 components, 172
        # rows, less 3 of the four equal 1-row blocks
        assert sides == [169] * 4 + [23] * 4

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


def eigensolve_sides(monkeypatch):
    """The side of every block that reaches eigvalsh, appended as it is
    solved."""
    sides, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(linalg.np.linalg, "eigvalsh",
                        lambda a: sides.extend([a.shape[-1]] * len(a)) or real(a))
    return sides


class TestSectorChoi:
    """Both Choi tests split by the group's characters, against the std
    basis (``std_choi_min_eig`` and ``std_generator_cp_min_eig``)."""

    @pytest.mark.parametrize("sites", [3, 4])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_against_the_std_basis(self, sites, boundary, mode):
        gen = build_extended_generator(chain(sites, boundary), mode)
        assert gen._choi_sectors is not None and gen._generator_choi_sectors is not None
        choi, dissip = DEFAULT_TOLERANCES["choi"], DEFAULT_TOLERANCES["dissip"]
        for t in DEFAULT_GRID:
            want, scale = std_choi_min_eig(gen, t)
            got = extended_choi_min_eig(gen, t)
            assert abs(got - want) <= 1e-13 * max(1.0, scale), t
            assert (got >= -choi) == (want >= -choi)
        want, scale = std_generator_cp_min_eig(gen)
        got = generator_cp_min_eig(gen)
        assert abs(got - want) <= 1e-13 * max(1.0, scale)
        assert (got >= -dissip) == (want >= -dissip)

    def test_largest_eigensolve_block(self, periodic4, monkeypatch):
        gen = build_extended_generator(periodic4)
        sides = eigensolve_sides(monkeypatch)
        std_choi_min_eig(gen, 0.5)
        assert max(sides) == 296
        sides.clear()
        extended_choi_min_eig(gen, 0.5)
        assert max(sides) == 46

    @pytest.mark.parametrize("model, broken", [
        ("qubit_sm", None), ("periodic4", site_z_breaker), ("periodic3", one_ulp_off)],
        ids=["qubit", "site-z", "one-ulp"])
    def test_trivial_group_keeps_the_std_bits(self, request, model, broken):
        sm = request.getfixturevalue(model)
        sm = sm if broken is None else broken(sm)
        for mode in ("physical", "conservative"):
            gen = build_extended_generator(sm, mode)
            for t in DEFAULT_GRID:
                assert extended_choi_min_eig(gen, t) == std_choi_min_eig(gen, t)[0]
            assert generator_cp_min_eig(gen) == std_generator_cp_min_eig(gen)[0]

    def test_sector_data_built_once_per_generator(self, periodic3, monkeypatch):
        built, real = [], extended._choi_sectors
        monkeypatch.setattr(extended, "_choi_sectors",
                            lambda *args, **kw: built.append(kw) or real(*args, **kw))
        gen = build_extended_generator(periodic3)
        for t in DEFAULT_GRID:
            extended_choi_min_eig(gen, t)
        generator_cp_min_eig(gen)
        generator_cp_min_eig(gen)
        assert built == [{}, {"unit": True}]


def coupling_plan(sm):
    """The oracle of ``_Sectors.plan`` by another route: the coupling pass,
    which joins the columns (O1, chi) and (O2, chi) of every two orbits of
    the representatives that a map couples, within each character, and
    takes the components of those joins."""
    n = sm.dim ** 2
    orders, coords, act = structure._group_elements(sm._group)
    images = np.array([act(a, np.arange(n)) for a in coords])
    comp = np.empty(n, int)
    for label, row in enumerate(row for idx in sm._plan for row in idx):
        comp[row] = label
    held = np.flatnonzero(sm._sectors.source == np.arange(n))
    orbit, size, _, column, _, _ = structure._characters(orders, coords, images, comp, held)
    local = np.full(n, -1)
    local[held] = np.arange(held.size)
    rows, cols, _ = (np.concatenate(part) for part in zip(*structure._stored_entries(sm)))
    inside = local[rows] >= 0
    pairs = np.unique(orbit[local[rows[inside]]] * size.size + orbit[local[cols[inside]]])
    o1, o2 = np.divmod(pairs, size.size)
    pair, char = np.nonzero((column[o1] >= 0) & (column[o2] >= 0))
    return strong_components_plan(held.size, column[o1[pair], char], column[o2[pair], char])


FIXTURE_MODELS = {
    "qubit": lambda request: request.getfixturevalue("qubit_sm"),
    "site-z": lambda request: site_z_breaker(request.getfixturevalue("periodic4")),
    "one-ulp": lambda request: one_ulp_off(request.getfixturevalue("periodic3")),
    "3-periodic": lambda request: request.getfixturevalue("periodic3"),
    "3-open": lambda request: chain(3, "open"),
    "4-periodic": lambda request: request.getfixturevalue("periodic4"),
    "4-open": lambda request: request.getfixturevalue("open4"),
}


@pytest.mark.parametrize("model", FIXTURE_MODELS)
class TestOnePlanRule:
    """Every plan comes from one component routine, and the sector blocks
    of both bases from one (component, character) rule: each against an
    independent route on every fixture model."""

    def test_component_plans(self, request, model):
        sm = FIXTURE_MODELS[model](request)
        n = sm.dim ** 2
        rows, cols, _ = (np.concatenate(part) for part in zip(*structure._stored_entries(sm)))
        assert_same_plan(sm._plan, strong_components_plan(n, rows, cols))
        for mode in ("physical", "conservative"):
            gen = build_extended_generator(sm, mode)
            for i in (0, 1):
                for j in (0, 1):
                    want = strong_components_plan(n, *gen._sums[i][j].nonzero())
                    assert_same_plan(gen._plans[i][j], want)

    def test_sector_plan_is_the_coupling_plan(self, request, model):
        sm = FIXTURE_MODELS[model](request)
        assert_same_plan(sm._sectors.plan, coupling_plan(sm))


class TestEntryPathUnchanged:
    """A model without a symmetry is exponentiated in the trivial group's
    basis, which keeps the per-entry exponentials bit for bit; the images
    of 1 come from the blocks that hold vec(1) alone. A model whose
    stabilizers are all trivial (the open chain) keeps them bit for bit on
    its representatives, and the other components copy those exactly."""

    @pytest.mark.parametrize("model", ["qubit_sm"])
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

    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_representatives_bitwise(self, open4, mode):
        gen = build_extended_generator(open4, mode)
        sectors, eye = open4._sectors, np.eye(open4.dim)
        for t in (0.1, 0.5):
            table, images = _semigroup(gen, t), _unit_images(gen, t)
            for i in (0, 1):
                for j in (0, 1):
                    want, got = matrix_exponential(gen.block(i, j), t), table[i][j]
                    tol = 1e-14 * max(1.0, np.max(np.abs(want)))
                    assert not np.any(got[off_blocks(gen.block(i, j))])
                    for idx, reps in zip(open4._plan, representatives(open4)):
                        assert np.array_equal(_block(got, idx[reps]), _block(want, idx[reps]))
                        assert np.array_equal(_block(got, idx), _block(got, sectors.source[idx]))
                        assert np.max(np.abs(_block(got, idx) - _block(want, idx))) <= tol
                    assert np.max(np.abs(images[i][j] - _apply(want, eye))) <= 1e-14


def layout_std(sectors):
    """The std index at each layout position of a basis whose Q is the
    identity."""
    held = np.flatnonzero(sectors.source == np.arange(sectors.source.size))
    std = np.empty(sectors.side, int)
    std[sectors.position[held]] = held
    return std


def full_plan_stacks(sm):
    """The dense maps' blocks on every block of the plan of sm's basis, for
    a basis whose Q is the identity (the open chain's), each -0.0 made
    +0.0 as in the stacks read from the views."""
    sectors, std = sm._sectors, layout_std(sm._sectors)
    return {alpha: [_block(m, std[idx]) + 0j for idx in sectors.plan]
            for alpha, m in sm.maps().items()}


def full_plan_factor(sm, f0, g0, length, mode):
    """exp(length K(f0, g0)) with every block of the plan held: each one
    scattered into the compact matrix of the whole layout, one
    matrix_exponential call, each one gathered."""
    sectors = sm._sectors
    k = _unblock(flows._generator_blocks(full_plan_stacks(sm), f0, g0, mode),
                 sectors.plan, sectors.side)
    m = matrix_exponential(k, length)
    return [_block(m, idx) for idx in sectors.plan]


# (f0, g0, length): generic values, f0 = 0, g0 = 0, both 0 (theta_0 alone,
# whose pattern splits blocks further) and a signed zero
SEGMENTS = [(0.3 - 0.2j, 0.6 + 0.1j, 0.5), (0.0, -0.5 + 0.4j, 0.7), (0.4 - 0.3j, 0.0, 0.2),
            (0.0, 0.0, 0.45), (complex(-0.0, 0.0), 1.0, 1.3)]


class TestEqualBlocks:
    """Equal-block copies: in each plan entry, the blocks whose three map
    blocks have equal bytes are held once, and the factors are exponentiated
    on those alone."""

    @pytest.mark.parametrize("sites", [3, 4, 5])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_factors_equal_the_full_plan_bitwise(self, sites, mode):
        sm = chain(sites, "open")
        sectors = sm._sectors
        assert sectors.distinct_side < sectors.side
        for alpha, stacks in full_plan_stacks(sm).items():
            assert all(np.array_equal(a, b) for a, b in
                       zip(sectors.expand(sectors.stacks[alpha]), stacks, strict=True))
        for f0, g0, length in SEGMENTS:
            got = sectors.expand(flows._factor(sm, f0, g0, length, mode))
            want = full_plan_factor(sm, f0, g0, length, mode)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (f0, g0, length)
        # theta_0 alone splits the distinct blocks further
        k = _unblock(sectors.stacks[0], sectors.distinct_plan, sectors.distinct_side)
        assert sum(idx.shape[0] for idx in _diagonal_blocks(k)) > \
            sum(idx.shape[0] for idx in sectors.distinct_plan)

    def test_open4_counts(self, open4):
        sectors = open4._sectors
        assert [idx.shape for idx in sectors.plan] == [(8, 1), (16, 3), (8, 9)]
        assert [idx.shape for idx in sectors.distinct_plan] == [(1, 1), (6, 3), (8, 9)]
        assert (sectors.side, sectors.distinct_side) == (128, 91)

    @pytest.mark.parametrize("sites", [3, 4, 5])
    def test_copies_are_the_equal_blocks_of_the_maps(self, sites):
        # Q is the identity on the open chain, so the held blocks are the
        # dense maps' blocks: blocks copy one another exactly when all
        # three maps' dense blocks are equal
        sm = chain(sites, "open")
        sectors, std = sm._sectors, layout_std(sm._sectors)
        for idx, copies in zip(sectors.plan, sectors.copies):
            blocks = [[_block(m, std[idx[r:r + 1]]) for m in sm.maps().values()]
                      for r in range(idx.shape[0])]
            for r in range(idx.shape[0]):
                first = next(q for q in range(r + 1)
                             if all(np.array_equal(a, b) for a, b in zip(blocks[q], blocks[r])))
                assert copies[r] == copies[first]
                assert (copies[r] == copies[:r]).any() == (first < r)

    @pytest.mark.parametrize("sites, copies", [
        (3, None), (4, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 2, 3], [0], [0, 1], [0]]), (5, None)])
    def test_periodic_chains(self, sites, copies):
        # only the 4-site chain's four 1-row blocks are equal
        sectors = chain(sites)._sectors
        if copies is None:
            assert sectors.copies is None and sectors.distinct_plan is sectors.plan
            assert sectors.distinct_side == sectors.side
        else:
            assert [c.tolist() for c in sectors.copies] == copies
            assert (sectors.side, sectors.distinct_side) == (172, 169)

    def test_qubit_has_no_copies(self, qubit_sm):
        assert qubit_sm._sectors.copies is None

    def test_one_ulp_off_is_not_merged(self, open4):
        # one theta_plus entry of a copied 3-row block moved by one ulp, and
        # its image under the flip with it, so the flip still holds
        sectors, std = open4._sectors, layout_std(open4._sectors)
        idx, copies = sectors.plan[1], sectors.copies[1]
        r = int(np.flatnonzero(copies == copies[0])[1])
        rows = std[idx[r]]
        a, b = np.argwhere(open4.theta_plus[np.ix_(rows, rows)] != 0)[0]
        d = open4.dim
        flip = _vec_permutation(np.arange(d) ^ (d - 1))
        tp = open4.theta_plus.copy()
        for i, j in ((rows[a], rows[b]), (flip[rows[a]], flip[rows[b]])):
            tp[i, j] = np.nextafter(tp[i, j].real, np.inf) + 1j * tp[i, j].imag
        bad = replace(open4, theta_plus=tp)
        assert [order for order, _ in bad._group] == [2]
        moved = bad._sectors
        assert [idx.shape for idx in moved.plan] == [idx.shape for idx in sectors.plan]
        assert [idx.shape for idx in moved.distinct_plan] == [(1, 1), (7, 3), (8, 9)]
        assert moved.copies[1][r] not in np.delete(moved.copies[1], r)
        zero, plus = (moved.expand(moved.stacks[alpha])[1] for alpha in (0, 1))
        assert np.array_equal(zero[r], zero[0]) and not np.array_equal(plus[r], plus[0])
        for mode in ("physical", "conservative"):
            got = moved.expand(flows._factor(bad, 0.3 - 0.2j, 0.6 + 0.1j, 0.5, mode))
            want = full_plan_factor(bad, 0.3 - 0.2j, 0.6 + 0.1j, 0.5, mode)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_chain_and_its_file_give_the_same_rows(tmp_path, periodic4):
    path = tmp_path / "maps.json"
    save_json(structure_maps_to_obj(periodic4), path)
    loaded = parse_config({"model": {"structure_maps": str(path)}})
    direct = parse_config({"model": {"glauber": {"sites": 4, "boundary": "periodic"}}})
    rows, passed = check_cp_rows(loaded)
    assert passed
    assert rows == check_cp_rows(direct)[0]
