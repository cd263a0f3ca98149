"""Batched evolution maps: bit-identical to the one-window product, one
exponential per distinct factor, each factor freed after its last use,
all computed in the model's block basis."""

import sys
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import qmflow
from qmflow import (
    StepFunction,
    block_form,
    build_extended_generator,
    build_glauber_structure_maps,
    check_cp_rows,
    commutator_map,
    evolution_map,
    flow_matrix_element,
    kernel_cp_residual,
    load_json,
    matrix_exponential,
    parse_config,
    point_generator,
    q_bound_check,
    rng_for,
    run_suite,
    save_json,
    schur_product_check,
    step_inner_product,
    structure_maps_from_obj,
    structure_maps_to_obj,
)
from qmflow import extended, flows, structure, suite
from qmflow.flows import _as_step, _evolution_maps, _segments, _unit_window_image, _window_plan
from qmflow.linalg import _apply, _block, _diagonal_blocks, _draw_op, _expm_stacks, _unblock, max_abs
from qmflow.structure import _sector_basis
from qmflow.suite import _random_step, _split_pieces


def reference_map(sm, f, g, start, end, mode):
    """The ordered product with one fresh exponential per segment."""
    total = np.eye(sm.theta_zero.shape[0], dtype=complex)
    for a, b in _segments(f, g, start, end):
        mid = 0.5 * (a + b)
        k = point_generator(sm, f.value_at(mid), g.value_at(mid), mode)
        total = total @ matrix_exponential(k, b - a)
    return total


def component_map(sm, f, g, start, end, mode):
    """The ordered product of factors on every component of the maps'
    union pattern (sm._plan): each the dense exponential of
    point_generator gathered into stacks, multiplied stack by stack and
    scattered once."""
    plan, total = sm._plan, None
    for a, b in _segments(f, g, start, end):
        mid = 0.5 * (a + b)
        m = matrix_exponential(point_generator(sm, f.value_at(mid), g.value_at(mid), mode), b - a)
        factor = [_block(m, idx) for idx in plan]
        total = factor if total is None else [x @ y for x, y in zip(total, factor)]
    n = sm.dim ** 2
    return np.eye(n, dtype=complex) if total is None else _unblock(total, plan, n)


def segment_keys(f, g, start, end):
    """The bits of (f0, g0, length) of every segment (so -0.0 != 0.0)."""
    keys = []
    for a, b in _segments(f, g, start, end):
        mid = 0.5 * (a + b)
        keys.append(np.array([f.value_at(mid), g.value_at(mid), b - a]).tobytes())
    return keys


@pytest.fixture()
def expm_calls(monkeypatch):
    """Count matrix_exponential calls made through every qmflow binding."""
    calls = []

    def counted(m, t=1.0):
        calls.append(t)
        return matrix_exponential(m, t)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qmflow" or name.startswith("qmflow.")):
            for key, value in list(vars(mod).items()):
                if value is matrix_exponential:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.fixture(scope="module")
def open4_sm():
    """The 4-site open chain: 256 rows in blocks of 1, 3 and 9."""
    return build_glauber_structure_maps(
        parse_config({"model": {"glauber": {"sites": 4, "boundary": "open"}}}).glauber)


F = StepFunction(((0.0, 0.7, 0.3 - 0.2j), (0.9, 1.6, -0.5 + 0.4j)))
G = StepFunction(((0.2, 1.1, 0.6 + 0.1j), (1.1, 1.9, 0.2 - 0.7j)))


def batch_windows():
    return [
        (F, G, 0.1, 1.8),                                  # crossing breakpoints
        (F, G, 0.0, 2.0),
        (F, G, 0.0, 1.0), (F, G, 1.0, 2.0),                # pieces of the last one
        (_split_pieces(F), _split_pieces(G), 0.0, 2.0),    # split pieces
        (F, StepFunction.zero(), 0.5, 1.8),                # zero gap in f
        (StepFunction.zero(), StepFunction.zero(), 0.0, 0.3),
        (F, G, 1.2, 1.2),                                  # degenerate
        (_as_step(0.4 - 0.3j, (0.0, 0.8)), _as_step(1.0, (0.0, 0.8)), 0.0, 0.8),
        (_as_step(2j, (0.5, 0.5)), _as_step(1.0, (0.5, 0.5)), 0.5, 0.5),
    ]


def assert_orbit_copies(sm, m, want):
    """m against the oracle want, block by block. A copy is its
    representative's block relabelled, exactly. A representative is
    bitwise the oracle's block when its stabilizer is trivial, as on the
    open chains; otherwise it is computed in its stabilizer's character
    basis and agrees within rounding, as a copy does (the oracle
    exponentiates the copy's own block, whose rows are in another order).
    Returns the number of copies."""
    sectors, n = sm._sectors, sm.dim ** 2
    split = any(f.shape[1] > 1 for _, f in sectors.fourier)
    tol = 1e-14 * max(1.0, max_abs(want))
    off = _unblock([np.ones((idx.shape[0], idx.shape[1], idx.shape[1])) for idx in sm._plan],
                   sm._plan, n) == 0
    assert not np.any(m[off]) and not np.any(want[off])
    copied = 0
    for idx in sm._plan:
        reps = np.all(sectors.source[idx] == idx, axis=1)
        if not split:
            assert np.array_equal(_block(m, idx[reps]), _block(want, idx[reps]))
        assert np.array_equal(_block(m, idx), _block(m, sectors.source[idx]))
        assert max_abs(_block(m, idx) - _block(want, idx)) <= tol
        copied += np.count_nonzero(~reps)
    return copied


class TestBitIdentical:
    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm", "periodic4_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_batch_equals_reference(self, request, model, mode):
        sm = request.getfixturevalue(model)
        windows = batch_windows()
        got = list(_evolution_maps(sm, windows, mode))
        assert len(got) == len(windows)
        for (f, g, s, t), m in zip(windows, got):
            assert np.array_equal(evolution_map(sm, f, g, s, t, mode), m), (s, t)
            want = reference_map(sm, f, g, s, t, mode)
            # the qubit has no symmetry; the 3-site periodic chain copies
            # 2 of its 4 components, the 4-site one 18 of 25
            copies = {"qubit_sm": 0, "glauber_sm": 2, "periodic4_sm": 18}[model]
            assert assert_orbit_copies(sm, m, want) == copies
            if model == "qubit_sm":
                assert np.array_equal(m, want), (s, t)

    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_model_without_symmetry_keeps_its_bits(self, periodic4_sm, mode):
        # a site-dependent sigma_z term breaks the shift and the flip: every
        # component is its own representative, and the maps are those of
        # factors on every component
        n = periodic4_sm.dim.bit_length() - 1
        z = np.kron(np.diag([1.0, -1.0]), np.eye(2 ** (n - 1)))
        sm = replace(periodic4_sm, theta_zero=periodic4_sm.theta_zero + commutator_map(z))
        assert sm._group == [] and sm._sectors.side == sm.dim ** 2
        windows = batch_windows()[:3]
        for (f, g, s, t), m in zip(windows, list(_evolution_maps(sm, windows, mode))):
            assert np.array_equal(m, component_map(sm, f, g, s, t, mode)), (s, t)

    def test_signed_zero_is_a_distinct_key(self, qubit_sm, expm_calls):
        # -0.0 and 0.0 give the same generator but are kept apart on purpose
        f = StepFunction.indicator(0.0, 1.0, complex(-0.0, 0.0))
        g = StepFunction.indicator(0.0, 1.0, 0.0)
        list(_evolution_maps(qubit_sm, [(f, g, 0.0, 1.0), (g, g, 0.0, 1.0)]))
        assert len(expm_calls) == 2


class TestCallCounts:
    def test_flow_group(self, expm_calls):
        # the 924 factors of flow-unitality's 100 windows go through one
        # linalg._expm_stacks pass per window on the unit blocks, not
        # matrix_exponential;
        # the kernel and q-bound records share one t = 0.7 table of 50
        run_suite(parse_config({}), groups=("flow",))
        assert len(expm_calls) == 1070

    def test_unitality_loop_makes_no_matrix_exponential_call(self, expm_calls, monkeypatch):
        stacked = []
        original = flows._expm_stacks
        monkeypatch.setattr(flows, "_expm_stacks",
                            lambda stacks, t: stacked.append(t) or original(stacks, t))
        sm = build_glauber_structure_maps(parse_config({}).glauber)
        rng = rng_for(0, "flow-unitality")
        windows = [(_random_step(rng), _random_step(rng), 0.0, 2.0) for _ in range(100)]
        for window in windows:
            _unit_window_image(sm, *window)
        assert expm_calls == []
        # one pass per window over its segments, each at its own length
        assert len(stacked) == 100
        lengths = [[length for *_, length in _window_plan(*window)] for window in windows]
        assert all(np.array_equal(t, want) for t, want in zip(stacked, lengths))
        assert sum(map(len, lengths)) == 924

    def test_composition_batch_one_call_per_distinct_key(self, glauber_sm, expm_calls):
        rng = rng_for(0, "flow-composition")
        shared = 0
        for _ in range(10):
            f, g = _random_step(rng), _random_step(rng)
            windows = [(f, g, 0.0, 2.0), (f, g, 0.0, 1.0), (f, g, 1.0, 2.0),
                       (_split_pieces(f), _split_pieces(g), 0.0, 2.0)]
            keys = [k for w in windows for k in segment_keys(*w)]
            expm_calls.clear()
            list(_evolution_maps(glauber_sm, windows))
            assert len(expm_calls) == len(set(keys))
            shared += len(keys) - len(set(keys))
        assert shared > 0

    def test_flow_matrix_element_one_call_per_segment(self, glauber_sm, expm_calls):
        x = np.eye(glauber_sm.dim)
        flow_matrix_element(glauber_sm, F, G, 0.1, 1.8, x)
        assert len(expm_calls) == len(_segments(F, G, 0.1, 1.8)) == 6

    def test_factors_exponentiate_the_representatives_alone(self, open4_sm, monkeypatch):
        # one matrix_exponential per segment, on the 91 distinct-block rows
        # of the 128 of 256 that the 4-site open chain's orbit
        # representatives hold
        sides = []
        monkeypatch.setattr(flows, "matrix_exponential",
                            lambda m, t=1.0: sides.append(m.shape[0]) or matrix_exponential(m, t))
        flow_matrix_element(open4_sm, F, G, 0.1, 1.8, np.eye(open4_sm.dim))
        assert sides == [91] * len(_segments(F, G, 0.1, 1.8))

    def test_periodic_factors_exponentiate_the_compact_sectors(self, periodic4_sm, monkeypatch):
        # at 4 periodic sites the compact side is the 7 representatives'
        # 172 of 256 rows, less 3 of their four equal 1-row blocks, and the
        # stabilizers' characters split its 144-row component: the largest
        # block has 22 rows
        largest = []

        def exponential(m, t=1.0):
            largest.append((m.shape[0], max(idx.shape[1] for idx in _diagonal_blocks(m))))
            return matrix_exponential(m, t)

        monkeypatch.setattr(flows, "matrix_exponential", exponential)
        flow_matrix_element(periodic4_sm, F, G, 0.1, 1.8, np.eye(periodic4_sm.dim))
        assert largest == [(169, 22)] * len(_segments(F, G, 0.1, 1.8))

    @pytest.mark.parametrize("model", ["glauber_sm", "qubit_sm"])
    def test_kernel_and_q_bound_share_one_table(self, request, model, monkeypatch):
        # the flow group sends both records' operands through one t = 0.7
        # batch, whose values are those of the public kernels on the same draws
        sm = request.getfixturevalue(model)
        grams, batches = [], []
        original, original_maps = flows._gram, flows._evolution_maps

        def gram(sm_, fs, ts, *operands):
            grams.append((tuple(ts), len(operands)))
            return original(sm_, fs, ts, *operands)

        def evolution_maps(sm_, windows, *args):
            batches.append(len(windows))
            return original_maps(sm_, windows, *args)

        monkeypatch.setattr(flows, "_gram", gram)
        monkeypatch.setattr(suite, "_gram", gram)
        monkeypatch.setattr(flows, "_evolution_maps", evolution_maps)
        records = {r.name: r for r in suite._check_flow(
            {"rc": parse_config({}), "sm": sm, "base": "b"})}
        assert grams == [((0.7,), 2), ((0.4, 0.3), 1)]
        assert batches == [16, 32]
        rng = rng_for(0, "flow-kernel")
        fs = [_random_step(rng) for _ in range(3)] + [1.0]
        xs = [_draw_op(rng, sm.dim) for _ in range(4)]
        x = _draw_op(rng, sm.dim)
        monkeypatch.setattr(flows, "_gram", original)
        assert records["flow-kernel-cp"].value == kernel_cp_residual(sm, fs, xs, 0.7)
        assert records["flow-q-bound"].value == q_bound_check(sm, fs, 0.7, x)

    def test_gram_tables_share_one_batch(self, glauber_sm, expm_calls):
        fs = [F, G, 1.0]
        xs = [np.eye(glauber_sm.dim)] * 3
        steps = [_as_step(f, (0.0, 0.4)) for f in fs]
        keys = {k for t in (0.4, 0.3) for fj in steps for fk in steps
                for k in segment_keys(fj, fk, 0.0, t)}
        schur_product_check(glauber_sm, fs, xs, 0.4, 0.3)
        assert len(expm_calls) == len(keys)


def watch_factors(monkeypatch, on_call):
    """Weak references to the stacks of every factor, one list per factor
    in the order they are computed. on_call(factors) runs before each
    factor is computed, and each dense exponential must be dead once its
    factor has been gathered into stacks."""
    factors, dense = [], []
    original = flows._factor

    def exponential(m, t=1.0):
        out = matrix_exponential(m, t)
        dense.append(weakref.ref(out))
        return out

    def factor(*args):
        on_call(factors)
        stacks = original(*args)
        assert dense[-1]() is None, "the dense exponential outlives its gathering"
        factors.append([weakref.ref(stack) for stack in stacks])
        return stacks

    monkeypatch.setattr(flows, "matrix_exponential", exponential)
    monkeypatch.setattr(flows, "_factor", factor)
    return factors


def alive(factors):
    """Indices of the watched factors any of whose stacks is alive."""
    return [i for i, refs in enumerate(factors) if any(r() is not None for r in refs)]


class TestLiveness:
    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_gram_holds_no_table_of_maps(self, request, model, monkeypatch):
        # each window map of the Schur check is dropped once its block is
        # written: at most one map per time is alive at once
        sm = request.getfixturevalue(model)
        refs, counts = [], []
        original = flows._evolution_maps

        def evolution_maps(*args):
            for m in original(*args):
                refs.append(weakref.ref(m))
                counts.append(sum(r() is not None for r in refs))
                yield m
                del m

        monkeypatch.setattr(flows, "_evolution_maps", evolution_maps)
        fs, ts = [F, G, 1.0], (0.4, 0.3)
        xs = [_draw_op(rng_for(0, "liveness"), sm.dim) for _ in fs]
        schur_product_check(sm, fs, xs, *ts)
        assert len(refs) == len(ts) * len(fs) ** 2
        assert max(counts) <= len(ts)


class TestLastUse:
    def test_no_factor_outlives_its_last_use(self, qubit_sm, monkeypatch):
        seen = []
        factors = watch_factors(monkeypatch, lambda fs: seen.append(alive(fs)))
        windows = [(F, G, 0.1, 1.8), (G, F, 0.0, 2.0)]
        counts = [len(segment_keys(*w)) for w in windows]
        assert sum(counts) == len({k for w in windows for k in segment_keys(*w)})
        # a window's first factor is its running product until the second
        # one is multiplied in; every other earlier factor is dead
        want, first = [], 0
        for n in counts:
            want += [[first] if j == 1 else [] for j in range(n)]
            first += n
        list(_evolution_maps(qubit_sm, windows))
        assert seen == want
        assert len(factors) == sum(counts)
        assert alive(factors) == []

    def test_repeated_factor_lives_until_its_last_use(self, qubit_sm, monkeypatch):
        seen = []
        factors = watch_factors(monkeypatch, lambda fs: seen.append(alive(fs)))
        f = StepFunction(((0.5, 1.0, 1.0), (1.5, 2.0, 1.0)))
        # [0.5, 1) and [1.5, 2) share one factor, which the second window
        # uses again: it is alive when the [1, 1.5) factor is computed,
        # while the window's first factor, [0.25, 0.5), is already gone
        maps = list(_evolution_maps(qubit_sm, [(f, f, 0.25, 2.0), (f, f, 0.5, 1.0)]))
        assert seen == [[], [0], [1]]
        assert alive(factors) == []
        assert np.array_equal(maps[0], reference_map(qubit_sm, f, f, 0.25, 2.0, "physical"))
        assert np.array_equal(maps[1], reference_map(qubit_sm, f, f, 0.5, 1.0, "physical"))


def dense_generator(sm, f0, g0, mode):
    """K(f0, g0) = theta_0 + g0 theta_minus + conj(f0) theta_plus
    [+ conj(f0) g0 id], straight from the dense maps."""
    f0, g0 = complex(f0), complex(g0)
    k = sm.theta_zero + g0 * sm.theta_minus + np.conj(f0) * sm.theta_plus
    if mode == "physical":
        k = k + (np.conj(f0) * g0) * np.eye(k.shape[0])
    return k


@pytest.fixture(scope="module")
def periodic4_sm():
    """The 4-site periodic chain: 256 rows in blocks of 1, 12 and 144."""
    return build_glauber_structure_maps(
        parse_config({"model": {"glauber": {"sites": 4, "boundary": "periodic"}}}).glauber)


class TestNormBoundMap:
    """flow-norm-bound takes exp(t K(f0, g0)) as one flow factor mapped
    back to the std basis: the bits of the window [0, t] map of the two
    constants."""

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm", "open4_sm", "periodic4_sm"])
    def test_factor_is_the_constant_window_map(self, request, model):
        sm = request.getfixturevalue(model)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f0, g0 = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
            t = float(rng.uniform(0.1, 1.5))
            want, = _evolution_maps(sm, [(StepFunction.indicator(0.0, t, f0),
                                          StepFunction.indicator(0.0, t, g0), 0.0, t)])
            got = sm._sectors.to_standard(flows._factor(sm, f0, g0, t, "physical"), sm._plan)
            assert np.array_equal(got, want), (f0, g0, t)


@pytest.fixture(scope="module")
def open4_file_sm(open4_sm, tmp_path_factory):
    """The 4-site open chain read back from its structure-map file: a set
    built from dense maps, which makes its views from them."""
    path = tmp_path_factory.mktemp("maps") / "open4.json"
    save_json(structure_maps_to_obj(open4_sm), path)
    return structure_maps_from_obj(load_json(path))


class TestBlockBasis:
    VALUES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
              (0.3 - 0.2j, 0.6 + 0.1j), (complex(-0.0, 0.0), -0.5 + 0.4j)]

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm", "open4_sm", "periodic4_sm",
                                       "open4_file_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_generator_is_point_generator_bitwise(self, request, model, mode):
        # the block-assembled generator against the dense formula
        sm = request.getfixturevalue(model)
        for f0, g0 in self.VALUES:
            assert np.array_equal(point_generator(sm, f0, g0, mode),
                                  dense_generator(sm, f0, g0, mode)), (f0, g0)

    @pytest.mark.parametrize("model, sizes", [("qubit_sm", [4]), ("glauber_sm", [16]),
                                              ("open4_sm", [1, 3, 9])])
    def test_plan_covers_every_index_once(self, request, model, sizes):
        sm = request.getfixturevalue(model)
        basis = _sector_basis(sm, [])
        plan, stacks = sm._plan, {alpha: basis.expand(s) for alpha, s in basis.stacks.items()}
        n = sm.dim ** 2
        assert [idx.shape[1] for idx in plan] == sizes
        assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in plan])),
                              np.arange(n))
        # the maps are block diagonal in the basis: their stacks hold every entry
        for alpha, m in sm.maps().items():
            assert np.array_equal(_unblock(stacks[alpha], plan, n), m)

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm", "open4_sm", "periodic4_sm"])
    def test_basis_from_views_is_the_dense_union_basis(self, request, model):
        # the plan from the views' stored positions has the bytes of the
        # plan of the dense union pattern
        sm = request.getfixturevalue(model)
        union = (sm.theta_minus != 0) | (sm.theta_zero != 0) | (sm.theta_plus != 0)
        want = _diagonal_blocks(union)
        basis = _sector_basis(sm, [])
        for plan in (sm._plan, basis.plan):
            assert len(plan) == len(want)
            for got, idx in zip(plan, want):
                assert got.dtype == idx.dtype and np.array_equal(got, idx)
        stacks = {alpha: basis.expand(s) for alpha, s in basis.stacks.items()}
        # the stacks hold the dense blocks' values, not their bytes: they are
        # read from the views, which store no zeros, so a commutator map's
        # -0.0 (its -1j * 0j off the view) is +0.0 in its stack
        for alpha, m in sm.maps().items():
            for stack, idx in zip(stacks[alpha], want):
                assert np.array_equal(stack, _block(m, idx))

    def test_one_component_is_one_block(self, qubit_sm):
        plan, stacks = qubit_sm._plan, _sector_basis(qubit_sm, []).stacks
        assert len(plan) == 1
        assert np.array_equal(plan[0], np.arange(4)[None])
        assert np.array_equal(stacks[0][0][0], qubit_sm.theta_zero)

    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_open4_batch_matches_reference(self, open4_sm, mode):
        windows = batch_windows()
        got = list(_evolution_maps(open4_sm, windows, mode))
        for (f, g, s, t), m in zip(windows, got):
            want = reference_map(open4_sm, f, g, s, t, mode)
            assert max_abs(m - want) <= 1e-13 * max_abs(want), (s, t)
            assert np.array_equal(evolution_map(open4_sm, f, g, s, t, mode), m), (s, t)

    @pytest.fixture()
    def built(self, monkeypatch):
        """The fields of every _Sectors made while the test runs."""
        built = []
        original = structure._Sectors
        monkeypatch.setattr(structure, "_Sectors",
                            lambda **fields: built.append(fields) or original(**fields))
        return built

    def test_plan_built_once_per_model_never_for_structure(self, built):
        # one basis per model, and none for the structure group
        run_suite(parse_config({}), groups=("structure",))
        assert built == []
        check_cp_rows(parse_config({"t_grid": [0.5, 1.0]}))
        assert len(built) == 1
        sm = build_glauber_structure_maps(parse_config({}).glauber)
        for mode in ("physical", "conservative"):
            extended._semigroup(build_extended_generator(sm, mode), 0.5)
        evolution_map(sm, F, G, 0.0, 1.0)
        _unit_window_image(sm, G, F, 0.0, 1.0)
        assert len(built) == 2
        # the open chain's flip pairs its components: one of each pair
        rc = parse_config({"model": {"glauber": {"sites": 3, "boundary": "open"}}})
        run_suite(rc, groups=("extended", "flow"))
        assert len(built) == 3

    def test_generators_need_no_basis(self, built):
        # the dense K, the entries' plans and the overflow guard read the
        # sums of the CSR views
        sm = build_glauber_structure_maps(parse_config({}).glauber)
        point_generator(sm, 0.3 - 0.2j, 0.6 + 0.1j)
        gens = [build_extended_generator(sm, mode) for mode in ("physical", "conservative")]
        for gen in gens:
            assert all(plan for row in gen._plans for plan in row)
        suite._refuse_overflowing_times(parse_config({}), *gens)
        assert built == [] and "_sectors" not in vars(sm)


class TestMessages:
    def test_reversed_window(self, qubit_sm):
        with pytest.raises(ValueError, match=r"^window is reversed: \[1\.0, 0\.5\]$"):
            evolution_map(qubit_sm, F, G, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"^window is reversed: \[2\.0, 1\.0\]$"):
            _evolution_maps(qubit_sm, [(F, G, 0.0, 1.0), (F, G, 2.0, 1.0)])

    def test_negative_window_length(self, qubit_sm):
        xs = [np.eye(2)] * 2
        with pytest.raises(ValueError, match=r"^window length must be nonnegative, got -0\.1$"):
            kernel_cp_residual(qubit_sm, [F, 1.0], xs, -0.1)
        with pytest.raises(ValueError, match=r"^window length must be nonnegative, got -0\.3$"):
            schur_product_check(qubit_sm, [F, 1.0], xs, 0.4, -0.3)

    @pytest.mark.parametrize("window", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_window(self, qubit_sm, window):
        msg = r"^window ends must be finite, got \[.*\]$"
        with pytest.raises(ValueError, match=msg):
            evolution_map(qubit_sm, F, G, *window)
        with pytest.raises(ValueError, match=msg):
            step_inner_product(F, G, window=window)
        with pytest.raises(ValueError, match=msg):
            flow_matrix_element(qubit_sm, F, G, *window, np.eye(2))

    @pytest.mark.parametrize("window, msg", [
        ((0.0, np.inf), r"window ends must be finite, got \[0\.0, inf\]"),
        ((np.nan, 1.0), r"window ends must be finite, got \[nan, 1\.0\]"),
        ((1.0, 0.5), r"window is reversed: \[1\.0, 0\.5\]")])
    def test_window_checked_before_scalar_functions(self, qubit_sm, window, msg):
        # a scalar f or g is made a step function on the window only after
        # the window is checked, so the message names the window
        with pytest.raises(ValueError, match=rf"^{msg}$"):
            flow_matrix_element(qubit_sm, 0.5, 0.0, *window, np.eye(2))
        with pytest.raises(ValueError, match=rf"^{msg}$"):
            flow_matrix_element(qubit_sm, F, 1.0 - 0.5j, *window, np.eye(2))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_kernel_time(self, qubit_sm, t):
        xs = [np.eye(2)] * 2
        msg = rf"^window length must be finite, got {t}$"
        with pytest.raises(ValueError, match=msg):
            kernel_cp_residual(qubit_sm, [F, 1.0], xs, t)
        with pytest.raises(ValueError, match=msg):
            q_bound_check(qubit_sm, [F, 1.0], t, np.eye(2))
        with pytest.raises(ValueError, match=msg):
            block_form(qubit_sm, [F, 1.0], t, np.eye(2))
        for t1, t2 in ((0.4, t), (t, 0.4)):
            with pytest.raises(ValueError, match=msg):
                schur_product_check(qubit_sm, [F, 1.0], xs, t1, t2)

    def test_empty_test_functions(self, qubit_sm):
        msg = r"^fs is empty: a Gram kernel needs at least one test function$"
        with pytest.raises(ValueError, match=msg):
            kernel_cp_residual(qubit_sm, [], [], 0.5)
        with pytest.raises(ValueError, match=msg):
            q_bound_check(qubit_sm, [], 0.5, np.eye(2))
        with pytest.raises(ValueError, match=msg):
            schur_product_check(qubit_sm, [], [], 0.4, 0.3)

    @pytest.mark.parametrize("f0, g0, name, shown", [
        (np.inf, 0.0, "f0", "inf"), (0.3, complex(0.0, np.nan), "g0", r"nanj"),
        (complex(-np.inf, 1.0), 0.5, "f0", r"\(-inf\+1j\)")])
    def test_non_finite_point_values_refused(self, qubit_sm, monkeypatch, f0, g0, name, shown):
        # refused before any assembly, with no warning
        monkeypatch.setattr(flows, "_generator_csr", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {shown}$"):
                point_generator(qubit_sm, f0, g0)

    @pytest.mark.parametrize("pieces", [((-100.0, 0.0, 30.0), (0.0, 1.0, 0.5)),
                                        ((-2.0, 0.0, 1e200), (0.0, 1.0, 0.5))],
                             ids=["overflow", "non-finite-product"])
    def test_non_finite_weight_refused(self, glauber_sm, expm_calls, pieces):
        # exp(<f, g> outside the window) is refused before any exponential,
        # with no warning
        f = StepFunction(pieces)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the weight exp\(<f, g> outside the window\) "
                                                 r"is not finite: <f, g> there is "):
                flow_matrix_element(glauber_sm, f, f, 0.0, 1.0, np.eye(glauber_sm.dim))
        assert expm_calls == []

    @pytest.mark.parametrize("x, msg", [
        (np.eye(3), r"operator dimension 3 does not match superoperator dimension 8"),
        (np.ones((8, 4)), r"operator must be a square matrix, got shape \(8, 4\)"),
        (np.diag([np.nan] + [1.0] * 7), r"operator contains non-finite entries")],
        ids=["dimension", "not-square", "non-finite"])
    def test_observable_refused_before_any_exponential(self, glauber_sm, expm_calls, x, msg):
        with pytest.raises(ValueError, match=rf"^{msg}$"):
            flow_matrix_element(glauber_sm, F, G, 0.0, 2.0, x)
        assert expm_calls == []

    def test_batch_routine_stays_private(self):
        for name in ("_evolution_maps", "_unit_window_image"):
            assert name not in flows.__all__
            assert not hasattr(qmflow, name)

    @pytest.mark.parametrize("window", [(1.0, 1.0), (0.1, 1.8)], ids=["empty", "non-empty"])
    def test_invalid_mode_refused_on_every_window(self, qubit_sm, window):
        msg = r"^mode must be one of \('conservative', 'physical'\), got 'bogus'$"
        with pytest.raises(ValueError, match=msg):
            evolution_map(qubit_sm, F, G, *window, mode="bogus")
        with pytest.raises(ValueError, match=msg):
            flow_matrix_element(qubit_sm, F, G, *window, np.eye(2), mode="bogus")
        with pytest.raises(ValueError, match=msg):
            _evolution_maps(qubit_sm, [(F, G, 0.0, 1.0), (F, G, *window)], "bogus")
        with pytest.raises(ValueError, match=msg):
            _unit_window_image(qubit_sm, F, G, *window, mode="bogus")

    def test_invalid_mode_refused_before_the_window(self, qubit_sm):
        msg = r"^mode must be one of"
        with pytest.raises(ValueError, match=msg):
            evolution_map(qubit_sm, F, G, 1.0, 0.5, mode="bogus")
        with pytest.raises(ValueError, match=msg):
            _unit_window_image(qubit_sm, F, G, 1.0, 0.5, mode="bogus")


@pytest.fixture(scope="module")
def open3_sm():
    """The 3-site open chain, whose sector basis is its block basis."""
    return build_glauber_structure_maps(
        parse_config({"model": {"glauber": {"sites": 3, "boundary": "open"}}}).glauber)


class TestUnitWindowImage:
    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm", "open3_sm",
                                       "periodic4_sm", "open4_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_equals_dense_image_of_the_identity(self, request, model, mode):
        sm = request.getfixturevalue(model)
        eye = np.eye(sm.dim)
        for f, g, s, t in batch_windows():
            want = _apply(reference_map(sm, f, g, s, t, mode), eye)
            got = _unit_window_image(sm, f, g, s, t, mode)
            scale = max(1.0, abs(np.exp(step_inner_product(f, g, window=(s, t)))))
            assert max_abs(got - want) <= 1e-14 * scale, (s, t)

    @pytest.mark.parametrize("model", ["glauber_sm", "open4_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_stacked_segments_equal_the_segment_loop_bitwise(self, request, model, mode):
        # the reference: each segment's factor exponentiated on its own
        sm = request.getfixturevalue(model)
        sectors = sm._sectors
        rng = rng_for(0, "flow-unitality")
        windows = [(_random_step(rng), _random_step(rng), 0.0, 2.0) for _ in range(30)]
        windows += [(F, G, 1.2, 1.2)]
        for window in windows:
            got = _unit_window_image(sm, *window, mode)
            total = None
            for _, f0, g0, length in _window_plan(*window):
                factor = _expm_stacks(flows._generator_blocks(sectors.unit_stacks, f0, g0, mode),
                                      length)
                total = factor if total is None else [a @ b for a, b in zip(total, factor)]
            want = (np.eye(sm.dim) if total is None else sectors.unit_image(
                _unblock(total, sectors.unit_plan, sectors.unit_one.size)))
            assert np.array_equal(got, want)

    def test_empty_window_is_the_identity(self, glauber_sm):
        got = _unit_window_image(glauber_sm, F, G, 1.2, 1.2)
        assert got.dtype == complex and np.array_equal(got, np.eye(glauber_sm.dim))

    @pytest.mark.parametrize("mode, value, end, msg", [
        ("physical", 1e5, 1e305, r"^t \* M overflows at t = 1e\+305: "),
        ("conservative", 1e5, 1e305, r"^t \* M overflows at t = 1e\+305: "),
        ("physical", 30.0, 1.0, r"^exp\(t \* M\) overflows at t = 1\.0: "),
    ])
    def test_overflow_refused_as_evolution_map_refuses_it(self, glauber_sm, mode, value, end, msg):
        f = StepFunction.indicator(0.0, end, value)
        with pytest.raises(ValueError, match=msg) as dense:
            evolution_map(glauber_sm, f, f, 0.0, end, mode)
        with pytest.raises(ValueError, match=msg) as unit:
            _unit_window_image(glauber_sm, f, f, 0.0, end, mode)
        assert str(unit.value) == str(dense.value)

    @pytest.mark.parametrize("pieces, msg", [
        (((-1e305, 0.0, 1e5), (0.0, 1e306, 2e5)), r"^t \* M overflows at t = 1e\+305: "),
        (((-1e306, 0.0, 1e5), (0.0, 1e305, 2e5)), r"^t \* M overflows at t = 1e\+306: "),
        (((0.0, 1.5, 30.0), (1.5, 2.5, 31.0)), r"^exp\(t \* M\) overflows at t = 1\.5: "),
        (((0.0, 1.0, 30.0), (1.0, 2.5, 31.0)), r"^exp\(t \* M\) overflows at t = 1\.0: "),
        # an earlier overflow of either kind is named before a later one
        (((0.0, 1.5, 30.0), (1.5, 1e305, 1e5)), r"^exp\(t \* M\) overflows at t = 1\.5: "),
        (((-1e305, 0.0, 1e5), (0.0, 1.5, 30.0)), r"^t \* M overflows at t = 1e\+305: "),
    ])
    def test_refuses_at_the_earliest_overflowing_segment(self, glauber_sm, pieces, msg):
        # one exponential pass over the window's segments still names the
        # length of its first segment, in time order, that overflows
        f = StepFunction(pieces)
        with pytest.raises(ValueError, match=msg):
            _unit_window_image(glauber_sm, f, f, pieces[0][0], pieces[-1][1])


_PLAN = flows._window_plan
_UNIT_IMAGE = suite._unit_window_image


def _keyed_without_length(monkeypatch):
    # factors of equal values but different lengths share one exponential
    monkeypatch.setattr(flows, "_window_plan", lambda *window: [
        (np.array([f0, g0]).tobytes(), f0, g0, length) for _, f0, g0, length in _PLAN(*window)])


def _reversed_in_time(monkeypatch):
    monkeypatch.setattr(flows, "_window_plan", lambda *window: _PLAN(*window)[::-1])


def _conservative_unit_image(monkeypatch):
    monkeypatch.setattr(suite, "_unit_window_image",
                        lambda sm, f, g, start, end, mode="physical":
                        _UNIT_IMAGE(sm, f, g, start, end, "conservative"))


class TestFlowAdversaries:
    """flow-composition, flow-refinement and flow-unitality hold for every
    model the build accepts, so each is shown to fail on a fault in the
    code: a factor cache that ignores the segment length, segments
    multiplied in reverse time order, and the unit image in the
    conservative normalization."""

    @pytest.mark.parametrize("fault, failing", [
        (None, set()),
        (_keyed_without_length, {"flow-composition", "flow-refinement"}),
        (_reversed_in_time, {"flow-composition"}),
        (_conservative_unit_image, {"flow-unitality"}),
    ])
    def test_fault_fails_its_records(self, monkeypatch, fault, failing):
        if fault is not None:
            fault(monkeypatch)
        records = run_suite(parse_config({}), groups=("flow",)).records
        assert len(records) == 7
        assert {r.name for r in records if not r.passed} == failing
