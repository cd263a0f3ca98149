from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qmflow import (
    DEFAULT_TOLERANCES,
    BlockOp2,
    ExtendedGenerator,
    GlauberConfig,
    StructureMapSet,
    apply_extended,
    apply_superop,
    build_evans_hudson,
    build_extended_generator,
    build_glauber_structure_maps,
    build_model,
    choi_of_map,
    commutation_residual,
    commutator_map,
    conservativity_residual,
    default_constants,
    delta_map,
    delta_sq_map,
    delta_sq_semigroup,
    devectorize,
    dissipativity_residual_min_eig,
    extended_choi_min_eig,
    generator_cp_min_eig,
    kappa_residual,
    kernel_cp_residual,
    matrix_exponential,
    max_abs,
    min_eig,
    normalization_residual,
    parse_config,
    point_generator,
    resolvent_generator,
    rng_for,
    vectorize,
)
import qmflow.suite as suite
from qmflow.extended import _semigroup
from qmflow.flows import _generator_blocks
from qmflow.linalg import _apply, _draw_op, _hermitian_choi
from qmflow.suite import _RESOLVENT_EPS
from conftest import (
    dense_sector_choi,
    exact_generator_cp_min_eig,
    one_ulp_off,
    padded_rows,
    projected_generator_choi,
    random_op,
    same_bytes_as_padded,
    sector_apply,
    site_z_breaker,
    std_choi_min_eig,
    table_choi,
)


class TestBlockOp2:
    def test_roundtrip(self):
        rng = np.random.default_rng(40)
        m = random_op(rng, 6, unit=False)
        x = BlockOp2.from_full(m)
        assert x.dim == 3
        assert_allclose(x.as_full(), m)

    def test_adjoint_matches_full(self):
        rng = np.random.default_rng(41)
        x = BlockOp2.from_full(random_op(rng, 4, unit=False))
        assert_allclose(x.adjoint().as_full(), x.as_full().conj().T)

    def test_block_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            BlockOp2(np.eye(2), np.eye(3), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="even"):
            BlockOp2.from_full(np.eye(3))


class TestGeneratorTable:
    def test_conservative_entries(self, qubit_sm, qubit_gen_cons):
        m0, mm, mp = qubit_sm.theta_zero, qubit_sm.theta_minus, qubit_sm.theta_plus
        g = qubit_gen_cons
        assert_allclose(g.block(0, 0), m0)
        assert_allclose(g.block(0, 1), m0 + mm)
        assert_allclose(g.block(1, 0), m0 + mp)
        assert_allclose(g.block(1, 1), m0 + mp + mm)

    def test_physical_adds_identity_to_corner(self, qubit_gen_cons, qubit_gen_phys):
        for i in (0, 1):
            for j in (0, 1):
                want = qubit_gen_cons.block(i, j)
                if (i, j) == (1, 1):
                    want = want + np.eye(4)
                assert_allclose(qubit_gen_phys.block(i, j), want)

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_entries_are_corner_point_generators(self, model, request):
        sm = request.getfixturevalue(model)
        for mode in ("conservative", "physical"):
            gen = build_extended_generator(sm, mode)
            other = "physical" if mode == "conservative" else "conservative"
            switched = replace(gen, mode=other)
            direct = build_extended_generator(sm, other)
            for i in (0, 1):
                for j in (0, 1):
                    assert np.array_equal(gen.block(i, j), point_generator(sm, i, j, mode))
                    assert np.array_equal(switched.block(i, j), direct.block(i, j))

    def test_bad_mode_rejected(self, qubit_sm):
        with pytest.raises(ValueError, match="mode"):
            build_extended_generator(qubit_sm, "rescaled")

    @pytest.mark.parametrize("name", ["good qubit", "3-site periodic chain", "3-site open chain",
                                      "4-site open chain"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_sums_act_as_the_dense_entries(self, name, mode):
        gen = build_extended_generator(_CP_MODELS[name](), mode)
        rng = np.random.default_rng(49)
        for i in (0, 1):
            for j in (0, 1):
                dense = gen.block(i, j)
                for _ in range(2):
                    x = random_op(rng, gen.dim, unit=False)
                    got, want = _apply(gen._sums[i][j], x), apply_superop(dense, x)
                    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("config", [{}, {"model": {"glauber": {"sites": 4, "boundary": "open"}}}])
    def test_extended_group_keeps_no_dense_entry(self, config):
        ctx = suite._set_up({"rc": parse_config(config)})
        records = list(suite._check_extended(ctx))
        assert {r.name for r in records} == {
            "extended-cp", "extended-conservativity", "extended-normalization",
            "extended-kappa", "extended-generator-cp", "extended-resolvent-order"}
        assert all(r.passed for r in records)
        n = ctx["sm"].dim ** 2

        def dense_maps(value):
            if isinstance(value, (tuple, list)):
                return [m for v in value for m in dense_maps(v)]
            return [value] if isinstance(value, np.ndarray) and value.shape == (n, n) else []

        for gen in (ctx["gen_phys"], ctx["gen_cons"]):
            assert dense_maps(list(vars(gen).values())) == []
            # each read converts afresh
            assert gen.block(1, 1) is not gen.block(1, 1)

    def test_axiom_failures_rejected(self):
        rng = np.random.default_rng(43)
        f = random_op(rng, 2, unit=False)
        broken = StructureMapSet(dim=2, theta_minus=commutator_map(f),
                                 theta_zero=np.zeros((4, 4)),
                                 theta_plus=commutator_map(f))
        with pytest.raises(ValueError, match="axiom failure"):
            build_extended_generator(broken)


class TestApplyExtended:
    def test_entrywise_oracle(self, qubit_gen_phys):
        rng = np.random.default_rng(44)
        x = BlockOp2.from_full(random_op(rng, 4, unit=False))
        got = apply_extended(qubit_gen_phys, 0.6, x)
        for i in (0, 1):
            for j in (0, 1):
                p = matrix_exponential(qubit_gen_phys.block(i, j), 0.6)
                assert_allclose(got.block(i, j), apply_superop(p, x.block(i, j)),
                                atol=1e-13)

    def test_zero_time_is_identity(self, qubit_gen_phys):
        rng = np.random.default_rng(45)
        x = BlockOp2.from_full(random_op(rng, 4))
        got = apply_extended(qubit_gen_phys, 0.0, x)
        assert_allclose(got.as_full(), x.as_full(), atol=1e-14)

    def test_negative_time_rejected(self, qubit_gen_phys):
        x = BlockOp2.identity_pattern(2)
        with pytest.raises(ValueError, match="nonnegative"):
            apply_extended(qubit_gen_phys, -0.1, x)
        for residual in (conservativity_residual, normalization_residual):
            with pytest.raises(ValueError, match="nonnegative"):
                residual(qubit_gen_phys, -0.1)


def _block_index_grid(d):
    """vec indices (in the 2d x 2d stacking) of each d x d block's own
    column stacking."""
    p = np.arange(d * d)
    cc, rr = p // d, p % d
    return [[(j * d + cc) * (2 * d) + i * d + rr for j in (0, 1)] for i in (0, 1)]


def _assemble_blockwise(block_mats, d):
    """The dense (2d)**2-side matrix of the entrywise map with the given
    table, by index placement."""
    full = np.zeros((4 * d * d, 4 * d * d), dtype=complex)
    grid = _block_index_grid(d)
    for i in (0, 1):
        for j in (0, 1):
            q = grid[i][j]
            full[np.ix_(q, q)] = block_mats[i][j]
    return full


def _sector_unitary(gen):
    """The dense unitary V of the table Choi matrix's symmetry sectors
    (``ExtendedGenerator._choi_sectors``): column j of the split rows is
    the character column placed at row j, every other row is kept. None
    for a trivial group."""
    sectors = gen._choi_sectors
    if sectors is None:
        return None
    v = np.eye(2 * gen.dim ** 2, dtype=complex)
    for start, f in sectors.fourier:
        k, s, _ = f.shape
        idx = sectors.rows[start:start + k * s].reshape(k, s)
        v[idx[:, :, None], idx[:, None, :]] = f
    return v


class TestFullMatrixAssembly:
    """A dense assembly of the extended map is the oracle for the Choi test,
    which builds only the table's Choi matrix and places it."""

    def test_matches_blockwise_application(self, qubit_gen_phys):
        # the assembled big matrix must act exactly like entrywise
        # evolution on arbitrary doubled-space operators
        rng = np.random.default_rng(46)
        full = _assemble_blockwise(_semigroup(qubit_gen_phys, 0.8), 2)
        for _ in range(5):
            x = random_op(rng, 4, unit=False)
            via_matrix = devectorize(full @ vectorize(x), 4)
            via_blocks = apply_extended(qubit_gen_phys, 0.8, BlockOp2.from_full(x))
            assert_allclose(via_matrix, via_blocks.as_full(), atol=1e-12)

    @pytest.mark.parametrize("name", ["good qubit", "3-site periodic chain", "4-site open chain"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_choi_bitwise_equal_to_dense_assembly(self, name, mode, monkeypatch):
        # the qubit has no symmetry: its matrix is the dense assembly's Choi
        # matrix bit for bit; a chain's is V* (that matrix) V, V unitary
        import qmflow.extended as ext

        gen = build_extended_generator(_CP_MODELS[name](), mode)
        placed = []
        monkeypatch.setattr(ext, "min_eig", lambda h: placed.append(h) or min_eig(h))
        rows, v = padded_rows(gen.dim), _sector_unitary(gen)
        if v is not None:
            assert max_abs(v.conj().T @ v - np.eye(len(v))) <= 1e-14
        for t in (0.0, 0.3, 1.1):
            value = extended_choi_min_eig(gen, t)
            want = choi_of_map(_assemble_blockwise(_semigroup(gen, t), gen.dim))
            got = placed.pop()
            if v is None:
                assert np.array_equal(got, want)
                assert value == min_eig(want)
                continue
            # 0 off the table's rows, as the dense assembly is
            off = np.ones(len(got), bool)
            off[rows] = False
            assert not np.any(got[off]) and not np.any(got[:, off]) and not np.any(want[off])
            c = want[rows[:, None], rows]
            assert max_abs(got[rows[:, None], rows] - v.conj().T @ c @ v) <= 1e-14 * max(1.0, max_abs(c))
            assert abs(value - min_eig(want)) <= 1e-13 * max(1.0, max_abs(c))

    def test_broken_conjugation_refused(self):
        # built past build_extended_generator's axiom check: theta_minus and
        # theta_plus are the same commutator with a non-Hermitian operator
        rng = np.random.default_rng(43)
        theta = commutator_map(random_op(rng, 2, unit=False))
        broken = StructureMapSet(dim=2, theta_minus=theta, theta_zero=np.zeros((4, 4)),
                                 theta_plus=theta)
        gen = ExtendedGenerator(source=broken, mode="physical")
        with pytest.raises(ValueError, match="map not hermiticity-preserving"):
            extended_choi_min_eig(gen, 0.5)


class TestPositivity:
    def test_physical_map_completely_positive(self, qubit_gen_phys):
        for t in (0.1, 0.5, 1.0, 2.0):
            assert extended_choi_min_eig(qubit_gen_phys, t) > -1e-12

    def test_conservative_rescaling_not_cp(self, qubit_gen_cons):
        # the conservative normalization trades positivity for a fixed
        # unit block; its Choi matrix dips clearly negative
        assert extended_choi_min_eig(qubit_gen_cons, 0.5) < -1e-2

    def test_wrong_sign_drift_detected(self, qubit_sm):
        # flip the drift sign past construction-time validation: the maps
        # stay unital and conjugation-symmetric, but the semigroup loses
        # complete positivity and the detector fires hard
        gen = build_extended_generator(_negated_drift(qubit_sm), "physical")
        assert extended_choi_min_eig(gen, 0.5) < -1e-3

    def test_weak_noise_weight_not_cp(self):
        # calibrated constant below 1 (here 1/2) breaks positivity
        gen = build_extended_generator(_weak_qubit(), "physical")
        assert extended_choi_min_eig(gen, 0.5) < -1e-2

    def test_scaled_chain_not_cp(self):
        # the chain's symmetry splits its Choi matrix; the split keeps the
        # verdict at every grid time
        gen = build_extended_generator(_CP_MODELS["3-site chain, real parts x 0.3"]())
        assert gen._choi_sectors is not None
        for t in parse_config({}).t_grid:
            assert extended_choi_min_eig(gen, t) < -1e-2

    def test_dimension_guard(self):
        # the set holds CSR views only: no 4096-row dense map is built
        big = build_evans_hudson(np.zeros((64, 64)), np.zeros((64, 64)), 0.0, 0.0)
        gen = build_extended_generator(big, "physical")
        with pytest.raises(ValueError, match="guard"):
            extended_choi_min_eig(gen, 0.1)
        with pytest.raises(ValueError, match="guard"):
            generator_cp_min_eig(gen)


class TestUnitProfiles:
    def test_conservative_fixes_unit(self, qubit_gen_cons, qubit_gen_phys):
        for t in (0.1, 0.7, 1.5):
            assert conservativity_residual(qubit_gen_cons, t) < 1e-11
            # helper is normalization-aware: same answer from either mode
            assert conservativity_residual(qubit_gen_phys, t) < 1e-11

    def test_physical_profile(self, qubit_gen_phys):
        for t in (0.1, 0.7, 1.5):
            assert normalization_residual(qubit_gen_phys, t) < 1e-11

    def test_profile_values_directly(self, qubit_gen_phys):
        # P(J) = [[1, 1], [1, e^t]] (x) identity in physical normalization
        t = 0.9
        j = BlockOp2.identity_pattern(2)
        out = apply_extended(qubit_gen_phys, t, j)
        eye = np.eye(2)
        assert_allclose(out.x00, eye, atol=1e-12)
        assert_allclose(out.x01, eye, atol=1e-12)
        assert_allclose(out.x10, eye, atol=1e-12)
        assert_allclose(out.x11, np.exp(t) * eye, atol=1e-11)

    def test_kappa_condition(self, qubit_gen_phys, qubit_gen_cons):
        assert kappa_residual(qubit_gen_phys) < 1e-13
        assert kappa_residual(qubit_gen_cons) < 1e-13


class TestDissipativity:
    def test_positive_for_valid_model(self, qubit_gen_cons):
        rng = np.random.default_rng(47)
        for _ in range(100):
            x = BlockOp2.from_full(random_op(rng, 4))
            assert dissipativity_residual_min_eig(qubit_gen_cons, x) > -1e-10

    def test_ampliated_level(self, qubit_gen_cons):
        # the exact generator test covers the level-2 form (the generator
        # lifted onto a 2 x 2 grid of block operators): on the good qubit
        # both hold, on the weak one both fail
        weak = build_extended_generator(_weak_qubit(), "conservative")
        for gen, ok in ((qubit_gen_cons, True), (weak, False)):
            rng = np.random.default_rng(48)
            worst = min(_dissipativity_reference(gen, random_op(rng, 8), 2)
                        for _ in range(50))
            assert (worst > -1e-10) == ok
            assert (generator_cp_min_eig(gen) > -1e-10) == ok

    def test_weak_weight_fails(self):
        # the same form goes negative when the calibrated constant drops
        # below 1: constructive witness at level 1
        gen = build_extended_generator(_weak_qubit(), "conservative")
        rng = np.random.default_rng(49)
        worst = min(dissipativity_residual_min_eig(gen, BlockOp2.from_full(random_op(rng, 4)))
                    for _ in range(50))
        assert worst < -1e-2

    def test_physical_mode_rejected(self, qubit_gen_phys):
        with pytest.raises(ValueError, match="conservative"):
            dissipativity_residual_min_eig(qubit_gen_phys, BlockOp2.identity_pattern(2))

    def test_bad_level_rejected(self, qubit_gen_cons):
        # the form is the level-1 witness: a level-2 element (a 2 x 2 grid
        # of block operators) is refused, generator_cp_min_eig covers it
        with pytest.raises(ValueError, match=r"shape \(4, 4\), got \(8, 8\)"):
            dissipativity_residual_min_eig(qubit_gen_cons, np.eye(8))


def _weak_qubit():
    """The amplitude-flip qubit with lowering weight 1/4: calibrated constant
    1/2, below the positivity threshold 1."""
    f = np.array([[0.0, 1.0], [0.0, 0.0]])
    return build_evans_hudson(np.zeros((2, 2)), f, 0.25, 0.0)


def _negated_drift(sm):
    """sm with theta_zero negated, past construction-time validation."""
    return StructureMapSet(dim=sm.dim, theta_minus=sm.theta_minus,
                           theta_zero=-sm.theta_zero, theta_plus=sm.theta_plus,
                           ito=sm.ito)


def _chain(sites, boundary, real_scale=1.0):
    """The chain at seed 0 with the real parts of its constants scaled."""
    plus, minus = default_constants(0)
    plus, minus = ({lab: complex(real_scale * v.real, v.imag) for lab, v in table.items()}
                   for table in (plus, minus))
    return build_glauber_structure_maps(
        GlauberConfig(sites=sites, boundary=boundary, gg_plus=plus, gg_minus=minus))


_CP_MODELS = {
    "good qubit": lambda: build_evans_hudson(np.zeros((2, 2)),
                                             np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 0.0),
    "3-site periodic chain": lambda: _chain(3, "periodic"),
    "3-site open chain": lambda: _chain(3, "open"),
    "4-site open chain": lambda: _chain(4, "open"),
    "5-site periodic chain": lambda: _chain(5, "periodic"),
    "weak qubit": _weak_qubit,
    "qubit, negated drift": lambda: _negated_drift(_CP_MODELS["good qubit"]()),
    "3-site chain, real parts x 0.3": lambda: _chain(3, "periodic", 0.3),
    # a jump operator with a trace gives w*Cw != 0
    "weak qubit, jump with a trace": lambda: build_evans_hudson(
        np.zeros((2, 2)), np.array([[2.0, 0.3], [0.1, 1.0]]), 0.25, 0.0),
}

_BYTE_MODELS = {
    **{f"{sites}-site {boundary} chain": (lambda sites=sites, boundary=boundary:
                                           _chain(sites, boundary))
       for sites in (3, 4, 5) for boundary in ("periodic", "open")},
    "good qubit": _CP_MODELS["good qubit"],
    "site-z": lambda: site_z_breaker(_chain(4, "periodic")),
    "one-ulp": lambda: one_ulp_off(_chain(3, "periodic")),
    # their values are negative
    "weak qubit": _weak_qubit,
    "3-site chain, real parts x 0.3": _CP_MODELS["3-site chain, real parts x 0.3"],
}


class TestPaddedChoiBytes:
    """extended_choi_min_eig gathers the table Choi matrix's blocks from the
    time-t maps straight into the padded matrix; that matrix has the bytes
    of the dense composition (``conftest.dense_sector_choi``, padded),
    signed zeros included, and its asymmetry check refuses as the dense
    check does."""

    @pytest.mark.parametrize("name", _BYTE_MODELS)
    def test_same_bytes_as_the_dense_composition(self, name, monkeypatch):
        import qmflow.extended as ext

        sm, same = _BYTE_MODELS[name](), []
        # compared as it is handed over, so that no two 5-site matrices are kept
        monkeypatch.setattr(ext, "min_eig", lambda h: same.append(
            same_bytes_as_padded(h, dense_sector_choi(gen, t), gen.dim)) or 0.0)
        for mode in ("physical", "conservative"):
            gen = build_extended_generator(sm, mode)
            for t in parse_config({}).t_grid:
                extended_choi_min_eig(gen, t)
        assert same == [True] * 8

    @pytest.mark.parametrize("where", ["held", "single"])
    def test_asymmetry_refused_as_the_dense_check_refuses(self, where, monkeypatch):
        # C[i n + a d + b, j n + e d + f] = S_ij[f d + b, e d + a]: one entry
        # of c moved off Hermitian, between two rows of one component of
        # more than one row, or on the imaginary diagonal of a one-row one
        import qmflow.extended as ext

        gen = build_extended_generator(_chain(3, "periodic"))
        d, sectors = gen.dim, gen._choi_sectors
        assert sectors.singles.size and sectors.plan[-1].shape[1] > 1
        if where == "held":
            r, s = sectors.rows[sectors.plan[-1][0, :2]]
            bump, asymmetry = 1e-3, 1e-3
        else:
            r = s = sectors.singles[-1]
            bump, asymmetry = 1e-3j, 2e-3
        (i, a, b), (j, e, f) = (np.unravel_index(x, (2, d, d)) for x in (r, s))
        table = [list(row) for row in _semigroup(gen, 0.5)]
        table[i][j] = table[i][j].copy()
        table[i][j][f * d + b, e * d + a] += bump
        monkeypatch.setattr(ext, "_semigroup", lambda gen, t: table)
        with pytest.raises(ValueError, match="^map not hermiticity-preserving") as dense:
            _hermitian_choi(table_choi(table, d))
        with pytest.raises(ValueError) as gathered:
            extended_choi_min_eig(gen, 0.5)
        assert str(gathered.value) == str(dense.value) == (
            f"map not hermiticity-preserving: Choi asymmetry {asymmetry:.3e}")


class TestGeneratorChoiBytes:
    """generator_cp_min_eig gathers the physical entries' table Choi
    matrix's held rows, projects them on the rows of w and places the
    character blocks in a zero 2 d**2-side matrix; that matrix has the bytes
    of the dense composition (``conftest.projected_generator_choi`` written
    in the sectors by ``sector_apply``), signed zeros included."""

    @pytest.mark.parametrize("name", _BYTE_MODELS)
    def test_same_bytes_as_the_dense_composition(self, name, monkeypatch):
        import qmflow.extended as ext

        gen, handed = build_extended_generator(_BYTE_MODELS[name]()), []
        monkeypatch.setattr(ext, "min_eig", lambda h: handed.append(h) or 0.0)
        generator_cp_min_eig(gen)
        (got,) = handed
        want = sector_apply(gen._generator_choi_sectors, projected_generator_choi(gen)[0])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _doubled_generator_choi(gen):
    """Choi matrix of the assembled (2d)**2-side generator: L applied to each
    2d x 2d matrix unit through the public apply_superop, block by block."""
    n = 2 * gen.dim
    d = gen.dim
    full = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n))
            unit[a, b] = 1.0
            image = np.zeros((n, n), dtype=complex)
            for i in (0, 1):
                for j in (0, 1):
                    rows, cols = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
                    image[rows, cols] = apply_superop(gen.block(i, j), unit[rows, cols])
            full[:, b * n + a] = vectorize(image)
    return choi_of_map(full)


class TestGeneratorCp:
    """generator_cp_min_eig: conditional complete positivity of the
    physical generator, against adversaries and a dense reference."""

    # (model, exact verdict); the value is judged like the suite's record
    @pytest.mark.parametrize("name, ok", [
        ("good qubit", True), ("3-site periodic chain", True), ("3-site open chain", True),
        ("weak qubit", False), ("qubit, negated drift", False),
        ("3-site chain, real parts x 0.3", False), ("weak qubit, jump with a trace", False)])
    def test_adversaries_fail_and_agree_with_the_level_1_form(self, name, ok):
        sm = _CP_MODELS[name]()
        gen = build_extended_generator(sm, "physical")
        value = generator_cp_min_eig(gen)
        assert (value >= -DEFAULT_TOLERANCES["dissip"]) == ok
        if not ok:
            assert value < -0.1
        # the seeded level-1 form reaches the same verdict
        cons = replace(gen, mode="conservative")
        rng = np.random.default_rng(49)
        worst = min(dissipativity_residual_min_eig(cons, random_op(rng, 2 * sm.dim))
                    for _ in range(50))
        assert (worst >= -DEFAULT_TOLERANCES["dissip"]) == ok

    def test_known_values(self, qubit_gen_phys):
        assert abs(generator_cp_min_eig(qubit_gen_phys)) < 1e-14
        weak = build_extended_generator(_weak_qubit())
        assert generator_cp_min_eig(weak) == pytest.approx(1 - np.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("name", ["good qubit", "weak qubit", "weak qubit, jump with a trace",
                                      "3-site periodic chain", "3-site chain, real parts x 0.3"])
    def test_matches_dense_projected_choi(self, name):
        gen = build_extended_generator(_CP_MODELS[name]())
        c = _doubled_generator_choi(gen)
        n = 2 * gen.dim
        w = np.eye(n).flatten(order="F") / np.sqrt(n)
        p = np.eye(n * n) - np.outer(w, w)
        want = min(0.0, float(np.linalg.eigvalsh(p @ c @ p)[0]))
        got = generator_cp_min_eig(gen)
        assert abs(got - want) <= 1e-12 * max(1.0, max_abs(c))

    @pytest.mark.parametrize("sm", [
        _CP_MODELS["good qubit"], _CP_MODELS["3-site open chain"],
        lambda: build_model(parse_config({}))], ids=["qubit", "3-site open", "default"])
    def test_within_rounding_of_a_40_digit_eigensolve(self, sm):
        gen = build_extended_generator(sm())
        exact, scale = exact_generator_cp_min_eig(gen)
        assert abs(generator_cp_min_eig(gen) - exact) <= 1e-14 * max(1.0, scale)

    def test_either_mode_gives_the_physical_value(self, glauber_gen_phys, glauber_gen_cons):
        assert generator_cp_min_eig(glauber_gen_cons) == generator_cp_min_eig(glauber_gen_phys)

    def test_no_exponential(self, glauber_gen_phys, monkeypatch):
        import qmflow.extended as ext

        def refuse(*args):
            raise AssertionError("generator_cp_min_eig exponentiated")
        monkeypatch.setattr(ext, "matrix_exponential", refuse)
        monkeypatch.setattr(ext, "extended_choi_min_eig", refuse)
        assert generator_cp_min_eig(glauber_gen_phys) > -1e-12


class TestFlowBridge:
    """The paper's bridge between the layers: on the constant functions 0
    and 1 over [0, t], the window map between f_j and f_k is the extended
    semigroup's entry (j, k), so with the row-0 matrix units e_{0p} as
    operands the flow kernel's Gram matrix is the table Choi matrix up to
    one permutation, and its smallest eigenvalue is the extended test's in
    the std basis (``std_choi_min_eig``)."""

    @pytest.mark.parametrize("t", [0.05, 0.7])
    @pytest.mark.parametrize("name", ["good qubit", "weak qubit", "qubit, negated drift",
                                      "weak qubit, jump with a trace", "3-site periodic chain",
                                      "3-site open chain", "3-site chain, real parts x 0.3"])
    def test_flow_kernel_is_the_extended_choi_test(self, name, t):
        sm = _CP_MODELS[name]()
        d = sm.dim
        assert d <= 8
        units = [np.outer(np.eye(d)[0], np.eye(d)[p]) for p in range(d)]
        gen = build_extended_generator(sm)
        want, scale = std_choi_min_eig(gen, t)
        assert kernel_cp_residual(sm, [0.0] * d + [1.0] * d, units + units, t) == want
        # the extended test splits the chains by their symmetry sectors
        assert abs(extended_choi_min_eig(gen, t) - want) <= 1e-13 * max(1.0, scale)


def _too_fast(t, x):
    """delta_sq_semigroup damping the off-diagonal blocks at rate t, not t / 2."""
    return BlockOp2(x.x00, np.exp(-t) * x.x01, np.exp(-t) * x.x10, x.x11)


class TestDelta:
    def test_delta_matches_commutator(self):
        rng = np.random.default_rng(50)
        d = 3
        x = random_op(rng, 2 * d, unit=False)
        e = np.kron(np.diag([0.0, 1.0]), np.eye(d))
        want = 1j * (x @ e - e @ x)
        assert_allclose(delta_map(BlockOp2.from_full(x)).as_full(), want, atol=1e-14)

    def test_delta_sq_closed_form(self):
        rng = np.random.default_rng(51)
        x = BlockOp2.from_full(random_op(rng, 6, unit=False))
        ds = delta_sq_map(x)
        assert_allclose(ds.x00, 0 * x.x00)
        assert_allclose(ds.x01, -x.x01)
        assert_allclose(ds.x10, -x.x10)
        assert_allclose(ds.x11, 0 * x.x11)
        # agreement with applying delta twice
        twice = delta_map(delta_map(x))
        assert_allclose(ds.as_full(), twice.as_full(), atol=1e-14)

    def test_delta_sq_semigroup_factor(self):
        rng = np.random.default_rng(52)
        x = BlockOp2.from_full(random_op(rng, 4, unit=False))
        t = 0.8
        out = delta_sq_semigroup(t, x)
        s = np.exp(-t / 2)
        assert_allclose(out.x00, x.x00)
        assert_allclose(out.x01, s * x.x01)
        assert_allclose(out.x10, s * x.x10)
        assert_allclose(out.x11, x.x11)

    @pytest.mark.parametrize("t, word", [(float("nan"), "finite"), (float("inf"), "finite"),
                                         (-0.1, "nonnegative")])
    def test_delta_sq_semigroup_refuses_bad_times(self, t, word):
        x = BlockOp2.identity_pattern(2)
        with pytest.raises(ValueError, match=f"^evolution time must be {word}, got {t}$"):
            delta_sq_semigroup(t, x)

    def test_delta_sq_semigroup_composition(self):
        rng = np.random.default_rng(53)
        x = BlockOp2.from_full(random_op(rng, 4))
        a = delta_sq_semigroup(0.3, delta_sq_semigroup(0.5, x))
        b = delta_sq_semigroup(0.8, x)
        assert_allclose(a.as_full(), b.as_full(), atol=1e-15)

    def test_commutation_with_generator(self, qubit_gen_cons, glauber_gen_cons):
        assert commutation_residual(qubit_gen_cons) < 1e-14
        assert commutation_residual(glauber_gen_cons) < 1e-13

    @pytest.mark.parametrize("semigroup, ok", [(delta_sq_semigroup, True), (_too_fast, False)],
                             ids=["library", "too fast"])
    def test_delta_sq_semigroup_is_expm_of_delta_sq_on_m2(self, semigroup, ok):
        # delta^2 on M_2 (row-major 2 x 2 matrices) is a 4 x 4 matrix whose
        # exponential acts on x's four blocks; 20 seeded draws of 16 x 16
        # operators and times
        d_sq = np.column_stack([delta_sq_map(u.reshape(2, 2)).as_full().ravel() for u in np.eye(4)])
        rng = rng_for(0, "extended-delta")
        worst = 0.0
        for _ in range(20):
            x = BlockOp2.from_full(_draw_op(rng, 16))
            t = float(rng.uniform(0.1, 2.0))
            y = np.tensordot(scipy.linalg.expm(0.5 * t * d_sq), [x.x00, x.x01, x.x10, x.x11], 1)
            worst = max(worst, (semigroup(t, x) - BlockOp2(*y)).max_abs())
        assert (worst <= 1e-12) == ok


def _swapped_corners(gen):
    """gen with the table entries L01 and L10 exchanged."""
    (l00, l01), (l10, l11) = gen._sums
    gen.__dict__["_sums"] = ((l00, l10), (l01, l11))
    return gen


def _physical_table(gen):
    """A conservative-mode gen carrying the physical table."""
    gen.__dict__["_sums"] = replace(gen, mode="physical")._sums
    return gen


class TestCommutation:
    """commutation_residual: the operator-level generator commutes with
    delta^2, and the table the semigroup exponentiates is that generator."""

    @pytest.mark.parametrize("name", ["good qubit", "3-site periodic chain", "3-site open chain",
                                      "4-site open chain", "5-site periodic chain"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_good_models_pass(self, name, mode):
        gen = build_extended_generator(_CP_MODELS[name](), mode)
        assert commutation_residual(gen) <= 1e-12

    @pytest.mark.parametrize("name", ["good qubit", "3-site periodic chain", "4-site open chain"])
    @pytest.mark.parametrize("adversary", [_swapped_corners, _physical_table])
    def test_adversaries_fail(self, name, adversary):
        gen = adversary(build_extended_generator(_CP_MODELS[name](), "conservative"))
        # far above the good models' bound, 1e-12
        assert commutation_residual(gen) > 1e-2


class TestResolvent:
    def test_first_order_convergence(self, qubit_gen_cons):
        errs = []
        eps_grid = (1e-2, 5e-3, 2.5e-3)
        for eps in eps_grid:
            ge = resolvent_generator(qubit_gen_cons, eps)
            err = max(max_abs(matrix_exponential(ge[i][j], 1.0)
                              - matrix_exponential(qubit_gen_cons.block(i, j), 1.0))
                      for i in (0, 1) for j in (0, 1))
            errs.append(err)
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_singular_parameter_rejected(self, qubit_gen_phys):
        # the physical corner entry fixes the identity up to e^t, so it
        # has eigenvalue exactly 1 and eps = 1 is singular
        with pytest.raises(ValueError, match=r"too large for entry \(1, 1\)"):
            resolvent_generator(qubit_gen_phys, 1.0)

    def test_bad_eps_rejected(self, qubit_gen_cons):
        with pytest.raises(ValueError, match="positive"):
            resolvent_generator(qubit_gen_cons, -0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        gen = _chain_gen(3, "periodic", "conservative")
        with pytest.raises(ValueError, match=f"^resolvent parameter must be finite, got {eps}$"):
            resolvent_generator(gen, eps)

    @pytest.mark.parametrize("sites, boundary", [(3, "periodic"), (4, "open")])
    def test_singular_parameter_rejected_on_chains(self, sites, boundary):
        # L_11(1) = 1, so 1 - L_11 is singular at eps = 1
        with pytest.raises(ValueError, match=r"^resolvent parameter too large for entry \(1, 1\)$"):
            resolvent_generator(_chain_gen(sites, boundary, "physical"), 1.0)

    @pytest.mark.parametrize("sites, boundary", [(3, "periodic"), (4, "open")])
    def test_block_condition_number_is_the_dense_one(self, sites, boundary):
        # the basis is unitary and 1 - eps L_ij block diagonal in it, so the
        # blocks' singular values are the dense matrix's
        gen = _chain_gen(sites, boundary, "conservative")
        eye = np.eye(gen.dim ** 2)
        for eps in _RESOLVENT_EPS:
            for i in (0, 1):
                for j in (0, 1):
                    blocks = _generator_blocks(gen.source._sectors.stacks, i, j, gen.mode)
                    sv = np.concatenate([np.linalg.svd(np.eye(b.shape[-1]) - eps * b,
                                                       compute_uv=False).ravel() for b in blocks])
                    want = np.linalg.cond(eye - eps * gen.block(i, j))
                    assert abs(sv.max() / sv.min() - want) <= 1e-12 * want, (eps, i, j)

    @pytest.mark.parametrize("sites, boundary", [(3, "periodic"), (4, "open")])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_entries_match_the_dense_solve(self, sites, boundary, mode):
        gen = _chain_gen(sites, boundary, mode)
        eye = np.eye(gen.dim ** 2)
        for eps in _RESOLVENT_EPS:
            got = resolvent_generator(gen, eps)
            for i in (0, 1):
                for j in (0, 1):
                    want = np.linalg.solve(eye - eps * gen.block(i, j), gen.block(i, j))
                    assert max_abs(got[i][j] - want) <= 1e-13 * max(1.0, max_abs(want))


def _chain_gen(sites, boundary, mode):
    rc = parse_config({"model": {"glauber": {"sites": sites, "boundary": boundary}}})
    return build_extended_generator(build_glauber_structure_maps(rc.glauber), mode)


def _rk4_evolve(l, t, steps):
    # Fixed-step integration of dP/dt = P L from the identity; an
    # independent reference for the matrix exponential.
    p = np.eye(l.shape[0], dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = p @ l
        k2 = (p + 0.5 * h * k1) @ l
        k3 = (p + 0.5 * h * k2) @ l
        k4 = (p + h * k3) @ l
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


class TestOdeOracle:
    def test_all_entries_match_integration(self, qubit_gen_cons):
        t = 0.7
        steps = 7000
        for i in (0, 1):
            for j in (0, 1):
                l = qubit_gen_cons.block(i, j)
                assert max_abs(matrix_exponential(l, t) - _rk4_evolve(l, t, steps)) < 1e-8

    def test_physical_corner_scalar_relation(self, qubit_gen_cons, qubit_gen_phys):
        # adding the identity map to a generator scales the semigroup by e^t
        t = 0.7
        a = matrix_exponential(qubit_gen_phys.block(1, 1), t)
        b = np.exp(t) * matrix_exponential(qubit_gen_cons.block(1, 1), t)
        assert max_abs(a - b) < 1e-12


# --- one grid routine, bit for bit -------------------------------------------

def _dissipativity_reference(gen, xs, level):
    """The dissipativity form with the generator lifted onto each 2d x 2d
    sub-block of the level x level grid, entry (i, j) applied to the d x d
    block (i, j) of that sub-block through the public apply_superop."""
    d = gen.dim

    def lift(m):
        out = np.zeros_like(m)
        for a in range(level):
            for b in range(level):
                for i in (0, 1):
                    for j in (0, 1):
                        rows = slice((2 * a + i) * d, (2 * a + i + 1) * d)
                        cols = slice((2 * b + j) * d, (2 * b + j + 1) * d)
                        out[rows, cols] = apply_superop(gen.block(i, j), m[rows, cols])
        return out

    e = np.kron(np.eye(level), np.kron(np.diag([0.0, 1.0]), np.eye(d)))
    xstar = xs.conj().T
    r = lift(xstar @ xs) - lift(xstar) @ xs - xstar @ lift(xs)
    dx = 1j * (xs @ e - e @ xs)
    return min_eig(r + dx.conj().T @ dx)


class TestGridApplication:
    """The dissipativity lift is bit-identical to applying each entry
    through the public apply_superop block by block, and so is the
    extended semigroup of a model without a splitting symmetry; a periodic
    chain's is computed in its sector basis and agrees at rounding level."""

    @pytest.mark.parametrize("model", ["qubit_gen_phys", "glauber_gen_phys"])
    def test_apply_extended_bitwise_equal_to_reference(self, model, request):
        gen = request.getfixturevalue(model)
        rng = np.random.default_rng(47)
        for t in (0.0, 0.3, 1.1):
            x = BlockOp2.from_full(random_op(rng, 2 * gen.dim, unit=False))
            got = apply_extended(gen, t, x).as_full()
            want = np.block([[apply_superop(matrix_exponential(gen.block(i, j), t),
                                            x.block(i, j)) for j in (0, 1)] for i in (0, 1)])
            if model == "qubit_gen_phys":
                assert np.array_equal(got, want)
            else:
                assert max_abs(got - want) <= 1e-14 * max(1.0, x.max_abs())

    # the form is computed at level 1 only; higher levels are decided by
    # generator_cp_min_eig (TestDissipativity.test_ampliated_level)
    @pytest.mark.parametrize("model", ["qubit_gen_cons", "glauber_gen_cons"])
    @pytest.mark.parametrize("level", [1])
    def test_dissipativity_bitwise_equal_to_reference(self, model, level, request):
        gen = request.getfixturevalue(model)
        rng = np.random.default_rng(48)
        for _ in range(3):
            xs = random_op(rng, 2 * level * gen.dim)
            got = dissipativity_residual_min_eig(gen, xs)
            assert got == _dissipativity_reference(gen, xs, level)
