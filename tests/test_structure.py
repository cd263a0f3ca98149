import hashlib
import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

import qmflow.glauber
import qmflow.linalg
import qmflow.structure
import qmflow.suite
from qmflow import (
    GlauberConfig,
    ItoTable,
    StepFunction,
    StructureMapSet,
    adjoint_superop_matrix,
    apply_superop,
    build_evans_hudson,
    build_extended_generator,
    build_glauber_structure_maps,
    check_conjugation,
    check_unital,
    commutator_map,
    dissipator_map,
    flow_matrix_element,
    left_mul_map,
    leibnitz_residual,
    max_abs,
    parse_config,
    run_suite,
    sandwich_map,
)
from qmflow.cli import main
from qmflow.linalg import _apply, _draw_op
from qmflow.serialize import save_json, structure_maps_to_obj
from qmflow.structure import _CALIBRATION_PAIRS, _CALIBRATION_SEED, _DENSE, calibrate_ito
from qmflow.suite import _digest, build_model, report_to_json_bytes
from conftest import random_op


class TestItoTable:
    def test_defaults(self):
        t = ItoTable()
        assert t.c_mp == 0 and t.c_pm == 0

    def test_negative_real_part_rejected(self):
        with pytest.raises(ValueError, match="negative real part"):
            ItoTable(-0.5, 0.0)
        with pytest.raises(ValueError, match="negative real part"):
            ItoTable(1.0, -1e-3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ItoTable(np.nan, 0.0)


class TestStructureMapSetValidation:
    def test_shape_mismatch_rejected(self, qubit_sm):
        with pytest.raises(ValueError, match="shape"):
            StructureMapSet(dim=2, theta_minus=np.zeros((3, 3)),
                            theta_zero=qubit_sm.theta_zero,
                            theta_plus=qubit_sm.theta_plus)

    def test_non_unital_rejected(self):
        # a map sending 1 to 1 cannot be a structure map
        eye4 = np.eye(4)
        with pytest.raises(ValueError, match="kill the identity"):
            StructureMapSet(dim=2, theta_minus=np.zeros((4, 4)),
                            theta_zero=eye4, theta_plus=np.zeros((4, 4)))

    @pytest.mark.parametrize("name", ["theta_minus", "theta_zero", "theta_plus"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, qubit_sm, name, bad):
        # the check reads the CSR views, which store every entry that is not 0
        m = getattr(qubit_sm, name).copy()
        m[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            replace(qubit_sm, **{name: m})

    @pytest.mark.parametrize("dim, shown", [(2.7, "2.7"), (2.0, "2.0"), ("2", "'2'"),
                                            (True, "True"), (0, "0"), (-2, "-2")])
    def test_dimension_must_be_a_positive_integer(self, qubit_sm, dim, shown):
        # int() would make 2.7 a 2 and accept the string "2"
        msg = rf"^dimension must be a positive integer, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=msg):
            StructureMapSet(dim, *qubit_sm.maps().values(), qubit_sm.ito)

    @pytest.mark.parametrize("dim", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_dimension_accepted(self, qubit_sm, dim):
        sm = StructureMapSet(dim, *qubit_sm.maps().values(), qubit_sm.ito)
        assert type(sm.dim) is int and sm.dim == 2

    def test_bad_dimension_rejected(self, qubit_sm):
        with pytest.raises(ValueError, match="positive"):
            StructureMapSet(dim=0, theta_minus=np.zeros((0, 0)),
                            theta_zero=np.zeros((0, 0)),
                            theta_plus=np.zeros((0, 0)))


class TestQubitModel:
    def test_axioms_at_machine_precision(self, qubit_sm):
        assert check_unital(qubit_sm) < 1e-12
        assert check_conjugation(qubit_sm) < 1e-12

    def test_calibrated_constants(self, qubit_sm):
        # lowering weight 1 pins the Ito constants at (2, 0)
        assert abs(qubit_sm.ito.c_mp - 2.0) < 1e-9
        assert abs(qubit_sm.ito.c_pm) < 1e-9

    def test_noise_maps_are_derivations(self, qubit_sm):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            res = leibnitz_residual(qubit_sm, random_op(rng, 2), random_op(rng, 2))
            worst = max(worst, res[-1], res[1])
        assert worst < 1e-12

    def test_drift_rule_with_calibrated_table(self, qubit_sm):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(100):
            res = leibnitz_residual(qubit_sm, random_op(rng, 2), random_op(rng, 2))
            worst = max(worst, res[0])
        assert worst < 1e-11

    def test_drift_rule_fails_with_stale_table(self, qubit_sm):
        # the residual is the detector: an uncalibrated table leaves an
        # order-one defect
        stale = StructureMapSet(dim=2, theta_minus=qubit_sm.theta_minus,
                                theta_zero=qubit_sm.theta_zero,
                                theta_plus=qubit_sm.theta_plus,
                                ito=ItoTable(1.0, 0.0))
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(20):
            res = leibnitz_residual(stale, random_op(rng, 2), random_op(rng, 2))
            worst = max(worst, res[0])
        assert worst > 1e-2


class TestDefectOracle:
    def test_drift_defect_is_twice_the_weight(self):
        # Independent of the package's superoperator plumbing: compute the
        # drift defect with raw matrix algebra and compare against
        # 2 w (theta_minus x)(theta_plus y) for a pure lowering drift.
        rng = np.random.default_rng(24)
        d, w = 3, 0.6
        f = random_op(rng, d, unit=False)
        fs = f.conj().T

        def th_p(x):
            return -1j * (x @ f - f @ x)

        def th_m(x):
            return -1j * (x @ fs - fs @ x)

        def th_0(x):
            return w * (2 * fs @ x @ f - x @ fs @ f - fs @ f @ x)

        for _ in range(10):
            x, y = random_op(rng, d), random_op(rng, d)
            defect = th_0(x @ y) - th_0(x) @ y - x @ th_0(y)
            assert_allclose(defect, 2 * w * th_m(x) @ th_p(y), atol=1e-12)

    def test_mirrored_defect(self):
        rng = np.random.default_rng(25)
        d, w = 2, 1.1
        f = random_op(rng, d, unit=False)
        fs = f.conj().T

        def th_p(x):
            return -1j * (x @ f - f @ x)

        def th_m(x):
            return -1j * (x @ fs - fs @ x)

        def th_0(x):
            return w * (2 * f @ x @ fs - x @ f @ fs - f @ fs @ x)

        for _ in range(10):
            x, y = random_op(rng, d), random_op(rng, d)
            defect = th_0(x @ y) - th_0(x) @ y - x @ th_0(y)
            assert_allclose(defect, 2 * w * th_p(x) @ th_m(y), atol=1e-12)


class TestCalibration:
    def test_mixed_weights(self):
        rng = np.random.default_rng(26)
        f = random_op(rng, 3, unit=False)
        h = random_op(rng, 3, unit=False)
        h = h + h.conj().T
        sm = build_evans_hudson(h, f, 0.8, 1.7)
        assert abs(sm.ito.c_mp - 1.6) < 1e-8
        assert abs(sm.ito.c_pm - 3.4) < 1e-8

    def test_warning_on_disagreeing_declaration(self):
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match="calibrated"):
            build_evans_hudson(np.zeros((2, 2)), f, 1.0, 0.0, ito=ItoTable(1.0, 0.0))

    def test_no_warning_on_matching_declaration(self):
        import warnings
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_evans_hudson(np.zeros((2, 2)), f, 1.0, 0.0, ito=ItoTable(2.0, 0.0))

    def test_zero_noise_gives_zero_table(self):
        rng = np.random.default_rng(27)
        h = random_op(rng, 2, unit=False)
        h = h + h.conj().T
        sm = build_evans_hudson(h, np.zeros((2, 2)), 1.0, 1.0)
        assert sm.ito.c_mp == 0 and sm.ito.c_pm == 0
        res = leibnitz_residual(sm, random_op(rng, 2), random_op(rng, 2))
        assert max(res.values()) < 1e-13

    def test_incompatible_drift_rejected(self):
        # a drift violating the two-constant rule: keep the noise maps of
        # one coupling but the dissipator of an unrelated one
        rng = np.random.default_rng(28)
        f = random_op(rng, 2, unit=False)
        g = random_op(rng, 2, unit=False)
        from qmflow import dissipator_map
        with pytest.raises(ValueError, match="two-constant"):
            calibrate_ito(commutator_map(f.conj().T), dissipator_map(g, 1.0),
                          commutator_map(f), 2)


class TestBuildValidation:
    def test_non_hermitian_hamiltonian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            build_evans_hudson(h, np.zeros((2, 2)), 1.0, 0.0)

    def test_tiny_asymmetry_symmetrized_with_warning(self):
        h = np.array([[1.0, 1e-14], [0.0, 1.0]])
        with pytest.warns(UserWarning, match="symmetrized"):
            sm = build_evans_hudson(h, np.zeros((2, 2)), 0.0, 0.0)
        assert check_conjugation(sm) < 1e-13

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            build_evans_hudson(np.zeros((2, 2)), np.zeros((3, 3)), 1.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_evans_hudson(np.zeros((2, 2)), np.eye(2), -1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, w):
        # named as the weight, not as a map with non-finite entries
        message = rf"^dissipator weight must be finite and nonnegative, got {w}$"
        for weights in ((w, 0.0), (0.0, w)):
            with pytest.raises(ValueError, match=message):
                build_evans_hudson(np.zeros((2, 2)), np.eye(2), *weights)


class TestConjugationDetector:
    def test_broken_pairing_detected(self):
        # theta_minus must be the conjugated partner of theta_plus; using
        # the same commutator for both (with a non-Hermitian coupling)
        # breaks the rule by an order-one amount
        rng = np.random.default_rng(29)
        f = random_op(rng, 2, unit=False)
        broken = StructureMapSet(dim=2, theta_minus=commutator_map(f),
                                 theta_zero=np.zeros((4, 4)),
                                 theta_plus=commutator_map(f))
        assert check_conjugation(broken) > 0.1


class TestGlauberStructure:
    def test_glauber_axioms(self, glauber_sm):
        assert check_unital(glauber_sm) < 1e-12
        assert check_conjugation(glauber_sm) < 1e-12

    def test_glauber_calibration_matches_weights(self, glauber_cfg, glauber_sm):
        assert abs(glauber_sm.ito.c_mp - 2 * glauber_cfg.gg_minus["pp"].real) < 1e-8
        assert abs(glauber_sm.ito.c_pm - 2 * glauber_cfg.gg_plus["pp"].real) < 1e-8

    def test_glauber_drift_rule(self, glauber_sm):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(20):
            res = leibnitz_residual(glauber_sm, random_op(rng, 8), random_op(rng, 8))
            worst = max(worst, res[0])
        assert worst < 1e-10


# --- maps validated once, applied through CSR views ---------------------------

def _leibnitz_reference(apply, maps, ito, x, y):
    """leibnitz_residual with one ``apply(map, operand)`` per term, in the
    order of the product rule as written; ``maps`` keyed -1, 0, +1."""
    xy = x @ y
    out = {}
    for alpha in (-1, 1):
        m = maps[alpha]
        out[alpha] = max_abs(apply(m, xy) - apply(m, x) @ y - x @ apply(m, y))
    m0, tm, tp = maps[0], maps[-1], maps[1]
    corr = (ito.c_mp * apply(tm, x) @ apply(tp, y)
            + ito.c_pm * apply(tp, x) @ apply(tm, y))
    out[0] = max_abs(apply(m0, xy) - apply(m0, x) @ y - x @ apply(m0, y) - corr)
    return out


def _calibration_reference(apply, tm, t0, tp, dim):
    """calibrate_ito's draws and least-squares fit, one ``apply(map, x)``
    per term."""
    rng = np.random.default_rng([_CALIBRATION_SEED, dim])
    cols_u, cols_v, rhs = [], [], []
    for _ in range(_CALIBRATION_PAIRS):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x /= max(1.0, max_abs(x))
        y /= max(1.0, max_abs(y))
        d0 = apply(t0, x @ y) - apply(t0, x) @ y - x @ apply(t0, y)
        cols_u.append((apply(tm, x) @ apply(tp, y)).ravel())
        cols_v.append((apply(tp, x) @ apply(tm, y)).ravel())
        rhs.append(d0.ravel())
    a = np.stack([np.concatenate(cols_u), np.concatenate(cols_v)], axis=1)
    b = np.concatenate(rhs)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    return ItoTable(coeffs[0], coeffs[1]), float(max_abs(a @ coeffs - b))


def _dense_conjugation(sm):
    return max(max_abs(sm.theta_zero - adjoint_superop_matrix(sm.theta_zero)),
               max_abs(sm.theta_minus - adjoint_superop_matrix(sm.theta_plus)))


@pytest.fixture(scope="module")
def open4_sm():
    return build_glauber_structure_maps(
        GlauberConfig.with_random_constants(sites=4, boundary="open", seed=5))


@pytest.fixture
def count_apply(monkeypatch):
    """Record (sparse map?, operand count) for every product made by
    qmflow.structure."""
    calls = []
    inner = qmflow.structure._apply_each

    def counted(s, xs):
        calls.append((scipy.sparse.issparse(s), len(xs)))
        return inner(s, xs)

    monkeypatch.setattr(qmflow.structure, "_apply_each", counted)
    return calls


@pytest.fixture
def count_checked(monkeypatch):
    """Count the calls of public apply_superop, through every qmflow binding."""
    calls = []
    original = qmflow.linalg.apply_superop

    def counted(s, x):
        calls.append(1)
        return original(s, x)

    for name, module in list(sys.modules.items()):
        if (name == "qmflow" or name.startswith("qmflow.")) \
                and getattr(module, "apply_superop", None) is original:
            monkeypatch.setattr(module, "apply_superop", counted)
    return calls


class TestValidatedApplication:
    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_leibnitz_bitwise_equal_to_reference(self, model, request):
        sm = request.getfixturevalue(model)
        rng = np.random.default_rng(29)
        for _ in range(5):
            x, y = random_op(rng, sm.dim), random_op(rng, sm.dim)
            got = leibnitz_residual(sm, x, y)
            want = _leibnitz_reference(_apply, sm.csr, sm.ito, x, y)
            assert list(got) == list(want)
            assert all(got[a] == want[a] for a in want)

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_calibration_bitwise_equal_to_reference(self, model, request):
        sm = request.getfixturevalue(model)
        table, resid = calibrate_ito(sm.theta_minus, sm.theta_zero, sm.theta_plus, sm.dim)
        want_table, want_resid = _calibration_reference(
            _apply, sm.csr[-1], sm.csr[0], sm.csr[1], sm.dim)
        assert table == want_table and table == sm.ito
        assert resid == want_resid

    def test_leibnitz_refuses_non_finite_operands(self, qubit_sm):
        good = np.eye(2, dtype=complex)
        bad = good.copy()
        bad[0, 1] = np.nan
        huge = np.full((2, 2), 1e200, dtype=complex)
        for x, y in ((bad, good), (good, bad), (huge, huge)):
            with pytest.raises(ValueError, match="finite"), \
                    np.errstate(over="ignore", invalid="ignore"):
                leibnitz_residual(qubit_sm, x, y)

    def test_calibration_refuses_bad_maps(self, qubit_sm):
        tm, t0, tp = qubit_sm.theta_minus, qubit_sm.theta_zero, qubit_sm.theta_plus
        nan_map = t0.copy()
        nan_map[1, 2] = np.inf
        with pytest.raises(ValueError, match="theta_zero contains non-finite"):
            calibrate_ito(tm, nan_map, tp, 2)
        with pytest.raises(ValueError, match="theta_plus must be a square"):
            calibrate_ito(tm, t0, np.zeros((4, 5)), 2)
        with pytest.raises(ValueError, match="theta_minus acts on 2x2"):
            calibrate_ito(tm, t0, tp, 3)

    def test_build_refuses_overflowing_maps(self):
        # finite inputs whose commutator map overflows: the build calibrates
        # before the set validates the maps, and must still refuse them
        h = np.diag([1e308, -1e308])
        f = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            build_evans_hudson(h, f, 1.0, 1.0)


class TestApplicationCounts:
    """Cost guard: each map is applied to all of its operands in one
    product of its CSR view, unchecked."""

    def test_three_products_per_leibnitz_call(self, glauber_sm, count_apply):
        rng = np.random.default_rng(30)
        leibnitz_residual(glauber_sm, random_op(rng, 8), random_op(rng, 8))
        assert count_apply == [(True, 3)] * 3

    def test_three_products_per_calibration(self, glauber_sm, count_apply):
        calibrate_ito(glauber_sm.theta_minus, glauber_sm.theta_zero,
                      glauber_sm.theta_plus, glauber_sm.dim)
        n = _CALIBRATION_PAIRS
        assert count_apply == [(True, 2 * n), (True, 2 * n), (True, 3 * n)]

    def test_structure_group_never_revalidates(self, count_apply, count_checked):
        rc = parse_config({"model": {"glauber": {"sites": 3, "boundary": "periodic"}}})
        report = run_suite(rc, groups=("structure",))
        assert report.passed
        assert count_checked == []
        # calibration while building the chain, two unitality checks (at
        # construction and in the suite), 100 product-rule draws
        assert len(count_apply) == 3 + 2 * 3 + 100 * 3
        assert all(sparse for sparse, _ in count_apply)

    def test_full_suite_never_revalidates(self, count_checked):
        # computed maps (exponentials, window products) go through the
        # unchecked path in every group
        report = run_suite(parse_config({}))
        assert report.passed
        assert count_checked == []

    def test_one_check_per_flow_element(self, qubit_sm, count_checked):
        # the observable comes from outside: checked once, with the map
        f = StepFunction(((0.0, 0.6, 0.3 + 0.2j), (0.6, 1.4, -0.5)))
        for calls in (1, 2, 3):
            flow_matrix_element(qubit_sm, f, 0.4j, 0.0, 1.2, np.eye(2))
            assert len(count_checked) == calls


# --- the CSR views against the dense maps ------------------------------------

_MODELS = ["qubit_sm", "glauber_sm", "open4_sm"]


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


class TestDenseOracle:
    """The CSR products agree with public apply_superop on the dense maps
    to 1e-13 relative."""

    @pytest.mark.parametrize("model", _MODELS)
    def test_leibnitz(self, model, request):
        sm = request.getfixturevalue(model)
        # a stale table leaves an order-one drift residual to compare
        stale = replace(sm, ito=ItoTable(sm.ito.c_mp + 0.5, sm.ito.c_pm))
        rng = np.random.default_rng(31)
        for s in (sm, stale):
            for _ in range(5):
                x, y = random_op(rng, sm.dim), random_op(rng, sm.dim)
                got = leibnitz_residual(s, x, y)
                want = _leibnitz_reference(apply_superop, s.maps(), s.ito, x, y)
                assert all(_close(got[a], want[a]) for a in (-1, 0, 1))
                assert s is sm or want[0] > 0.1

    @pytest.mark.parametrize("model", _MODELS)
    def test_calibration(self, model, request):
        sm = request.getfixturevalue(model)
        table, resid = calibrate_ito(sm.theta_minus, sm.theta_zero, sm.theta_plus, sm.dim)
        want, want_resid = _calibration_reference(
            apply_superop, sm.theta_minus, sm.theta_zero, sm.theta_plus, sm.dim)
        assert _close(table.c_mp, want.c_mp) and _close(table.c_pm, want.c_pm)
        assert _close(resid, want_resid)

    @pytest.mark.parametrize("model", _MODELS)
    def test_unital(self, model, request):
        sm = request.getfixturevalue(model)
        eye = np.eye(sm.dim)
        want = max(max_abs(apply_superop(m, eye)) for m in sm.maps().values())
        assert _close(check_unital(sm), want)

    @pytest.mark.parametrize("model", _MODELS)
    def test_views_hold_the_dense_maps(self, model, request):
        sm = request.getfixturevalue(model)
        assert list(sm.csr) == list(sm.maps())
        for alpha, m in sm.maps().items():
            assert scipy.sparse.issparse(sm.csr[alpha])
            assert np.array_equal(sm.csr[alpha].toarray(), m)


# --- the CSR-first build against the public dense builders -------------------

_CHAINS = [(n, boundary, seed) for n in (3, 4, 5)
           for boundary in ("periodic", "open") for seed in (0, 7)]


def _chain_build(monkeypatch, n, boundary, seed):
    """The chain's structure maps and the (h, f, w_minus, w_plus) that its
    build_evans_hudson call was given."""
    calls = []
    inner = qmflow.glauber.build_evans_hudson

    def recording(h, f, w_minus, w_plus, ito=None):
        calls.append((h, f, w_minus, w_plus))
        return inner(h, f, w_minus, w_plus, ito)

    monkeypatch.setattr(qmflow.glauber, "build_evans_hudson", recording)
    sm = build_glauber_structure_maps(
        GlauberConfig.with_random_constants(sites=n, boundary=boundary, seed=seed))
    monkeypatch.setattr(qmflow.glauber, "build_evans_hudson", inner)
    (args,) = calls
    return sm, args


def _assert_maps_equal_dense_builders(monkeypatch, n, boundary, seed):
    """Every map of the chain has the bytes (signed zeros included) of the
    public dense builders, which are np.kron's."""
    sm, (h, f, w_minus, w_plus) = _chain_build(monkeypatch, n, boundary, seed)
    f = np.asarray(f, dtype=complex)
    want = {-1: commutator_map(f.conj().T),
            0: (commutator_map(h) + dissipator_map(f, w_minus)
                + dissipator_map(f, w_plus, mirrored=True)),
            1: commutator_map(f)}
    for alpha, m in sm.maps().items():
        assert m.tobytes() == want[alpha].tobytes(), alpha


def _assert_views_canonical(sm):
    """Each view is canonical CSR (columns strictly increasing in each
    row), stores no zero, and equals csr_array of its dense map."""
    n = sm.dim ** 2
    for alpha, m in sm.maps().items():
        v = sm.csr[alpha]
        rows = np.repeat(np.arange(n), np.diff(v.indptr))
        assert np.all(np.diff(rows * n + v.indices) > 0), alpha
        assert np.all(v.data != 0), alpha
        ref = scipy.sparse.csr_array(m)
        assert np.array_equal(v.indptr, ref.indptr), alpha
        assert np.array_equal(v.indices, ref.indices), alpha
        assert v.data.tobytes() == ref.data.tobytes(), alpha


def _diagonal_coupling_sm():
    """A qubit model whose commutator maps cancel on their diagonal
    (F has a diagonal), so dropping the zero entries matters."""
    f = np.array([[0.5, 1.0], [0.0, -0.25]])
    return build_evans_hudson(np.diag([0.3, -0.3]), f, 1.0, 0.5)


def _csr_combine_keeping_zeros(n, terms, combine):
    """linalg._csr_combine without dropping the entries that come out 0."""
    keys = np.unique(np.concatenate([k for k, _ in terms]))
    aligned = [np.zeros(keys.size, dtype=complex) for _ in terms]
    for full, (k, v) in zip(aligned, terms):
        full[np.searchsorted(keys, k)] = v
    return scipy.sparse.csr_array((combine(*aligned), (keys // n, keys % n)), shape=(n, n))


class TestCsrBuild:
    """build_evans_hudson builds the maps as CSR first and each dense map
    once from its view; the bytes are the dense builders'."""

    @pytest.mark.parametrize("n, boundary, seed", _CHAINS)
    def test_maps_equal_dense_builders_bytewise(self, monkeypatch, n, boundary, seed):
        _assert_maps_equal_dense_builders(monkeypatch, n, boundary, seed)

    # kron(a, b).T = kron(a.T, b.T) breaks the drift's product rule, so the
    # calibration refuses it; kron(b, a) (the row-stacking convention) is a
    # valid set, X -> theta(X.T).T, that only the byte oracle tells apart
    @pytest.mark.parametrize("wrong, error", [
        (lambda kron: lambda a, b: kron(a.T, b.T), ValueError),
        (lambda kron: lambda a, b: kron(b, a), AssertionError),
    ], ids=["transposed", "swapped-factors"])
    def test_wrong_kron_fails_the_byte_oracle(self, monkeypatch, wrong, error):
        monkeypatch.setattr(qmflow.linalg, "_coo_kron", wrong(qmflow.linalg._coo_kron))
        with pytest.raises(error):
            _assert_maps_equal_dense_builders(monkeypatch, 3, "periodic", 0)

    @pytest.mark.parametrize("n, boundary, seed", _CHAINS)
    def test_views_canonical_and_equal_to_csr_of_dense(self, monkeypatch, n, boundary, seed):
        sm, _ = _chain_build(monkeypatch, n, boundary, seed)
        _assert_views_canonical(sm)

    def test_views_canonical_with_cancelling_entries(self):
        _assert_views_canonical(_diagonal_coupling_sm())

    def test_kept_zeros_fail_the_canonical_check(self, monkeypatch):
        monkeypatch.setattr(qmflow.linalg, "_csr_combine", _csr_combine_keeping_zeros)
        sm = _diagonal_coupling_sm()
        assert np.any(sm.csr[1].data == 0)
        with pytest.raises(AssertionError):
            _assert_views_canonical(sm)


# --- reports and adversaries --------------------------------------------------

# sha256 of the default report's extended-* and flow-* records plus the
# digest of every record. The CSR views changed none of them; the
# block-diagonal expm and eigensolves moved some values at rounding level
# (worst 1.6e-14, every verdict and digest the same), so it was re-pinned.
# It was re-pinned again when the exact record extended-generator-cp
# (value -8.6e-15, digest of the maps) replaced the two sampled records
# extended-dissipativity and extended-dissipativity-ampliated; every other
# record kept its value, verdict and digest. It was re-pinned once more when
# extended-commutation moved from an exact 0.0 (a dense product that held by
# construction) to 2.3e-16 (the operator-level generator against the table)
# and extended-delta-formula from 0.0 to 1.2e-16 (expm of delta^2's matrix
# on M_2 against the closed form); every other record is unchanged. It was
# re-pinned when the periodic chain's extended-cp, -conservativity and
# -normalization values moved at rounding level (at most 7.8e-16 here)
# with the exponentials computed in the shift-and-flip character basis;
# no flow-* record and no digest moved. It was re-pinned when the resolvent
# was solved block by block in that basis: extended-resolvent-order moved
# from 1.008535769247632 to 1.0085357692476498, and no other record moved.
# It was re-pinned when flow-unitality took each window's image of 1 on the
# unit sector blocks: 3.1163084932107726e-15 to 2.27658459741775e-15.
# It was re-pinned when the flow factors were exponentiated on one
# component per symmetry orbit and schur_product_check applied the two
# windows' maps in turn: flow-composition, -kernel-cp, -q-bound and
# -schur-closure moved by at most 1.1e-15; no verdict or digest moved.
# It was re-pinned when the flow factors and the extended entries moved to
# one symmetry-reduced basis (orbit copies split by their stabilizers'
# characters): extended-cp, -conservativity, -normalization,
# -resolvent-order and flow-composition, -refinement, -unitality,
# -kernel-cp, -schur-closure and -q-bound moved by at most 2.4e-15; no
# verdict or digest moved.
# It was re-pinned when the model digest moved from the dense maps' bytes
# to the CSR views' nonzero entries: every record's digest changed, and
# every other field of every record is byte-identical.
# It was re-pinned when flow-norm-bound took exp(t K) as the window [0, t]
# map of the constants, in the symmetry-reduced basis:
# -0.24369549190467454 to -0.24369549190467438; no other record moved.
# It was re-pinned when the commutation check applied the generator's CSR
# sums instead of dense entries, and the q-bound record took one grid of
# ||x|| 1 - x instead of two: extended-commutation moved from
# 2.314416527914201e-16 to 3.2028260439959493e-16 and flow-q-bound from
# 0.09410435422401942 to 0.09410435422401937; no other record moved.
# It was re-pinned when both Choi tests were split by the characters of the
# chain's shift and flip; extended-cp moved from -5.080072143962802e-15,
# -2.6585114251998812e-15, -2.6423581493773704e-15 and
# -3.5604514122843876e-15 (t = 0.1, 0.25, 0.5, 1.0) to
# -2.46728214114148e-16, -4.232317662573269e-16, -4.869371707755869e-16 and
# -9.345749186384336e-16, and extended-generator-cp from
# -8.609717192523089e-15 to -8.05333328736593e-15; no other record, verdict
# or digest moved.
_DEFAULT_EXTENDED_FLOW_SHA = "3082d5e5dade463993ea709c58c9e842e33557d7963a8ec565b89d58c6acfdff"

# The same for the 4-site open chain, whose sector blocks fall into groups
# of equal blocks. Pinned at the values computed before its factors were
# exponentiated on one block per group; that change kept every byte.
# Re-pinned when both Choi tests were split by the characters of the
# chain's flip: extended-cp moved from -3.2483922467842053e-15,
# -3.716776257441582e-15, -3.635789811153141e-15 and -5.037996428372216e-15
# (t = 0.1, 0.25, 0.5, 1.0) to -2.670327289095762e-16,
# -5.500637982342321e-16, -8.652433335283839e-16 and
# -1.303038350339393e-15, and extended-generator-cp from
# -1.781009488585386e-14 to -1.2588183640058128e-14; no other record,
# verdict or digest moved.
_OPEN4_EXTENDED_FLOW_SHA = "1a695324e3e68d021544f43a03df18de8b8f1d19f4c79ceaa7bdaeb56151c82b"


def _extended_flow_sha(rc):
    """sha256 of the extended-* and flow-* records of rc's suite report and
    of every record's digest."""
    records = json.loads(report_to_json_bytes(run_suite(rc)))["records"]
    pinned = json.dumps(
        [[r for r in records if r["name"].startswith(("extended-", "flow-"))],
         [r["digest"] for r in records]], sort_keys=True).encode()
    return hashlib.sha256(pinned).hexdigest()


def _derivation_breaker(sm, eps):
    """sm with theta_plus off the derivation rule by eps * (X -> A X A - A^2 X),
    which kills the identity, and theta_minus its conjugation partner."""
    rng = np.random.default_rng(32)
    a = random_op(rng, sm.dim)
    tp = sm.theta_plus + eps * (sandwich_map(a, a) - left_mul_map(a @ a))
    return StructureMapSet(dim=sm.dim, theta_minus=adjoint_superop_matrix(tp),
                           theta_zero=sm.theta_zero, theta_plus=tp, ito=sm.ito)


def _file_model(tmp_path, sm):
    p = tmp_path / "maps.json"
    save_json(structure_maps_to_obj(sm), p)
    return str(p)


class TestReportsAndAdversaries:
    def test_extended_and_flow_records_unchanged(self):
        assert _extended_flow_sha(parse_config({})) == _DEFAULT_EXTENDED_FLOW_SHA

    def test_open4_extended_and_flow_records_unchanged(self):
        rc = parse_config({"model": {"glauber": {"sites": 4, "boundary": "open"}}})
        assert _extended_flow_sha(rc) == _OPEN4_EXTENDED_FLOW_SHA

    def test_derivation_breaker_fails_the_suite(self, tmp_path, glauber_sm):
        bad = _derivation_breaker(glauber_sm, 1e-3)
        assert check_conjugation(bad) == 0.0
        rc = parse_config({"model": {"structure_maps": _file_model(tmp_path, bad)}})
        records = {r.name: r for r in run_suite(rc, groups=("structure",)).records}
        assert records["structure-conjugation"].passed
        assert not records["structure-derivation"].passed
        assert records["structure-derivation"].value > 1e-4

    def test_derivation_breaker_refused_by_the_generator(self, glauber_sm):
        bad = _derivation_breaker(glauber_sm, 1e-3)
        # the generator's first draw, residual from the dense maps
        rng = np.random.default_rng([0xD1CE, bad.dim])
        x, y = _draw_op(rng, bad.dim), _draw_op(rng, bad.dim)
        res = _leibnitz_reference(apply_superop, bad.maps(), bad.ito, x, y)
        message = (f"axiom failure: noise maps are not derivations "
                   f"(residual {max(res[-1], res[1]):.3e})")
        with pytest.raises(ValueError) as err:
            build_extended_generator(bad)
        assert str(err.value) == message

    def test_structure_records_survive_a_refused_generator(self, tmp_path, capsys, glauber_sm):
        maps = _file_model(tmp_path, _derivation_breaker(glauber_sm, 1e-3))
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": maps}}, rcp)
        records = {}
        for command, code in (("check-structure", 1), ("suite", 2)):
            assert main([command, "--config", str(rcp)]) == code
            records[command] = json.loads(capsys.readouterr().out)["records"]
        structure = records["check-structure"]
        assert [r["name"] for r in structure] == [
            "structure-unital", "structure-conjugation", "structure-derivation",
            "structure-ito-rule"]
        assert records["suite"][:-1] == structure
        last = records["suite"][-1]
        assert last["name"] == "model-construction" and not last["passed"]
        assert last["message"].startswith("axiom failure: noise maps are not derivations")
        # without the structure group only the construction record is left
        rc = parse_config({"model": {"structure_maps": maps}})
        assert [r.name for r in run_suite(rc, groups=("extended", "flow")).records] == [
            "model-construction"]

    def test_conjugation_breaker_matches_dense_formula(self, tmp_path, glauber_sm):
        rng = np.random.default_rng(33)
        f, g = random_op(rng, 8, unit=False), random_op(rng, 8, unit=False)
        broken = StructureMapSet(dim=8, theta_minus=commutator_map(f),
                                 theta_zero=glauber_sm.theta_zero + commutator_map(g),
                                 theta_plus=commutator_map(f))
        rc = parse_config({"model": {"structure_maps": _file_model(tmp_path, broken)}})
        sm = build_model(rc)
        assert check_conjugation(sm) == _dense_conjugation(sm) > 0.1
        # the drift's half on its own
        half = replace(sm, theta_minus=adjoint_superop_matrix(sm.theta_plus))
        assert check_conjugation(half) == _dense_conjugation(half) > 0.1

    @pytest.mark.parametrize("name", ["theta_minus", "theta_zero", "theta_plus"])
    def test_non_unital_chain_map_refused(self, glauber_sm, name):
        # one entry that sends the identity off zero, just above UNITAL_TOL
        m = getattr(glauber_sm, name).copy()
        m[9, 0] += 1e-9
        with pytest.raises(ValueError, match="kill the identity"):
            replace(glauber_sm, **{name: m})

    def test_digest_hashes_the_array_bytes(self):
        rng = np.random.default_rng(34)
        x = random_op(rng, 4)
        parts = (x, x.T, x.real, np.zeros((0, 0), complex), 0.25, "comp")
        h = hashlib.sha256()
        for p in parts:
            h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                     else repr(p).encode())
        assert _digest(*parts) == h.hexdigest()[:12]


# --- the model digest and the dense maps on first read -----------------------

# sha256 of the default chain's three dense maps (their bytes in order -1,
# 0, +1) and of its structure_maps_to_obj file, both measured when every
# dense map was built at construction
_DEFAULT_DENSE_SHA = "d4784d20013981eb4efd047d1fa94919a5f8b1b258a8d2d5927388b3f4b65ba6"
_DEFAULT_MAPS_FILE_SHA = "0423d64ba44d238234e32369ae04ab2f4c600298f10f2eed375ce22a353156ef"


def _structure_digests(monkeypatch, sm):
    """The record digests of run_suite's structure group on the model sm."""
    monkeypatch.setattr(qmflow.suite, "build_model", lambda rc: sm)
    return [r.digest for r in run_suite(parse_config({}), groups=("structure",)).records]


def _one_ulp_off(sm):
    """sm with one nonzero entry of theta_0 moved by one ulp."""
    tz = sm.theta_zero.copy()
    r, c = np.argwhere(tz != 0)[5]
    tz[r, c] = np.nextafter(tz[r, c].real, np.inf) + 1j * tz[r, c].imag
    return replace(sm, theta_zero=tz)


class TestModelDigest:
    def test_copies_of_one_chain_share_the_digests(self, monkeypatch, tmp_path):
        want = [r.digest for r in run_suite(parse_config({}), groups=("structure",)).records]
        built = build_glauber_structure_maps(parse_config({}).glauber)
        # the file round trip: build_model reads it with structure_maps_from_obj
        rc = parse_config({"model": {"structure_maps": _file_model(tmp_path, built)}})
        assert [r.digest for r in run_suite(rc, groups=("structure",)).records] == want
        # the file's reader drops the sign of the commutator maps' zero entries
        loaded = build_model(rc)
        assert np.signbit(built.theta_plus.imag[built.theta_plus == 0]).all()
        assert not np.signbit(loaded.theta_plus.imag[loaded.theta_plus == 0]).any()
        dense = StructureMapSet(built.dim, built.theta_minus, built.theta_zero,
                                built.theta_plus, built.ito)
        assert _structure_digests(monkeypatch, dense) == want
        assert _structure_digests(monkeypatch, _one_ulp_off(built))[0] != want[0]

    def test_digest_ignores_stored_zeros_and_index_dtype(self, monkeypatch, glauber_sm):
        want = _structure_digests(monkeypatch, glauber_sm)
        views = {}
        for alpha, v in glauber_sm.csr.items():
            # a stored zero at every antidiagonal position it does not hold
            n, coo = v.shape[0], v.tocoo()
            stored = scipy.sparse.csr_array(
                (np.concatenate([coo.data, np.zeros(n, complex)]),
                 (np.concatenate([coo.row, np.arange(n)]),
                  np.concatenate([coo.col, np.arange(n)[::-1]]))),
                shape=(n, n))
            stored.indices, stored.indptr = stored.indices.astype(np.int64), stored.indptr.astype(np.int64)
            assert stored.has_canonical_format and np.any(stored.data == 0)
            assert np.array_equal(stored.toarray(), v.toarray())
            views[alpha] = stored
        padded = StructureMapSet._from_views(glauber_sm.dim, views, glauber_sm.ito,
                                             [None, None, None])
        assert _structure_digests(monkeypatch, padded) == want


class TestDenseMapsOnFirstRead:
    def test_suite_and_flow_element_build_no_dense_map(self, monkeypatch):
        built = []
        inner = qmflow.suite.build_model

        def recording(rc):
            built.append(inner(rc))
            return built[-1]

        monkeypatch.setattr(qmflow.suite, "build_model", recording)
        report = run_suite(parse_config({}), groups=("structure",))
        assert report.passed
        (sm,) = built
        flow_matrix_element(sm, StepFunction([(0.0, 1.0, 0.3 - 0.2j)]),
                            StepFunction([(0.2, 1.5, 0.6 + 0.1j)]), 0.0, 2.0, np.eye(sm.dim))
        assert repr(sm).startswith("StructureMapSet(dim=8, ito=ItoTable(")
        assert not set(_DENSE) & set(vars(sm))

    def test_first_read_keeps_the_bits(self):
        sm = build_glauber_structure_maps(parse_config({}).glauber)
        assert not set(_DENSE) & set(vars(sm))
        maps = [getattr(sm, name) for name in _DENSE]
        assert hashlib.sha256(b"".join(m.tobytes() for m in maps)).hexdigest() == _DEFAULT_DENSE_SHA
        # the commutator maps hold (0, -0) off their views, the drift 0
        for alpha, m in zip((-1, 0, 1), maps):
            assert np.array_equal(m, sm.csr[alpha].toarray())
            zero = m == 0
            assert not np.signbit(m.real[zero]).any()
            assert np.array_equal(np.signbit(m.imag[zero]), np.full(zero.sum(), alpha != 0))
        # one allocation, built once: a second read is the same object
        assert all(m.base is maps[0].base for m in maps)
        assert all(getattr(sm, name) is m for name, m in zip(_DENSE, maps))
        assert all(sm.maps()[alpha] is m for alpha, m in zip((-1, 0, 1), maps))

    def test_maps_file_keeps_its_bytes(self, tmp_path):
        sm = build_glauber_structure_maps(parse_config({}).glauber)
        path = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(sm), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _DEFAULT_MAPS_FILE_SHA

    def test_given_dense_maps_are_kept(self, glauber_sm):
        maps = [getattr(glauber_sm, name) for name in _DENSE]
        sm = StructureMapSet(glauber_sm.dim, *maps, glauber_sm.ito)
        assert all(getattr(sm, name) is m for name, m in zip(_DENSE, maps))

    def test_unknown_attribute_still_raises(self, glauber_sm):
        with pytest.raises(AttributeError, match="theta_one"):
            glauber_sm.theta_one

    @pytest.mark.parametrize("alpha, name", [(-1, "theta_minus"), (0, "theta_zero"),
                                             (1, "theta_plus")])
    def test_views_are_checked(self, qubit_sm, alpha, name):
        views = {a: v.copy() for a, v in qubit_sm.csr.items()}
        views[alpha].data[0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            StructureMapSet._from_views(2, views, qubit_sm.ito, [None, None, None])
        views = {a: v.copy() for a, v in qubit_sm.csr.items()}
        views[alpha] = views[alpha] + 1e-9 * scipy.sparse.eye_array(4, format="csr")
        with pytest.raises(ValueError, match="kill the identity"):
            StructureMapSet._from_views(2, views, qubit_sm.ito, [None, None, None])
