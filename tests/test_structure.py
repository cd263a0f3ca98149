import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmflow.structure
from qmflow import (
    ItoTable,
    StepFunction,
    StructureMapSet,
    apply_superop,
    build_evans_hudson,
    check_conjugation,
    check_unital,
    commutator_map,
    flow_matrix_element,
    leibnitz_residual,
    max_abs,
    parse_config,
    run_suite,
)
from qmflow.structure import _CALIBRATION_PAIRS, _CALIBRATION_SEED, calibrate_ito
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


# --- maps validated once, applied once per operand ----------------------------

def _leibnitz_reference(sm, x, y):
    """leibnitz_residual through the public apply_superop, one call per
    term, in the order of the product rule as written."""
    xy = x @ y
    out = {}
    for alpha in (-1, 1):
        m = sm.maps()[alpha]
        out[alpha] = max_abs(
            apply_superop(m, xy) - apply_superop(m, x) @ y - x @ apply_superop(m, y))
    m0 = sm.theta_zero
    corr = (sm.ito.c_mp * apply_superop(sm.theta_minus, x) @ apply_superop(sm.theta_plus, y)
            + sm.ito.c_pm * apply_superop(sm.theta_plus, x) @ apply_superop(sm.theta_minus, y))
    out[0] = max_abs(
        apply_superop(m0, xy) - apply_superop(m0, x) @ y - x @ apply_superop(m0, y) - corr)
    return out


def _calibration_reference(tm, t0, tp, dim):
    """calibrate_ito's draws and least-squares fit through apply_superop."""
    rng = np.random.default_rng([_CALIBRATION_SEED, dim])
    cols_u, cols_v, rhs = [], [], []
    for _ in range(_CALIBRATION_PAIRS):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x /= max(1.0, max_abs(x))
        y /= max(1.0, max_abs(y))
        d0 = (apply_superop(t0, x @ y)
              - apply_superop(t0, x) @ y - x @ apply_superop(t0, y))
        cols_u.append((apply_superop(tm, x) @ apply_superop(tp, y)).ravel())
        cols_v.append((apply_superop(tp, x) @ apply_superop(tm, y)).ravel())
        rhs.append(d0.ravel())
    a = np.stack([np.concatenate(cols_u), np.concatenate(cols_v)], axis=1)
    b = np.concatenate(rhs)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    return ItoTable(coeffs[0], coeffs[1]), float(max_abs(a @ coeffs - b))


@pytest.fixture
def count_apply(monkeypatch):
    """Count the unchecked matvecs made by qmflow.structure."""
    calls = []
    inner = qmflow.structure._apply

    def counted(s, x):
        calls.append(s.shape[0])
        return inner(s, x)

    monkeypatch.setattr(qmflow.structure, "_apply", counted)
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
            want = _leibnitz_reference(sm, x, y)
            assert list(got) == list(want)
            assert all(got[a] == want[a] for a in want)

    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    def test_calibration_bitwise_equal_to_reference(self, model, request):
        sm = request.getfixturevalue(model)
        maps = (sm.theta_minus, sm.theta_zero, sm.theta_plus)
        table, resid = calibrate_ito(*maps, sm.dim)
        want_table, want_resid = _calibration_reference(*maps, sm.dim)
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


class TestApplicationCounts:
    """Cost guard: each map is applied once per operand, unchecked."""

    def test_nine_matvecs_per_leibnitz_call(self, glauber_sm, count_apply):
        rng = np.random.default_rng(30)
        leibnitz_residual(glauber_sm, random_op(rng, 8), random_op(rng, 8))
        assert len(count_apply) == 9

    def test_seven_matvecs_per_calibration_pair(self, glauber_sm, count_apply):
        calibrate_ito(glauber_sm.theta_minus, glauber_sm.theta_zero,
                      glauber_sm.theta_plus, glauber_sm.dim)
        assert len(count_apply) == 7 * _CALIBRATION_PAIRS

    def test_structure_group_never_revalidates(self, monkeypatch, count_apply):
        checked = []
        original = qmflow.linalg.apply_superop

        def counted(s, x):
            checked.append(1)
            return original(s, x)

        for name, module in list(sys.modules.items()):
            if (name == "qmflow" or name.startswith("qmflow.")) \
                    and getattr(module, "apply_superop", None) is original:
                monkeypatch.setattr(module, "apply_superop", counted)
        rc = parse_config({"model": {"glauber": {"sites": 3, "boundary": "periodic"}}})
        report = run_suite(rc, groups=("structure",))
        assert report.passed
        assert checked == []
        # calibration while building the chain, two unitality checks (at
        # construction and in the suite), 100 product-rule draws
        assert len(count_apply) == 7 * _CALIBRATION_PAIRS + 2 * 3 + 100 * 9

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
