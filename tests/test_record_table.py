"""What fails each record of the suite report.

Every record of the default report has one row here: either an
adversarial model that fails it at the default tolerances, through
``run_suite``, or the reason it is a code check that no model the build
accepts can fail (those are failed by faults in the code elsewhere in the
tests). A record that joins the report needs a row, so a check that can
never fail cannot join it unnoticed.
"""

from dataclasses import replace

import numpy as np
import pytest

from qmflow import (
    DEFAULT_TOLERANCES,
    ItoTable,
    StructureMapSet,
    adjoint_superop_matrix,
    build_evans_hudson,
    build_model,
    left_mul_map,
    parse_config,
    run_suite,
    sandwich_map,
    save_json,
    structure_maps_to_obj,
)
from qmflow.structure import UNITAL_TOL

_F = np.array([[0.0, 1.0], [0.0, 0.0]])


def _qubit(weight=1.0, f=_F):
    """The amplitude-flip qubit: H = 0, jump f, lowering weight ``weight``."""
    return build_evans_hudson(np.zeros((2, 2)), f, weight, 0.0)


def _chain():
    return build_model(parse_config({}))


def _replaced(sm, **changes):
    """sm with each named field f replaced by changes[f](its value)."""
    return replace(sm, **{name: change(getattr(sm, name)) for name, change in changes.items()})


def _unital_defect(m):
    """m plus 9e-11 times the identity map: it sends the identity to 9e-11
    times it, under ``UNITAL_TOL``."""
    return m + 9e-11 * np.eye(len(m))


def _off_derivation(sm, eps):
    """sm with theta_plus off the derivation rule by eps * (X -> A X A - A^2 X),
    which kills the identity, and theta_minus its conjugation partner."""
    rng = np.random.default_rng(32)
    a = rng.standard_normal((sm.dim, sm.dim)) + 1j * rng.standard_normal((sm.dim, sm.dim))
    a /= max(1.0, np.abs(a).max())
    tp = sm.theta_plus + eps * (sandwich_map(a, a) - left_mul_map(a @ a))
    return StructureMapSet(dim=sm.dim, theta_minus=adjoint_superop_matrix(tp),
                           theta_zero=sm.theta_zero, theta_plus=tp, ito=sm.ito)


_ADVERSARIES = {
    # calibrated constant 1/2, below the positivity threshold 1
    "weak qubit": lambda: _qubit(weight=0.25),
    # still unital and conjugation-symmetric; breaks positivity and the drift rule
    "qubit, negated drift": lambda: _replaced(_qubit(), theta_zero=np.negative),
    # a valid model whose resolvent error stops falling at first order
    "qubit, F x 100": lambda: _qubit(f=100 * _F),
    "qubit, theta_0 + 9e-11 identity": lambda: _replaced(_qubit(), theta_zero=_unital_defect),
    "qubit, every map + 9e-11 identity": lambda: _replaced(
        _qubit(), theta_minus=_unital_defect, theta_zero=_unital_defect,
        theta_plus=_unital_defect),
    "chain, theta_minus x (1 + 1e-6)": lambda: _replaced(
        _chain(), theta_minus=lambda m: m * (1 + 1e-6)),
    "chain, theta_plus off the derivation rule by 1e-3": lambda: _off_derivation(
        _chain(), 1e-3),
    "chain, Ito constant c_mp + 0.5": lambda: _replaced(
        _chain(), ito=lambda ito: ItoTable(ito.c_mp + 0.5, ito.c_pm)),
}

# record name -> the adversary that fails it
FAILED_BY = {
    "structure-conjugation": "chain, theta_minus x (1 + 1e-6)",
    "structure-derivation": "chain, theta_plus off the derivation rule by 1e-3",
    "structure-ito-rule": "chain, Ito constant c_mp + 0.5",
    "extended-cp": "weak qubit",
    "extended-conservativity": "qubit, every map + 9e-11 identity",
    "extended-normalization": "qubit, every map + 9e-11 identity",
    "extended-kappa": "qubit, theta_0 + 9e-11 identity",
    "extended-generator-cp": "weak qubit",
    "extended-resolvent-order": "qubit, F x 100",
    "flow-unitality": "qubit, theta_0 + 9e-11 identity",
    "flow-norm-bound": "weak qubit",
    "flow-kernel-cp": "weak qubit",
    "flow-schur-closure": "weak qubit",
    "flow-q-bound": "qubit, negated drift",
}

# record name -> why no model the build accepts fails it
CODE_CHECKS = {
    "structure-unital": (
        "a map whose image of the identity exceeds UNITAL_TOL is refused when the "
        "set is built, and the record's default tolerance is UNITAL_TOL; it is kept "
        "because check-structure runs the structure group alone"),
    "flow-composition": (
        "a window's map is the product of its segments' factors, so splitting it in "
        "two holds up to rounding for every model; code faults fail it "
        "(TestFlowAdversaries) until it is checked against an independent computation"),
    "flow-refinement": (
        "halving every piece of a step function keeps each segment's factor up to "
        "rounding for every model; code faults fail it (TestFlowAdversaries) until it "
        "is checked against an independent computation"),
}


def _file_config(tmp_path, sm):
    path = tmp_path / "maps.json"
    save_json(structure_maps_to_obj(sm), path)
    return {"model": {"structure_maps": str(path)}}


def _group(name):
    return name.split("-", 1)[0]


@pytest.fixture(scope="module")
def default_report():
    return run_suite(parse_config({}))


def test_one_row_per_record_of_the_default_report(default_report):
    assert FAILED_BY.keys().isdisjoint(CODE_CHECKS)
    assert set(FAILED_BY) | set(CODE_CHECKS) == {r.name for r in default_report.records}
    assert set(FAILED_BY.values()) == set(_ADVERSARIES)


def test_the_default_chain_passes_every_record(default_report):
    assert default_report.passed and all(r.passed for r in default_report.records)


@pytest.mark.parametrize("name", sorted(FAILED_BY))
def test_the_adversary_fails_its_record(tmp_path, name):
    rc = parse_config(_file_config(tmp_path, _ADVERSARIES[FAILED_BY[name]]()))
    mine = [r for r in run_suite(rc, groups=(_group(name),)).records if r.name == name]
    assert mine and not all(r.passed for r in mine)


def test_the_unital_record_fails_only_below_the_construction_bound(tmp_path):
    # the defect just under UNITAL_TOL builds and passes at the default
    # tolerance; a tighter tolerance fails it
    config = _file_config(tmp_path, _ADVERSARIES["qubit, theta_0 + 9e-11 identity"]())
    assert DEFAULT_TOLERANCES["unital"] == UNITAL_TOL
    for unital, ok in ((UNITAL_TOL, True), (1e-11, False)):
        rc = parse_config({**config, "tolerances": {"unital": unital}})
        (record,) = (r for r in run_suite(rc, groups=("structure",)).records
                     if r.name == "structure-unital")
        assert record.passed == ok
