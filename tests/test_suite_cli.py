import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmflow
from qmflow import (
    DEFAULT_TOLERANCES,
    REPORT_SCHEMA,
    StructureMapSet,
    apply_superop,
    build_extended_generator,
    build_model,
    check_cp_rows,
    default_constants,
    flow_matrix_element,
    load_json,
    matrix_exponential,
    operator_from_obj,
    operator_to_obj,
    parse_config,
    report_to_csv,
    report_to_json_bytes,
    rng_for,
    run_suite,
    save_json,
    serialize_config,
    step_function_to_obj,
    structure_maps_to_obj,
    validate_report,
    StepFunction,
)
from qmflow.cli import main


@pytest.fixture(scope="module")
def small_rc():
    return parse_config({"model": {"glauber": {"sites": 3}}, "seed": 42,
                         "t_grid": [0.1, 0.5]})


@pytest.fixture(scope="module")
def small_report(small_rc):
    return run_suite(small_rc)


@pytest.fixture()
def adversarial_maps_path(tmp_path, qubit_sm):
    # negated drift passes construction-time validation (still unital and
    # conjugation symmetric) but breaks positivity and the drift rule;
    # keep the stale declared constants so the rule check sees them
    adv = StructureMapSet(dim=2, theta_minus=qubit_sm.theta_minus,
                          theta_zero=-qubit_sm.theta_zero,
                          theta_plus=qubit_sm.theta_plus, ito=qubit_sm.ito)
    p = tmp_path / "adv.json"
    save_json(structure_maps_to_obj(adv), p)
    return str(p)


class TestParseConfig:
    def test_defaults(self):
        rc = parse_config({})
        assert rc.model_kind == "glauber"
        assert rc.mode == "physical"
        assert rc.seed == 0
        assert rc.t_grid == (0.1, 0.25, 0.5, 1.0)
        assert rc.tolerances == DEFAULT_TOLERANCES

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config({"speed": 3})

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="'seed'"):
            parse_config({"seed": -1})
        with pytest.raises(ValueError, match="'seed'"):
            parse_config({"seed": True})
        with pytest.raises(ValueError, match="'seed'"):
            parse_config({"seed": 2.5})

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="'mode'"):
            parse_config({"mode": "fast"})

    def test_t_grid_validation(self):
        with pytest.raises(ValueError, match="'t_grid'"):
            parse_config({"t_grid": []})
        with pytest.raises(ValueError, match="'t_grid'"):
            parse_config({"t_grid": [-0.5]})
        with pytest.raises(ValueError, match="'t_grid'"):
            parse_config({"t_grid": [True]})
        with pytest.raises(ValueError, match="'t_grid'"):
            parse_config({"t_grid": [10 ** 400]})

    def test_tolerance_validation(self):
        with pytest.raises(ValueError, match="tolerances.speed"):
            parse_config({"tolerances": {"speed": 1e-9}})
        with pytest.raises(ValueError, match="tolerances.choi"):
            parse_config({"tolerances": {"choi": 0.0}})
        for bad in (float("inf"), float("nan"), True, 10 ** 400):
            with pytest.raises(ValueError, match="tolerances.choi"):
                parse_config({"tolerances": {"choi": bad}})
        with pytest.raises(ValueError, match="'tolerances'"):
            parse_config({"tolerances": [1]})

    @pytest.mark.parametrize("name", ["commutation", "delta_formula"])
    def test_removed_tolerances_refused(self, name):
        # their records held by construction and left the report
        assert len(DEFAULT_TOLERANCES) == 16
        with pytest.raises(ValueError, match=f"^config key 'tolerances.{name}' "
                                             "is not a known check tolerance$"):
            parse_config({"tolerances": {name: 1e-12}})

    def test_model_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_config({"model": {"glauber": {}, "structure_maps": "x.json"}})
        with pytest.raises(ValueError, match="unknown kind"):
            parse_config({"model": {"spins": {}}})
        with pytest.raises(ValueError, match="file path"):
            parse_config({"model": {"structure_maps": 7}})

    def test_seed_override(self):
        rc = parse_config({"seed": 5}, seed_override=9)
        assert rc.seed == 9

    def test_serialize_parse_identity(self, small_rc):
        echo = serialize_config(small_rc)
        again = parse_config(json.loads(json.dumps(echo)))
        assert again == small_rc

    def test_file_model_roundtrip(self, tmp_path, qubit_sm):
        p = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(qubit_sm), p)
        rc = parse_config({"model": {"structure_maps": str(p)}})
        sm = build_model(rc)
        assert sm.dim == 2
        assert np.array_equal(sm.theta_zero, qubit_sm.theta_zero)


class TestRngSubstreams:
    def test_deterministic(self):
        a = rng_for(3, "flow-unitality").standard_normal(4)
        b = rng_for(3, "flow-unitality").standard_normal(4)
        assert np.array_equal(a, b)

    def test_name_separation(self):
        a = rng_for(3, "flow-unitality").standard_normal(4)
        b = rng_for(3, "flow-norm-bound").standard_normal(4)
        c = rng_for(4, "flow-unitality").standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunSuite:
    def test_all_pass_on_default_model(self, small_report):
        assert small_report.passed
        assert all(r.passed for r in small_report.records)
        names = {r.name for r in small_report.records}
        # one record set per group made it in
        assert any(n.startswith("structure-") for n in names)
        assert any(n.startswith("extended-") for n in names)
        assert any(n.startswith("flow-") for n in names)

    def test_byte_identical_reports(self, small_rc, small_report):
        again = run_suite(small_rc)
        assert report_to_json_bytes(again) == report_to_json_bytes(small_report)

    def test_schema_validates(self, small_report):
        validate_report(json.loads(report_to_json_bytes(small_report)))

    def test_schema_rejects_tampering(self, small_report):
        obj = json.loads(report_to_json_bytes(small_report))
        obj["records"][0]["kind"] = "vibes"
        import jsonschema
        with pytest.raises(jsonschema.ValidationError):
            validate_report(obj)
        assert set(REPORT_SCHEMA["required"]) >= {"version", "config", "records"}

    def test_group_restriction(self, small_rc):
        rep = run_suite(small_rc, groups=("structure",))
        assert rep.passed
        assert all(r.name.startswith("structure-") for r in rep.records)

    def test_unknown_group(self, small_rc):
        with pytest.raises(ValueError, match="unknown check groups"):
            run_suite(small_rc, groups=("spectra",))

    @pytest.mark.parametrize("groups", [(), []])
    def test_empty_group_selection_refused(self, small_rc, groups):
        with pytest.raises(ValueError, match="no check group selected"):
            run_suite(small_rc, groups=groups)

    def test_csv_shape(self, small_report):
        text = report_to_csv(small_report)
        lines = text.strip().split("\n")
        assert lines[0] == "check,t,residual,tolerance,pass"
        assert len(lines) == 1 + len(small_report.records)
        assert all(line.endswith(",true") for line in lines[1:])

    def test_adversarial_model_fails_cp_and_rule(self, adversarial_maps_path):
        rc = parse_config({"model": {"structure_maps": adversarial_maps_path},
                           "t_grid": [0.5]})
        rep = run_suite(rc)
        assert not rep.passed
        failed = {r.name for r in rep.records if not r.passed}
        assert "extended-cp" in failed
        assert "structure-ito-rule" in failed
        # report still validates against the schema
        validate_report(json.loads(report_to_json_bytes(rep)))

    def test_missing_model_file_yields_error_record(self, tmp_path):
        rc = parse_config({"model": {"structure_maps": str(tmp_path / "nope.json")}})
        rep = run_suite(rc)
        assert not rep.passed
        assert len(rep.records) == 1
        rec = rep.records[0]
        assert rec.name == "model-construction"
        assert rec.kind == "error"
        assert not rec.passed
        validate_report(json.loads(report_to_json_bytes(rep)))


class TestCheckCpRows:
    def test_rows_match_grid(self, small_rc):
        rows, passed = check_cp_rows(small_rc)
        assert passed
        assert [r["t"] for r in rows] == list(small_rc.t_grid)
        for r in rows:
            assert set(r) == {"t", "choi_min_eig", "conservativity_residual",
                              "normalization_residual", "passed"}
            assert r["choi_min_eig"] > -1e-9
            assert r["conservativity_residual"] < 1e-10
            assert r["normalization_residual"] < 1e-10
            assert isinstance(r["choi_min_eig"], float)

    def test_rows_equal_suite_records(self, small_rc):
        # the table and the suite judge each grid time by the same records
        rows, passed = check_cp_rows(small_rc)
        report = run_suite(small_rc, groups=("extended",))
        columns = {"extended-cp": "choi_min_eig",
                   "extended-conservativity": "conservativity_residual",
                   "extended-normalization": "normalization_residual"}
        records = {(r.name, r.t): r for r in report.records if r.name in columns}
        assert len(records) == 3 * len(rows)
        for row in rows:
            mine = [records[(name, row["t"])] for name in columns]
            for rec, key in zip(mine, columns.values()):
                assert row[key] == rec.value
            assert row["passed"] == all(rec.passed for rec in mine)
        assert passed == all(r.passed for r in records.values())

    def test_failing_rows_follow_record_verdicts(self, small_rc):
        # a tolerance below every conservative residual fails those
        # records, and the rows fail with them
        rc = parse_config({**serialize_config(small_rc),
                           "tolerances": {"conservativity": 1e-300}})
        rows, passed = check_cp_rows(rc)
        report = run_suite(rc, groups=("extended",))
        consv = [r for r in report.records if r.name == "extended-conservativity"]
        assert not passed
        assert [r["passed"] for r in rows] == [r.passed for r in consv]

    @pytest.mark.parametrize("real_scale, t, ok", [(1.0, 20.0, True), (0.3, 0.1, False)])
    def test_choi_bound_grows_like_the_unit_block(self, real_scale, t, ok):
        # the physical (1, 1) block grows like e^t, and the Choi test's
        # rounding with it: the default chain, CP by construction, reads
        # -4.9e-6 at t = 20 against 1e-9 e^20; with the real parts of its
        # constants x 0.3 it reads -0.15 at t = 0.1
        plus, minus = (
            {lab: [real_scale * v.real, v.imag] for lab, v in table.items()}
            for table in default_constants(0))
        rc = parse_config({"t_grid": [t], "model": {"glauber": {
            "sites": 3, "gg_plus": plus, "gg_minus": minus}}})
        (record,) = (r for r in run_suite(rc, groups=("extended",)).records
                     if r.name == "extended-cp")
        assert record.tolerance == DEFAULT_TOLERANCES["choi"] * np.exp(t)
        assert record.passed == ok and check_cp_rows(rc)[1] == ok
        assert abs(record.value) > 1e-6

    def test_a_time_whose_exponential_overflows_is_refused(self):
        # e^710 overflows: the time-t map is refused before any bound is taken
        rc = parse_config({"t_grid": [0.5, 710.0]})
        message = "exp(t * M) overflows at t = 710.0: the semigroup is not finite at this time"
        (record,) = run_suite(rc, groups=("extended",)).records
        assert record.name == "extended-group" and record.message == message
        with pytest.raises(ValueError, match=re.escape(message)):
            check_cp_rows(rc)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_build_glauber_roundtrip(self, tmp_path, capsys):
        cfgp = tmp_path / "chain.json"
        save_json({"sites": 3, "boundary": "periodic"}, cfgp)
        outp = tmp_path / "maps.json"
        code, out, err = _run(capsys, ["build-glauber", "--config", str(cfgp),
                                       "--seed", "42", "--out", str(outp)])
        assert code == 0
        obj = load_json(outp)
        assert obj["dim"] == 8
        # usable as a file-backed model downstream
        rc = parse_config({"model": {"structure_maps": str(outp)},
                           "t_grid": [0.3]})
        rep = run_suite(rc, groups=("structure",))
        assert rep.passed

    def test_build_glauber_stdout_single_line(self, tmp_path, capsys):
        cfgp = tmp_path / "chain.json"
        save_json({"sites": 3}, cfgp)
        code, out, err = _run(capsys, ["build-glauber", "--config", str(cfgp)])
        assert code == 0
        assert out.count("\n") == 1
        assert json.loads(out)["dim"] == 8

    def test_build_glauber_refuses_a_negative_seed(self, tmp_path, capsys):
        cfgp = tmp_path / "chain.json"
        save_json({"sites": 3}, cfgp)
        code, out, err = _run(capsys, ["build-glauber", "--config", str(cfgp), "--seed", "-1"])
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"

    def test_check_structure_passes(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["check-structure", "--t", "0.2",
                                       "--seed", "7"])
        assert code == 0
        obj = json.loads(out)
        validate_report(obj)
        assert obj["passed"] is True
        assert all(r["name"].startswith("structure-") for r in obj["records"])

    def test_check_cp_csv(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["check-cp", "--t", "0.1,0.5",
                                       "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("t,choi_min_eig,conservativity_residual,"
                            "normalization_residual,pass")
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])
        assert "np.float" not in out

    def test_check_cp_fails_with_tight_tolerance(self, capsys):
        code, out, err = _run(capsys, ["check-cp", "--t", "0.5",
                                       "--tol", "choi=1e-300"])
        assert code == 1

    def test_evolve_matches_direct_computation(self, tmp_path, capsys):
        xp = tmp_path / "x.json"
        rng = np.random.default_rng(90)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        save_json(operator_to_obj(x), xp)
        code, out, err = _run(capsys, ["evolve", "--observable", str(xp),
                                       "--t", "0.4", "--seed", "42"])
        assert code == 0
        obj = json.loads(out)
        rc = parse_config({"seed": 42, "t_grid": [0.4]})
        gen = build_extended_generator(build_model(rc), "physical")
        for i in (0, 1):
            for j in (0, 1):
                got = operator_from_obj(obj["results"][0][f"P{i}{j}"])
                want = apply_superop(matrix_exponential(gen.block(i, j), 0.4), x)
                assert_allclose(got, want, atol=1e-12)

    def test_evolve_dimension_mismatch(self, tmp_path, capsys):
        xp = tmp_path / "x.json"
        save_json(operator_to_obj(np.eye(2)), xp)
        code, out, err = _run(capsys, ["evolve", "--observable", str(xp),
                                       "--t", "0.4"])
        assert code == 2
        assert "does not match model dimension" in err

    def test_evolve_csv_no_numpy_reprs(self, tmp_path, capsys):
        xp = tmp_path / "x.json"
        save_json(operator_to_obj(np.eye(8)), xp)
        code, out, err = _run(capsys, ["evolve", "--observable", str(xp),
                                       "--t", "0.4", "--format", "csv"])
        assert code == 0
        assert out.startswith("t,block,row,col,re,im\n")
        assert "np.float" not in out

    def test_flow_element_matches_library(self, tmp_path, capsys, qubit_sm):
        mp = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(qubit_sm), mp)
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": str(mp)}}, rcp)
        f = StepFunction.indicator(0.0, 2.0, 0.4 + 0.1j)
        g = StepFunction.indicator(0.5, 1.5, -0.2j)
        fp, gp, xp = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "x.json"
        save_json(step_function_to_obj(f), fp)
        save_json(step_function_to_obj(g), gp)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        save_json(operator_to_obj(x), xp)
        code, out, err = _run(capsys, ["flow-element", "--config", str(rcp),
                                       "--f", str(fp), "--g", str(gp),
                                       "--window", "0.0,1.0",
                                       "--observable", str(xp)])
        assert code == 0
        obj = json.loads(out)
        got = operator_from_obj(obj["element"])
        want = flow_matrix_element(qubit_sm, f, g, 0.0, 1.0, x)
        assert_allclose(got, want, atol=1e-13)
        assert obj["window"] == [0.0, 1.0]

    def test_flow_element_bad_window(self, tmp_path, capsys, qubit_sm):
        mp = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(qubit_sm), mp)
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": str(mp)}}, rcp)
        fp = tmp_path / "f.json"
        save_json(step_function_to_obj(StepFunction.zero()), fp)
        xp = tmp_path / "x.json"
        save_json(operator_to_obj(np.eye(2)), xp)
        code, out, err = _run(capsys, ["flow-element", "--config", str(rcp),
                                       "--f", str(fp), "--g", str(fp),
                                       "--window", "zero,1",
                                       "--observable", str(xp)])
        assert code == 2
        assert "--window" in err

    @pytest.mark.parametrize("window", ["0,nan", "nan,1", "0,inf", "-inf,1"])
    def test_flow_element_non_finite_window(self, tmp_path, capsys, qubit_sm, window):
        mp = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(qubit_sm), mp)
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": str(mp)}}, rcp)
        fp = tmp_path / "f.json"
        save_json(step_function_to_obj(StepFunction.indicator(0.0, 1.0, 0.5)), fp)
        xp = tmp_path / "x.json"
        save_json(operator_to_obj(np.eye(2)), xp)
        code, out, err = _run(capsys, ["flow-element", "--config", str(rcp),
                                       "--f", str(fp), "--g", str(fp),
                                       f"--window={window}",
                                       "--observable", str(xp)])
        assert code == 2
        assert out == ""
        assert "window ends must be finite" in err

    def test_flow_element_non_finite_weight(self, tmp_path, capsys, qubit_sm):
        # exp(<f, g> outside the window) overflows: refused with exit 2 and
        # nothing written, not Infinity/NaN entries
        mp = tmp_path / "maps.json"
        save_json(structure_maps_to_obj(qubit_sm), mp)
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": str(mp)}}, rcp)
        fp, xp, outp = tmp_path / "f.json", tmp_path / "x.json", tmp_path / "out.json"
        save_json(step_function_to_obj(StepFunction(((-100.0, 0.0, 30.0), (0.0, 1.0, 0.5)))), fp)
        save_json(operator_to_obj(np.eye(2)), xp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["flow-element", "--config", str(rcp),
                                           "--f", str(fp), "--g", str(fp), "--window", "0,1",
                                           "--observable", str(xp), "--out", str(outp)])
        assert code == 2
        assert err.startswith("error: the weight exp(<f, g> outside the window) is not finite")
        assert not outp.exists()

    def test_suite_writes_deterministic_file(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            code, out, err = _run(capsys, ["suite", "--t", "0.1,0.5",
                                           "--seed", "42", "--out", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        validate_report(json.loads(p1.read_text()))

    def test_suite_csv_format(self, capsys):
        code, out, err = _run(capsys, ["suite", "--t", "0.1", "--format", "csv"])
        assert code == 0
        assert out.startswith("check,t,residual,tolerance,pass\n")

    def test_suite_fails_on_adversarial_model(self, adversarial_maps_path,
                                              tmp_path, capsys):
        rcp = tmp_path / "rc.json"
        save_json({"model": {"structure_maps": adversarial_maps_path},
                   "t_grid": [0.5]}, rcp)
        code, out, err = _run(capsys, ["suite", "--config", str(rcp)])
        assert code == 1

    def test_six_site_chain_refused(self, tmp_path, capsys):
        # a 6-site chain cannot run (268 MB per dense map, past the Choi
        # guard), so it is refused as bad input before any work
        rcp, chainp = tmp_path / "rc.json", tmp_path / "chain.json"
        save_json({"model": {"glauber": {"sites": 6}}}, rcp)
        save_json({"sites": 6}, chainp)
        for argv in (["check-cp", "--config", str(rcp)], ["suite", "--config", str(rcp)],
                     ["build-glauber", "--config", str(chainp)]):
            code, out, err = _run(capsys, argv)
            assert code == 2, argv[0]
            assert out == ""
            assert "sites must lie in [3, 5], got 6" in err

    @pytest.mark.parametrize("sites", [None, [3], "x", float("nan"), 3.9, "4", True],
                             ids=["null", "list", "string", "nan", "fraction",
                                  "numeric-string", "bool"])
    def test_non_integer_sites_refused(self, tmp_path, capsys, sites):
        rcp = tmp_path / "rc.json"
        save_json({"model": {"glauber": {"sites": sites}}}, rcp)
        code, out, err = _run(capsys, ["check-structure", "--config", str(rcp)])
        assert code == 2
        assert out == ""
        assert err == f"error: sites must be an integer, got {sites!r}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["suite", "--config",
                                       str(tmp_path / "absent.json")])
        assert code == 2
        assert err.startswith("error:")

    def test_bad_tol_name(self, capsys):
        code, out, err = _run(capsys, ["suite", "--tol", "speed=1"])
        assert code == 2
        assert "not a known check tolerance" in err

    def test_removed_tol_name(self, capsys):
        # the key of a record that left the report is refused before any run
        code, out, err = _run(capsys, ["suite", "--tol", "commutation=1e-3"])
        assert code == 2 and out == ""
        assert "'tolerances.commutation' is not a known check tolerance" in err

    def test_infinite_tol(self, capsys):
        code, out, err = _run(capsys, ["check-cp", "--tol", "choi=inf"])
        assert code == 2
        assert "tolerances.choi" in err

    def test_config_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("5\n")
        code, out, err = _run(capsys, ["check-cp", "--config", str(p)])
        assert code == 2
        assert "JSON object" in err

    def test_tolerances_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{"tolerances": [1]}\n')
        for extra in ([], ["--tol", "choi=1e-8"]):
            code, out, err = _run(capsys, ["check-cp", "--config", str(p)] + extra)
            assert code == 2
            assert "'tolerances'" in err

    def test_bad_tol_shape(self, capsys):
        code, out, err = _run(capsys, ["suite", "--tol", "choi"])
        assert code == 2
        assert "NAME=VALUE" in err

    def test_huge_integer_in_config(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        for body, key in ((f'{{"tolerances": {{"choi": {huge}}}}}', "tolerances.choi"),
                          (f'{{"t_grid": [{huge}]}}', "'t_grid'")):
            p = tmp_path / "c.json"
            p.write_text(body + "\n")
            code, out, err = _run(capsys, ["check-cp", "--config", str(p)])
            assert code == 2
            assert key in err

    def test_huge_integer_in_inputs(self, tmp_path, capsys, qubit_sm):
        huge = 10 ** 400
        table = {lab: [0.5, 0.0] for lab in ("pp", "pm", "mp", "mm")}
        chain = {"sites": 3, "gg_plus": dict(table, pp=[huge, 0]), "gg_minus": table}
        chainp, rcp = tmp_path / "chain.json", tmp_path / "rc.json"
        save_json(chain, chainp)
        save_json({"model": {"glauber": chain}}, rcp)
        mp, qrcp = tmp_path / "maps.json", tmp_path / "qrc.json"
        maps = structure_maps_to_obj(qubit_sm)
        maps["theta_zero"]["re"][0][1] = huge
        save_json(maps, mp)
        save_json({"model": {"structure_maps": str(mp)}}, qrcp)
        good_maps = tmp_path / "good_maps.json"
        save_json(structure_maps_to_obj(qubit_sm), good_maps)
        good_rc = tmp_path / "good_rc.json"
        save_json({"model": {"structure_maps": str(good_maps)}}, good_rc)
        fp, bad_fp = tmp_path / "f.json", tmp_path / "bad_f.json"
        save_json([[0, 1, 1, 0]], fp)
        save_json([[0, 1, huge, 0]], bad_fp)
        xp, bad_xp = tmp_path / "x.json", tmp_path / "bad_x.json"
        save_json(operator_to_obj(np.eye(2)), xp)
        save_json({"dim": 2, "re": [[1, 0], [0, huge]], "im": [[0, 0], [0, 0]]}, bad_xp)
        element = ["flow-element", "--config", str(good_rc), "--g", str(fp),
                   "--window", "0,1", "--observable"]
        for argv, key in (
                (["build-glauber", "--config", str(chainp)], "gg_plus.pp"),
                (["check-structure", "--config", str(rcp)], "gg_plus.pp"),
                (element + [str(xp), "--f", str(bad_fp)], "piece 0"),
                (element + [str(bad_xp), "--f", str(fp)], "operator: entries must be finite"),
                (["evolve", "--config", str(qrcp), "--observable", str(xp)], "theta_zero")):
            code, out, err = _run(capsys, argv)
            assert code == 2, argv[0]
            assert key in err and "Traceback" not in err

    def test_booleans_in_inputs(self, tmp_path, capsys, qubit_sm):
        xp = tmp_path / "x.json"
        save_json({"dim": 8, "re": np.eye(8).tolist(), "im": [[False] * 8] * 8}, xp)
        mp, rcp = tmp_path / "maps.json", tmp_path / "rc.json"
        maps = structure_maps_to_obj(qubit_sm)
        maps["theta_zero"]["re"][0][0] = True
        save_json(maps, mp)
        save_json({"model": {"structure_maps": str(mp)}}, rcp)
        qxp = tmp_path / "qx.json"
        save_json(operator_to_obj(np.eye(2)), qxp)
        for argv, key in ((["evolve", "--observable", str(xp)], "operator: im entries"),
                          (["evolve", "--config", str(rcp), "--observable", str(qxp)],
                           "theta_zero: superoperator: re entries")):
            code, out, err = _run(capsys, argv)
            assert code == 2, argv[0]
            assert key in err and "Traceback" not in err

    def test_negative_time(self, capsys):
        code, out, err = _run(capsys, ["check-cp", "--t", "-0.5"])
        assert code == 2
        assert "nonnegative" in err

    def test_malformed_time(self, capsys):
        code, out, err = _run(capsys, ["check-cp", "--t", "0.1;0.5"])
        assert code == 2

    @pytest.mark.parametrize("command", ["check-cp", "suite"])
    def test_empty_time_grid_refused(self, capsys, command):
        code, out, err = _run(capsys, [command, "--t", ""])
        assert code == 2
        assert out == ""
        assert "--t must be comma-separated numbers, got ''" in err


class TestOverflowRefusals:
    """A time whose exponential overflows is refused with exit 2 and a
    message naming it, and no output file is written; run under
    ``python -W error``, so numpy's overflow warning would fail the run."""

    @pytest.mark.parametrize("command, args", [
        ("evolve", ["--observable", "x.json", "--t", "1e308"]),
        ("check-cp", ["--t", "1e308"]),
        ("flow-element", ["--f", "f.json", "--g", "f.json", "--window", "1,1e308",
                          "--observable", "x.json"]),
        ("suite", ["--t", "0.5,1e308"]),
    ])
    def test_refused_under_warnings_as_errors(self, tmp_path, command, args):
        save_json(operator_to_obj(np.eye(8)), tmp_path / "x.json")
        save_json(step_function_to_obj(StepFunction.indicator(0.0, 1.0, 0.5)),
                  tmp_path / "f.json")
        src = str(Path(qmflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qmflow.cli", command, *args,
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "t = 1e+308" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_choi_overflow_below_the_exponential_refused(self, tmp_path):
        # exp(709.5 L) is finite, its Choi matrix's change of basis is not
        src = str(Path(qmflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qmflow.cli", "check-cp", "--t", "709.5",
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: the time-t Choi matrix overflows at t = 709.5\n")
        assert not out.exists()


class TestStrictJson:
    """A measured value that is not finite fails and is stored as null,
    with a message naming it, so every report is strict JSON."""

    @pytest.mark.parametrize("kind", ["residual", "min_eig", "slope", "bound"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_fails_as_null(self, kind, value):
        record = qmflow.suite._record("check", kind, value, 0.5, "digest")
        assert (record.value, record.passed) == (None, False)
        assert record.message == f"the measured value is {value!r}"

    def test_zero_maps_report_under_warnings_as_errors(self, tmp_path):
        # every map 0: the resolvent errors are 0, so the order record
        # passes with no value, and every record is strict JSON
        z = np.zeros((4, 4))
        zero = StructureMapSet(dim=2, theta_minus=z, theta_zero=z, theta_plus=z)
        save_json(structure_maps_to_obj(zero), tmp_path / "maps.json")
        save_json({"model": {"structure_maps": "maps.json"}}, tmp_path / "rc.json")
        src = str(Path(qmflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qmflow.cli", "suite", "--config", "rc.json",
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        validate_report(report)
        assert report["passed"] and all(r["passed"] for r in report["records"])
        order = [(r["value"], r["message"]) for r in report["records"]
                 if r["name"] == "extended-resolvent-order"]
        assert order == [(None, "the resolvent is exact at every eps")]

    def test_emitters_refuse_a_non_finite_number(self, small_report):
        bad = replace(small_report, records=(replace(small_report.records[0],
                                                     value=float("nan")),))
        with pytest.raises(ValueError):
            report_to_json_bytes(bad)


class TestResolventOrder:
    """extended-resolvent-order passes first-order convergence, passes a
    resolvent that is exact at every eps with no value, and fails any other
    order."""

    @staticmethod
    def order_record(monkeypatch, regularized):
        monkeypatch.setattr(qmflow.suite, "resolvent_generator", regularized)
        report = run_suite(parse_config({}), groups=("extended",))
        (record,) = [r for r in report.records if r.name == "extended-resolvent-order"]
        return record

    def test_first_order_passes(self, monkeypatch):
        record = self.order_record(monkeypatch, qmflow.suite.resolvent_generator)
        assert record.passed and abs(record.value - 1.0) <= 0.2 and record.message is None

    def test_exact_resolvent_passes_with_no_value(self, monkeypatch):
        record = self.order_record(monkeypatch, lambda gen, eps: gen.entries)
        assert (record.value, record.passed, record.message) == (
            None, True, "the resolvent is exact at every eps")

    def test_second_order_fails(self, monkeypatch):
        # L_eps = L + eps**2: exp(L_eps) = e^(eps**2) exp(L), an eps**2 error
        def second_order(gen, eps):
            eye = np.eye(gen.dim ** 2)
            return tuple(tuple(m + eps ** 2 * eye for m in row) for row in gen.entries)

        record = self.order_record(monkeypatch, second_order)
        assert not record.passed and abs(record.value - 2.0) <= 1e-3


class TestSuiteGridRefusal:
    """The suite refuses a grid time at which t * L_ij overflows before
    any group runs, from the entries alone."""

    def test_refused_before_any_group(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qmflow.suite, "check_unital", lambda sm: calls.append("unital"))
        monkeypatch.setattr(qmflow.extended, "matrix_exponential",
                            lambda m, t=1.0: calls.append("expm"))
        rc = parse_config({"t_grid": [0.5, 1e308, 1.5e308]})
        with pytest.raises(ValueError, match=r"^t \* M overflows at t = 1e\+308: "):
            run_suite(rc)
        with pytest.raises(ValueError, match=r"t = 1e\+308"):
            run_suite(rc, groups=("extended",))
        assert calls == []

    def test_the_bar_is_the_exponential_s(self):
        rc = parse_config({"t_grid": [1e308]})
        gen = build_extended_generator(build_model(rc), "conservative")
        with pytest.raises(ValueError, match=r"t = 1e\+308"):
            matrix_exponential(gen.block(1, 1), 1e308)
        # the largest time the entries allow runs: the group reports a
        # failing exponential, not a refusal
        size = max(max(np.max(np.abs(m.real)), np.max(np.abs(m.imag)))
                   for row in gen.entries for m in row)
        t = np.finfo(float).max / size
        report = run_suite(parse_config({"t_grid": [float(t)]}), groups=("extended",))
        assert [r.name for r in report.records] == ["extended-group"]

    def test_check_cp_and_evolve_refuse_before_any_exponential(self, monkeypatch, tmp_path,
                                                               capsys):
        # the first grid time fits, the second does not: no row of either
        # command is computed, and each refuses with the suite's message
        calls = []
        monkeypatch.setattr(qmflow.extended, "_semigroup",
                            lambda gen, t: calls.append(("semigroup", t)))
        monkeypatch.setattr(qmflow.extended, "_factor",
                            lambda sm, f0, g0, t, mode: calls.append(("factor", t)))
        monkeypatch.setattr(qmflow.extended, "matrix_exponential",
                            lambda m, t=1.0: calls.append(("expm", t)))
        rc = parse_config({"t_grid": [0.5, 1e308]})
        with pytest.raises(ValueError, match=r"^t \* M overflows at t = 1e\+308: ") as suite:
            run_suite(rc)
        with pytest.raises(ValueError) as cp:
            check_cp_rows(rc)
        assert str(cp.value) == str(suite.value)
        save_json(operator_to_obj(np.eye(8)), tmp_path / "x.json")
        code, out, err = _run(capsys, ["evolve", "--observable", str(tmp_path / "x.json"),
                                       "--t", "0.5,1e308"])
        assert (code, out, err) == (2, "", f"error: {suite.value}\n")
        assert calls == []

    def test_structure_group_ignores_the_grid(self):
        report = run_suite(parse_config({"t_grid": [1e308]}), groups=("structure",))
        assert report.passed


class TestBlasThreads:
    def test_report_bytes_do_not_depend_on_the_thread_variables(self):
        # the package sets both variables to 1 when the caller left them
        # unset; a multi-threaded BLAS moves the last digits of extended-cp
        src = str(Path(qmflow.__file__).resolve().parents[1])

        def check_cp(**pins):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env.update(pins, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
            return subprocess.run([sys.executable, "-m", "qmflow.cli", "check-cp"],
                                  env=env, capture_output=True, check=True).stdout

        assert check_cp() == check_cp(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
