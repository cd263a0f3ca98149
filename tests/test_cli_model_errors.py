"""A model that cannot be built is bad input: exit 2, report still written."""

import json

import pytest

from qmflow import save_json, structure_maps_to_obj, validate_report
from qmflow.cli import main


def _missing_file(tmp_path, qubit_sm):
    return str(tmp_path / "nope.json"), "nope.json"


def _boolean_entry(tmp_path, qubit_sm):
    maps = structure_maps_to_obj(qubit_sm)
    maps["theta_zero"]["re"][0][0] = True
    path = tmp_path / "maps.json"
    save_json(maps, path)
    return str(path), "theta_zero: superoperator: re entries"


@pytest.mark.parametrize("command", ["suite", "check-structure"])
@pytest.mark.parametrize("make_model", [_missing_file, _boolean_entry])
def test_unbuildable_model_exits_2(tmp_path, capsys, qubit_sm, command, make_model):
    maps_path, message = make_model(tmp_path, qubit_sm)
    rcp = tmp_path / "rc.json"
    save_json({"model": {"structure_maps": maps_path}}, rcp)
    code = main([command, "--config", str(rcp)])
    out = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out.err
    report = json.loads(out.out)
    validate_report(report)
    assert [r["name"] for r in report["records"]] == ["model-construction"]
    assert message in report["records"][0]["message"]
    assert not report["passed"]


def test_unbuildable_model_exits_2_with_csv_to_file(tmp_path, capsys):
    rcp, outp = tmp_path / "rc.json", tmp_path / "report.csv"
    save_json({"model": {"structure_maps": str(tmp_path / "nope.json")}}, rcp)
    code = main(["suite", "--config", str(rcp), "--format", "csv", "--out", str(outp)])
    assert code == 2
    assert outp.read_text().splitlines()[1] == "model-construction,,,,false"
