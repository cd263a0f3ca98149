"""The test process runs numpy's BLAS as the CLI does, so in-process values
equal the CLI's to the last bit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qmflow
from qmflow import check_cp_rows, parse_config


def test_in_process_rows_equal_cli_rows():
    src = str(Path(qmflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-m", "qmflow.cli", "check-cp"],
                         env=env, capture_output=True, check=True).stdout
    rows, passed = check_cp_rows(parse_config({}))
    assert json.loads(out)["rows"] == rows
    assert passed
