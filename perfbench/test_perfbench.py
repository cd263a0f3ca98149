"""Tests of the benchmark itself: gates, tracer and metric names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The gates are fed real outputs of small models and then corrupted
copies of them; every gate must flag every corruption.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

# Unpinned BLAS threads slow these small dense problems down many times.
run.pin_blas_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer as tracing  # noqa: E402
from qmflow import (  # noqa: E402
    GlauberConfig,
    build_glauber_structure_maps,
    check_cp_rows,
    parse_config,
    report_to_json_bytes,
    run_suite,
)
from workloads import WORKLOADS, chain_config  # noqa: E402


@pytest.fixture(scope="module")
def structure_report():
    return run_suite(parse_config({"seed": 3}), groups=("structure",))


@pytest.fixture(scope="module")
def open_chain():
    return build_glauber_structure_maps(
        GlauberConfig.with_random_constants(sites=3, boundary="open", seed=5))


def _flip_first_pass(data):
    obj = json.loads(data)
    obj["records"][0]["passed"] = False
    return json.dumps(obj).encode()


def _drop_version(data):
    obj = json.loads(data)
    del obj["version"]
    return json.dumps(obj).encode()


def _miscount_summary(data):
    obj = json.loads(data)
    obj["summary"]["total"] += 1
    return json.dumps(obj).encode()


@pytest.mark.parametrize("corrupt", [_flip_first_pass, _drop_version, _miscount_summary])
def test_suite_gate_flags_corrupted_report(structure_report, corrupt):
    wl = WORKLOADS["suite-3p"]
    data = report_to_json_bytes(structure_report)
    assert wl.gate(None, (structure_report, data)) is None
    assert wl.gate(None, (structure_report, corrupt(data))) is not None


def test_suite_gate_flags_failing_report_object(structure_report):
    wl = WORKLOADS["suite-3p"]
    bad = dataclasses.replace(structure_report, passed=False)
    assert wl.gate(None, (bad, report_to_json_bytes(structure_report))) is not None


def test_cp_gate_flags_corrupted_rows():
    wl = WORKLOADS["cp-scan-4p"]
    rc = dataclasses.replace(chain_config(3, "periodic", 1), t_grid=(0.1, 0.5))
    rows, passed = check_cp_rows(rc)
    assert wl.gate(rc, (rows, passed)) is None
    failing = [dict(rows[0], passed=False)] + rows[1:]
    assert wl.gate(rc, (failing, passed)) is not None
    assert wl.gate(rc, (rows, False)) is not None
    assert wl.gate(rc, (rows[:1], passed)) is not None
    assert wl.gate(rc, ([dict(rows[0], choi_min_eig=float("nan"))] + rows[1:], passed)) is not None


def test_flow_gate_flags_corrupted_elements(open_chain):
    wl = WORKLOADS["flow-4o"]
    seeds = range(40)
    inputs = [wl.make_input(open_chain, s) for s in seeds]
    identity = next(i for i in inputs if i.identity)
    other = next(i for i in inputs if not i.identity)
    for inp in (identity, other):
        out = wl.run(open_chain, inp)
        assert wl.gate(inp, out) is None
        assert wl.gate(inp, np.full_like(out, np.nan)) is not None
        assert wl.gate(inp, out[:-1]) is not None
    out = wl.run(open_chain, identity)
    assert wl.gate(identity, out * (1 + 1e-6)) is not None
    assert wl.gate(identity, out + 1e-6 * np.ones_like(out)) is not None


def test_structure_gate_flags_failed_record(structure_report):
    wl = WORKLOADS["structure-5p"]
    assert wl.gate(None, structure_report) is None
    records = list(structure_report.records)
    records[-1] = dataclasses.replace(records[-1], passed=False)
    assert wl.gate(None, dataclasses.replace(structure_report, records=tuple(records))) is not None
    assert wl.gate(None, dataclasses.replace(structure_report, records=())) is not None


def test_tracer_rebinds_every_import_site_and_restores():
    import qmflow
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a)
                 for sites in tracing.TRACED.values() for m, a in sites}
    with tracing.Tracer():
        for original in originals.values():
            for mod in tracing._qmflow_modules():
                assert all(v is not original for v in vars(mod).values()), mod.__name__
        assert qmflow.extended.matrix_exponential is qmflow.linalg.matrix_exponential
        assert qmflow.suite.run_suite is qmflow.run_suite
    for (m, a), original in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is original
    assert qmflow.flows.matrix_exponential is originals[("qmflow.linalg", "matrix_exponential")]


class _DefiningModuleOnly(tracing.Tracer):
    """A faulty tracer that rebinds only the defining module's name."""

    def install(self):
        for name, sites in tracing.TRACED.items():
            for modname, attr in sites:
                mod = __import__(modname, fromlist=[attr])
                original = getattr(mod, attr)
                self._undo.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        return self


@pytest.mark.parametrize("tracer_cls, misses", [(tracing.Tracer, False),
                                                (_DefiningModuleOnly, True)])
def test_known_counts_catch_a_missed_import_site(open_chain, tracer_cls, misses):
    wl = WORKLOADS["flow-4o"]
    inp = wl.make_input(open_chain, 7)
    t = tracer_cls()
    with t:
        wl.run(open_chain, inp)
    errors = run.count_errors("op", t.spans, wl.expected_counts(inp))
    assert bool(errors) is misses


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, None],
             ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None],
             ["d", 5.0, 6.0, 0, None]]
    self_time, ancestors = tracing.span_tables(spans)
    assert self_time == [6.0, 2.0, 1.0, 1.0]
    assert ancestors[2] == {"a", "b"}
    metrics = tracing.layer_metrics(
        [["op", 0.0, 3.0, None, None], ["flows.evolution_map", 0.0, 2.0, 0, None],
         ["linalg.expm", 0.0, 0.5, 1, 64], ["linalg.expm", 0.5, 1.0, 1, 256]], ops=2)
    assert metrics["flows.segments"] == 1.0
    assert metrics["flows.expm_per_element"] == 2.0
    assert metrics["flows.evolution_map.self_s"] == 0.5
    assert metrics["linalg.expm.n64.calls"] == 0.5


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(i) for i in range(40)])
    assert t["percentile"] == 75 and t["value"] == 29.0
    assert sum(v > t["value"] for v in range(40)) == 10


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    argv = ["--workload", "flow-4o", "--seed", "11", "--seconds", "0.5"]
    assert run.main(argv + ["--trace", "0"]) == 0
    untraced = _last_json(capsys.readouterr().out)
    assert run.main(argv + ["--trace", "1"]) == 0
    traced = _last_json(capsys.readouterr().out)
    for result, spec_metrics in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec_metrics}


def test_suite_rerender_mismatch_is_flagged(monkeypatch, capsys, structure_report):
    wl = WORKLOADS["suite-3p"]
    data = report_to_json_bytes(structure_report)
    monkeypatch.setattr(wl, "run", lambda sm, rc: (structure_report, data))
    monkeypatch.setattr(wl, "rerender", lambda out: out[1] + b" ")
    argv = ["--workload", "suite-3p", "--seed", "0", "--seconds", "0.1", "--trace", "0"]
    assert run.main(argv) == 1
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == 0


def _raise(*args):
    raise ValueError("deliberate")


@pytest.mark.parametrize("method, replacement", [("gate", lambda inp, out: "deliberate"),
                                                 ("run", _raise)])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_failed_ops_are_counted_not_fatal(monkeypatch, capsys, method, replacement, trace):
    monkeypatch.setattr(WORKLOADS["flow-4o"], method, replacement)
    argv = ["--workload", "flow-4o", "--seed", "2", "--seconds", "0.3", "--trace", trace]
    assert run.main(argv) == 1
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-4o", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
