"""Command-line interface.

Commands:

* ``build-glauber``   build a chain model and write its structure maps
* ``check-structure`` run the structure-map axiom checks
* ``check-cp``        positivity and unit-profile table over the time grid
* ``evolve``          evolve an observable through the four semigroup entries
* ``flow-element``    matrix element between step-function exponential vectors
* ``suite``           the full verification suite

Verification commands exit 0 exactly when every check passes, 1 when any
check fails, and 2 on bad input, including a model that cannot be built
(``suite`` and ``check-structure`` still write their report then). Reports
are deterministic: the same config and seed give byte-identical output.
"""

import argparse
import json
import sys

from .extended import BlockOp2, apply_extended, build_extended_generator
from .flows import flow_matrix_element
from .serialize import (
    glauber_config_from_obj,
    load_json,
    operator_from_obj,
    operator_to_obj,
    save_json,
    step_function_from_obj,
    structure_maps_to_obj,
)
from .suite import (
    _csv_text,
    _refuse_overflowing_times,
    build_model,
    check_cp_rows,
    parse_config,
    report_to_csv,
    report_to_json_bytes,
    run_suite,
    serialize_config,
)

__all__ = ["main"]


def _add_common(p, t_flag=True):
    p.add_argument("--config", help="run config JSON file")
    if t_flag:
        p.add_argument("--t", help="comma-separated time grid override")
    p.add_argument("--mode", choices=["physical", "conservative"],
                   help="normalization mode override")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _build_parser():
    ap = argparse.ArgumentParser(prog="qmflow",
                                 description="Markov-flow semigroup toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-glauber", help="write chain structure maps")
    p.add_argument("--config", required=True, help="chain config JSON file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for missing covariance tables")
    p.add_argument("--out", help="structure-map JSON path (stdout when omitted)")

    p = sub.add_parser("check-structure", help="structure-map axiom checks")
    _add_common(p)

    p = sub.add_parser("check-cp", help="positivity/unit-profile table")
    _add_common(p)

    p = sub.add_parser("evolve", help="evolve an observable entrywise")
    _add_common(p)
    p.add_argument("--observable", required=True, help="operator JSON file")

    p = sub.add_parser("flow-element", help="step-function matrix element")
    _add_common(p, t_flag=False)
    p.add_argument("--f", dest="f_path", required=True, help="left step function JSON")
    p.add_argument("--g", dest="g_path", required=True, help="right step function JSON")
    p.add_argument("--window", required=True, metavar="S,T", help="time window")
    p.add_argument("--observable", required=True, help="operator JSON file")

    p = sub.add_parser("suite", help="full verification suite")
    _add_common(p)
    return ap


def _load_run_config(args):
    """Merge the command-line overrides into the config file's object and
    validate the result once, with ``parse_config``."""
    obj = load_json(args.config) if args.config else {}
    if isinstance(obj, dict):
        obj = dict(obj)
        if getattr(args, "mode", None):
            obj["mode"] = args.mode
        if getattr(args, "t", None) is not None:
            try:
                obj["t_grid"] = [float(v) for v in args.t.split(",")]
            except ValueError:
                raise ValueError(f"--t must be comma-separated numbers, got {args.t!r}")
        tols = {}
        for item in getattr(args, "tol", []):
            name, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
            try:
                tols[name] = float(val)
            except ValueError:
                raise ValueError(f"--tol {name} needs a numeric value, got {val!r}")
        base = obj.get("tolerances") or {}
        if tols and isinstance(base, dict):
            obj["tolerances"] = {**base, **tols}
    return parse_config(obj, seed_override=getattr(args, "seed", None))


def _load_observable(path, sm):
    """The observable in the operator file at path, checked against the model."""
    x = operator_from_obj(load_json(path))
    if x.shape != (sm.dim, sm.dim):
        raise ValueError(
            f"observable dimension {x.shape[0]} does not match model dimension {sm.dim}")
    return x


def _write(text, path):
    if path:
        mode = "wb" if isinstance(text, bytes) else "w"
        with open(path, mode) as fh:
            fh.write(text)
    else:
        data = text.decode() if isinstance(text, bytes) else text
        sys.stdout.write(data)


def _emit_report(report, args):
    if args.format == "csv":
        _write(report_to_csv(report), args.out)
    else:
        _write(report_to_json_bytes(report), args.out)
    if any(r.name == "model-construction" for r in report.records):
        return 2
    return 0 if report.passed else 1


def _emit(args, header, rows, obj):
    """rows under header as CSV (``report_to_csv``'s cells) or obj as
    sorted, indented JSON, as --format says."""
    if args.format == "csv":
        _write(_csv_text(header, rows), args.out)
    else:
        _write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", args.out)


def _entries(m):
    """(row, col, re, im) of every entry of the matrix m, row by row."""
    return ((r, c, float(v.real), float(v.imag))
            for r, row in enumerate(m) for c, v in enumerate(row))


def _cmd_build_glauber(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed!r}")
    cfg = glauber_config_from_obj(load_json(args.config), seed=args.seed)
    from .glauber import build_glauber_structure_maps
    sm = build_glauber_structure_maps(cfg)
    obj = structure_maps_to_obj(sm)
    if args.out:
        save_json(obj, args.out)
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    return 0


def _cmd_check_structure(args):
    rc = _load_run_config(args)
    return _emit_report(run_suite(rc, groups=("structure",)), args)


def _cmd_suite(args):
    rc = _load_run_config(args)
    return _emit_report(run_suite(rc), args)


_CP_COLUMNS = ("t", "choi_min_eig", "conservativity_residual", "normalization_residual")


def _cmd_check_cp(args):
    rc = _load_run_config(args)
    rows, passed = check_cp_rows(rc)
    _emit(args, (*_CP_COLUMNS, "pass"),
          ([*(r[k] for k in _CP_COLUMNS), r["passed"]] for r in rows),
          {"config": serialize_config(rc), "rows": rows, "passed": passed})
    return 0 if passed else 1


def _cmd_evolve(args):
    rc = _load_run_config(args)
    sm = build_model(rc)
    x = _load_observable(args.observable, sm)
    gen = build_extended_generator(sm, rc.mode)
    _refuse_overflowing_times(rc, gen)
    evolved = [(t, apply_extended(gen, t, BlockOp2(x, x, x, x))) for t in rc.t_grid]
    blocks = [(i, j) for i in (0, 1) for j in (0, 1)]
    _emit(args, ("t", "block", "row", "col", "re", "im"),
          ((t, f"{i}{j}", *entry) for t, out in evolved for i, j in blocks
           for entry in _entries(out.block(i, j))),
          {"config": serialize_config(rc),
           "results": [{"t": t, **{f"P{i}{j}": operator_to_obj(out.block(i, j))
                                   for i, j in blocks}}
                       for t, out in evolved]})
    return 0


def _cmd_flow_element(args):
    rc = _load_run_config(args)
    try:
        s, t = (float(v) for v in args.window.split(","))
    except ValueError:
        raise ValueError(f"--window expects S,T with numbers, got {args.window!r}")
    f = step_function_from_obj(load_json(args.f_path))
    g = step_function_from_obj(load_json(args.g_path))
    sm = build_model(rc)
    x = _load_observable(args.observable, sm)
    out = flow_matrix_element(sm, f, g, s, t, x, mode=rc.mode)
    _emit(args, ("row", "col", "re", "im"), _entries(out),
          {"window": [s, t], "element": operator_to_obj(out)})
    return 0


_COMMANDS = {
    "build-glauber": _cmd_build_glauber,
    "check-structure": _cmd_check_structure,
    "check-cp": _cmd_check_cp,
    "evolve": _cmd_evolve,
    "flow-element": _cmd_flow_element,
    "suite": _cmd_suite,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
