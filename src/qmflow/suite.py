"""Verification suite: run configs, check registry, reports.

A run config names a model (a chain config or a structure-map file), a
normalization mode, a time grid, tolerance overrides, and a seed. The
suite builds the model once and executes every registered check,
collecting one record per check (or per grid point for time-dependent
checks). Records carry the measured value, the tolerance it was judged
against, and a digest of the inputs that produced it.

Determinism: all randomized checks draw from substreams derived from the
run seed and the check name, so identical configs produce byte-identical
JSON reports.

Normalization note: each property is checked in the normalization where
it holds. Complete positivity (Choi at each time, the generator's
conditional complete positivity, kernel, Schur, bounds) belongs to the
physical normalization; the fixed unit block belongs to the conservative
one. The config's mode selects the generator used for evolution commands
and is echoed in the report.
"""

import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import __version__
from .extended import (
    BlockOp2,
    build_extended_generator,
    commutation_residual,
    conservativity_residual,
    delta_map,
    delta_sq_map,
    delta_sq_semigroup,
    extended_choi_min_eig,
    generator_cp_min_eig,
    kappa_residual,
    normalization_residual,
    resolvent_generator,
)
from .flows import (
    StepFunction,
    _evolution_maps,
    _gram,
    _norm_gap,
    _pair_products,
    _unit_window_image,
    schur_product_check,
    step_inner_product,
)
from .glauber import build_glauber_structure_maps
from .linalg import _apply, _draw_op, matrix_exponential, max_abs, min_eig
from .serialize import (
    _finite_float,
    glauber_config_from_obj,
    glauber_config_to_obj,
    load_json,
    structure_maps_from_obj,
)
from .structure import _stored_entries, check_conjugation, check_unital, leibnitz_residual

__all__ = [
    "DEFAULT_TOLERANCES", "RunConfig", "CheckRecord", "Report",
    "parse_config", "serialize_config", "build_model", "rng_for",
    "run_suite", "check_cp_rows", "report_to_json_bytes", "report_to_csv",
    "REPORT_SCHEMA", "validate_report",
]

DEFAULT_T_GRID = (0.1, 0.25, 0.5, 1.0)

DEFAULT_TOLERANCES = {
    "choi": 1e-9,
    "conservativity": 1e-10,
    "normalization": 1e-10,
    "kappa": 1e-12,
    "unital": 1e-10,
    "conjugation": 1e-10,
    "leibnitz": 1e-10,
    "leibnitz_ito": 1e-9,
    "dissip": 1e-8,
    "delta_formula": 1e-12,
    "commutation": 1e-12,
    "resolvent_slope": 0.2,
    "flow_composition": 1e-10,
    "flow_unitality": 1e-10,
    "norm_bound": 1e-10,
    "kernel_cp": 1e-9,
    "schur": 1e-9,
    "q_bound": 1e-9,
}

_RESOLVENT_EPS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True)
class RunConfig:
    model_kind: str = "glauber"            # "glauber" | "file"
    glauber: object = None                 # GlauberConfig when model_kind == "glauber"
    maps_path: str = None
    mode: str = "physical"
    t_grid: tuple = DEFAULT_T_GRID
    seed: int = 0
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))


def parse_config(obj, seed_override=None):
    """Build a RunConfig from a JSON-style dict, filling defaults.

    Rejections name the offending key. An empty or missing config means
    the default chain model with seeded random constants.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
    extra = set(obj) - {"model", "mode", "t_grid", "seed", "tolerances"}
    if extra:
        raise ValueError(f"config: unknown keys {sorted(extra)}")

    seed = obj.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"config key 'seed' must be a nonnegative integer, got {seed!r}")

    mode = obj.get("mode", "physical")
    if mode not in ("physical", "conservative"):
        raise ValueError(f"config key 'mode' must be 'physical' or 'conservative', got {mode!r}")

    t_grid = obj.get("t_grid", list(DEFAULT_T_GRID))
    if not isinstance(t_grid, (list, tuple)) or not t_grid:
        raise ValueError("config key 't_grid' must be a nonempty list of times")
    clean = []
    for t in t_grid:
        x = _finite_float(t)
        if x is None or x < 0:
            raise ValueError(f"config key 't_grid' must hold nonnegative times, got {t!r}")
        clean.append(x)
    t_grid = tuple(clean)

    overrides = obj.get("tolerances") or {}
    if not isinstance(overrides, dict):
        raise ValueError("config key 'tolerances' must be an object of name: value pairs")
    tols = dict(DEFAULT_TOLERANCES)
    for name, v in overrides.items():
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"config key 'tolerances.{name}' is not a known check tolerance")
        x = _finite_float(v)
        if x is None or not x > 0:
            raise ValueError(
                f"config key 'tolerances.{name}' must be a positive finite number, got {v!r}")
        tols[name] = x

    model = obj.get("model", {"glauber": {"sites": 3, "boundary": "periodic"}})
    if not isinstance(model, dict) or len(model) != 1:
        raise ValueError("config key 'model' must hold exactly one of 'glauber' or 'structure_maps'")
    kind = next(iter(model))
    if kind == "glauber":
        cfg = glauber_config_from_obj(model["glauber"], seed=seed)
        return RunConfig(model_kind="glauber", glauber=cfg, mode=mode,
                         t_grid=t_grid, seed=seed, tolerances=tols)
    if kind == "structure_maps":
        path = model["structure_maps"]
        if not isinstance(path, str) or not path:
            raise ValueError("config key 'model.structure_maps' must be a file path")
        return RunConfig(model_kind="file", maps_path=path, mode=mode,
                         t_grid=t_grid, seed=seed, tolerances=tols)
    raise ValueError(f"config key 'model' has unknown kind {kind!r}")


def serialize_config(rc):
    """Inverse of parse_config (up to default filling): a plain dict."""
    if rc.model_kind == "glauber":
        model = {"glauber": glauber_config_to_obj(rc.glauber)}
    else:
        model = {"structure_maps": rc.maps_path}
    return {
        "model": model,
        "mode": rc.mode,
        "t_grid": list(rc.t_grid),
        "seed": rc.seed,
        "tolerances": dict(sorted(rc.tolerances.items())),
    }


def build_model(rc):
    if rc.model_kind == "glauber":
        return build_glauber_structure_maps(rc.glauber)
    return structure_maps_from_obj(load_json(rc.maps_path))


def rng_for(seed, name):
    """Independent substream for one named check of one seeded run."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p))  # the buffer itself, no copy
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    kind: str            # residual | min_eig | slope | bound | error
    value: float = None
    tolerance: float = None
    t: float = None
    passed: bool = False
    digest: str = ""
    message: str = None

    def to_obj(self):
        return {
            "name": self.name, "kind": self.kind, "value": self.value,
            "tolerance": self.tolerance, "t": self.t, "passed": self.passed,
            "digest": self.digest, "message": self.message,
        }


def _record(name, kind, value, tol, digest, t=None):
    value = float(value)
    if kind == "residual":
        ok = value <= tol
    elif kind == "min_eig":
        ok = value >= -tol
    elif kind == "slope":
        ok = abs(value - 1.0) <= tol
    elif kind == "bound":
        ok = value <= tol
    else:
        raise ValueError(f"unknown record kind {kind!r}")
    return CheckRecord(name=name, kind=kind, value=value, tolerance=float(tol),
                       t=t, passed=bool(ok), digest=digest)


@dataclass(frozen=True)
class Report:
    config: dict
    model: dict
    records: tuple
    passed: bool

    def to_obj(self):
        total = len(self.records)
        good = sum(1 for r in self.records if r.passed)
        return {
            "version": __version__,
            "config": self.config,
            "model": self.model,
            "records": [r.to_obj() for r in self.records],
            "summary": {"total": total, "passed": good, "failed": total - good},
            "passed": self.passed,
        }


# --- individual checks ----------------------------------------------------

def _random_step(rng):
    k = int(rng.integers(1, 4))
    pts = np.sort(rng.uniform(0.0, 2.0, size=2 * k))
    pieces = []
    for i in range(k):
        a, b = float(pts[2 * i]), float(pts[2 * i + 1])
        if b - a < 1e-6:
            continue
        pieces.append((a, b, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    if not pieces:
        pieces = [(0.0, 1.0, 1.0 + 0.0j)]
    return StepFunction(tuple(pieces))


def _split_pieces(f):
    pieces = []
    for a, b, v in f.pieces:
        mid = 0.5 * (a + b)
        pieces.extend([(a, mid, v), (mid, b, v)])
    return StepFunction(tuple(pieces))


def _check_structure(ctx):
    rc, sm, base = ctx["rc"], ctx["sm"], ctx["base"]
    tol = rc.tolerances
    yield _record("structure-unital", "residual", check_unital(sm),
                  tol["unital"], base)
    yield _record("structure-conjugation", "residual", check_conjugation(sm),
                  tol["conjugation"], base)
    rng = rng_for(rc.seed, "structure-leibnitz")
    worst_noise, worst_drift = 0.0, 0.0
    draws = []
    for _ in range(100):
        x, y = _draw_op(rng, sm.dim), _draw_op(rng, sm.dim)
        draws.extend((x, y))
        res = leibnitz_residual(sm, x, y)
        worst_noise = max(worst_noise, res[-1], res[1])
        worst_drift = max(worst_drift, res[0])
    dig = _digest(base, *draws)
    yield _record("structure-derivation", "residual", worst_noise,
                  tol["leibnitz"], dig)
    yield _record("structure-ito-rule", "residual", worst_drift,
                  tol["leibnitz_ito"], dig)


def _per_time_records(rc, gp, gc, base):
    """(extended-cp, -conservativity, -normalization) records per grid time."""
    tol = rc.tolerances
    return [(_record("extended-cp", "min_eig", extended_choi_min_eig(gp, t),
                     tol["choi"], _digest(base, t), t=t),
             _record("extended-conservativity", "residual", conservativity_residual(gc, t),
                     tol["conservativity"], _digest(base, t), t=t),
             _record("extended-normalization", "residual", normalization_residual(gp, t),
                     tol["normalization"], _digest(base, t), t=t))
            for t in rc.t_grid]


def _check_extended(ctx):
    rc, sm, base = ctx["rc"], ctx["sm"], ctx["base"]
    gp, gc = ctx["gen_phys"], ctx["gen_cons"]
    tol = rc.tolerances

    # report order: every cp record, then every conservativity, then every normalization
    for column in zip(*_per_time_records(rc, gp, gc, base)):
        yield from column
    yield _record("extended-kappa", "residual", kappa_residual(gp),
                  tol["kappa"], base)

    yield _record("extended-generator-cp", "min_eig", generator_cp_min_eig(gp),
                  tol["dissip"], base)

    rng = rng_for(rc.seed, "extended-delta")
    # delta^2 on M_2 (row-major 2 x 2 matrices); its semigroup acts on x's blocks
    d_sq = np.column_stack([delta_sq_map(u.reshape(2, 2)).as_full().ravel() for u in np.eye(4)])
    worst_formula, worst_semi = 0.0, 0.0
    for _ in range(20):
        x = BlockOp2.from_full(_draw_op(rng, 2 * sm.dim))
        worst_formula = max(worst_formula, (delta_sq_map(x) - delta_map(delta_map(x))).max_abs())
        t = float(rng.uniform(0.1, 2.0))
        y = np.tensordot(scipy.linalg.expm(0.5 * t * d_sq), [x.x00, x.x01, x.x10, x.x11], 1)
        worst_semi = max(worst_semi, (delta_sq_semigroup(t, x) - BlockOp2(*y)).max_abs())
    yield _record("extended-delta-formula", "residual",
                  max(worst_formula, worst_semi), tol["delta_formula"], base)
    yield _record("extended-commutation", "residual", commutation_residual(gc),
                  tol["commutation"], base)

    errs, entries = [], gc.entries
    for eps in _RESOLVENT_EPS:
        ge = resolvent_generator(gc, eps)
        err = 0.0
        for i in (0, 1):
            for j in (0, 1):
                err = max(err, max_abs(matrix_exponential(ge[i][j], 1.0)
                                       - matrix_exponential(entries[i][j], 1.0)))
        errs.append(err)
    slope = float(np.polyfit(np.log(_RESOLVENT_EPS), np.log(errs), 1)[0])
    yield _record("extended-resolvent-order", "slope", slope,
                  tol["resolvent_slope"], _digest(base, *_RESOLVENT_EPS))


def _check_flow(ctx):
    rc, sm, base = ctx["rc"], ctx["sm"], ctx["base"]
    tol = rc.tolerances

    rng = rng_for(rc.seed, "flow-composition")
    worst_comp, worst_ref = 0.0, 0.0
    for _ in range(50):
        f, g = _random_step(rng), _random_step(rng)
        # one batch: the four windows share most of their factors
        full, left, right, refined = _evolution_maps(
            sm, [(f, g, 0.0, 2.0), (f, g, 0.0, 1.0), (f, g, 1.0, 2.0),
                 (_split_pieces(f), _split_pieces(g), 0.0, 2.0)])
        scale = max(1.0, max_abs(full))
        worst_comp = max(worst_comp, max_abs(full - left @ right) / scale)
        worst_ref = max(worst_ref, max_abs(full - refined) / scale)
    yield _record("flow-composition", "residual", worst_comp,
                  tol["flow_composition"], _digest(base, rc.seed, "comp"))
    yield _record("flow-refinement", "residual", worst_ref,
                  tol["flow_composition"], _digest(base, rc.seed, "ref"))

    rng = rng_for(rc.seed, "flow-unitality")
    eye = np.eye(sm.dim)
    worst = 0.0
    for _ in range(100):
        f, g = _random_step(rng), _random_step(rng)
        ip = step_inner_product(f, g, window=(0.0, 2.0))
        got = _unit_window_image(sm, f, g, 0.0, 2.0)
        worst = max(worst, max_abs(got - np.exp(ip) * eye) / max(1.0, abs(np.exp(ip))))
    yield _record("flow-unitality", "residual", worst, tol["flow_unitality"],
                  _digest(base, rc.seed, "unital"))

    rng = rng_for(rc.seed, "flow-norm-bound")
    worst = -np.inf
    for _ in range(100):
        r1, r2 = np.sqrt(rng.uniform(0, 1, 2))
        a1, a2 = rng.uniform(0, 2 * np.pi, 2)
        f0, g0 = r1 * np.exp(1j * a1), r2 * np.exp(1j * a2)
        x = _draw_op(rng, sm.dim)
        t = float(rng.uniform(0.1, 1.5))
        # exp(t K(f0, g0)): the window [0, t] map of the constants f0 and g0
        p, = _evolution_maps(sm, [(StepFunction.indicator(0.0, t, f0),
                                   StepFunction.indicator(0.0, t, g0), 0.0, t)])
        lhs = float(np.linalg.norm(_apply(p, x), 2))
        rhs = float(np.exp(t * (abs(f0) ** 2 + abs(g0) ** 2) / 2) * np.linalg.norm(x, 2))
        worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
    yield _record("flow-norm-bound", "bound", worst, tol["norm_bound"],
                  _digest(base, rc.seed, "norm"))

    rng = rng_for(rc.seed, "flow-kernel")
    fs = [_random_step(rng) for _ in range(3)] + [1.0]
    xs = [_draw_op(rng, sm.dim) for _ in range(4)]
    dig = _digest(base, *xs)
    x = _draw_op(rng, sm.dim)
    # one t = 0.7 batch serves the kernel and the q-bound records
    kernel, q_bound = map(min_eig, _gram(sm, fs, (0.7,), _pair_products(xs, len(fs), sm.dim),
                                         _norm_gap(x)))
    yield _record("flow-kernel-cp", "min_eig", kernel, tol["kernel_cp"], dig)
    yield _record("flow-schur-closure", "min_eig",
                  schur_product_check(sm, fs, xs, 0.4, 0.3), tol["schur"], dig)
    yield _record("flow-q-bound", "min_eig", q_bound, tol["q_bound"], _digest(dig, x))


def _set_up(ctx, generators=True):
    """Fill a run context: the model ("sm"), the digest of its maps
    ("base") and, with ``generators``, one physical generator and its
    conservative view ("gen_phys", "gen_cons"). Each entry is stored as
    soon as it is built, so after a failure ctx holds what came before it.

    The digest reads the maps' CSR views, never the dense maps: it hashes
    ``dim`` and then, for each map -1, 0, +1, the int64 flat positions
    (row * dim**2 + col, row-major) and the complex128 values of its
    nonzero entries. So it depends on neither the index dtype nor stored
    zeros, and a map and its file round trip (which may drop the sign of
    a zero) get one digest.
    """
    sm = ctx["sm"] = build_model(ctx["rc"])
    n, parts = sm.dim ** 2, [sm.dim]
    for rows, cols, values in _stored_entries(sm):
        parts += [rows.astype(np.int64) * n + cols, values.astype(np.complex128)]
    ctx["base"] = _digest(*parts)
    if generators:
        ctx["gen_phys"] = build_extended_generator(sm, "physical")
        ctx["gen_cons"] = replace(ctx["gen_phys"], mode="conservative")
    return ctx


_REGISTRY = (
    ("structure", _check_structure),
    ("extended", _check_extended),
    ("flow", _check_flow),
)


def _refuse_overflowing_times(rc, *gens):
    """Refuse the first grid time t at which t * L_ij has a non-finite entry
    for some entry of the generators: the time at which ``matrix_exponential``
    would refuse it. Read from the stored entries of the entries' CSR sums
    (``ExtendedGenerator._sums``), nothing is exponentiated or made dense;
    t * z overflows for a complex z exactly when t times the largest real
    or imaginary magnitude does."""
    size = max(max(max_abs(k.data.real), max_abs(k.data.imag)) for gen in gens
               for row in gen._sums for k in row)
    for t in rc.t_grid:
        if not np.isfinite(t * size):
            raise ValueError(f"t * M overflows at t = {t!r}: the generator "
                             "is too large for this time")


def run_suite(rc, groups=None):
    """Execute the registered checks and collect a report.

    groups, when given, restricts to a nonempty subset of {"structure",
    "extended", "flow"}; None means every group, and an empty selection
    is refused with a ValueError. Construction failures become failing
    records instead of exceptions, so a bad model still yields a report
    (and a nonzero exit downstream). A model that is built but whose
    generators are refused still gets the structure group, which needs
    only the maps, and then its ``model-construction`` record. With the
    extended group, a grid time at which an entry of the generator times
    t overflows is refused with a ValueError before any group runs.
    """
    names = {name for name, _ in _REGISTRY}
    if groups is not None and not groups:
        raise ValueError(f"no check group selected: name at least one of {sorted(names)}")
    wanted = set(names if groups is None else groups)
    unknown = wanted - names
    if unknown:
        raise ValueError(f"unknown check groups {sorted(unknown)}")

    records, failure = [], None
    ctx = {"rc": rc}
    try:
        _set_up(ctx, generators=not {"extended", "flow"}.isdisjoint(wanted))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        failure = CheckRecord(name="model-construction", kind="error",
                              passed=False, message=str(exc))
        # the maps were built and digested before the generators refused them
        wanted &= {"structure"} if "base" in ctx else set()
    else:
        if "extended" in wanted:
            _refuse_overflowing_times(rc, ctx["gen_phys"], ctx["gen_cons"])
    for name, check in _REGISTRY:
        if name not in wanted:
            continue
        try:
            records.extend(check(ctx))
        except (ValueError, np.linalg.LinAlgError) as exc:
            records.append(CheckRecord(name=f"{name}-group", kind="error",
                                       passed=False, message=str(exc)))
    if failure is not None:
        records.append(failure)
    sm = ctx.get("sm")
    model_info = {"kind": rc.model_kind, "dim": None, "ito": None}
    if sm is not None:
        model_info["dim"] = sm.dim
        model_info["ito"] = {"c_mp": [sm.ito.c_mp.real, sm.ito.c_mp.imag],
                             "c_pm": [sm.ito.c_pm.real, sm.ito.c_pm.imag]}
    return Report(config=serialize_config(rc), model=model_info,
                  records=tuple(records), passed=all(r.passed for r in records))


def check_cp_rows(rc):
    """Per-time positivity and unit-profile table for the configured model.

    Returns (rows, passed): each row holds the Choi minimum eigenvalue,
    the conservative unit-block residual, and the physical unit-profile
    residual at one grid time. Overflowing grid times are refused first,
    as ``run_suite`` refuses them.
    """
    ctx = _set_up({"rc": rc})
    _refuse_overflowing_times(rc, ctx["gen_phys"], ctx["gen_cons"])
    rows = [{"t": cp.t, "choi_min_eig": cp.value,
             "conservativity_residual": consv.value,
             "normalization_residual": norm.value,
             "passed": cp.passed and consv.passed and norm.passed}
            for cp, consv, norm in _per_time_records(
                rc, ctx["gen_phys"], ctx["gen_cons"], ctx["base"])]
    return rows, all(r["passed"] for r in rows)


# --- emission ---------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "config", "model", "records", "summary", "passed"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "config": {"type": "object"},
        "model": {
            "type": "object",
            "required": ["kind", "dim", "ito"],
            "properties": {
                "kind": {"type": "string"},
                "dim": {"type": ["integer", "null"]},
                "ito": {"type": ["object", "null"]},
            },
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "value", "tolerance", "t",
                             "passed", "digest", "message"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"enum": ["residual", "min_eig", "slope",
                                      "bound", "error"]},
                    "value": {"type": ["number", "null"]},
                    "tolerance": {"type": ["number", "null"]},
                    "t": {"type": ["number", "null"]},
                    "passed": {"type": "boolean"},
                    "digest": {"type": "string"},
                    "message": {"type": ["string", "null"]},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
            },
        },
        "passed": {"type": "boolean"},
    },
}


def validate_report(obj):
    import jsonschema
    jsonschema.validate(obj, REPORT_SCHEMA)


def report_to_json_bytes(report):
    obj = report.to_obj()
    validate_report(obj)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _csv_cell(v):
    """A CSV cell: floats by repr, booleans in lower case, None empty."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _csv_text(header, rows):
    """The header line, then one line of cells per row."""
    lines = [",".join(header)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_csv(report):
    return _csv_text(("check", "t", "residual", "tolerance", "pass"),
                     ((r.name, r.t, r.value, r.tolerance, r.passed)
                      for r in report.records))
