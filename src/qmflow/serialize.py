"""JSON encodings of the package's objects.

Formats (all plain JSON, complex numbers as [real, imag] pairs):

* Operator: ``{"dim": d, "re": [[...]], "im": [[...]]}`` with row-major
  d x d nested lists.
* Superoperator: the same layout with ``dim`` equal to d**2 (the matrix
  acts on stacked operators).
* Structure maps: ``{"dim": d, "theta_minus": <superop>, "theta_zero":
  <superop>, "theta_plus": <superop>, "ito": {"c_mp": [re, im],
  "c_pm": [re, im]}}``.
* Step function: a bare list ``[[start, end, re, im], ...]``.
* Chain config: ``{"sites": n, "boundary": "periodic"|"open",
  "gg_plus": {"pp": [re, im], ...}, "gg_minus": {...}}``.
"""

import json

import numpy as np

from .flows import StepFunction
from .glauber import LABELS, GlauberConfig
from .structure import ItoTable, StructureMapSet

__all__ = [
    "operator_to_obj", "operator_from_obj", "superop_to_obj",
    "superop_from_obj", "structure_maps_to_obj", "structure_maps_from_obj",
    "step_function_to_obj", "step_function_from_obj",
    "glauber_config_to_obj", "glauber_config_from_obj",
    "save_json", "load_json",
]


def _finite_float(v):
    """v as a finite float, or None for non-numbers, booleans, infinities,
    NaN and integers too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if np.isfinite(x) else None


def _dim(obj, what):
    """obj["dim"], refused unless a positive integer (booleans are not)."""
    d = obj["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"{what}: dim must be a positive integer, got {d!r}")
    return d


def _matrix_to_obj(m, dim_value):
    m = np.asarray(m, dtype=complex)
    return {
        "dim": dim_value,
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }


def _matrix_from_obj(obj, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected an object, got {type(obj).__name__}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"{what}: missing key {key!r}")
    d = _dim(obj, what)
    for key in ("re", "im"):
        rows = obj[key] if isinstance(obj[key], list) else []
        if any(isinstance(row, list) and bool in set(map(type, row)) for row in rows):
            raise ValueError(f"{what}: {key} entries must be numbers, not booleans")
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: entries are not numeric ({exc})") from None
    except OverflowError:
        raise ValueError(
            f"{what}: entries must be finite (an integer is too large for a float)") from None
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(
            f"{what}: entry arrays must be {d}x{d}, got {re.shape} and {im.shape}")
    m = re + 1j * im
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what}: entries must be finite")
    return m


def operator_to_obj(x):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"operator must be square, got shape {x.shape}")
    return _matrix_to_obj(x, x.shape[0])


def operator_from_obj(obj):
    return _matrix_from_obj(obj, "operator")


def superop_to_obj(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or round(np.sqrt(m.shape[0])) ** 2 != m.shape[0]:
        raise ValueError(f"superoperator must be square with a square side, got {m.shape}")
    return _matrix_to_obj(m, m.shape[0])


def superop_from_obj(obj):
    m = _matrix_from_obj(obj, "superoperator")
    d = int(round(np.sqrt(m.shape[0])))
    if d * d != m.shape[0]:
        raise ValueError(
            f"superoperator: dim {m.shape[0]} is not a perfect square")
    return m


def _complex_pair(v, what):
    parts = ([_finite_float(c) for c in v]
             if isinstance(v, (list, tuple)) and len(v) == 2 else [None])
    if None in parts:
        raise ValueError(f"{what} must be a [real, imag] pair of finite numbers, got {v!r}")
    return complex(*parts)


def structure_maps_to_obj(sm):
    return {
        "dim": sm.dim,
        "theta_minus": superop_to_obj(sm.theta_minus),
        "theta_zero": superop_to_obj(sm.theta_zero),
        "theta_plus": superop_to_obj(sm.theta_plus),
        "ito": {
            "c_mp": [sm.ito.c_mp.real, sm.ito.c_mp.imag],
            "c_pm": [sm.ito.c_pm.real, sm.ito.c_pm.imag],
        },
    }


def structure_maps_from_obj(obj):
    if not isinstance(obj, dict):
        raise ValueError("structure maps: expected an object")
    for key in ("dim", "theta_minus", "theta_zero", "theta_plus", "ito"):
        if key not in obj:
            raise ValueError(f"structure maps: missing key {key!r}")
    d = _dim(obj, "structure maps")
    mats = {}
    for key in ("theta_minus", "theta_zero", "theta_plus"):
        try:
            m = superop_from_obj(obj[key])
        except ValueError as exc:
            raise ValueError(f"structure maps: {key}: {exc}") from None
        if m.shape != (d * d, d * d):
            raise ValueError(
                f"structure maps: {key} has shape {m.shape}, expected {(d * d, d * d)}")
        mats[key] = m
    ito_obj = obj["ito"]
    if not isinstance(ito_obj, dict) or set(ito_obj) != {"c_mp", "c_pm"}:
        raise ValueError("structure maps: ito must have exactly the keys c_mp, c_pm")
    ito = ItoTable(_complex_pair(ito_obj["c_mp"], "ito.c_mp"),
                   _complex_pair(ito_obj["c_pm"], "ito.c_pm"))
    return StructureMapSet(dim=d, ito=ito, **mats)


def step_function_to_obj(f):
    return [[a, b, v.real, v.imag] for a, b, v in f.pieces]


def step_function_from_obj(obj):
    if not isinstance(obj, list):
        raise ValueError("step function: expected a list of pieces")
    pieces = []
    for k, row in enumerate(obj):
        vals = ([_finite_float(v) for v in row]
                if isinstance(row, (list, tuple)) and len(row) == 4 else [None])
        if None in vals:
            raise ValueError(
                f"step function: piece {k} must be [start, end, re, im] of finite numbers, "
                f"got {row!r}")
        a, b, re, im = vals
        pieces.append((a, b, complex(re, im)))
    return StepFunction(tuple(pieces))


def glauber_config_to_obj(cfg):
    return {
        "sites": cfg.sites,
        "boundary": cfg.boundary,
        "gg_plus": {lab: [cfg.gg_plus[lab].real, cfg.gg_plus[lab].imag]
                    for lab in LABELS},
        "gg_minus": {lab: [cfg.gg_minus[lab].real, cfg.gg_minus[lab].imag]
                     for lab in LABELS},
    }


def glauber_config_from_obj(obj, seed=0):
    """Parse a chain config; missing covariance tables are filled with
    seeded random defaults."""
    if not isinstance(obj, dict):
        raise ValueError("chain config: expected an object")
    if "sites" not in obj:
        raise ValueError("chain config: missing key 'sites'")
    extra = set(obj) - {"sites", "boundary", "gg_plus", "gg_minus"}
    if extra:
        raise ValueError(f"chain config: unknown keys {sorted(extra)}")
    kwargs = {"sites": obj["sites"], "boundary": obj.get("boundary", "periodic")}
    if ("gg_plus" in obj) != ("gg_minus" in obj):
        raise ValueError("chain config: gg_plus and gg_minus must come together")
    if "gg_plus" in obj:
        for name in ("gg_plus", "gg_minus"):
            table = obj[name]
            if not isinstance(table, dict):
                raise ValueError(f"chain config: {name} must be an object")
            kwargs[name] = {lab: _complex_pair(v, f"{name}.{lab}")
                            for lab, v in table.items()}
    else:
        from .glauber import default_constants
        kwargs["gg_plus"], kwargs["gg_minus"] = default_constants(seed)
    return GlauberConfig(**kwargs)


def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
