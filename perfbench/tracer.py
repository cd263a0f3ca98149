"""In-memory span tracer for qmflow's public functions.

The tracer rebinds each traced function at every import site inside the
``qmflow`` package (the defining module, the package namespace and every
module that did ``from .linalg import ...``), so calls made through any
binding are recorded. Spans are kept in memory as
``[name, start, end, parent_id, side]`` rows and turned into per-layer
metrics at the end; ``restore`` puts the original functions back.
"""

import contextlib
import functools
import importlib
import sys
import time

# Span name -> the public functions it covers, as (module, attribute).
TRACED = {
    "linalg.expm": [("qmflow.linalg", "matrix_exponential")],
    "linalg.eigvalsh": [("qmflow.linalg", "min_eig"), ("qmflow.linalg", "is_psd")],
    "linalg.apply_superop": [("qmflow.linalg", "apply_superop")],
    "structure.leibnitz_residual": [("qmflow.structure", "leibnitz_residual")],
    "structure.calibrate_ito": [("qmflow.structure", "calibrate_ito")],
    "structure.build_evans_hudson": [("qmflow.structure", "build_evans_hudson")],
    "glauber.build_structure_maps": [("qmflow.glauber", "build_glauber_structure_maps")],
    "extended.build_generator": [("qmflow.extended", "build_extended_generator")],
    "extended.choi_min_eig": [("qmflow.extended", "extended_choi_min_eig")],
    "extended.conservativity": [("qmflow.extended", "conservativity_residual")],
    "extended.normalization": [("qmflow.extended", "normalization_residual")],
    "extended.dissipativity": [("qmflow.extended", "dissipativity_residual_min_eig")],
    "extended.commutation": [("qmflow.extended", "commutation_residual")],
    "extended.resolvent": [("qmflow.extended", "resolvent_generator")],
    "flows.evolution_map": [("qmflow.flows", "evolution_map")],
    "flows.flow_matrix_element": [("qmflow.flows", "flow_matrix_element")],
    "flows.gram": [("qmflow.flows", "kernel_cp_residual"),
                   ("qmflow.flows", "schur_product_check"),
                   ("qmflow.flows", "q_bound_check")],
    "suite.run": [("qmflow.suite", "run_suite"), ("qmflow.suite", "check_cp_rows")],
    "suite.render": [("qmflow.suite", "report_to_json_bytes")],
}

# Spans whose first argument is a matrix; its side is recorded.
_SIDED = {"linalg.expm", "linalg.eigvalsh"}

# The three per-time checks of the extended semigroup (Choi test,
# conservative unit block, physical unit profile).
_PER_T = {"extended.choi_min_eig", "extended.conservativity", "extended.normalization"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("linalg.expm.calls", "count/op", "lower"),
    ("linalg.expm.self_s", "s/op", "lower"),
    ("linalg.expm.n64.calls", "count/op", "lower"),
    ("linalg.expm.n256.calls", "count/op", "lower"),
    ("linalg.expm.n1024.calls", "count/op", "lower"),
    ("linalg.eigvalsh.calls", "count/op", "lower"),
    ("linalg.eigvalsh.self_s", "s/op", "lower"),
    ("linalg.eigvalsh.max_side", "rows", "lower"),
    ("linalg.apply_superop.calls", "count/op", "lower"),
    ("linalg.apply_superop.self_s", "s/op", "lower"),
    ("extended.choi_min_eig.self_s", "s/op", "lower"),
    ("extended.expm_per_t", "count/t", "lower"),
    ("extended.build_generator.calls", "count/op", "lower"),
    ("extended.build_generator.self_s", "s/op", "lower"),
    ("extended.dissipativity.self_s", "s/op", "lower"),
    ("extended.commutation.self_s", "s/op", "lower"),
    ("extended.resolvent.self_s", "s/op", "lower"),
    ("flows.evolution_map.calls", "count/op", "lower"),
    ("flows.evolution_map.self_s", "s/op", "lower"),
    ("flows.segments", "count/op", "lower"),
    ("flows.gram.self_s", "s/op", "lower"),
    ("flows.expm_per_element", "count/map", "lower"),
    ("structure.leibnitz_residual.calls", "count/op", "lower"),
    ("structure.leibnitz_residual.self_s", "s/op", "lower"),
    ("structure.calibrate_ito.self_s", "s/op", "lower"),
    ("structure.build_evans_hudson.self_s", "s/op", "lower"),
    ("glauber.build_structure_maps.s", "s/op", "lower"),
    ("suite.self_s", "s/op", "lower"),
    ("suite.render_s", "s/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
]


class Tracer:
    """Records one span per call of every function in ``TRACED``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        row = self._open(name, None)
        try:
            yield
        finally:
            self._close(row)

    def _open(self, name, side):
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, side]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row):
        row[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        sided = name in _SIDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            side = args[0].shape[0] if sided else None
            row = self._open(name, side)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return traced

    def install(self):
        """Rebind every traced function at each ``qmflow`` import site."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, sites in TRACED.items():
            for modname, attr in sites:
                original = getattr(importlib.import_module(modname), attr)
                wrapper = self._wrap(name, original)
                for mod in _qmflow_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def restore(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def dump(self):
        """Spans as JSON-ready dicts (times in seconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": n, "start": s - t0, "end": e - t0,
                 "parent": p, "side": side}
                for i, (n, s, e, p, side) in enumerate(self.spans)]


def _qmflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qmflow" or name.startswith("qmflow."))]


def span_tables(spans):
    """Self time and the set of ancestor names of every span."""
    n = len(spans)
    self_time = [e - s for _, s, e, _, _ in spans]
    for _, s, e, parent, _ in spans:
        if parent is not None:
            self_time[parent] -= e - s
    ancestors = [frozenset()] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
    return self_time, ancestors


def layer_metrics(spans, ops):
    """Per-layer metrics from the spans of ``ops`` traced ops (per op)."""
    self_time, ancestors = span_tables(spans)
    calls, selfs, incl = {}, {}, {}
    expm_sides = {64: 0, 256: 0, 1024: 0}
    max_side = 0
    expm_per_t = 0
    segments = 0
    for i, (name, s, e, _, side) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_time[i]
        incl[name] = incl.get(name, 0.0) + (e - s)
        if name == "linalg.expm":
            if side in expm_sides:
                expm_sides[side] += 1
            if ancestors[i] & _PER_T:
                expm_per_t += 1
            if "flows.evolution_map" in ancestors[i]:
                segments += 1
        elif name == "linalg.eigvalsh":
            max_side = max(max_side, side or 0)

    def per_op(x):
        return x / ops

    maps = calls.get("flows.evolution_map", 0)
    grid_times = calls.get("extended.choi_min_eig", 0)
    out = {
        "linalg.expm.calls": per_op(calls.get("linalg.expm", 0)),
        "linalg.expm.self_s": per_op(selfs.get("linalg.expm", 0.0)),
        "linalg.expm.n64.calls": per_op(expm_sides[64]),
        "linalg.expm.n256.calls": per_op(expm_sides[256]),
        "linalg.expm.n1024.calls": per_op(expm_sides[1024]),
        "linalg.eigvalsh.calls": per_op(calls.get("linalg.eigvalsh", 0)),
        "linalg.eigvalsh.self_s": per_op(selfs.get("linalg.eigvalsh", 0.0)),
        "linalg.eigvalsh.max_side": max_side,
        "linalg.apply_superop.calls": per_op(calls.get("linalg.apply_superop", 0)),
        "linalg.apply_superop.self_s": per_op(selfs.get("linalg.apply_superop", 0.0)),
        "extended.choi_min_eig.self_s": per_op(selfs.get("extended.choi_min_eig", 0.0)),
        "extended.expm_per_t": expm_per_t / grid_times if grid_times else 0.0,
        "extended.build_generator.calls": per_op(calls.get("extended.build_generator", 0)),
        "extended.build_generator.self_s": per_op(selfs.get("extended.build_generator", 0.0)),
        "extended.dissipativity.self_s": per_op(selfs.get("extended.dissipativity", 0.0)),
        "extended.commutation.self_s": per_op(selfs.get("extended.commutation", 0.0)),
        "extended.resolvent.self_s": per_op(selfs.get("extended.resolvent", 0.0)),
        "flows.evolution_map.calls": per_op(maps),
        "flows.evolution_map.self_s": per_op(selfs.get("flows.evolution_map", 0.0)),
        "flows.segments": per_op(segments),
        "flows.gram.self_s": per_op(selfs.get("flows.gram", 0.0)),
        "flows.expm_per_element": segments / maps if maps else 0.0,
        "structure.leibnitz_residual.calls": per_op(calls.get("structure.leibnitz_residual", 0)),
        "structure.leibnitz_residual.self_s": per_op(selfs.get("structure.leibnitz_residual", 0.0)),
        "structure.calibrate_ito.self_s": per_op(selfs.get("structure.calibrate_ito", 0.0)),
        "structure.build_evans_hudson.self_s": per_op(selfs.get("structure.build_evans_hudson", 0.0)),
        "glauber.build_structure_maps.s": per_op(incl.get("glauber.build_structure_maps", 0.0)),
        "suite.self_s": per_op(selfs.get("suite.run", 0.0)),
        "suite.render_s": per_op(incl.get("suite.render", 0.0)),
    }
    return out
