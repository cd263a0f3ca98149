"""The benchmark's four workloads, each driving qmflow's public functions.

Every workload is closed-loop with one caller. Op ``i`` of a run with
base seed ``b`` draws its inputs from seed ``b + i`` only, so no two ops
share inputs. A workload provides:

* ``setup(seed)``: build the chain model and its physical extended
  generator (chain operators, superoperators, Ito calibration, generator
  assembly) and return the model;
* ``make_input(model, seed)``: the op's inputs;
* ``run(model, inp)``: the timed op, returning its output;
* ``gate(inp, out)``: ``None`` when the output is right, else a message;
* ``fingerprint(out)``: bytes that identify the output exactly;
* ``expected_counts(inp)``: span counts of one op known without a tracer.

Sizes quoted below are derived from the chain size, not measured:
``d = 2**sites``, superoperators are ``d**2 x d**2`` complex matrices
(16 bytes per entry) and the extended map's Choi matrix has side
``(2 d)**2``.
"""

import json
from dataclasses import dataclass

import jsonschema
import numpy as np

# Calls go through the package namespace at call time, so that the
# tracer's rebinding of qmflow's public functions sees them.
import qmflow

# Expm calls of one grid time in the extended layer: the Choi test, the
# conservative unit block and the physical unit profile each exponentiate
# the four generator entries.
EXPM_PER_GRID_TIME = 12

# Expm calls of run_suite's extended group on the default time grid:
# 12 per grid time for 4 times, plus the resolvent-order check's two
# exponentials of each of the 4 entries for 3 values of eps.
EXPM_EXTENDED_GROUP = 72

# Draws of structure-leibnitz in run_suite's structure group.
LEIBNITZ_DRAWS = 100

# Share of flow-4o ops that evaluate the identity observable, whose
# matrix element has the closed form exp(<f, g>) * identity.
IDENTITY_SHARE = 0.25

# Relative tolerance of that closed form.
IDENTITY_TOL = 1e-9

# Breakpoints closer than this are one point (as in qmflow.flows).
_MERGE_TOL = 1e-12


def chain_config(sites, boundary, seed):
    return qmflow.parse_config(
        {"seed": seed, "model": {"glauber": {"sites": sites, "boundary": boundary}}})


class Workload:
    name = None
    sites = None
    boundary = None

    def config(self, seed):
        return chain_config(self.sites, self.boundary, seed)

    def setup(self, seed):
        sm = qmflow.build_glauber_structure_maps(self.config(seed).glauber)
        qmflow.build_extended_generator(sm, "physical")
        return sm

    def expected_counts(self, inp):
        return {}

    def rerender(self, out):
        """The output's bytes rendered again from the returned object, or
        None when the op renders nothing."""
        return None

    def group_check(self, seed):
        """An extra traced call with known span counts, or None."""
        return None


class SuiteDefault(Workload):
    """``qmflow suite``: run_suite plus report_to_json_bytes.

    3-site periodic chain, d=8, 64x64 generators (computed). Touches every
    layer; the flow group's many small expm calls and Gram kernels
    dominate.
    """

    name = "suite-3p"
    sites, boundary = 3, "periodic"

    def make_input(self, sm, seed):
        return qmflow.parse_config({"seed": seed})

    def run(self, sm, rc):
        report = qmflow.run_suite(rc)
        return report, qmflow.report_to_json_bytes(report)

    def gate(self, rc, out):
        report, data = out
        obj = json.loads(data)
        try:
            jsonschema.validate(obj, qmflow.REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            return f"report does not match REPORT_SCHEMA: {exc.message}"
        failed = [r["name"] for r in obj["records"] if not r["passed"]]
        if failed or not obj["passed"] or not report.passed:
            return f"report failed checks {failed}"
        if obj["summary"]["failed"] != 0 or obj["summary"]["total"] != len(obj["records"]):
            return f"report summary {obj['summary']} disagrees with its records"
        return None

    def fingerprint(self, out):
        return out[1]

    def rerender(self, out):
        return qmflow.report_to_json_bytes(out[0])

    def expected_counts(self, rc):
        return {"extended.choi_min_eig": len(rc.t_grid), "suite.render": 1}

    def group_check(self, seed):
        """The extended group alone, whose expm count is known exactly."""
        rc = qmflow.parse_config({"seed": seed})
        return (lambda: qmflow.run_suite(rc, groups=("extended",)),
                {"linalg.expm": EXPM_EXTENDED_GROUP,
                 "extended.choi_min_eig": len(rc.t_grid)})


class CheckCpScan(Workload):
    """``qmflow check-cp``: check_cp_rows on the default time grid.

    4-site periodic chain, d=16: 256x256 expm (1 MiB each) and 1024x1024
    Choi eigensolves (16 MiB each), both computed. Needs the full
    semigroup matrices and no flow layer.
    """

    name = "cp-scan-4p"
    sites, boundary = 4, "periodic"

    def make_input(self, sm, seed):
        return self.config(seed)

    def run(self, sm, rc):
        return qmflow.check_cp_rows(rc)

    def gate(self, rc, out):
        rows, passed = out
        if len(rows) != len(rc.t_grid):
            return f"{len(rows)} rows for {len(rc.t_grid)} grid times"
        bad = [r["t"] for r in rows if not r["passed"]]
        if bad or not passed:
            return f"rows failed at t={bad}"
        values = [r[k] for r in rows for k in
                  ("choi_min_eig", "conservativity_residual", "normalization_residual")]
        if not np.all(np.isfinite(values)):
            return "non-finite row value"
        return None

    def fingerprint(self, out):
        return json.dumps(out, sort_keys=True).encode()

    def expected_counts(self, rc):
        n = len(rc.t_grid)
        return {"linalg.expm": EXPM_PER_GRID_TIME * n, "linalg.eigvalsh@1024": n,
                "extended.choi_min_eig": n}


@dataclass
class FlowInput:
    f: object
    g: object
    start: float
    end: float
    x: np.ndarray
    identity: bool


def _random_step(rng):
    k = int(rng.integers(2, 5))
    pts = np.sort(rng.uniform(-0.5, 2.5, size=2 * k))
    return qmflow.StepFunction(tuple(
        (float(pts[2 * j]), float(pts[2 * j + 1]),
         complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for j in range(k)))


def inner_product(f, g):
    """Integral of conj(f) g over the line, from piece overlaps."""
    total = 0.0 + 0.0j
    for a, b, v in f.pieces:
        for c, e, w in g.pieces:
            overlap = min(b, e) - max(a, c)
            if overlap > 0:
                total += np.conj(v) * w * overlap
    return total


def segment_count(f, g, start, end):
    """Subintervals of [start, end] cut by both functions' breakpoints."""
    inner = sorted(p for h in (f, g) for piece in h.pieces for p in piece[:2]
                   if start < p < end)
    grid = [start]
    for p in inner + [end]:
        if p - grid[-1] > _MERGE_TOL:
            grid.append(p)
    return len(grid) - 1


class FlowElement(Workload):
    """``qmflow flow-element``: one flow_matrix_element on [0, 2].

    4-site open chain, d=16, 256x256 expm per segment (computed). Seeded
    step functions with 2 to 4 pieces each on [-0.5, 2.5]; a seeded share
    of ops uses the identity observable. Action-only, no extended layer.
    """

    name = "flow-4o"
    sites, boundary = 4, "open"

    def make_input(self, sm, seed):
        rng = np.random.default_rng(seed)
        f, g = _random_step(rng), _random_step(rng)
        identity = bool(rng.random() < IDENTITY_SHARE)
        if identity:
            x = np.eye(sm.dim, dtype=complex)
        else:
            x = rng.standard_normal((sm.dim, sm.dim)) + 1j * rng.standard_normal((sm.dim, sm.dim))
            x /= np.max(np.abs(x))
        return FlowInput(f, g, 0.0, 2.0, x, identity)

    def run(self, sm, inp):
        return qmflow.flow_matrix_element(sm, inp.f, inp.g, inp.start, inp.end, inp.x)

    def gate(self, inp, out):
        out = np.asarray(out)
        if out.shape != inp.x.shape or not np.all(np.isfinite(out)):
            return f"element has shape {out.shape} or non-finite entries"
        if inp.identity:
            weight = np.exp(inner_product(inp.f, inp.g))
            dev = np.max(np.abs(out - weight * np.eye(out.shape[0])))
            if dev > IDENTITY_TOL * max(1.0, abs(weight)):
                return f"identity element misses exp(<f,g>) I by {dev:.3e}"
        return None

    def fingerprint(self, out):
        return np.ascontiguousarray(out).tobytes()

    def expected_counts(self, inp):
        return {"linalg.expm": segment_count(inp.f, inp.g, inp.start, inp.end),
                "flows.evolution_map": 1}


class StructureChecks(Workload):
    """``qmflow check-structure``: run_suite(groups=("structure",)).

    5-site periodic chain, d=32: 1024x1024 superoperators (16 MiB each,
    computed) built in every op, then O(d**4) apply_superop matvecs.
    """

    name = "structure-5p"
    sites, boundary = 5, "periodic"

    def make_input(self, sm, seed):
        return self.config(seed)

    def run(self, sm, rc):
        return qmflow.run_suite(rc, groups=("structure",))

    def gate(self, rc, report):
        failed = [r.name for r in report.records if not r.passed]
        if failed or not report.passed or not report.records:
            return f"structure checks failed: {failed}"
        return None

    def fingerprint(self, report):
        return json.dumps(report.to_obj(), sort_keys=True).encode()

    def expected_counts(self, rc):
        return {"structure.leibnitz_residual": LEIBNITZ_DRAWS,
                "glauber.build_structure_maps": 1}


WORKLOADS = {w.name: w for w in
             (SuiteDefault(), CheckCpScan(), FlowElement(), StructureChecks())}
