"""qmflow benchmark: one closed-loop workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite-3p --seed 0 --seconds 20 --trace 0

The run pins BLAS to one thread before numpy is imported, builds the
workload's model (``setup_s`` is the median of builds made before and
between the ops), then runs ops with seeds ``seed``, ``seed + 1``, ...
until ``--seconds`` would be exceeded, checking every output. Untraced runs (``--trace 0``)
report the end-to-end metrics. Traced runs (``--trace 1``) run the ops
untraced for half the time, replay the same seeds under the span tracer,
require byte-identical outputs and the span counts known without the
tracer, and report the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the software
environment and, when traced, the spans, goes to ``perfbench/out/``.
The exit code is 0 when every output is right, 1 when one is not, and 2
when the repository's ``src/qmflow`` package is missing.

End-to-end metrics: ``setup_s`` is the median model build time;
``wall_s`` is the loop's wall time per op (inputs and output checks
included, set-up builds excluded); ``op_p50_s`` is the median latency of
the ``attempted`` ops; ``peak_rss_mb`` is this process's peak resident
memory. Per-layer metrics are per replayed op; see ``tracer.PER_LAYER``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# The model is built SETUP_REPEATS times before the loop, and again
# between ops whenever set-up has had less than SETUP_SHARE of the loop's
# time, so that setup_s samples the machine over the whole run and not
# only over its first second.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1
MIN_OPS = 3

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def pin_blas_threads():
    """One BLAS thread; only effective before numpy is first imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def import_qmflow():
    """Import qmflow from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qmflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qmflow package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qmflow
    if not Path(qmflow.__file__).resolve().is_relative_to(src):
        raise FileNotFoundError(f"qmflow imported from {qmflow.__file__}, not {src}")


def blas_threads():
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def timed_setup(wl, seed, times):
    t0 = time.perf_counter()
    model = wl.setup(seed)
    times.append(time.perf_counter() - t0)
    return model


@dataclass
class Op:
    seed: int
    latency: float
    digest: str     # sha256 of the output's fingerprint; None if the op raised
    error: str      # why the output is wrong; None if it is right


def run_one(wl, model, seed):
    """One op: inputs, the timed call, and the output gate."""
    inp = wl.make_input(model, seed)
    t0 = time.perf_counter()
    try:
        out = wl.run(model, inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Op(seed, time.perf_counter() - t0, None, f"raised {exc!r}"), None
    latency = time.perf_counter() - t0
    error = wl.gate(inp, out)
    digest = hashlib.sha256(wl.fingerprint(out)).hexdigest()
    return Op(seed, latency, digest, error), out


def run_ops(wl, model, base, seconds, min_ops, setup_times):
    """Closed loop: start op i only while its expected end is in time.

    Returns the ops, the loop's wall time without its set-up builds, and
    the first op's output.
    """
    ops, first = [], None
    in_loop_setup = 0.0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(ops) >= min_ops and elapsed + statistics.median(o.latency for o in ops) > seconds:
            break
        op, out = run_one(wl, model, base + len(ops))
        if first is None:
            first = out
        ops.append(op)
        while in_loop_setup < SETUP_SHARE * (time.perf_counter() - t_start):
            timed_setup(wl, base, setup_times)
            in_loop_setup += setup_times[-1]
    return ops, time.perf_counter() - t_start - in_loop_setup, first


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100 * k // n, "value": sorted(latencies)[k - 1],
            "beyond": 10, "samples": n}


def op_counts(spans):
    counts = Counter()
    for name, _, _, _, side in spans:
        counts[name] += 1
        if side is not None:
            counts[f"{name}@{side}"] += 1
    return counts


def count_errors(label, spans, expected):
    got = op_counts(spans)
    return [f"{label}: {key} counted {got[key]}, expected {want}"
            for key, want in expected.items() if got[key] != want]


def traced_replay(wl, model, ops, base, tracer):
    """Re-run the seeds of ``ops`` under the tracer.

    Returns the problems found, the traced latencies and the spans of the
    replayed ops (the workload's group check is not an op and is left out).
    """
    problems, latencies = [], []
    with tracer:
        for op in ops:
            inp = wl.make_input(model, op.seed)
            begin = len(tracer.spans)
            with tracer.span("op"):
                t0 = time.perf_counter()
                out = wl.run(model, inp)
                latencies.append(time.perf_counter() - t0)
            if hashlib.sha256(wl.fingerprint(out)).hexdigest() != op.digest:
                problems.append(f"seed {op.seed}: traced output differs from untraced")
            problems += count_errors(f"seed {op.seed}", tracer.spans[begin + 1:],
                                     wl.expected_counts(inp))
        op_spans = list(tracer.spans)
        extra = wl.group_check(base)
        if extra is not None:
            call, expected = extra
            begin = len(tracer.spans)
            with tracer.span("group-check"):
                call()
            problems += count_errors("group check", tracer.spans[begin + 1:], expected)
    return problems, latencies, op_spans


def write_json(path, obj):
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_qmflow()
    except (FileNotFoundError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    from tracer import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}, "
                         f"expected one of {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload]
    env = environment()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        model = timed_setup(wl, args.seed, setup_times)
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops, wall, first = run_ops(wl, model, args.seed, seconds,
                               1 if args.trace else MIN_OPS, setup_times)

    problems = [f"seed {o.seed}: {o.error}" for o in ops if o.error]
    failed = len(problems)
    again = None if first is None else wl.rerender(first)
    if again is not None and again != wl.fingerprint(first):
        problems.append(f"seed {args.seed}: re-rendered output differs")
    latencies = [o.latency for o in ops]
    extra = {"samples": len(ops), "fail_ratio": failed / len(ops), "op_tail_s": tail(latencies),
             "setup_builds": len(setup_times)}

    if args.trace:
        tracer = Tracer()
        good = [o for o in ops if o.digest is not None]
        trace_problems, traced, spans = traced_replay(wl, model, good, args.seed, tracer)
        problems += trace_problems
        replayed = max(1, len(good))
        metrics = layer_metrics(spans, replayed)
        metrics["trace.overhead_s"] = (sum(traced) - sum(o.latency for o in good)) / replayed
        units = {name: unit for name, unit, _ in PER_LAYER}
        write_json(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json",
                   {"environment": env, "spans": tracer.dump()})
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall / len(ops),
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    correct = not problems
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    write_json(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
               {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "environment": env, "extra": extra, "problems": problems,
                "latencies": latencies, "result": result})
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in extra.items():
        print(f"{name} {json.dumps(value)}")
    for p in problems:
        print(f"problem {p}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
