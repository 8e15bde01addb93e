"""Benchmark of the selftesting package: certification, tables and CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 20 --trace 0

The workloads and metrics, with their units and bounds, are declared in
``BENCHMARK.json`` at the root; this script reads the metric names from
there. Inputs are generated from ``--seed`` (see ``workloads.py``) and the
package is imported from ``src/`` of the same checkout, never from an
installed copy: without ``src/selftesting`` the script exits with code 2.

A run first sets up its inputs several times, then repeats passes over
the workload's fixed operation list until ``--seconds`` have gone by.

The host's speed drifts by tens of percent over seconds to minutes, so
timings are calibrated. The run times a short fixed kernel that calls no
package code (``calibrate``) before and after each set-up trial, and within
a pass before its first operation and after every ``CAL_EVERY_S`` of work.
Each set-up trial and each pass is scaled by ``CAL_REF_S`` over the mean of
its calibrations, which turns host seconds into seconds on the reference
host. A change to the package moves the scaled times as it moves the raw
ones; a change in host speed moves the timing and the calibration alike,
and cancels. Calibration time is not counted in any timing.

With ``--trace 0`` it reports, with tracing off:

* ``setup_s``: import of the package (timed in a fresh interpreter) plus
  input generation, scaled, median over the set-up trials;
* ``wall_s``: wall time of one pass (the sum of its operations'
  latencies), scaled, median over passes;
* ``op_p50_ms`` and ``op_p90_ms``: median and 90th percentile of
  per-operation latency, each latency scaled by its pass's factor, over
  every operation of every pass;
* ``peak_rss_mb``: peak resident memory of this process, or for ``cli`` the
  largest of its child processes.

The detail line also holds the unscaled ``wall_raw_s`` and percentiles,
the median calibration time and the latency sample count.

With ``--trace 1`` it alternates untraced and traced passes. The traced ones
wrap each public call the benchmark makes in a span (see ``spans.py``) and
report, per layer, the median over traced passes of the summed span time
per pass (``harness.embed_realization.s`` and the import times: per set-up),
``io.bytes`` per pass, the tracing overhead (traced minus untraced median
``wall_s``, scaled like it) and the share of a traced pass that top-level
spans cover. Span sums are host seconds, not scaled.

Every operation checks its output; a failure is an exception, an unexpected
exit code or a wrong verdict. The run also checks that its seed gives
identical inputs on every set-up trial and that the next seed gives
different ones. The second-to-last line of stdout is a JSON detail record
(environment, sample counts, failure fraction, input fingerprint); the last
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

SETUP_TRIALS = 9
#: Median seconds of `calibrate` on the host the baseline was measured on
#: (2-core x86_64, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
CAL_REF_S = 0.017
#: Seconds of work between two calibrations within a pass.
CAL_EVERY_S = 0.25
#: Calibrations before and after each set-up trial.
CAL_SETUP = 4
#: Layers timed while inputs are generated, reported per set-up trial. The
#: import probe runs in every set-up, so every workload reports import times.
SETUP_LAYERS = ("harness.embed_realization", "cli.import", "cli.numpy_import")


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list[float]
    failed: int
    #: Reference seconds per host second, from the calibrations made during the pass.
    scale: float


def parse_args(argv: list[str] | None, workload_names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fingerprint(obj: Any) -> str:
    """SHA-256 over every array, number, string and file an input holds."""
    import numpy as np

    h = hashlib.sha256()

    def feed(x: Any) -> None:
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, Path):
            h.update(x.name.encode())
            h.update(x.read_bytes())
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, (str, int, float, bool, type(None))):
            h.update(repr(x).encode())
        else:
            raise TypeError(f"cannot fingerprint {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


@functools.cache
def _calibration_inputs() -> list[Any]:
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.standard_normal((n, n)) for n in (144, 4, 9, 16, 25)]


def calibrate() -> float:
    """Seconds of a short fixed kernel that calls no package code.

    The kernel mixes the kinds of work the workloads do (dense linear
    algebra, many small numpy calls, plain Python), so its time tracks how
    fast the host runs at the moment. A time multiplied by
    ``CAL_REF_S / calibrate()`` reads as seconds on the reference host.
    """
    import numpy as np

    big, *small = _calibration_inputs()
    start = perf_counter()
    for _ in range(2):
        w, v = np.linalg.eigh(big @ big.T)
        (v * w) @ v.T
    for _ in range(20):
        for a in small:
            w, v = np.linalg.eigh(a @ a.T)
            np.einsum("ij,j,kj->ik", v, w, v).trace()
    table: dict[int, tuple[float, str]] = {}
    for i in range(12_000):
        table[i % 997] = (table.get(i % 997, (0.0, ""))[0] + i * 0.5, str(i))
    sorted(table.items(), key=lambda kv: kv[1][0])
    return perf_counter() - start


def scale(cals: list[float]) -> float:
    """Reference seconds per host second over a span of calibrations."""
    return CAL_REF_S / statistics.mean(cals)


def measure_setup(wl: Any, workload: Any, seed: int, ctx: Any, spans: Any) -> tuple[list[float], Any, dict[str, Any]]:
    """Set up `SETUP_TRIALS` times; return the set-up times in reference seconds, the inputs and a seed check."""
    times, prints = [], []
    cals = [[calibrate() for _ in range(CAL_SETUP)]]
    inputs = None
    for i in range(SETUP_TRIALS):
        if spans is not None:
            spans.enter(("setup", i))
        imported = wl.probe_import(spans, ctx)["import_s"]
        start = perf_counter()
        inputs = workload.setup(seed, ctx, spans)
        times.append(imported + perf_counter() - start)
        prints.append(fingerprint(inputs))
        cals.append([calibrate() for _ in range(CAL_SETUP)])
    other_ctx = dataclasses.replace(ctx, workdir=ctx.workdir / "next-seed")
    other = fingerprint(workload.setup(seed + 1, other_ctx, None))
    shutil.rmtree(other_ctx.workdir, ignore_errors=True)
    check = {
        "sha256": prints[0],
        "same_seed_identical": len(set(prints)) == 1,
        "next_seed_differs": other != prints[0],
    }
    return [t * scale(c0 + c1) for t, c0, c1 in zip(times, cals, cals[1:])], inputs, check


def run_pass(ops: list[Any], spans: Any, index: int) -> Pass:
    """One pass over `ops`, calibrating before the first and after every `CAL_EVERY_S` of work.

    The pass's wall time is the sum of its operations' latencies, so the
    calibrations spread over it are not counted in it.
    """
    latencies, cals = [], []
    failed = 0
    if spans is not None:
        spans.enter(("pass", index))
    next_cal = perf_counter()
    for op in ops:
        if perf_counter() >= next_cal:
            cals.append(calibrate())
            next_cal = perf_counter() + CAL_EVERY_S
        t0 = perf_counter()
        try:
            op.run(spans)
        except Exception:  # the loop goes on; each failure is counted and shown
            failed += 1
            print(f"FAILED {op.label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        latencies.append(perf_counter() - t0)
    cals.append(calibrate())
    return Pass(spans is not None, sum(latencies), latencies, failed, scale(cals))


def run_passes(ops: list[Any], seconds: float, spans: Any) -> list[Pass]:
    """Closed loop of passes; with `spans`, untraced and traced passes alternate."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = spans is not None and len(passes) % 2 == 1
        passes.append(run_pass(ops, spans if traced else None, len(passes)))
        left = seconds - (perf_counter() - start)
        if left < passes[-1].wall / 2 and (spans is None or len(passes) >= 2):
            return passes


def end_to_end(passes: list[Pass], setups: list[float], children: bool) -> tuple[dict[str, dict[str, Any]], int]:
    untraced = [p for p in passes if not p.traced]
    lat_ms = [t * 1e3 for p in untraced for t in p.latencies]
    cuts = statistics.quantiles(lat_ms, n=10, method="inclusive")
    ref_ms = [t * 1e3 * p.scale for p in untraced for t in p.latencies]
    ref_cuts = statistics.quantiles(ref_ms, n=10, method="inclusive")
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall * p.scale for p in untraced), "s"),
        "op_p50_ms": (ref_cuts[4], "ms"),
        "op_p90_ms": (ref_cuts[8], "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        "wall_raw_s": (statistics.median(p.wall for p in untraced), "s"),
        "op_p50_raw_ms": (cuts[4], "ms"),
        "op_p90_raw_ms": (cuts[8], "ms"),
        "cal_s": (CAL_REF_S / statistics.median(p.scale for p in passes), "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}, len(lat_ms)


def per_layer(passes: list[Pass], spans: Any, names: list[str]) -> dict[str, float]:
    traced = [(i, p) for i, p in enumerate(passes) if p.traced]
    untraced = [p.wall * p.scale for p in passes if not p.traced]
    pass_totals = [spans.totals(("pass", i)) for i, _ in traced]
    setup_totals = [spans.totals(("setup", i)) for i in range(SETUP_TRIALS)]
    values = {
        "trace.overhead_s": statistics.median(p.wall * p.scale for _, p in traced) - statistics.median(untraced),
        "trace.coverage": statistics.median(spans.covered(("pass", i)) / p.wall for i, p in traced),
    }
    for name in names:
        if name in values:
            continue
        key = name.removesuffix(".s")
        totals = setup_totals if key in SETUP_LAYERS else pass_totals
        values[name] = statistics.median(t.get(key, 0.0) for t in totals)
    return values


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = root / "src"
    if not (src / "selftesting" / "__init__.py").is_file():
        print(f"error: no selftesting package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Imported only now, so that the package comes from this checkout.
    import spans as spans_mod
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    spans = spans_mod.Spans() if args.trace else None

    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=work_root) as tmp:
            ctx = wl.Context(src=src, workdir=Path(tmp), env=env)
            setups, inputs, seed_check = measure_setup(wl, workload, args.seed, ctx, spans)
            ops = workload.ops(inputs, ctx)
            passes = run_passes(ops, args.seconds, spans)
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e, samples = end_to_end(passes, setups, workload.children)
    if args.trace:
        group = "per_layer"
        values = per_layer(passes, spans, [m["name"] for m in spec[group]])
    else:
        group = "end_to_end"
        values = {name: m["value"] for name, m in e2e.items()}
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "ops_per_pass": len(ops),
        "passes_untraced": sum(not p.traced for p in passes),
        "passes_traced": sum(p.traced for p in passes),
        "latency_samples": samples,
        "pass_walls_s": [p.wall for p in passes if not p.traced],
        "fail_frac": failed / attempted,
        "inputs": seed_check,
        "end_to_end": e2e,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    for name, m in (metrics if args.trace else e2e).items():
        print(f"{args.workload:>12} {name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:>12} {samples} latency samples, {failed} of {attempted} operations failed", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    correct = failed == 0 and seed_check["same_seed_identical"] and seed_check["next_seed_differs"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
