"""Repeat the benchmark over seeds and summarize each metric's spread.

Run from the root of a checkout:

    python3 benchmarks/repeat.py --runs 10 --out benchmarks/results/BENCH_<label>.json
    python3 benchmarks/repeat.py --runs 5 --workloads certify --compare benchmarks/results/BENCH_baseline.json

For every workload it runs ``benchmarks/run.py`` once per seed (seeds 1 to
``--runs``) with tracing off, then once traced with seed 1, each run for
``run_seconds`` from ``BENCHMARK.json``. For each end-to-end metric it
prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. With ``--compare`` it also prints how
far each median got worse than in an earlier results file, as a share of
the earlier median (negative when it got better).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(detail)["detail"]}


def summarize(runs: list[dict], group: str, spec: list[dict]) -> dict:
    """Median, quartiles and spread of every metric in `group` of the runs.

    Metrics missing from `spec` (the end-to-end figures kept in the detail
    line) get no bound.
    """
    declared = {m["name"]: m for m in spec}
    out = {}
    for name, first in runs[0][group].items():
        values = [r[group][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        m = declared.get(name, {})
        out[name] = {
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "unit": first["unit"], "better": m.get("better", "lower"), "bound": m.get("bound"),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path, default=None, help="write every run and the summary here")
    p.add_argument("--compare", type=Path, default=None, help="earlier results file to compare medians with")
    args = p.parse_args()
    old = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = [run_once(w, s, seconds, 0) for s in range(1, args.runs + 1)]
        traced = [run_once(w, 1, seconds, 1)]
        summary = summarize(runs, "end_to_end", spec["end_to_end"])
        doc["workloads"][w] = {
            "summary": summary,
            "per_layer": summarize(traced, "metrics", spec["per_layer"]),
            "runs": runs,
            "traced_runs": traced,
        }
        print(f"{w}: {sum(r['attempted'] for r in runs)} operations, {sum(r['failed'] for r in runs)} failed, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name, s in summary.items():
            line = (f"  {name:<12} median {s['median']:<12.6g} {s['unit']:<3} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} (bound {s['bound']})")
            if w in old and name in old[w]["summary"]:
                before = old[w]["summary"][name]["median"]
                worse = (s["median"] - before) / before * (1 if s["better"] == "lower" else -1)
                line += f"  worse by {worse:+.3f}"
            print(line, flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
