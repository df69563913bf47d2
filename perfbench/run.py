"""combtwin benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload desk_direct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The workloads, metric names,
units and bounds are those of BENCHMARK.json. Each workload runs in its
own worker process (its peak RSS is the workload's); set-up time is also
measured in separate probe processes and reported as the median. With
--trace 0 the end-to-end metrics are printed, with --trace 1 the
per-layer metrics of a traced run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2  # plus the worker's own set-up: median of three
TIME_LIMIT_S = 170.0  # per workload; a run has to end within 180 s
# no BLAS thread pools: a workload runs at most the 2 threads harness starts
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SIM_NOTES = {
    "desk_direct": "direct engine and float oracle compute every sample, the periodic run two periods",
    "full_band": "effective: the periodic engine computes two waveform periods",
    "desk_session": "effective: run-loopback picks the periodic engine",
}


class BenchError(Exception):
    pass


def _child(argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded the time limit: {' '.join(argv)}") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rep: dict, setups: list[float]) -> dict[str, float]:
    op_s = [dt for _, dt in rep["ops"]]
    busy = sum(op_s)
    # every workload makes at least two operations a run
    pct_ms = statistics.quantiles([dt * 1e3 for dt in op_s], n=100, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["passes"]),
        "sim_msps": rep["sim_samples"] / busy / 1e6,
        "peak_rss_mb": rep["peak_rss_mb"],
        "latency_ms.p50": pct_ms[49],
        "latency_ms.p90": pct_ms[89],
        "ops_per_s": len(op_s) / busy,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--scratch", str(scratch)]
    try:
        setups = [
            _child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        rep = _child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(rep["setup_s"])

    if trace:
        # a layer the workload never calls reads 0
        layers = rep["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(rep, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failures = rep["failures"]
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"passes {len(rep['passes'])}  operations {len(rep['ops'])}")
    for mname, m in metrics.items():
        note = f"  ({SIM_NOTES[name]})" if mname == "sim_msps" else ""
        print(f"{name:<13} {mname:<44} {m['value']:>16.6f} {m['unit']}{note}")
    print(f"{name:<13} {'failed_frac':<44} {len(failures) / rep['attempted']:>16.6f} "
          f"({len(failures)} of {rep['attempted']} operations and checks)")
    for f in failures:
        print(f"{name:<13} FAILED {f}")
    return {"attempted": rep["attempted"], "failed": len(failures), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "combtwin" / "__init__.py").is_file():
        print(f"error: no combtwin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (one of {names} or 'all')", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
        else:
            runs = {n: run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names}
            out = {
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {f"{n}.{k}": m for n, r in runs.items() for k, m in r["metrics"].items()},
            }
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": out["failed"] == 0, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
