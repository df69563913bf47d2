"""One benchmark run of one workload, in its own process.

Started by run.py with the checkout root as working directory. Prints one
JSON object with the raw measurements as the last line of stdout.

    python3 perfbench/worker.py --workload desk_direct --seed 1 --seconds 15 \
        --trace 0 --scratch .perfbench_tmp/x [--setup-only]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# set-up starts at T_START: these imports load numpy, scipy and combtwin
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_pass(workload, ledger) -> None:
    n_ops = len(ledger.ops)
    workload.run_pass(ledger)
    ledger.passes.append(sum(dt for _, dt in ledger.ops[n_ops:]))


def measure(workload, seconds: float, tracer=None) -> list:
    """Run whole passes until another one would overrun `seconds`, with at
    least one pass and the workload's minimum number of operations.

    With a tracer, untraced and traced passes alternate, so both see the
    same state of the machine; returns [untraced, traced] ledgers.
    """
    ledgers = [workloads.Ledger() for _ in range(2 if tracer else 1)]
    if tracer and workload.trace_warm_up:
        # the first pass runs cold; keep it out of the overhead comparison
        workload.run_pass(ledgers[0])
        ledgers[0].ops.clear()
        ledgers[0].sim_samples = 0
    t0 = time.perf_counter()
    while True:
        run_pass(workload, ledgers[0])
        if tracer:
            tracer.install()
            try:
                run_pass(workload, ledgers[1])
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        next_round = sum(statistics.median(led.passes) for led in ledgers)
        if all(len(led.ops) >= workload.min_ops for led in ledgers) and elapsed + next_round > seconds:
            return ledgers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    ledgers = measure(workload, args.seconds, tracer)
    ledger = ledgers[0]
    report = {"setup_s": setup_s, "passes": ledger.passes, "ops": ledger.ops,
              "sim_samples": ledger.sim_samples}
    if tracer:
        traced = ledgers[1]
        layers = {k: v / len(traced.passes) for k, v in tracer.summary().items()}
        total = layers.get("harness.run_loopback.total_s", 0.0)
        samples = layers.get("harness.computed_samples", 0)
        layers["harness.computed_msps"] = samples / total / 1e6 if total else 0.0
        layers["trace.overhead_s"] = statistics.median(traced.passes) - statistics.median(ledger.passes)
        report["layers"] = layers
        ledger.attempted += traced.attempted
        ledger.failures += traced.failures
        out_dir = Path(".perfbench_out")
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    # correctness gates outside the timed section
    workloads.check_golden(ledger, scratch)
    report["attempted"] = ledger.attempted
    report["failures"] = ledger.failures
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
