#!/usr/bin/env python3
"""cpnbergman benchmark: oracle-checked workloads, plus a traced run.

Run from the repository root:

    python3 bench/run.py --workload tyz_sweep --seed 1 --seconds 32 --trace 0

Workloads: tyz_sweep, exact_scan, cp1_quad (see README.md for why each
exists).  Each is a closed loop: one caller issues library calls back to
back, in passes over the workload's full result set, until the pass
target or the time budget is reached.  Every op is checked against an
oracle; wrong answers and raised ComputationErrors count as failed ops.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, including the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give the
same figures by name with their units, plus the run's inputs and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import boot
from runner import REFERENCE_LOOP_S, Runner, reference_loop, self_test

SETUP_PROBES = 5
OVERRUN = 1.25  # a pass may start only if it is projected to end by OVERRUN * seconds
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
OUT_DIR = boot.ROOT / ".bench_out"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("tyz_sweep", "exact_scan", "cp1_quad"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def probe_setup(workload: str, seed: int):
    """A fresh interpreter that imports, draws inputs and runs one op.

    Returns its wall time and the speed factor measured just before it.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    speed = REFERENCE_LOOP_S / min(reference_loop() for _ in range(3))
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=boot.ROOT)
    return time.perf_counter() - start, speed


def pick_cpu(cpus) -> None:
    """Pin this process to whichever allowed CPU runs the reference loop fastest now.

    Other load on the machine slows one CPU at a time, and an otherwise idle
    scheduler leaves a busy thread where it is; moving before each pass
    keeps a run off a CPU that stays slowed for minutes.
    """
    def loop_time(cpu):
        os.sched_setaffinity(0, {cpu})
        return min(reference_loop() for _ in range(3))

    os.sched_setaffinity(0, {min(sorted(cpus), key=loop_time)})


def run_passes(workload, runner, tracer, seconds: float, probe):
    """Run whole passes; with a tracer, alternate untraced and traced ones.

    Returns the traced flag and wall time of each pass, and the set-up
    probes, which are spread over the run between passes so that they meet
    the same machine conditions as the passes.
    """
    target = max(2 if tracer else 1, round(seconds / workload.nominal_pass_s))
    flags, walls, setup = [], [], []
    cpus = os.sched_getaffinity(0)
    start = time.perf_counter()
    while True:
        while len(setup) < SETUP_PROBES and \
                time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        pick_cpu(cpus)
        runner.begin_pass()
        trace_this = tracer is not None and flags.count(False) > flags.count(True)
        if trace_this:
            tracer.begin_pass()
            tracer.install()
            runner.tracer = tracer
        t0 = time.perf_counter()
        try:
            workload.run_pass(runner)
        finally:
            if trace_this:
                tracer.uninstall()
                runner.tracer = None
        walls.append(time.perf_counter() - t0)
        flags.append(trace_this)
        if tracer is not None and not any(flags):
            continue
        projected = time.perf_counter() - start + statistics.median(walls)
        if len(flags) >= target or projected > OVERRUN * seconds:
            setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
            os.sched_setaffinity(0, cpus)
            return flags, walls, setup


def main() -> int:
    args = parse_args()
    try:
        lib = boot.load_library()
    except boot.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](lib, args.seed)
    workload.warmup(Runner(lib.ComputationError))

    runner = Runner(lib.ComputationError)
    tracer = Tracer(lib) if args.trace else None
    flags, walls, setup = run_passes(workload, runner, tracer, args.seconds,
                                     lambda: probe_setup(args.workload, args.seed))
    checks = self_test(runner.samples, workload.kinds, lib.ComputationError)

    records = runner.records
    failed = [r for r in records if r.error is not None]
    n = len(records)
    # All timings are scaled to the reference speed by each op's speed
    # factor (runner.py), then summarised with medians over the passes.
    scaled = [sum((r.seconds + r.check_seconds) * r.speed for r in p) for p in runner.passes]
    plain = [s for s, f in zip(scaled, flags) if not f]
    by_slot = {}
    for p, f in zip(runner.passes, flags):
        for r in p if not f else ():
            by_slot.setdefault(r.slot, []).append(r.seconds * r.speed)
    latencies = sorted(1e3 * statistics.median(v) for v in by_slot.values())
    tail_index = max(len(latencies) - TAIL_BEYOND - 1, 0)
    correct = all(checks.values()) and not any(r.domain or r.unexpected for r in failed)

    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": latencies[tail_index], "unit": "ms"},
            "setup_s": {"value": statistics.median(t * v for t, v in setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        overhead = statistics.median(s for s, f in zip(scaled, flags) if f) - statistics.median(plain)
        metrics = tracer.layer_metrics(flags.count(True), overhead, runner.quality)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "pass_traced": flags, "pass_wall_s": walls, "pass_scaled_s": scaled,
        "pass_median_speed": [statistics.median(r.speed for r in p) for p in runner.passes],
        "ops": n, "distinct_ops": len(latencies),
        "op_tail_percentile": 100.0 * tail_index / (len(latencies) - 1),
        "op_tail_samples_beyond": len(latencies) - tail_index - 1,
        "fail_frac": len(failed) / n,
        "failed_in_domain": sum(r.domain for r in failed),
        "failed_unexpected": sum(r.unexpected for r in failed),
        "failures": sorted({f"{r.kind} {r.label}: {r.error}" for r in failed}),
        "selftest_corrupted_answer_fails": checks,
        "setup_probe_wall_s_speed": setup, "inputs": workload.summary(),
    }
    if tracer is not None:
        report["spans_file"] = str(spans_path.relative_to(boot.ROOT))
    print("report " + json.dumps(report))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if tracer is None:
        print(f"metric fail_frac {report['fail_frac']!r} 1")
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
