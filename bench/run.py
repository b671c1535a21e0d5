"""Benchmark of the exact engine: four workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload khintchine --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

One run is one fresh process.  It times whole passes over the workload's
operations for about ``--seconds`` seconds, checks the outputs outside the
timed region, writes a result file under bench/results/ and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(run_s, setup_s, peak_rss_mb); with ``--trace 1`` the run times untraced
passes for the first half of the window and traced passes for the second,
and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5

# bench/ is on sys.path as the script's directory
import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=RESULTS / "runs",
                    help="directory for the per-run result files")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, in fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def run_pass(ops) -> tuple[float, list[float], list, list[str]]:
    """Time one pass and each of its operations; an operation that raises
    is counted as failed."""
    results, failed, op_times = [], [], []
    clock = time.perf_counter
    t0 = clock()
    for op in ops:
        t = clock()
        try:
            results.append(op.run())
        except Exception:
            results.append(None)
            failed.append(f"{op.name}: {traceback.format_exc()}")
        op_times.append(clock() - t)
    return clock() - t0, op_times, results, failed


def timed_passes(ops, seconds: float, tracer_factory=None) -> list[dict]:
    """Whole passes while the next one is expected to end within the window
    (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        if tracer:
            tracer.install()
        try:
            dt, op_times, results, failed = run_pass(ops)
        finally:
            if tracer:
                tracer.remove()
        passes.append({"seconds": dt, "op_s": op_times, "results": results,
                       "failed": failed, "tracer": tracer})
        if time.perf_counter() - start + dt > seconds:
            return passes


def run_s(pass_times: list[float]) -> float:
    """The slowest pass of the run.  On a shared host, throughput swings by
    up to 1.8x in phases of seconds to minutes; the slow (contended) state
    is the common one, so the slowest pass varies least from run to run
    (see bench/README.md, "Steadiness")."""
    return max(pass_times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_one(args) -> int:
    ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "operations": len(ops)}
    if args.trace:
        passes = timed_passes(ops, args.seconds / 2)
        traced = timed_passes(ops, args.seconds / 2, layertrace.Tracer)
    else:
        record["setup_samples_s"] = measure_setup(args.workload, args.seed)
        passes = timed_passes(ops, args.seconds)
        rss = peak_rss_mb()
        traced = []
    everything = passes + traced
    failed = [f for p in everything for f in p["failed"]]
    attempted = len(ops) * len(everything)

    # checks, outside the timed region: the first pass in full, the others
    # must reproduce its results exactly
    first = everything[0]["results"]
    errors, stats = checks.check_pass(ops, first)
    for i, p in enumerate(everything[1:], start=2):
        if p["results"] != first:
            errors.append(f"pass {i} results differ from pass 1")
    record.update(stats)

    run_times = [p["seconds"] for p in passes]
    record["pass_s"] = run_times
    record["op_s"] = [p["op_s"] for p in passes]
    if args.trace:
        metrics, trace_errors = layer_metrics(traced, run_s(run_times))
        errors.extend(trace_errors)
        record["traced_pass_s"] = [p["seconds"] for p in traced]
        t = traced[0]["tracer"]
        record["spans"] = t.spans()
        record["sweeps"] = t.sweep_table()
        units = layertrace.PER_LAYER_UNITS
    else:
        metrics = {"run_s": run_s(run_times),
                   "setup_s": statistics.median(record["setup_samples_s"]),
                   "peak_rss_mb": rss}
        units = END_TO_END_UNITS
    record.update(attempted=attempted, failed=len(failed), failed_ops=failed,
                  errors=errors, metrics=metrics)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for msg in failed + errors:
        print(msg, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(traced: list[dict], untraced_run_s: float) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (every traced pass must repeat
    them), times as medians over the traced passes."""
    errors = []
    per_pass = [p["tracer"].metrics() for p in traced]
    for p in traced:
        errors.extend(p["tracer"].cell_identity_errors())
    out = {}
    for name in layertrace.PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_pass]
        if name in layertrace.COUNT_METRICS:
            if len(set(values)) > 1:
                errors.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = run_s([p["seconds"] for p in traced]) - untraced_run_s
    return out, errors


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    status = 0
    print(f"{'workload':<12} {'metric':<34} {'value':>14} unit")
    for name in workloads.NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<12} run failed (exit {proc.returncode})")
            status = 1
            continue
        res = json.loads(lines[-1])
        for metric, mv in res["metrics"].items():
            print(f"{name:<12} {metric:<34} {mv['value']:>14.6g} {mv['unit']}")
        print(f"{name:<12} {'attempted / failed':<34} "
              f"{res['attempted']:>8} / {res['failed']:<4} correct={res['correct']}")
        if res["failed"] or not res["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (FileNotFoundError, ImportError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
