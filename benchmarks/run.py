"""Benchmark of the ``wm`` command-line toolkit, run from the repository root:

    python3 benchmarks/run.py --workload mark_4k --seed 1 --seconds 25 --trace 0

One closed-loop client in this one process, no extra threads: ops are
``spadmark.cli.main(argv)`` calls made back to back, stdout discarded. The
timed loop runs ops until their summed wall time reaches ``--seconds``.
Outside the timed region, each op's output files are deleted before it runs,
and its exit codes and outputs are checked after it. Throughput is
successful ops over the summed op time of the whole run, and latency
percentiles are nearest-rank over all of the run's ops.

Set-up (input generation plus one warm-up op) runs once before the loop and
is then repeated, in a directory of its own, between ops spread evenly over
the loop, at least ``SETUP_MIN_REPS`` times in all and about
``SETUP_BUDGET_S`` of set-up time. ``setup_s`` is the median. Spreading the
repeats samples the machine over the whole run, as the ops are, instead of
over the few seconds before it. With ``--trace 1`` set-up runs once, and the
loop instead runs each op twice, untraced and traced in alternating order,
and reports per-layer metrics.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``. The line before it is a detail record with the environment
stamp, sample counts, and two metrics reported but not gated by
``BENCHMARK.json``: ``latency_p50_ms`` and ``error_frac`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One client, one thread: keep BLAS from starting a thread pool on import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-ups per run: at least SETUP_MIN_REPS, and enough to spend about
# SETUP_BUDGET_S, so a short set-up is sampled often enough to be steady.
SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 2.0
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", default=None,
                   help="scratch directory (default: .bench_work/<workload> in the root)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up; for the benchmark's own tests")
    return p.parse_args(argv)


def execute(op, tracer=None, op_id: int = 0) -> tuple[float, str | None]:
    """Run one op; return its wall time and an error message if it failed.

    The op's output files are deleted first, so its check can only pass on
    files this op wrote. Every exception is caught here, including ones
    ``wm`` itself lets escape (``SystemExit`` from ``--help`` too), so one bad
    op is counted instead of ending the run.
    """
    from workloads import wm

    elapsed = 0.0
    try:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        with tracer.recording(op_id) if tracer else nullcontext():
            codes, errs = [], []
            start = perf_counter()
            try:
                for argv in op.argvs:
                    code, err = wm(argv)
                    codes.append(code)
                    errs.append(err.strip())
            finally:
                elapsed = perf_counter() - start
        if codes != op.expected:
            return elapsed, f"exit codes {codes}, expected {op.expected}: {' | '.join(errs)}"
        missing = [path.name for path in op.outputs if not path.is_file()]
        if missing:
            return elapsed, f"missing outputs: {', '.join(missing)}"
        return elapsed, op.check()
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any failure is one failed op
        return elapsed, f"{type(exc).__name__}: {exc}"


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, -(-n * q // 100))


def percentile(sorted_values: list[float], q: int) -> float:
    return sorted_values[rank(len(sorted_values), q) - 1]


def set_up(workload_cls, work: Path, seed: int, scale):
    """One set-up in a fresh ``work``: inputs, records and one warm-up op.
    Returns the workload, the set-up's wall time and the warm-up's error."""
    shutil.rmtree(work, ignore_errors=True)
    wl = workload_cls()
    start = perf_counter()
    wl.setup(work, seed, scale)
    _, error = execute(wl.op(0, "w"))
    return wl, perf_counter() - start, error


def timed_loop(wl, seconds: float, repeats: int = 0, repeat_setup=None):
    """Closed loop until the ops' summed wall time reaches ``seconds``.
    ``repeat_setup`` runs ``repeats`` times between ops, at evenly spaced
    points of the measured time. Returns every op's wall time and the error
    messages."""
    latencies, errors = [], []
    done = 0
    while sum(latencies) < seconds:
        if done < repeats and sum(latencies) >= (done + 1) / (repeats + 1) * seconds:
            repeat_setup()
            done += 1
        elapsed, error = execute(wl.op(len(latencies)))
        latencies.append(elapsed)
        if error:
            errors.append(error)
    for _ in range(done, repeats):
        repeat_setup()
    return latencies, errors


def traced_loop(wl, seconds: float, tracer):
    """Pairs of the same op, untraced and traced, in alternating order."""
    plain, traced, errors = [], [], []
    index = 0
    while sum(plain) + sum(traced) < seconds:
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            op = wl.op(index, "t" if with_trace else "")
            elapsed, error = execute(op, tracer if with_trace else None, index)
            (traced if with_trace else plain).append(elapsed)
            if error:
                errors.append(error)
        index += 1
    return plain, traced, errors


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spadmark" / "__init__.py").is_file():
        print(f"benchmark: no spadmark sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import spadmark
    if Path(spadmark.__file__).resolve().parent != SRC / "spadmark":
        print(f"benchmark: imported spadmark from {spadmark.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else FULL
    work = Path(args.work_dir) if args.work_dir else ROOT / ".bench_work" / args.workload
    setup_times, setup_errors = [], []

    def record_setup(work_dir: Path):
        wl, seconds, error = set_up(WORKLOADS[args.workload], work_dir, args.seed, scale)
        setup_times.append(seconds)
        if error:
            setup_errors.append(f"warm-up: {error}")
        return wl

    wl = record_setup(work)
    setup_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": "smoke" if args.smoke else "full",
              **environment(), "setup_runs_s": setup_times,
              "setup_peak_rss_mb": setup_peak_mb}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        plain, traced, errors = traced_loop(wl, args.seconds, tracer)
        tracer.write(work / "spans.jsonl")
        attempted = len(plain) + len(traced)
        metrics = tracer.metrics(overhead_frac=sum(traced) / sum(plain) - 1.0)
        spans_file = work.resolve() / "spans.jsonl"
        detail.update(samples_untraced=len(plain), samples_traced=len(traced),
                      spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(ROOT)
                                     if spans_file.is_relative_to(ROOT) else spans_file))
    else:
        repeats = 0 if scale.one_setup else max(
            SETUP_MIN_REPS, math.ceil(SETUP_BUDGET_S / setup_times[0])) - 1
        repeat_dir = work.with_name(work.name + "-setup")
        latencies, errors = timed_loop(wl, args.seconds, repeats,
                                       lambda: record_setup(repeat_dir))
        shutil.rmtree(repeat_dir, ignore_errors=True)
        attempted = len(latencies)
        ranked = sorted(latencies)
        values = {"ops_per_s": (attempted - len(errors)) / sum(latencies),
                  "latency_p90_ms": percentile(ranked, 90) * 1e3,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        detail.update(samples=attempted, samples_beyond_p90=attempted - rank(attempted, 90),
                      measured_s=sum(latencies),
                      latency_p50_ms={"value": percentile(ranked, 50) * 1e3, "unit": "ms"})
    failed = len(errors)
    detail.update(error_frac={"value": failed / attempted, "unit": "fraction"},
                  first_errors=(setup_errors + errors)[:5])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not setup_errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
