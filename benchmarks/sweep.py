"""Run the benchmark over several seeds and summarise it, from the repo root:

    python3 benchmarks/sweep.py --seeds 1-10 --out benchmarks/trajectory/x.json
    python3 benchmarks/sweep.py --seeds 1-10 --held-out 101-105

Runs ``BENCHMARK.json``'s command once per (seed, workload), for every
workload it lists, one process at a time, seeds in the outer loop so slow
drift of the machine spreads over all workloads. For every workload and end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, against the metric's bound.

``--held-out`` repeats the runs with a second seed set that was not used
while tuning and checks that each of its medians is no worse than the first
set's by more than the bound. ``--trace`` adds one traced run per workload
on the first seed and stores its per-layer metrics. Exits 1 if a run fails
its checks, a spread exceeds its bound, or a held-out median drifts past its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("nproc", "cpu_model", "python", "numpy", "seconds")
# Metrics of run.py's detail line that BENCHMARK.json does not gate.
REPORTED = ("latency_p50_ms", "error_frac")


def seed_range(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep(bench: dict, workloads: list[str], seeds: list[int]) -> tuple[dict, bool]:
    per_run = {w: [] for w in workloads}
    correct = True
    for seed in seeds:
        for w in workloads:
            detail, result = run_once(bench, w, seed, 0)
            correct &= bool(result["correct"])
            per_run[w].append((detail, result))
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {summary}",
                  flush=True)
    stats = {}
    for w, runs in per_run.items():
        reported = {name: summarise([d[name]["value"] for d, _ in runs]) for name in REPORTED}
        stats[w] = {"environment": {k: runs[0][0][k] for k in ENV_KEYS},
                    "samples_per_run": [d["samples"] for d, _ in runs],
                    "attempted": sum(r["attempted"] for _, r in runs),
                    "failed": sum(r["failed"] for _, r in runs),
                    "metrics": {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                      for _, r in runs])
                                for m in bench["end_to_end"]},
                    "reported_not_gated": reported}
    return stats, correct


def report(bench: dict, stats: dict, title: str) -> bool:
    ok = True
    print(f"\n{title}")
    print(f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w, ws in stats.items():
        for m in bench["end_to_end"]:
            s = ws["metrics"][m["name"]]
            flag = ""
            if s["spread"] > m["bound"]:
                flag, ok = "  SPREAD > BOUND", False
            elif s["spread"] > m["bound"] / 3:
                flag = "  spread > bound/3"
            print(f"{w:16} {m['name']:16} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:8.4f} {m['bound']:6.3f}{flag}")
        for name, s in ws["reported_not_gated"].items():
            print(f"{w:16} {name:16} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:8.4f}      -")
    return ok


def drift(bench: dict, first: dict, second: dict) -> tuple[dict, bool]:
    """Relative change of each median, signed so that positive is worse."""
    ok, table = True, {}
    print("\nheld-out seeds vs first seeds (positive = worse)")
    for w in first:
        table[w] = {}
        for m in bench["end_to_end"]:
            a = first[w]["metrics"][m["name"]]["median"]
            b = second[w]["metrics"][m["name"]]["median"]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            table[w][m["name"]] = change
            flag = "" if change <= m["bound"] else "  WORSE THAN BOUND"
            ok &= not flag
            print(f"{w:16} {m['name']:16} {a:12.5g} -> {b:12.5g} {change:+8.4f}{flag}")
    return table, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--held-out", default=None, help="second seed set, e.g. 101-105")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = seed_range(args.seeds)
    stats, correct = sweep(bench, workloads, seeds)
    ok = report(bench, stats, f"seeds {args.seeds}") and correct
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": stats}
    if args.held_out:
        held, held_correct = sweep(bench, workloads, seed_range(args.held_out))
        ok &= report(bench, held, f"held-out seeds {args.held_out}") and held_correct
        table, within = drift(bench, stats, held)
        ok &= within
        out["held_out"] = {"seeds": seed_range(args.held_out), "workloads": held,
                           "median_change": table}
    if args.trace:
        out["traced"] = {}
        for w in workloads:
            detail, result = run_once(bench, w, seeds[0], 1)
            ok &= bool(result["correct"])
            out["traced"][w] = {"detail": detail, "metrics": result["metrics"]}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("\nOK" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
