"""Smoke tests of the benchmark itself, on tiny inputs:

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spadmark import cli  # noqa: E402
from workloads import SMOKE, WORKLOADS, VerifyDb  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(stdout: str) -> tuple[dict, dict]:
    lines = stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke", "--work-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    detail, result = _parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["error_frac"] == {"value": 0.0, "unit": "fraction"}
    if not trace:
        assert detail["latency_p50_ms"]["unit"] == "ms"
        assert detail["latency_p50_ms"]["value"] <= result["metrics"]["latency_p90_ms"]["value"]
    for key in ("nproc", "cpu_model", "python", "numpy", "seed", "seconds"):
        assert detail[key] not in (None, "")


def test_wrong_expected_verdict_is_counted_in_error_frac(monkeypatch, capsys, tmp_path):
    # Expect the authentic exit code for the tampered inputs: every tampered
    # op (every fourth) must then be counted as failed, and nothing else.
    right_op = VerifyDb.op

    def wrong_op(self, index, tag=""):
        op = right_op(self, index, tag)
        if op.expected == [cli.EXIT_TAMPERED]:
            op.expected = [cli.EXIT_OK]
        return op
    monkeypatch.setattr(VerifyDb, "op", wrong_op)
    assert run.main(["--workload", "verify_db", "--seed", "3", "--seconds", "0.3",
                     "--smoke", "--work-dir", str(tmp_path)]) == 0
    detail, result = _parse(capsys.readouterr().out)
    tampered = sum(1 for i in range(result["attempted"]) if i % 4 == 2)
    assert tampered >= 1
    assert result["correct"] is False
    assert result["failed"] == tampered
    assert detail["error_frac"]["value"] == tampered / result["attempted"]
    assert detail["first_errors"][0].startswith("exit codes [2], expected [0]")


def test_exception_in_an_op_is_a_failed_op(tmp_path):
    wl = WORKLOADS["robustness_512"]()
    wl.setup(tmp_path, 3, SMOKE)
    op = wl.op(0)

    def escaping_check():
        raise KeyError("flip_frac")
    op.check = escaping_check
    _, error = run.execute(op)
    assert error == "KeyError: 'flip_frac'"

    op.argvs = [["--help"]]   # argparse raises SystemExit(0)
    _, error = run.execute(op)
    assert error == "SystemExit: 0"


def test_setup_repeats_are_spread_over_the_timed_loop(monkeypatch):
    ops = []

    def fake_execute(op):
        ops.append(op)
        return 0.125, None
    monkeypatch.setattr(run, "execute", fake_execute)
    wl = WORKLOADS["enroll_fleet"]()
    wl.work, wl.base_seed = Path("unused"), 0
    ops_before_setup = []
    latencies, errors = run.timed_loop(wl, 1.0, 3, lambda: ops_before_setup.append(len(ops)))
    assert len(latencies) == 8 and not errors
    assert ops_before_setup == [2, 4, 6]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_outputs_of_an_earlier_op_do_not_pass_the_check(workload, monkeypatch, tmp_path):
    # Run an op for real, then again with a `wm` that exits 0 and writes
    # nothing: the files the first run left must not make the second pass.
    wl = WORKLOADS[workload]()
    wl.setup(tmp_path, 3, SMOKE)
    op = wl.op(0)
    assert run.execute(op)[1] is None
    assert all(path.is_file() for path in op.outputs)
    monkeypatch.setattr(workloads, "wm", lambda argv: (0, ""))
    _, error = run.execute(op)
    assert error is not None and error.startswith("missing outputs: ")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_fixes_the_inputs(workload, tmp_path):
    def inputs(seed: int, name: str) -> dict:
        work = tmp_path / name
        wl = WORKLOADS[workload]()
        wl.setup(work, seed, SMOKE)
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        argvs = [[a.replace(str(work), "") for a in argv]
                 for i in range(4) for argv in wl.op(i).argvs]
        return {"files": files, "argvs": argvs}

    first = inputs(5, "a")
    assert inputs(5, "b") == first
    assert inputs(6, "c") != first
