"""Tiny-size self-test of the benchmark: ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_each_negative_control_raises_the_error_rate(tmp_path):
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        wl = workloads.make(name, str(work), seed=3, tiny=True)
        assert not any(r["failure"] for r in run.run_round(wl)["ops"])
        for i, op in enumerate(wl.ops):
            if op.sane_argv is None:
                continue
            # the control's input made valid: the program exits 0 where the
            # control expects 1, so the op must count as failed
            broken = workloads.Op(op.name, op.sane_argv, op.expect, report=op.report)
            wl_broken = workloads.Workload(name, wl.ops[:i] + [broken] + wl.ops[i + 1:], [], wl.rate)
            failed = [r["op"] for r in run.run_round(wl_broken)["ops"] if r["failure"]]
            assert failed == [op.name]
