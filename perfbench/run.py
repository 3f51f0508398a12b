"""Benchmark of the ``causal-fields`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lawcheck_quantum --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55

One process runs one workload (peak RSS is per process).  It generates the
workload's inputs from ``--seed``, warms up, then repeats the workload's
fixed op list through ``causal_fields.cli.main`` for ``--seconds`` and
checks every op's exit code and outputs.  ``setup_s`` is the median of
seven fresh processes timed from spawn to the end of their warm-up.
Before every op a fixed pure-Python reference pass is timed; ``wall_ref``
and ``work_per_ref`` give the op list's time and rate in units of that
pass, which cancels changes in the CPU's speed on a shared host.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate, the last line
carries the per-layer metrics, and the spans are written to
``.perfbench/``.  ``--workload all`` runs every workload untraced and
traced, each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CAUSAL_FIELDS_THREADS")

# The report gives a workload's raw rate the name and unit of what it counts.
RATES = {"samples": ("samples_per_s", "samples/s"), "site_steps": ("site_steps_per_s", "site-steps/s")}


def _import_program():
    """Import the library from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "causal_fields" / "__init__.py").is_file():
        print(f"error: no causal_fields package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import causal_fields

    if SRC.resolve() not in Path(causal_fields.__file__).resolve().parents:
        print(f"error: causal_fields imported from {causal_fields.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(seed: int) -> dict:
    """The settings every result is stamped with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # the ceiling stops git from reporting a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # None means unset, i.e. the library defaults
        "env": {k: os.environ.get(k) for k in ENV_VARS},
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def run_op(op, argv=None) -> dict:
    """Run one op through the CLI entry point and gate its outputs."""
    from causal_fields import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv or op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a crash is a failed op, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    reason = None
    if rc != op.expect:
        reason = f"exit {rc}, expected {op.expect}: {err.getvalue().strip()[-300:]}"
    elif op.gate is not None:
        try:
            reason = op.gate()
        except Exception as exc:  # unreadable or malformed output
            reason = f"gate: {exc!r}"
    samples = 0
    if op.report and rc == op.expect and os.path.exists(op.report):
        with open(op.report) as fh:
            samples = json.load(fh)["samples"]
    out_bytes = len(out.getvalue().encode()) + sum(
        os.path.getsize(p) for p in op.outputs if os.path.exists(p)
    )
    return {"op": op.name, "seconds": seconds, "rc": rc, "failure": reason,
            "samples": samples, "output_bytes": out_bytes}


def reference_pass() -> float:
    """Seconds for one pass of a fixed pure-Python loop (tuples, dict, set, sort).

    Its work never changes, so its time measures only how fast the CPU ran
    the benchmark at that moment.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(20000):
        key = (i % 997, i // 997)
        counts[key] = counts.get(key, 0) + i * 3 % 11
    seen = {(a + v) % 503 * 1000 + b for (a, b), v in counts.items()}
    sum(sorted(seen))
    return time.perf_counter() - start


def run_round(workload, tracer=None, label: str = "") -> dict:
    results = []
    ref_s = 0.0
    for op in workload.ops:
        if tracer is not None:
            tracer.op = f"{label}{op.name}"
        # one reference pass before every op samples the CPU's speed as
        # often as the ops change
        ref_s += reference_pass()
        results.append(run_op(op))
    if workload.rate == "samples":
        counted = [(r, r["samples"]) for r, op in zip(results, workload.ops) if op.argv[0] == "check"]
    else:
        counted = [(r, op.site_steps) for r, op in zip(results, workload.ops) if op.site_steps]
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "ref_s": ref_s,
        # the workload's rate is work / work_s, summed over rounds
        "work": sum(n for _, n in counted),
        "work_s": sum(r["seconds"] for r, _ in counted),
        "output_bytes": sum(r["output_bytes"] for r in results),
        "ops": results,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _work_dir(tag: str) -> Path:
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup(name: str, seed: int, tiny: bool, tag: str):
    """Generate inputs and warm up; returns (workload, work dir)."""
    import workloads

    work = _work_dir(tag)
    workload = workloads.make(name, str(work), seed, tiny)
    for op in workload.warmup:
        res = run_op(op)
        if res["failure"]:
            raise RuntimeError(f"warm-up op {op.name} failed: {res['failure']}")
    return workload, work


def setup_probe(name: str, seed: int, tiny: bool) -> int:
    workload, work = setup(name, seed, tiny, f"probe-{name}")
    print("ready", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


def time_setup(name: str, seed: int, tiny: bool) -> float:
    """Median over fresh processes of spawn -> end of warm-up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            rc = proc.wait(timeout=170)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe exited {rc} before it was ready")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    setup_s = time_setup(args.workload, args.seed, args.tiny)
    workload, work = setup(args.workload, args.seed, args.tiny, f"{args.workload}-t{args.trace}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        # with tracing on, untraced and traced rounds alternate
        trace_this = tracer is not None and len(plain) > len(traced)
        t0 = time.perf_counter()
        if trace_this:
            tracer.install()
            try:
                traced.append(run_round(workload, tracer, f"r{len(traced)}."))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(workload))
        longest = max(longest, time.perf_counter() - t0)
        enough = plain and (traced or tracer is None)
        if enough and time.perf_counter() - start + longest > args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    ops = [r for rnd in rounds for r in rnd["ops"]]
    failures = [r for r in ops if r["failure"]]
    # On a shared host a CPU's speed can switch between two levels about
    # 1.5x apart, each CPU on its own, for seconds to minutes at a time, so
    # raw times of one run differ from the next by up to 30%.  The gated
    # times are therefore divided by the mean time of the reference pass
    # run before every op, which slows by about the same factor as the
    # listed workloads' ops: wall_ref is a round's time in reference
    # passes.  Totals over rounds, not medians, because a median jumps
    # between the two levels.
    wall_s = statistics.mean(r["wall_s"] for r in plain)
    rate = sum(r["work"] for r in plain) / sum(r["work_s"] for r in plain)
    ref_pass_s = sum(r["ref_s"] for r in plain) / sum(len(r["ops"]) for r in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate_name, rate_unit = RATES[workload.rate]
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_ref": {"value": wall_s / ref_pass_s, "unit": "ref"},
        "work_per_ref": {"value": rate * ref_pass_s, "unit": "1/ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    controls = {}
    for op in workload.ops:
        if op.expect != 0:
            mine = [r for r in ops if r["op"] == op.name]
            controls[op.name] = f"tripped {sum(r['failure'] is None for r in mine)}/{len(mine)}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "rounds": {"untraced": [r["wall_s"] for r in plain], "traced": [r["wall_s"] for r in traced]},
        "end_to_end": {
            **end_to_end,
            "wall_s": {"value": wall_s, "unit": "s"},
            rate_name: {"value": rate, "unit": rate_unit},
            "reference_pass_s": {"value": ref_pass_s, "unit": "s"},
            "error_rate": {"value": len(failures) / len(ops), "unit": "ratio"},
        },
        "op_median_s": {
            op.name: statistics.median(r["seconds"] for r in ops if r["op"] == op.name)
            for op in workload.ops
        },
        "negative_controls": controls,
        "failures": [{"op": r["op"], "reason": r["failure"]} for r in failures[:10]],
    }
    metrics = end_to_end
    if tracer is not None:
        out_bytes = statistics.mean(r["output_bytes"] for r in traced)
        metrics = tracer.metrics(len(traced), out_bytes)
        span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(span_file, "w") as fh:
            json.dump({"workload": args.workload, "environment": report["environment"],
                       **tracer.dump()}, fh)
        traced_wall = statistics.mean(r["wall_s"] for r in traced)
        report["tracing"] = {
            "span_file": str(span_file.relative_to(ROOT)),
            "per_layer": metrics,
            "per_round": "times and counts are per round of the op list; ratios are per call",
            "computed_from_shapes": ["process.deviation_choi_entries", "process.apply_bytes"],
            "roofline": "not reported: peak rate and bandwidth are not measured",
            "overhead_s": traced_wall - wall_s,
            "overhead_ratio": (traced_wall - wall_s) / wall_s,
        }
    print_table(args.workload, report)
    print("report " + json.dumps(report, sort_keys=True))
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def print_table(name: str, report: dict) -> None:
    rows = dict(report["end_to_end"])
    if "tracing" in report:
        rows.update(report["tracing"]["per_layer"])
        rows["trace_overhead_s"] = {"value": report["tracing"]["overhead_s"], "unit": "s"}
    for metric, m in rows.items():
        print(f"{name:18} {metric:34} {m['value']:>16.6g} {m['unit']}")
    for ctl, state in report["negative_controls"].items():
        print(f"{name:18} {ctl:34} {state}")
    for f in report["failures"]:
        print(f"{name:18} FAILED {f['op']}: {f['reason']}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.tiny)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
