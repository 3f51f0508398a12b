"""The four workloads: seeded inputs, their fixed op lists and output gates.

Each workload is a list of ``causal-fields`` invocations (ops) run in
order; one pass over the list is a *round*.  The seed chooses the numeric
content of the inputs (scattering matrices, window offsets, mass and mesh,
wave packets) but not their sizes, and the check ops use fixed sampling
seeds, so every seed asks for the same amount of work.

Why these workloads:

- ``lawcheck_quantum``: the law-check use on a Haar-random qubit-cell
  scattering.  Basis-sweep equality (``deviation`` and ``compile_kernel``)
  dominates and ``apply`` is never called.
- ``structure_checks``: order closure, queries, slice enumeration and the
  slice-category validators, plus the classical-backend suites on a
  permutation scattering and a small density run.  Little linear algebra:
  a change aimed at the quantum deviation path must show no change here.
- ``evolve_density``: ``run --mode density`` at the dim-4096 cap, the
  state-evaluation use of ``process.apply``.  Not listed in
  BENCHMARK.json: its run-to-run spread is too wide (see README.md).
- ``evolve_stream``: a long single-particle run with JSON and CSV output,
  where output and memory dominate.  Kept apart from ``evolve_density`` so
  that workload's 1 GB peak does not mask this one's.  Not listed in
  BENCHMARK.json: its run-to-run spread is too wide (see README.md).

Negative controls are ops on deliberately invalid input that must exit 1.
Each carries the same op on valid input (``sane_argv``); the self-test
swaps it in to show that a control which stops tripping counts as failed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from causal_fields import process as P
from causal_fields.cca import dirac_scattering, expand_sites

WORKLOADS = ("lawcheck_quantum", "structure_checks", "evolve_density", "evolve_stream")

CHECK_SUITES = ("functoriality", "monoidality", "nosignalling", "reversal", "invariance", "symmetry")


@dataclass
class Op:
    name: str
    argv: list
    expect: int = 0
    # Returns a failure reason, or None when the op's outputs are correct.
    gate: Callable[[], str | None] | None = None
    # The report file of a ``check`` op; its ``samples`` feed samples_per_s.
    report: str | None = None
    site_steps: int = 0
    outputs: list = field(default_factory=list)
    sane_argv: list | None = None


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    # "samples" (check workloads) or "site_steps" (evolve workloads)
    rate: str


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _write_json(path: str, blob) -> str:
    with open(path, "w") as fh:
        json.dump(blob, fh)
    return path


def _haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _cca(path: str, u: np.ndarray, backend: str, u_inv: np.ndarray | None = None) -> str:
    blob = {"d": 1, "cell_dim": 2, "U": P.matrix_to_json(u), "backend": backend}
    if u_inv is not None:
        blob["U_inv"] = P.matrix_to_json(u_inv)
    return _write_json(path, blob)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _report_gate(path: str):
    def gate():
        rep = _load(path)
        if rep["violations"]:
            return f"{len(rep['violations'])} violation(s), worst {rep['violations'][0]}"
        if rep["samples"] < 1:
            return "report took no samples"
        return None

    return gate


def _check_op(work: str, name: str, cca: str, suite: str, samples: int, seed: int, **kw) -> Op:
    out = os.path.join(work, f"{name}.json")
    argv = ["check", suite, "--cca", cca, "--samples", str(samples), "--seed", str(seed), "--out", out]
    gate = _report_gate(out) if kw.get("expect", 0) == 0 else None
    return Op(name, argv, gate=gate, report=out, outputs=[out], **kw)


def lawcheck_quantum(work: str, rng, tiny: bool) -> Workload:
    u = _haar_unitary(rng, 4)
    cca = _cca(os.path.join(work, "haar.json"), u, "quantum")
    wrong = _cca(os.path.join(work, "haar_wrong_inv.json"), u, "quantum", _haar_unitary(rng, 4))
    right = _cca(os.path.join(work, "haar_right_inv.json"), u, "quantum", u.conj().T)
    samples = dict.fromkeys(CHECK_SUITES, 2) if tiny else {
        "functoriality": 12, "monoidality": 16, "nosignalling": 8,
        "reversal": 8, "invariance": 6, "symmetry": 6,
    }
    ops = [_check_op(work, f"check_{s}", cca, s, samples[s], 7) for s in CHECK_SUITES]
    ctl = _check_op(work, "control_wrong_inverse", wrong, "reversal", 2, 7, expect=1)
    ctl.sane_argv = [right if a == wrong else a for a in ctl.argv]
    ops.append(ctl)
    warm = [_check_op(work, "warmup", cca, "symmetry", 1, 1)]
    return Workload("lawcheck_quantum", ops, warm, "samples")


def _window(work: str, name: str, t1: int, lo: int, hi: int) -> tuple[str, list]:
    out = os.path.join(work, f"{name}.json")
    return out, ["gen", "diamond", "--d", "1", "--t", f"0..{t1}", "--x", f"{lo}..{hi}", "--out", out]


def structure_checks(work: str, rng, tiny: bool) -> Workload:
    # Even x offsets keep lattice parity, so every seed gets an isomorphic
    # window and the same work.
    off = 2 * int(rng.integers(-20, 21))
    big_t, big_x = (8, 8) if tiny else (28, 30)
    big, gen_big = _window(work, "window", big_t, off - big_x, off + big_x)
    # check category is cubic in the slice count: this window has 52 slices
    small, gen_small = _window(work, "category_window", 2 if tiny else 3, off - 3, off + 2)
    fol_t = 3 if tiny else 6
    fol, gen_fol = _window(work, "foliation_window", fol_t, off - fol_t, off + fol_t)
    leaves = [[f"{t},{x}" for x in range(off - fol_t, off + fol_t + 1) if (x - t) % 2 == 0]
              for t in range(fol_t + 1)]

    def foliation(leaf_set, out):
        return ["check", "foliation", "--order", fol, "--leaves", json.dumps(leaf_set), "--out", out]

    half = int(rng.integers(2, 5))
    a_sites = [off + 2 * k for k in range(-half, half + 1)]
    dplus_out = os.path.join(work, "dplus.json")

    def dplus_gate():
        # closed-form cone law: (k, x) is in D+(A) iff its k-step past is in A
        got = set(_load(dplus_out)["dplus"])
        want = set()
        for t in range(big_t + 1):
            for x in range(off - big_x, off + big_x + 1):
                if (x - t) % 2 == 0 and expand_sites(frozenset({(x,)}), t, 1) <= {(s,) for s in a_sites}:
                    want.add(f"{t},{x}")
        return None if got == want else f"dplus differs from the cone law on {len(got ^ want)} event(s)"

    span = 6 if tiny else 12
    paths_out = os.path.join(work, "paths.json")

    def paths_gate():
        n = len(_load(paths_out)["paths"])
        return None if n == math.comb(span, span // 2) else f"{n} paths, want C({span},{span // 2})"

    perm = np.eye(4)[rng.permutation(4)]
    classical = _cca(os.path.join(work, "perm.json"), perm, "classical")
    lossy_m = rng.random((4, 4)) + 0.1
    lossy = _cca(os.path.join(work, "lossy.json"), lossy_m / lossy_m.sum(axis=0), "classical")
    samples = 2 if tiny else 10

    future_out = os.path.join(work, "future.json")
    ops = [
        Op("gen_window", gen_big, outputs=[big]),
        Op("query_future", ["query", "future", "--order", big, "--events", f"0,{off}", "--out", future_out],
           outputs=[future_out]),
        Op("query_dplus", ["query", "dplus", "--order", big, "--events",
                           ";".join(f"0,{x}" for x in a_sites), "--out", dplus_out],
           gate=dplus_gate, outputs=[dplus_out]),
        Op("query_paths", ["query", "paths", "--order", big, "--from", f"2,{off}",
                           "--to", f"{2 + span},{off}", "--out", paths_out],
           gate=paths_gate, outputs=[paths_out]),
        Op("gen_category_window", gen_small, outputs=[small]),
        Op("check_category", ["check", "category", "--order", small, "--out", small + ".report"],
           gate=_report_gate(small + ".report"), report=small + ".report", outputs=[small + ".report"]),
        Op("gen_foliation_window", gen_fol, outputs=[fol]),
        Op("check_foliation", foliation(leaves, fol + ".report"),
           gate=_report_gate(fol + ".report"), report=fol + ".report", outputs=[fol + ".report"]),
        Op("control_foliation_not_covering", foliation(leaves[:-1], fol + ".control"), expect=1,
           report=fol + ".control", outputs=[fol + ".control"],
           sane_argv=foliation(leaves, fol + ".control")),
    ]
    # symmetry and invariance are left to lawcheck_quantum: on this backend
    # they would add only sampler time, which is not this workload's subject
    ops += [_check_op(work, f"classical_{s}", classical, s, samples, 7) for s in CHECK_SUITES[:4]]
    ctl = _check_op(work, "control_lossy_reversal", lossy, "reversal", 2, 7, expect=1)
    ctl.sane_argv = [classical if a == lossy else a for a in ctl.argv]
    ops.append(ctl)
    warm_win, gen_warm = _window(work, "warmup_window", 2, off - 2, off + 2)
    warm_out = os.path.join(work, "warmup.json")
    warm = [Op("warmup_gen", gen_warm),
            Op("warmup", ["query", "future", "--order", warm_win, "--events", f"0,{off}", "--out", warm_out])]
    # A small density run (dim 256) keeps process.apply and the marginals
    # measured and gated on a BENCHMARK.json workload; evolve_density, the
    # dim-4096 case, is too noisy on the reference machine to be listed.
    density, density_warm = _density_ops(work, rng, 4, 2)
    return Workload("structure_checks", ops + density, warm + density_warm, "samples")


def _dirac(work: str, rng) -> str:
    m, eps = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    return _cca(os.path.join(work, "dirac.json"), dirac_scattering(m, eps), "quantum")


def _run_gate(path: str, tol: float, extra=None):
    def gate():
        blob = _load(path)
        if not blob["trace_drift"] <= tol:
            return f"trace_drift {blob['trace_drift']} above {tol}"
        return extra(blob) if extra else None

    return gate


def _density_ops(work: str, rng, sites: int, steps: int) -> tuple[list, list]:
    """A density-mode run gated against a single-particle run; (ops, warm-up)."""
    cca = _dirac(work, rng)
    dens = os.path.join(work, "density.json")
    ref = os.path.join(work, "reference.json")
    # run --mode density starts from one excitation in the first factor of
    # site 0, which is component 0 at site 0 in the single-particle picture.
    comps = [[[0.0, 0.0]] * sites for _ in range(2)]
    comps[0] = [[1.0, 0.0]] + [[0.0, 0.0]] * (sites - 1)
    init = _write_json(os.path.join(work, "initial.json"), {"components": comps})

    def same_marginals(blob):
        want = _load(ref)["per_step"]
        if len(want) != len(blob["per_step"]):
            return "step counts differ from the single-particle run"
        worst = max(abs(a - b) for r, s in zip(blob["per_step"], want)
                    for a, b in zip(r["marginals"], s["marginals"]))
        return None if worst <= 1e-10 else f"marginals differ from the single-particle run by {worst}"

    common = ["--cca", cca, "--sites", str(sites), "--steps", str(steps)]
    ops = [
        Op("run_reference", ["run", *common, "--initial", init, "--out", ref], outputs=[ref]),
        Op("run_density", ["run", *common, "--mode", "density", "--out", dens],
           gate=_run_gate(dens, 1e-10, same_marginals), site_steps=sites * steps, outputs=[dens]),
    ]
    warm_out = os.path.join(work, "density_warmup.json")
    warm = [Op("warmup", ["run", "--cca", cca, "--sites", "2", "--steps", "1", "--mode", "density",
                          "--out", warm_out])]
    return ops, warm


def evolve_density(work: str, rng, tiny: bool) -> Workload:
    ops, warm = _density_ops(work, rng, *((4, 2) if tiny else (6, 1)))
    return Workload("evolve_density", ops, warm, "site_steps")


def evolve_stream(work: str, rng, tiny: bool) -> Workload:
    sites, steps = (64, 10) if tiny else (1024, 200)
    cca = _dirac(work, rng)
    # a normalised Gaussian wave packet with seeded centre, width, momentum
    # and spin
    x = np.arange(sites)
    centre, width = rng.uniform(0.25, 0.75) * sites, rng.uniform(0.01, 0.04) * sites
    packet = np.exp(-((x - centre) ** 2) / (2 * width ** 2) + 1j * rng.uniform(-1.5, 1.5) * x)
    spin = _haar_unitary(rng, 2)[:, 0]
    psi = np.outer(spin, packet)
    psi /= np.linalg.norm(psi)
    init = _write_json(os.path.join(work, "packet.json"),
                       {"components": [[[float(a.real), float(a.imag)] for a in row] for row in psi]})
    out = os.path.join(work, "stream.json")
    csv = os.path.join(work, "stream.csv")

    def rows_sum_to_one(blob):
        worst = max(abs(sum(r["marginals"]) - 1.0) for r in blob["per_step"])
        if not worst <= 1e-12:
            return f"a marginal row sums to 1 +- {worst}"
        with open(csv) as fh:
            lines = sum(1 for _ in fh)
        return None if lines == 1 + sites * (steps + 1) else f"{lines} CSV lines"

    ops = [Op("run_stream", ["run", "--cca", cca, "--sites", str(sites), "--steps", str(steps),
                             "--initial", init, "--out", out, "--csv", csv],
              gate=_run_gate(out, 1e-12, rows_sum_to_one), site_steps=sites * steps, outputs=[out, csv])]
    warm_out = os.path.join(work, "warmup.json")
    warm = [Op("warmup", ["run", "--cca", cca, "--sites", "16", "--steps", "2", "--out", warm_out])]
    return Workload("evolve_stream", ops, warm, "site_steps")


def make(name: str, work: str, seed: int, tiny: bool = False) -> Workload:
    """Write the workload's inputs for ``seed`` under ``work`` and return it."""
    makers = {
        "lawcheck_quantum": lawcheck_quantum,
        "structure_checks": structure_checks,
        "evolve_density": evolve_density,
        "evolve_stream": evolve_stream,
    }
    return makers[name](work, np.random.default_rng(seed), tiny)
