"""Command-line front end.

Subcommands: ``gen`` (orders and the honeycomb quotient), ``query``
(order-theoretic queries), ``check`` (law-check suites), ``run`` (automaton
evolution), ``export`` (DOT / CSV).  Exit codes: 0 on success with no
violations, 1 when a check finds violations, 2 on usage or config errors.
All sampling is seeded, so outputs are deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import re
import sys

import numpy as np

from . import process as P
from .cca import (
    CHECK_SUITES,
    PartitionedCCAConfig,
    build_cca,
    build_reversal,
    cca_config_from_json,
    cca_config_to_json,
    check_suite,
    cone_pair_witness,
    dirac_scattering,
    effective_one_particle_block,
    foliation_category_of_lattice,
    ring_site_marginals,
    ring_step_morphism,
    run_single_particle,
    site_probabilities,
)
from .errors import BadParams, CausalFieldsError, NotInvertible, NotUnitary
from .order import (
    DiamondLattice,
    Window,
    build_explicit,
    causal_paths,
    covers_to_json,
    diamond,
    event_id,
    future,
    future_domain,
    lattice,
    materialize,
    order_from_json,
    order_to_dot,
    order_to_json,
    parse_lattice_event,
    past,
    past_domain,
    window_covers,
)
from .report import Report
from .slices import (
    all_slices_category,
    enumerate_slices,
    foliation_category,
    is_cauchy,
    maximal_slices,
    validate_foliation,
    validate_slice_category,
)


_RANGE = re.compile(r"^-?\d+(\.\.|:)-?\d+$")


def _parse_range(text: str) -> tuple[int, int]:
    sep = ".." if ".." in text else ":"
    lo, _, hi = text.partition(sep)
    try:
        return int(lo), int(hi)
    except ValueError:
        raise BadParams(f"a range is 'lo..hi' or 'lo:hi' with integer ends, not {text!r}") from None


def _rewrite_ranges(argv: list[str]) -> list[str]:
    """Join range values onto their flags so argparse does not mistake a
    leading minus sign for an option (supports the "--x -3..3" form)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--x", "--t", "--window") and i + 1 < len(argv) and _RANGE.match(
            argv[i + 1].split(",")[0]
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The JSON text of each scalar type exactly as ``json.dumps`` writes it; a
# float's text holds an "n" only for nan and ±inf, which strict JSON refuses.
_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _dumps(x, pad: str) -> str:
    """``json.dumps(x, indent=2, sort_keys=True, allow_nan=False)``, byte for
    byte, written at the indent ``pad`` ("\\n" and two spaces per level).

    Scalars, dicts with ``str`` keys and lists of one scalar type, of flat
    lists of one scalar type or of containers are joined here over the C
    scalar encoders.  Anything else (other keys, subclasses, mixed lists,
    nan/inf) is left to ``json.dumps``, which raises what it raises; its
    ASCII output has no raw newline inside a string, so re-indenting it is
    one ``replace``."""
    kind = type(x)
    text = None
    if kind in _SCALARS:
        text = _SCALARS[kind](x)
        if kind is float and "n" in text:
            text = None
    elif kind is list or kind is tuple:
        text = _dumps_list(x, pad) if x else "[]"
    elif kind is dict and not x:
        text = "{}"
    elif kind is dict and all(type(k) is str for k in x):
        inner = pad + "  "
        items = [_SCALARS[str](k) + ": " + _dumps(x[k], inner) for k in sorted(x)]
        text = "{" + inner + ("," + inner).join(items) + pad + "}"
    if text is None:
        return json.dumps(x, indent=2, sort_keys=True, allow_nan=False).replace("\n", pad)
    return text


def _dumps_list(x, pad: str) -> str | None:
    """A non-empty list for ``_dumps``, or None where it falls back."""
    inner = pad + "  "
    sep = "," + inner
    kinds = set(map(type, x))
    leaf = set(map(type, itertools.chain.from_iterable(x))) if kinds <= {list, tuple} else ()
    if len(leaf) == 1 and all(x) and (scalar := _SCALARS.get(*leaf)):
        deeper = inner + "  "
        text = sep.join(["[" + deeper + ("," + deeper).join(map(scalar, v)) + inner + "]" for v in x])
        kinds = leaf
    elif kinds <= {list, tuple, dict}:
        return "[" + inner + sep.join([_dumps(v, inner) for v in x]) + pad + "]"
    elif len(kinds) == 1 and (scalar := _SCALARS.get(*kinds)):
        text = sep.join(map(scalar, x))
    else:
        return None
    if float in kinds and "n" in text:
        return None
    return "[" + inner + text + pad + "]"


def _emit(obj, path: str | None) -> None:
    _write(_dumps(obj, "\n") + "\n", path)


def _reject_constant(token: str):
    raise BadParams(f"JSON input holds the non-finite number {token}")


def _finite_number(text: str) -> float | int:
    """A JSON number that a float can hold, an int if ``text`` is an
    integer; one that overflows to infinity is BadParams.  An integer is
    measured as a float first, so no integer too long to hold is read."""
    value = float(text)
    if not np.isfinite(value):
        _reject_constant(text)
    return value if any(c in text for c in ".eE") else int(text)


def _parse_json(text: str):
    """Strict JSON: malformed text, nesting deeper than the parser's
    recursion limit, the ``NaN``/``Infinity`` tokens and numbers (integers
    included) that overflow to infinity are rejected with BadParams."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_number,
                          parse_int=_finite_number)
    except json.JSONDecodeError as exc:
        raise BadParams(f"malformed JSON input: {exc}") from None
    except RecursionError:
        raise BadParams("malformed JSON input: nested too deeply to parse") from None


def _require(args, flag: str, op: str) -> None:
    """An op that reads the file named by ``--flag`` refuses to run without
    it (exit 2)."""
    if getattr(args, flag) is None:
        raise BadParams(f"{op} needs --{flag}")


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BadParams(f"malformed JSON input: {path} is not UTF-8 ({exc.reason})") from None
    obj = _parse_json(text)
    if not isinstance(obj, dict):
        raise BadParams(f"{path} must hold a JSON object")
    return obj


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _gen_diamond(args) -> int:
    t0, t1 = _parse_range(args.t)
    lo, hi = _parse_range(args.x)
    d = args.d
    if d < 1:
        raise BadParams(f"--d must be >= 1, not {d}")
    win = Window(t0, t1, (lo,) * d, (hi,) * d)
    _emit(covers_to_json(*window_covers(lattice(d), win)), args.out)
    return 0


def _gen_honeycomb(args) -> int:
    t0, t1 = _parse_range(args.t)
    lo, hi = _parse_range(args.x)
    win = Window(t0, t1, (lo,), (hi,))
    dia = materialize(lattice(1), win)
    events, edges, mapping = [], [], []
    for t, xs in dia.events:
        for layer in ("a", "b"):
            events.append(f"{t},{xs[0]},{layer}")
            mapping.append([f"{t},{xs[0]},{layer}", event_id((t, xs))])
        edges.append((f"{t},{xs[0]},a", f"{t},{xs[0]},b"))
    for (t, xs), (s, ys) in dia.hasse_edges():
        edges.append((f"{t},{xs[0]},b", f"{s},{ys[0]},a"))
    hone = build_explicit(events, edges)
    _emit(order_to_json(hone), args.out)
    blob = {
        "dom": order_to_json(hone),
        "cod": order_to_json(dia),
        "map": sorted(mapping),
    }
    _emit(blob, args.morphism_out)
    return 0


def _gen_file(args) -> int:
    omega = order_from_json(_load_json(args.infile))
    if isinstance(omega, DiamondLattice):
        _emit({"lattice": {"d": omega.d}}, args.out)
    else:
        _emit(order_to_json(omega), args.out)
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _load_order(args):
    omega = order_from_json(_load_json(args.order))
    if isinstance(omega, DiamondLattice) and getattr(args, "window", None):
        t_rng, comma, x_rng = args.window.partition(",")
        if not comma:
            raise BadParams(f"--window is 't0..t1,lo..hi', not {args.window!r}")
        t0, t1 = _parse_range(t_rng)
        lo, hi = _parse_range(x_rng)
        return omega, Window(t0, t1, (lo,) * omega.d, (hi,) * omega.d)
    return omega, None


def _parse_events(omega, text: str) -> frozenset:
    ids = [e for e in text.split(";") if e]
    if isinstance(omega, DiamondLattice):
        return frozenset(parse_lattice_event(e) for e in ids)
    return frozenset(ids)


def _event_list(events) -> list:
    return sorted(event_id(e) for e in events)


def _cmd_query(args) -> int:
    omega, win = _load_order(args)

    def one_event(text):
        events = _parse_events(omega, text)
        if len(events) != 1:
            raise BadParams(f"--from and --to each name one event, not {text!r}")
        return next(iter(events))

    what = args.what
    if what in ("future", "past", "dplus", "dminus", "cauchy"):
        a = _parse_events(omega, args.events)
        if what == "future":
            out = _event_list(future(omega, a, win))
        elif what == "past":
            out = _event_list(past(omega, a, win))
        elif what == "dplus":
            out = _event_list(future_domain(omega, a))
        elif what == "dminus":
            out = _event_list(past_domain(omega, a))
        else:
            out = bool(is_cauchy(omega, a, win))
        _emit({what: out}, args.out)
        return 0
    if what in ("diamond", "paths") and not (args.src and args.dst):
        raise BadParams(f"query {what} needs --from and --to")
    if what == "diamond":
        box = diamond(omega, one_event(args.src), one_event(args.dst))
        _emit({"diamond": _event_list(box)}, args.out)
        return 0
    if what == "paths":
        src, dst = one_event(args.src), one_event(args.dst)
        ids = {e: event_id(e) for e in diamond(omega, src, dst)}
        paths = [list(map(ids.__getitem__, p)) for p in causal_paths(omega, src, dst)]
        _emit({"paths": sorted(paths)}, args.out)
        return 0
    if what == "slices":
        it = maximal_slices(omega, win) if args.maximal else enumerate_slices(omega, win)
        _emit({"slices": sorted(_event_list(s) for s in it)}, args.out)
        return 0
    raise BadParams(f"unknown query {what!r}")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _load_cca(args) -> PartitionedCCAConfig:
    blob = _load_json(args.cca)
    if getattr(args, "m", None) is not None or getattr(args, "eps", None) is not None:
        m = args.m if args.m is not None else 0.0
        eps = args.eps if args.eps is not None else 1.0
        blob = dict(blob)
        blob["U"] = P.matrix_to_json(dirac_scattering(m, eps))
        blob.pop("U_inv", None)
    return cca_config_from_json(blob)


def _check_cca(args) -> Report:
    if args.samples < 1:
        raise BadParams("--samples must be at least 1")
    if args.seed < 0:
        raise BadParams("--seed must be at least 0")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise BadParams("--tol must be finite and non-negative")
    config = _load_cca(args)
    if config.d != 1:
        raise BadParams("the check suites run on d=1 configurations")
    theory = build_cca(config)
    reversal = None
    if args.target == "reversal":
        try:
            reversal = build_reversal(config)
        except (NotInvertible, NotUnitary) as exc:
            report = Report("reversal")
            report.compare({"reason": f"no reversal: {exc}"}, float("inf"), args.tol)
            return report
    return check_suite(args.target, theory, reversal, np.random.default_rng(args.seed), args.samples, args.tol)


def _parse_leaves(text: str | None) -> list[frozenset]:
    """The ``--leaves`` JSON: a list of leaves, each a list of event ids."""
    leaves = _parse_json(text) if text else None
    if not (isinstance(leaves, list) and all(
        isinstance(leaf, list) and not any(isinstance(e, (list, dict)) for e in leaf)
        for leaf in leaves
    )):
        raise BadParams('--leaves is a JSON list of leaves, each a list of event ids')
    return [frozenset(leaf) for leaf in leaves]


def _cmd_check(args) -> int:
    _require(args, "order" if args.target in ("foliation", "category") else "cca", f"check {args.target}")
    if args.target in ("foliation", "category"):
        omega = order_from_json(_load_json(args.order))
        if args.target == "foliation":
            if isinstance(omega, DiamondLattice):
                raise BadParams("check foliation needs a finite order: materialise a lattice "
                                "window with gen diamond --t T0..T1 --x LO..HI")
            report = validate_foliation(omega, _parse_leaves(args.leaves))
        else:
            if isinstance(omega, DiamondLattice):
                cat = foliation_category_of_lattice(omega)
                pairs = [
                    ((0, (0,) * omega.d), (t, (x,) + (0,) * (omega.d - 1)))
                    for t in range(4)
                    for x in range(-t, t + 1, 2)
                ]
                report = validate_slice_category(
                    cat,
                    pair_witnesses=cone_pair_witness(omega.d),
                    event_pairs=pairs,
                )
            elif args.leaves:
                cat = foliation_category(omega, _parse_leaves(args.leaves))
                report = validate_slice_category(cat)
            else:
                cat = all_slices_category(omega)
                report = validate_slice_category(cat)
    else:
        report = _check_cca(args)
    _emit(report.to_json(), args.out)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _initial_single_particle(args, sites: int) -> np.ndarray:
    """The initial amplitudes of a single-particle run.  The default start
    is one excitation in component 0 at the middle site.  An ``--initial``
    must be a state: sum |psi|^2 = 1 within VALIDITY_TOL, the density
    ``--initial`` rule."""
    if args.initial:
        comps = _load_json(args.initial).get("components")
        if not (isinstance(comps, list) and len(comps) == 2 and all(
            isinstance(row, list) and len(row) == sites and all(
                isinstance(z, list) and len(z) == 2 and all(type(v) in (int, float) for v in z)
                for z in row
            )
            for row in comps
        )):
            raise BadParams(f'initial "components" must be 2x{sites} [re, im] pairs')
        psi = np.array([[complex(re, im) for re, im in row] for row in comps])
        with np.errstate(over="ignore"):  # an overflow reads inf and is refused
            norm = float(np.sum(np.abs(psi) ** 2))
        if not (abs(norm - 1.0) <= P.VALIDITY_TOL):
            raise BadParams(f'initial "components" must have sum |psi|^2 = 1 within 1e-10, not {norm!r}')
        return psi
    psi = np.zeros((2, sites), dtype=complex)
    psi[0, sites // 2] = 1.0
    return psi


def _cmd_run(args) -> int:
    config = _load_cca(args)
    sites = args.sites
    if sites < 1:
        raise BadParams("--sites must be at least 1")
    if args.steps < 0:
        raise BadParams("--steps must be at least 0")
    records = []
    if args.mode == "single-particle":
        if config.backend != P.QUANTUM or config.d != 1 or config.cell_dim != 2:
            raise BadParams("single-particle mode needs the quantum d=1 qubit-cell automaton")
        theta_coin = effective_one_particle_block(config)
        psi = _initial_single_particle(args, sites)
        states = run_single_particle(psi, theta_coin, args.steps)
        for k, st in enumerate(states):
            probs = site_probabilities(st)
            records.append(
                {
                    "t": k,
                    "slice": {"t": k, "sites": sites},
                    "norm": float(np.linalg.norm(st) ** 2),
                    "marginals": [float(p) for p in probs],
                    "components": [
                        [[float(a.real), float(a.imag)] for a in row] for row in st
                    ],
                }
            )
    else:
        # the dimension cell_dim**factors against the cap of 4,096 = 2**12,
        # read from the exponent: a cell_dim >= 2 passes it at 13 factors
        if config.cell_dim ** min(config.cell_factors * sites, 13) > 4096:
            raise BadParams("density mode is limited to small rings")
        step = ring_step_morphism(config, sites)
        obj = step.dom
        state = _initial_density(args, config, obj)
        for k in range(args.steps + 1):
            diag = state.diagonal()
            rec = {
                "t": k,
                "slice": {"t": k, "sites": sites},
                "norm": float(np.sum(diag)),
                "marginals": [float(p) for p in ring_site_marginals(config, diag, sites)],
            }
            if args.dump_states:
                rec["state"] = P.matrix_to_json(state.state().data)
                rec["factors"] = list(obj.factors)
            records.append(rec)
            if k < args.steps:
                state = state.step(step)
    out = {
        "config": cca_config_to_json(config),
        "steps": args.steps,
        "sites": sites,
        "mode": args.mode,
        "trace_drift": max(abs(rec["norm"] - records[0]["norm"]) for rec in records),
        "per_step": records,
    }
    _emit(out, args.out)
    if args.csv:
        _write_marginal_csv(out, args.csv)
    return 0


def _initial_density(args, config, obj) -> P.FactorPair:
    """The initial state of a density run.  The default start is one
    excitation in the first factor of site 0, a ket (quantum).  A dense
    ``--initial`` must pass ``process.is_state``."""
    if args.initial:
        m = P.matrix_from_json(_load_json(args.initial))
        if config.backend == P.CLASSICAL:
            if np.any(m.imag != 0):
                raise BadParams("a classical initial state has a nonzero imaginary part")
            rho = P.state(obj, m.real.reshape(-1))
            rule = "entries >= -1e-10 summing to 1"
        else:
            rho = P.state(obj, m)
            rule = "rho = rho^dag, trace 1 and a diagonal >= -1e-10"
        if not P.is_state(rho):
            raise BadParams(f"a {config.backend} initial state needs {rule}, within 1e-10")
        return P.FactorPair.from_state(rho)
    start = np.zeros(obj.dim)
    start[1 << (len(obj.factors) - 1)] = 1.0  # excitation at site 0, first factor
    if config.backend == P.CLASSICAL:
        return P.FactorPair.from_state(P.state(obj, start))
    return P.FactorPair.from_ket(obj, start)


def _write_marginal_csv(run_blob: dict, path: str | None) -> None:
    """The marginals of a run as ``time,site,probability`` rows, written to
    ``path`` or, without one, to stdout."""
    records = run_blob.get("per_step")
    if not (isinstance(records, list) and all(
        isinstance(rec, dict) and "t" in rec and isinstance(rec.get("marginals"), list)
        and all(type(p) in (int, float) for p in rec["marginals"])
        for rec in records
    )):
        raise BadParams('a run file holds "per_step": a list of records with "t" and numeric "marginals"')
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "site", "probability"])
        for rec in records:
            for site, p in enumerate(rec["marginals"]):
                writer.writerow([rec["t"], site, f"{p:.12g}"])


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _cmd_export(args) -> int:
    _require(args, "order" if args.format == "dot" else "run", f"export {args.format}")
    if args.format == "dot":
        omega = order_from_json(_load_json(args.order))
        if isinstance(omega, DiamondLattice):
            raise BadParams("export dot needs a finite order (materialise a window first)")
        _write(order_to_dot(omega), args.out)
        return 0
    if args.format == "csv":
        _write_marginal_csv(_load_json(args.run), args.out)
        return 0
    raise BadParams(f"unknown export format {args.format!r}")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-fields",
        description="causal orders, slice categories, field theories, cellular automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate causal orders")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_d = gen_sub.add_parser("diamond", help="materialise a diamond-lattice window")
    g_d.add_argument("--d", type=int, default=1)
    g_d.add_argument("--t", required=True, help="time range t0:t1")
    g_d.add_argument("--x", required=True, help="coordinate range lo:hi")
    g_d.add_argument("--out")
    g_d.set_defaults(fn=_gen_diamond)
    g_h = gen_sub.add_parser("honeycomb", help="brick-wall honeycomb window + collapse")
    g_h.add_argument("--t", required=True)
    g_h.add_argument("--x", required=True)
    g_h.add_argument("--out")
    g_h.add_argument("--morphism-out", dest="morphism_out")
    g_h.set_defaults(fn=_gen_honeycomb)
    g_f = gen_sub.add_parser("file", help="validate and re-emit an order file")
    g_f.add_argument("--in", dest="infile", required=True)
    g_f.add_argument("--out")
    g_f.set_defaults(fn=_gen_file)

    query = sub.add_parser("query", help="order-theoretic queries")
    query.add_argument("what", choices=[
        "future", "past", "dplus", "dminus", "diamond", "paths", "slices", "cauchy",
    ])
    query.add_argument("--order", required=True)
    query.add_argument("--events", default="", help="semicolon-separated event ids")
    query.add_argument("--from", dest="src")
    query.add_argument("--to", dest="dst")
    query.add_argument("--maximal", action="store_true")
    query.add_argument("--window", help="lattice window 't0:t1,lo:hi'")
    query.add_argument("--out")
    query.set_defaults(fn=_cmd_query)

    check = sub.add_parser("check", help="run a law-check suite")
    check.add_argument("target", choices=[*CHECK_SUITES, "foliation", "category"])
    check.add_argument("--cca")
    check.add_argument("--order")
    check.add_argument("--leaves")
    check.add_argument("--samples", type=int, default=50)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--tol", type=float, default=P.VALIDITY_TOL)
    check.add_argument("--m", type=float)
    check.add_argument("--eps", type=float)
    check.add_argument("--out")
    check.set_defaults(fn=_cmd_check)

    run = sub.add_parser("run", help="evolve an automaton on a ring")
    run.add_argument("--cca", required=True)
    run.add_argument("--steps", type=int, required=True)
    run.add_argument("--sites", type=int, default=64)
    run.add_argument("--mode", choices=["single-particle", "density"],
                     default="single-particle")
    run.add_argument("--initial")
    run.add_argument("--m", type=float)
    run.add_argument("--eps", type=float)
    run.add_argument("--dump-states", action="store_true", dest="dump_states")
    run.add_argument("--out")
    run.add_argument("--csv")
    run.set_defaults(fn=_cmd_run)

    export = sub.add_parser("export", help="export DOT or CSV artifacts")
    export.add_argument("format", choices=["dot", "csv"])
    export.add_argument("--order")
    export.add_argument("--run")
    export.add_argument("--out")
    export.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_rewrite_ranges(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.fn(args)
    except (CausalFieldsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
