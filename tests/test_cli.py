import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_fields import cca, cli, order, process as P
from causal_fields.cca import (
    PartitionedCCAConfig,
    cca_config_to_json,
    dirac_config,
    ring_site_marginals,
    ring_step_morphism,
)
from causal_fields.cli import main
from causal_fields.field_theory import FieldTheory
from causal_fields.order import Window, event_id, lattice, order_from_json, parse_lattice_event, reverse, window_events

from helpers import (
    BOX_WINDOWS,
    all_subsets,
    causal_paths_oracle,
    future_domain_oracle,
    maximal_chains,
    not_states,
    order_json_oracle,
    random_unitary,
    reachable_oracle,
    translation_class_oracle,
    window_order_oracle,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def dirac_file(tmp_path):
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(cca_config_to_json(dirac_config(0.4, 0.1))))
    return str(path)


@pytest.fixture()
def fork_file(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(json.dumps({"events": ["a", "b", "c"], "hasse": [["a", "c"], ["b", "c"]]}))
    return str(path)


# -- gen ------------------------------------------------------------------------

def test_gen_diamond_roundtrip(tmp_path):
    out = tmp_path / "order.json"
    assert main(["gen", "diamond", "--d", "1", "--t", "0:3", "--x", "-3:3", "--out", str(out)]) == 0
    blob = read(out)
    assert "0,0" in blob["events"]
    again = tmp_path / "again.json"
    assert main(["gen", "file", "--in", str(out), "--out", str(again)]) == 0
    assert read(again) == blob


@pytest.mark.parametrize("d", [1, 2, 40])
def test_gen_file_re_emits_a_lattice_file(tmp_path, d, capsys):
    # a lattice builds its 2^d neighbours per step, not when it is read
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps({"lattice": {"d": d}}))
    assert main(["gen", "file", "--in", str(lat)]) == 0
    assert capsys.readouterr().out == json.dumps({"lattice": {"d": d}}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t0, t1, lo, hi", BOX_WINDOWS)
def test_gen_diamond_bytes_match_the_closure_route(tmp_path, d, t0, t1, lo, hi):
    out = tmp_path / "order.json"
    assert main(["gen", "diamond", "--d", str(d), "--t", f"{t0}..{t1}", "--x", f"{lo}..{hi}",
                 "--out", str(out)]) == 0
    want = order_json_oracle(window_order_oracle(lattice(d), Window(t0, t1, (lo,) * d, (hi,) * d)))
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_gen_diamond_builds_no_closure(tmp_path, monkeypatch):
    # the window is written from its covers: no ExplicitOrder, so no
    # reachability closure or reduction, is built on the way
    def refuse(*args, **kwargs):
        raise AssertionError("gen diamond built an ExplicitOrder")

    monkeypatch.setattr(order.ExplicitOrder, "__init__", refuse)
    out = tmp_path / "order.json"
    assert main(["gen", "diamond", "--d", "2", "--t", "0..4", "--x", "-3..3", "--out", str(out)]) == 0
    assert len(read(out)["events"]) > 0
    with pytest.raises(AssertionError, match="ExplicitOrder"):
        order.materialize(lattice(1), Window(0, 1, (0,), (1,)))


def test_gen_honeycomb_quotient(tmp_path):
    out = tmp_path / "honey.json"
    mor = tmp_path / "collapse.json"
    assert main(["gen", "honeycomb", "--t", "0:2", "--x", "-2:2", "--out", str(out),
                 "--morphism-out", str(mor)]) == 0
    hone = read(out)
    blob = read(mor)
    assert len(hone["events"]) == 2 * len(blob["cod"]["events"])
    # the collapse is a valid two-to-one causal quotient
    from causal_fields.order import OrderMorphism, check_morphism, order_from_json

    dom = order_from_json(blob["dom"])
    cod = order_from_json(blob["cod"])
    mapping = {src: dst for src, dst in blob["map"]}
    assert check_morphism(OrderMorphism(dom, cod, mapping))
    fibres = {}
    for src, dst in blob["map"]:
        fibres.setdefault(dst, []).append(src)
    assert all(len(f) == 2 for f in fibres.values())


def test_lattice_category_check_with_witnesses(tmp_path):
    order = tmp_path / "lat.json"
    order.write_text(json.dumps({"lattice": {"d": 1}}))
    out = tmp_path / "report.json"
    assert main(["check", "category", "--order", str(order), "--out", str(out)]) == 0
    assert read(out)["violations"] == []


def test_gen_bad_usage_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["gen", "diamond", "--t", "0:3"])
    assert err.value.code == 2


# -- query ----------------------------------------------------------------------------

def test_query_dplus(fork_file, capsys):
    assert main(["query", "dplus", "--order", fork_file, "--events", "a"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"dplus": ["a"]}


def test_query_slices_maximal(fork_file, capsys):
    assert main(["query", "slices", "--order", fork_file, "--maximal"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"slices": [["a", "b"], ["c"]]}


def test_query_paths_singleton(fork_file, capsys):
    assert main(["query", "paths", "--order", fork_file, "--from", "a", "--to", "a"]) == 0
    assert json.loads(capsys.readouterr().out) == {"paths": [["a"]]}


def test_query_paths_on_a_long_lattice_diamond(tmp_path, capsys):
    # a light-like diamond of 1,501 events has one path, walked without
    # recursion
    order = tmp_path / "lattice.json"
    order.write_text(json.dumps({"lattice": {"d": 1}}))
    argv = ["query", "paths", "--order", str(order), "--from", "0,0", "--to", "1500,1500"]
    assert main(argv) == 0
    (path,) = json.loads(capsys.readouterr().out)["paths"]
    assert path == [f"{t},{t}" for t in range(1501)]


def test_query_lattice_window(tmp_path, capsys):
    order = tmp_path / "lat.json"
    order.write_text(json.dumps({"lattice": {"d": 1}}))
    assert main(["query", "future", "--order", str(order), "--events", "0,0",
                 "--window", "0:1,-2:2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"future": ["0,0", "1,-1", "1,1"]}


@pytest.mark.parametrize("argv", [
    ["gen", "diamond", "--d", "0", "--t", "0..2", "--x", "-2..2"],
    ["gen", "diamond", "--d", "-1", "--t", "0..2", "--x", "-2..2"],
    ["gen", "diamond", "--t", "5", "--x", "-2..2"],
    ["gen", "diamond", "--t", "0..x", "--x", "-2..2"],
    ["gen", "diamond", "--t", "0..2", "--x", "..2"],
    ["gen", "honeycomb", "--t", "0..2", "--x", "-2"],
    ["query", "future", "--order", "LATTICE", "--window", "0..2", "--events", "0,0"],
    ["query", "future", "--order", "LATTICE", "--window", "0..2,-2..b", "--events", "0,0"],
    ["query", "future", "--order", "LATTICE", "--window", "0..2,-2..2", "--events", "0,x"],
    ["query", "paths", "--order", "LATTICE", "--from", "0,0", "--to", "2,"],
    ["query", "dplus", "--order", "LATTICE", "--events", "a,b"],
], ids=lambda argv: " ".join(argv))
def test_malformed_cli_input_is_a_usage_error(tmp_path, argv, capsys):
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps({"lattice": {"d": 1}}))
    assert main([str(lat) if a == "LATTICE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_query_unknown_event_exit(fork_file, capsys):
    assert main(["query", "dplus", "--order", fork_file, "--events", "zz"]) == 2


def test_query_deterministic(fork_file, capsys):
    main(["query", "slices", "--order", fork_file])
    first = capsys.readouterr().out
    main(["query", "slices", "--order", fork_file])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("what", ["diamond", "paths"])
@pytest.mark.parametrize("order_kind, src, dst", [
    ("fork", "a;b", "c"),
    ("fork", "a", "b;c"),
    ("fork", ";", "c"),
    ("fork", "a", ""),
    ("lattice", "0,0;0,2", "2,0"),
    ("lattice", "0,0", ";"),
])
def test_query_from_and_to_name_one_event(fork_file, tmp_path, what, order_kind, src, dst, capsys):
    # two events, or none, are a usage error; the first event a set
    # happened to yield depended on the hash seed
    order = fork_file
    if order_kind == "lattice":
        order = str(tmp_path / "lattice.json")
        Path(order).write_text(json.dumps({"lattice": {"d": 1}}))
    assert main(["query", what, "--order", order, "--from", src, "--to", dst]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _query_kinds() -> list:
    """The ``query`` kinds the parser accepts."""
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices["query"]._actions if a.dest == "what").choices


# every query on one window of the d=1 lattice, asked of the window written as
# an explicit order and of the lattice itself; the events are the window's
# row t=1, a Cauchy slice of the window
QUERY_WINDOW = Window(0, 2, (-2,), (2,))
QUERY_ARGS = {"events": "1,-1;1,1", "from": "0,0", "to": "2,0"}


def _ids(events) -> list:
    return sorted(event_id(e) for e in events)


def _lattice_domain(omega, a, past=False) -> frozenset:
    """D+ (D-) of a one-time set of lattice events from its definition: an
    event later (earlier) than the set is inside exactly when every event of
    the set's time on a causal path through it is in the set, since every
    inextendible path through the event crosses that time."""
    (t,) = {e[0] for e in a}
    near = list(window_events(omega, Window(t - 3, t + 3, (-6,), (6,))))
    row = [w for w in near if w[0] == t]

    def crossing(z):
        return {w for w in row if (reachable_oracle(omega, z, w) if past else reachable_oracle(omega, w, z))}

    return frozenset(z for z in near if (z[0] <= t if past else z[0] >= t) and crossing(z) <= a)


def _query_case(kind: str, tmp_path) -> SimpleNamespace:
    """The order file's argv, the order, the events a query may return, the
    finite order a Cauchy test reads, D+ and D- oracles and the event-id
    parser, for the window as an explicit order or for the lattice."""
    if kind == "explicit":
        path = tmp_path / "window.json"
        path.write_text(json.dumps(order_json_oracle(window_order_oracle(lattice(1), QUERY_WINDOW))))
        omega = order_from_json(read(path))
        return SimpleNamespace(
            argv=[str(path)], omega=omega, universe=omega.events, fin=omega,
            dplus=lambda a: future_domain_oracle(omega, a),
            dminus=lambda a: future_domain_oracle(reverse(omega), a), parse=str)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"lattice": {"d": 1}}))
    omega = lattice(1)
    return SimpleNamespace(
        argv=[str(path), "--window", "0:2,-2:2"], omega=omega,
        universe=list(window_events(omega, QUERY_WINDOW)), fin=window_order_oracle(omega, QUERY_WINDOW),
        dplus=lambda a: _lattice_domain(omega, a),
        dminus=lambda a: _lattice_domain(omega, a, past=True), parse=parse_lattice_event)


def _query_oracle(what: str, q: SimpleNamespace, a, x, y):
    reach = lambda u, v: reachable_oracle(q.omega, u, v)  # noqa: E731
    antichain = lambda s: not any(reach(u, v) for u in s for v in s if u != v)  # noqa: E731
    if what == "future":
        return _ids(z for z in q.universe if any(reach(e, z) for e in a))
    if what == "past":
        return _ids(z for z in q.universe if any(reach(z, e) for e in a))
    if what == "dplus":
        return _ids(q.dplus(a))
    if what == "dminus":
        return _ids(q.dminus(a))
    if what == "diamond":
        return _ids(z for z in q.universe if reach(x, z) and reach(z, y))
    if what == "paths":
        return sorted([event_id(e) for e in p] for p in causal_paths_oracle(q.omega, x, y, q.universe))
    if what == "slices":
        return sorted(_ids(s) for s in all_subsets(q.universe) if antichain(s))
    if what == "cauchy":
        return antichain(a) and all(set(c) & a for c in maximal_chains(q.fin))
    raise AssertionError(f"query {what!r} has no oracle")


@pytest.mark.parametrize("order_kind", ["explicit", "lattice"])
@pytest.mark.parametrize("what", _query_kinds())
def test_every_query_kind_matches_its_oracle(tmp_path, what, order_kind, capsys):
    # the kinds come from the parser, so a kind added there without an
    # oracle here fails
    q = _query_case(order_kind, tmp_path)
    a = frozenset(map(q.parse, QUERY_ARGS["events"].split(";")))
    want = _query_oracle(what, q, a, q.parse(QUERY_ARGS["from"]), q.parse(QUERY_ARGS["to"]))
    argv = ["query", what, "--order", *q.argv, "--events", QUERY_ARGS["events"],
            "--from", QUERY_ARGS["from"], "--to", QUERY_ARGS["to"]]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {what: want}


def _cli_bytes(argv, hash_seed):
    """Exit code, stdout and stderr of the CLI in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "causal_fields.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_output_does_not_depend_on_the_hash_seed(tmp_path, dirac_file):
    # set and dict orders vary with PYTHONHASHSEED; a query on an explicit
    # order and a seeded check write the same bytes under any hash seed
    order = tmp_path / "order.json"
    order.write_text(json.dumps({
        "events": ["a", "b", "c", "d", "e"],
        "hasse": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["c", "e"], ["e", "d"]],
    }))
    for argv in (
        ["query", "paths", "--order", str(order), "--from", "a", "--to", "d"],
        ["check", "invariance", "--cca", dirac_file, "--samples", "4", "--seed", "3"],
    ):
        first = _cli_bytes(argv, 1)
        assert first[0] == 0 and first[1]
        assert _cli_bytes(argv, 2) == first


# -- check ------------------------------------------------------------------------------

def test_check_nosignalling(dirac_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "nosignalling", "--cca", dirac_file, "--samples", "12",
                 "--seed", "7", "--out", str(out)])
    blob = read(out)
    assert code == 0
    assert blob["law"] == "no-signalling"
    assert blob["violations"] == []


def test_check_functoriality(dirac_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "functoriality", "--cca", dirac_file, "--samples", "24",
                 "--seed", "3", "--out", str(out)])
    assert code == 0 and read(out)["violations"] == []


def test_check_monoidality(dirac_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "monoidality", "--cca", dirac_file, "--samples", "10",
                 "--seed", "5", "--out", str(out)])
    assert code == 0 and read(out)["violations"] == []


def test_check_reversal_ok(dirac_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "reversal", "--cca", dirac_file, "--samples", "10",
                 "--seed", "2", "--out", str(out)])
    assert code == 0


def test_check_reversal_lossy_nonzero_exit(tmp_path):
    lossy = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=np.full((4, 4), 0.25), backend="classical"
    )
    path = tmp_path / "lossy.json"
    path.write_text(json.dumps(cca_config_to_json(lossy)))
    out = tmp_path / "report.json"
    code = main(["check", "reversal", "--cca", str(path), "--samples", "5",
                 "--out", str(out)])
    assert code == 1
    assert read(out)["violations"]


def test_check_symmetry_and_invariance(dirac_file, tmp_path):
    for target in ("symmetry", "invariance"):
        out = tmp_path / f"{target}.json"
        code = main(["check", target, "--cca", dirac_file, "--samples", "10",
                     "--seed", "1", "--out", str(out)])
        assert code == 0, read(out)["violations"][:2]


def test_check_foliation(fork_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "foliation", "--order", fork_file,
                 "--leaves", '[["a","b"],["c"]]', "--out", str(out)])
    assert code == 0


def test_check_foliation_bad_leaves(fork_file, tmp_path):
    code = main(["check", "foliation", "--order", fork_file,
                 "--leaves", '[["a"],["c"]]', "--out", str(tmp_path / "r.json")])
    assert code == 1


@pytest.mark.parametrize("leaves", ['[["0,0"]]', '[[]]', "not json", None])
def test_check_foliation_refuses_a_lattice_order(tmp_path, leaves, capsys):
    # a lattice has no finite leaves to validate: the refusal comes before
    # the leaves are read, names the command that materialises a window,
    # and writes no report
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps({"lattice": {"d": 1}}))
    out = tmp_path / "r.json"
    argv = ["check", "foliation", "--order", str(lat), "--out", str(out)]
    assert main(argv + (["--leaves", leaves] if leaves else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gen diamond --t" in err and "--x" in err
    assert not out.exists()


def test_check_category(fork_file, tmp_path):
    code = main(["check", "category", "--order", fork_file,
                 "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_check_category_of_a_foliation(fork_file, tmp_path):
    from causal_fields.slices import foliation_category, validate_slice_category

    out = tmp_path / "r.json"
    leaves = [["a", "b"], ["c"]]
    assert main(["check", "category", "--order", fork_file, "--leaves", json.dumps(leaves), "--out", str(out)]) == 0
    want = validate_slice_category(foliation_category(order_from_json(read(fork_file)), leaves))
    assert want.ok and read(out) == json.loads(cli._dumps(want.to_json(), "\n"))


@pytest.mark.parametrize("n", [11, 17])
def test_check_category_refuses_an_oversized_foliation(tmp_path, n, capsys):
    # n unrelated events on one leaf: 2^n objects, refused at the one
    # object limit before any validation work
    events = [f"e{i}" for i in range(n)]
    order = tmp_path / "flat.json"
    order.write_text(json.dumps({"events": events, "hasse": []}))
    out = tmp_path / "r.json"
    argv = ["check", "category", "--order", str(order), "--leaves", json.dumps([events]), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: category 'foliation' exceeds the limit of 1300 objects for exhaustive validation\n")
    assert not out.exists()


def test_check_category_refuses_a_large_window(tmp_path, capsys):
    # 46 events and 3,703 slices: refused before any quadratic work
    order = tmp_path / "honey.json"
    assert main(["gen", "honeycomb", "--t", "0:4", "--x", "-4:4", "--out", str(order),
                 "--morphism-out", str(tmp_path / "collapse.json")]) == 0
    start = time.perf_counter()
    code = main(["check", "category", "--order", str(order), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert time.perf_counter() - start < 2.0
    assert "exceeds the limit of 1300 objects" in capsys.readouterr().err


def test_check_seeded_determinism(dirac_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["check", "monoidality", "--cca", dirac_file, "--samples", "8", "--seed", "11",
          "--out", str(a)])
    main(["check", "monoidality", "--cca", dirac_file, "--samples", "8", "--seed", "11",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# The samples per suite of the law-check benchmark workload, which runs
# every suite with --seed 7.
LAWCHECK_SAMPLES = {"functoriality": 12, "monoidality": 16, "nosignalling": 8,
                    "reversal": 8, "invariance": 6, "symmetry": 6}


@pytest.mark.parametrize("target", cca.CHECK_SUITES)
def test_each_op_builds_one_kernel_program_per_translation_class(monkeypatch, tmp_path, target):
    # a gate on the builds, free of timing noise: factorize_morphism runs
    # once per lattice kernel build, and one op builds exactly one program
    # per translation class (per time direction) of the pairs it asks for
    haar = tmp_path / "haar.json"
    haar.write_text(json.dumps(cca_config_to_json(PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(3), 4)))))
    builds, asked, factorize, mor = [], set(), cca.factorize_morphism, FieldTheory.mor

    def counted_mor(theory, sigma, gamma):
        f = mor(theory, sigma, gamma)
        asked.add((theory.category.order.arrow, frozenset(sigma), frozenset(gamma)))
        return f

    monkeypatch.setattr(cca, "factorize_morphism", lambda c, pair, direction=1: builds.append(direction)
                        or factorize(c, pair, direction))
    monkeypatch.setattr(FieldTheory, "mor", counted_mor)
    argv = ["check", target, "--cca", str(haar), "--samples", str(LAWCHECK_SAMPLES[target]),
            "--seed", "7", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    classes = {(arrow, translation_class_oracle(s, g)) for arrow, s, g in asked}
    for arrow in (1, -1):
        assert builds.count(arrow) == sum(1 for a, _ in classes if a == arrow)
    assert len(builds) < len(asked) if target != "symmetry" else not builds


@pytest.mark.parametrize("target, extra", [
    ("functoriality", ["--samples", "0"]),
    ("functoriality", ["--samples", "-1"]),
    ("monoidality", ["--samples", "-3"]),
    ("functoriality", ["--tol", "nan"]),
    ("nosignalling", ["--tol", "-1"]),
    ("reversal", ["--tol", "inf"]),
    ("functoriality", ["--seed", "-1"]),
])
def test_check_rejects_bad_ranges(dirac_file, target, extra, capsys):
    assert main(["check", target, "--cca", dirac_file, *extra]) == 2
    assert "error:" in capsys.readouterr().err


# The argument positions of each checker that hold a suite's drawn samples.
_DRAWN = {
    "functoriality": ("check_functoriality", 1),
    "monoidality": ("check_monoidality", 1),
    "nosignalling": ("check_environment", 1, 2),
    "reversal": ("check_reversal", 2),
    "symmetry": ("check_symmetry_action", 3),
    "invariance": ("check_invariance", 4),
}


@pytest.mark.parametrize("samples", [1, 5, 12, 50])
@pytest.mark.parametrize("target", cca.CHECK_SUITES)
def test_every_suite_checks_exactly_the_samples_it_drew(monkeypatch, dirac_file, tmp_path, target, samples):
    # --samples n hands the suite's checker n samples (of each kind, for
    # nosignalling) on every seed, and the report counts them all:
    # functoriality adds the identity law on each slice its triples touch,
    # invariance checks each morphism under its 4 words plus 2 cocycle
    # samples, and symmetry each morphism under its 6 words
    name, *positions = _DRAWN[target]
    checker, drawn = getattr(cca, name), []
    monkeypatch.setattr(cca, name, lambda *a, **kw: drawn.append([a[i] for i in positions]) or checker(*a, **kw))
    for seed in range(4):
        out = tmp_path / f"{seed}.json"
        argv = ["check", target, "--cca", dirac_file, "--samples", str(samples), "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == 0
        (kinds,) = drawn
        assert [len(k) for k in kinds] == [samples] * len(positions)
        touched = {frozenset(s) for chain in kinds[0] for s in chain}
        want = {
            "functoriality": samples + len(touched),
            "nosignalling": 2 * samples,
            "invariance": 4 * samples + 2,
        }.get(target, samples)
        got = read(out)["samples"]
        assert got >= 6 * samples if target == "symmetry" else got == want
        drawn.clear()


@pytest.mark.parametrize("target, population", [
    ("functoriality", 13069), ("nosignalling", 1220), ("symmetry", 1220), ("invariance", 1220),
])
def test_check_refuses_more_samples_than_the_window_holds(dirac_file, tmp_path, target, population, capsys):
    # window draws are without replacement: one over the population is a
    # usage error, and the message names the population
    argv = ["check", target, "--cca", dirac_file, "--out", str(tmp_path / "r.json")]
    assert main([*argv, "--samples", str(population + 1)]) == 2
    assert f"draws from {population}" in capsys.readouterr().err


def _garbage_config_texts():
    """Config files a check must refuse: a NaN/infinity token, a number
    that overflows to infinity, and a classical matrix with an imaginary
    part."""
    blob = cca_config_to_json(dirac_config(0.4, 0.1))
    out = {}
    for name, token in [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"), ("overflow", "1e999")]:
        for key in ("U", "U_inv"):
            b = dict(blob, U_inv=blob["U"])
            b[key] = dict(b[key], data=[["X", 0.0]] + b[key]["data"][1:])
            out[f"{name}-{key}"] = json.dumps(b).replace('"X"', token)
    classical = cca_config_to_json(PartitionedCCAConfig(d=1, cell_dim=2, scattering=SWAP, backend="classical"))
    classical["U"]["data"][0][1] = 0.5
    out["classical-imaginary"] = json.dumps(classical)
    return out


GARBAGE_CONFIGS = _garbage_config_texts()


@pytest.mark.parametrize("samples", ["1", "5", "12", "50"])
@pytest.mark.parametrize("name", sorted(GARBAGE_CONFIGS))
def test_check_rejects_garbage_config(tmp_path, name, samples, capsys):
    path = tmp_path / "bad.json"
    path.write_text(GARBAGE_CONFIGS[name])
    assert main(["check", "functoriality", "--cca", str(path), "--samples", samples]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("d", [14, 64, 10**300], ids=["14", "64", "1e300"])
def test_a_config_of_huge_d_is_refused_promptly(tmp_path, d, capsys):
    # the shape cell_dim ** 2**d is compared without building that integer,
    # so neither the check nor its one-line message grows with d
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**cca_config_to_json(dirac_config(0.4, 0.1)), "d": d}))
    start = time.perf_counter()
    assert main(["check", "functoriality", "--cca", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: scattering must be larger than 4x4 for d=")
    assert err.count("\n") == 1 and len(err) < 400


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"events": [')
    assert main(["gen", "file", "--in", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


MALFORMED_ORDERS = {
    "top_level_list": [["a", "b"]],
    "top_level_string": "a<b",
    "no_events": {"hasse": []},
    "no_hasse": {"events": ["a", "b"]},
    "events_not_a_list": {"events": "ab", "hasse": []},
    "event_not_an_id": {"events": [["a"]], "hasse": []},
    "hasse_entry_single": {"events": ["a", "b"], "hasse": [["a"]]},
    "hasse_entry_triple": {"events": ["a", "b"], "hasse": [["a", "b", "a"]]},
    "hasse_endpoint_list": {"events": ["a", "b"], "hasse": [[["a"], "b"]]},
    "lattice_empty": {"lattice": {}},
    "lattice_not_object": {"lattice": 1},
    "lattice_d_string": {"lattice": {"d": "x"}},
    "lattice_d_fraction": {"lattice": {"d": 1.7}},
    "lattice_d_bool": {"lattice": {"d": True}},
    "lattice_d_zero": {"lattice": {"d": 0}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ORDERS))
def test_malformed_order_is_a_usage_error(tmp_path, name, capsys):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(MALFORMED_ORDERS[name]))
    assert main(["gen", "file", "--in", str(path)]) == 2
    assert main(["query", "future", "--order", str(path), "--events", "a"]) == 2
    assert "error:" in capsys.readouterr().err


def _malformed_configs() -> dict:
    good = cca_config_to_json(dirac_config(0.4, 0.1))

    def without(key):
        return {k: v for k, v in good.items() if k != key}

    return {
        "top_level_list": [good],
        "no_d": without("d"),
        "no_cell_dim": without("cell_dim"),
        "no_U": without("U"),
        "d_string": {**good, "d": "x"},
        "d_fraction": {**good, "d": 1.7},
        "cell_dim_fraction": {**good, "cell_dim": 2.0},
        "d_bool": {**good, "d": True},
        "U_string": {**good, "U": "x"},
        "U_no_data": {**good, "U": {"shape": [4, 4]}},
        "U_entry_not_pair": {**good, "U": {**good["U"], "data": [[1.0]] * 16}},
        "U_entry_string": {**good, "U": {**good["U"], "data": [["1", "0"]] * 16}},
        "U_shape_fraction": {**good, "U": {**good["U"], "shape": [4.0, 4]}},
    }


MALFORMED_CONFIGS = _malformed_configs()


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_is_a_usage_error(tmp_path, name, capsys):
    path = tmp_path / "cca.json"
    path.write_text(json.dumps(MALFORMED_CONFIGS[name]))
    assert main(["check", "functoriality", "--cca", str(path), "--samples", "1"]) == 2
    assert main(["run", "--cca", str(path), "--steps", "1", "--sites", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_nonfinite_leaves(fork_file, capsys):
    code = main(["check", "foliation", "--order", fork_file, "--leaves", '[["a", NaN], ["c"]]'])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("target, leaves", [
    ("foliation", "[1, 2]"),
    ("category", "[1, 2]"),
    ("foliation", '[["a"], [["b"]]]'),
    ("category", '[[{"a": 1}]]'),
    ("foliation", '{"a": ["b"]}'),
    ("foliation", '"abc"'),
    ("foliation", None),
])
def test_check_rejects_malformed_leaves(fork_file, target, leaves, capsys):
    # --leaves is a list of lists of event ids; anything else is a usage error
    extra = [] if leaves is None else ["--leaves", leaves]
    assert main(["check", target, "--order", fork_file, *extra]) == 2
    assert "--leaves" in capsys.readouterr().err


@pytest.mark.parametrize("blob", [
    {},
    {"components": 5},
    {"components": [[1, 2, 3, 4], [5, 6, 7, 8]]},
    {"components": [[["a", 0]] * 4, [[0, 0]] * 4]},
    {"components": [[[1, 0, 0]] * 4, [[0, 0]] * 4]},
    {"components": [[[1, 0]] * 4, [[0, 0]] * 3 + [[0]]]},
    {"components": [[[1, 0]] * 4, [[0, 0]] * 3]},
    {"components": [[[True, False]] * 4, [[0, 0]] * 4]},
])
def test_run_rejects_malformed_initial(dirac_file, tmp_path, blob, capsys):
    # components are 2 x sites [re, im] pairs of numbers; anything else is a usage error
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(blob))
    code = main(["run", "--cca", dirac_file, "--steps", "1", "--sites", "4",
                 "--initial", str(initial)])
    assert code == 2
    assert "components" in capsys.readouterr().err


def _one_amplitude(a: float, sites: int = 4) -> dict:
    comps = [[[0.0, 0.0]] * sites for _ in range(2)]
    comps[0] = [[a, 0.0]] + [[0.0, 0.0]] * (sites - 1)
    return {"components": comps}


@pytest.mark.parametrize("blob", [
    _one_amplitude(2.0),  # sum |psi|^2 = 4
    _one_amplitude(0.0),  # all zero
    _one_amplitude(1e200),  # sum |psi|^2 overflows to inf
    _one_amplitude((1 + 2e-10) ** 0.5),
    _one_amplitude((1 - 2e-10) ** 0.5),
])
def test_run_single_particle_refuses_initial_that_is_not_a_state(dirac_file, tmp_path, blob, capsys):
    # sum |psi|^2 must be 1 within 1e-10, the rule of the density --initial
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(blob))
    out = tmp_path / "run.json"
    code = main(["run", "--cca", dirac_file, "--steps", "1", "--sites", "4",
                 "--initial", str(initial), "--out", str(out)])
    assert code == 2
    assert "sum |psi|^2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a", [(1 + 5e-11) ** 0.5, (1 - 5e-11) ** 0.5])
def test_run_single_particle_initial_within_tolerance_is_a_state(dirac_file, tmp_path, a):
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(_one_amplitude(a)))
    out = tmp_path / "run.json"
    assert main(["run", "--cca", dirac_file, "--steps", "1", "--sites", "4",
                 "--initial", str(initial), "--out", str(out)]) == 0
    assert abs(read(out)["per_step"][0]["norm"] - 1.0) <= 1e-10


def _strict_loads(text):
    def refuse(token):
        raise ValueError(f"bare {token} in output")

    return json.loads(text, parse_constant=refuse)


def test_report_with_nonfinite_deviation_is_strict_json(tmp_path):
    from causal_fields.cli import _emit
    from causal_fields.report import Report

    # through the checkers' gate: NaN and values above tol are recorded,
    # values below or at tol only counted
    tol = 0.25
    report = Report("law")
    for dev in (float("nan"), float("inf"), 0.5, 0.125, tol):
        report.compare({"dev": str(dev)}, dev, tol)
    report.record({"dev": "-inf"}, float("-inf"))
    out = tmp_path / "r.json"
    _emit(report.to_json(), str(out))
    blob = _strict_loads(out.read_text())
    assert blob["samples"] == 5
    assert [v["deviation"] for v in blob["violations"]] == ["NaN", "Infinity", 0.5, "-Infinity"]


def test_check_reversal_without_inverse_is_strict_json(tmp_path):
    # a column-stochastic scattering that is not a permutation has no
    # reversal; the check reports it with an infinite deviation
    s = np.full((4, 4), 0.25)
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(cca_config_to_json(
        PartitionedCCAConfig(d=1, cell_dim=2, scattering=s, backend="classical"))))
    out = tmp_path / "r.json"
    assert main(["check", "reversal", "--cca", str(path), "--out", str(out)]) == 1
    blob = _strict_loads(out.read_text())
    assert blob["violations"][0]["deviation"] == "Infinity"


# -- run ---------------------------------------------------------------------------------

def test_run_zero_steps_echoes_initial(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--cca", dirac_file, "--steps", "0", "--sites", "8",
                 "--out", str(out)])
    assert code == 0
    blob = read(out)
    assert len(blob["per_step"]) == 1
    assert blob["per_step"][0]["marginals"][4] == 1.0


def test_run_m0_exact_transport(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--cca", dirac_file, "--m", "0", "--steps", "10",
                 "--sites", "32", "--out", str(out)])
    assert code == 0
    blob = read(out)
    for rec in blob["per_step"]:
        k = rec["t"]
        assert rec["marginals"][(16 + k) % 32] == 1.0
    assert blob["trace_drift"] == 0.0


def test_run_norm_drift_small(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--cca", dirac_file, "--m", "0.1", "--eps", "0.05",
                 "--steps", "50", "--sites", "64", "--out", str(out)])
    assert code == 0
    assert read(out)["trace_drift"] <= 1e-12


def test_run_density_mode(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--cca", dirac_file, "--steps", "3", "--sites", "4",
                 "--mode", "density", "--out", str(out)])
    assert code == 0
    blob = read(out)
    assert len(blob["per_step"]) == 4
    for rec in blob["per_step"]:
        assert abs(sum(rec["marginals"]) - 1.0) < 1e-10


def test_run_classical_density(tmp_path):
    perm = PartitionedCCAConfig(d=1, cell_dim=2, scattering=SWAP.astype(float),
                                backend="classical")
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(cca_config_to_json(perm)))
    out = tmp_path / "run.json"
    code = main(["run", "--cca", str(path), "--steps", "4", "--sites", "4",
                 "--mode", "density", "--out", str(out)])
    assert code == 0
    assert read(out)["trace_drift"] < 1e-12
    p = np.zeros(256, dtype=complex)
    p[128], p[64] = 1.0, 0.5j
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(P.matrix_to_json(p)))
    code = main(["run", "--cca", str(path), "--steps", "1", "--sites", "4",
                 "--mode", "density", "--initial", str(initial)])
    assert code == 2


STOCHASTIC = np.array([[0.5, 0.1, 0.2, 0.0], [0.2, 0.6, 0.1, 0.3],
                       [0.2, 0.1, 0.4, 0.3], [0.1, 0.2, 0.3, 0.4]])


def _config_file(tmp_path, backend):
    config = dirac_config(0.4, 0.7) if backend == P.QUANTUM else PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=STOCHASTIC, backend=P.CLASSICAL)
    path = tmp_path / f"{backend}.json"
    path.write_text(json.dumps(cca_config_to_json(config)))
    return config, str(path)


def _oracle_run(config, sites, steps, data):
    """The states of a density run by the two-sided ``apply``, an
    evaluator independent of the run's factor pair."""
    step = ring_step_morphism(config, sites)
    states = [P.state(step.dom, data)]
    for _ in range(steps):
        states.append(P.apply(step, states[-1]))
    return states


def _assert_run_matches_oracle(blob, config, sites, states):
    assert len(blob["per_step"]) == len(states)
    for rec, st in zip(blob["per_step"], states):
        diag = np.real(np.diagonal(st.data)) if config.backend == P.QUANTUM else st.data
        assert abs(rec["norm"] - np.sum(diag)) <= P.ORACLE_TOL
        want = ring_site_marginals(config, diag, sites)
        assert np.max(np.abs(np.array(rec["marginals"]) - want)) <= P.ORACLE_TOL


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_run_density_dump_states_match_oracle(tmp_path, backend):
    # the dumped rho (p, classically) of every step is the oracle loop's
    # state from the same default start, a state, on the ring's factors
    config, path = _config_file(tmp_path, backend)
    sites, steps = 2, 3
    out = tmp_path / "run.json"
    assert main(["run", "--cca", path, "--sites", str(sites), "--steps", str(steps),
                 "--mode", "density", "--dump-states", "--out", str(out)]) == 0
    blob = read(out)
    obj = ring_step_morphism(config, sites).dom
    start = np.zeros(obj.dim)
    start[1 << (len(obj.factors) - 1)] = 1.0
    states = _oracle_run(config, sites, steps, np.diag(start) if backend == P.QUANTUM else start)
    _assert_run_matches_oracle(blob, config, sites, states)
    for rec, st in zip(blob["per_step"], states):
        got = P.matrix_from_json(rec["state"])
        assert rec["factors"] == list(obj.factors) == [2] * (2 * sites)
        assert got.shape == st.data.shape
        assert np.max(np.abs(got - st.data)) <= P.ORACLE_TOL
        if backend == P.QUANTUM:
            assert np.max(np.abs(got - got.conj().T)) <= P.ORACLE_TOL
            assert abs(np.trace(got) - 1.0) <= P.ORACLE_TOL
        else:
            assert abs(np.sum(got) - 1.0) <= P.ORACLE_TOL


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_run_density_initial_matches_oracle(tmp_path, backend):
    # a mixed rank-2 rho (a spread p, classically) as --initial: the run's
    # norms and marginals are the oracle loop's
    config, path = _config_file(tmp_path, backend)
    sites, steps = 4, 2
    rng = np.random.default_rng(11)
    d = ring_step_morphism(config, sites).dom.dim
    if backend == P.QUANTUM:
        v = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        v /= np.linalg.norm(v, axis=0)
        data = v @ np.diag([0.7, 0.3]) @ v.conj().T
        assert np.linalg.matrix_rank(data) == 2
    else:
        data = rng.random(d)
        data /= data.sum()
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(P.matrix_to_json(data)))
    out = tmp_path / "run.json"
    assert main(["run", "--cca", path, "--sites", str(sites), "--steps", str(steps),
                 "--mode", "density", "--initial", str(initial), "--out", str(out)]) == 0
    _assert_run_matches_oracle(read(out), config, sites, _oracle_run(config, sites, steps, data))


def test_run_density_zero_steps(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--cca", dirac_file, "--sites", "4", "--steps", "0",
                 "--mode", "density", "--out", str(out)]) == 0
    blob = read(out)
    assert len(blob["per_step"]) == 1 and blob["trace_drift"] == 0.0
    assert blob["per_step"][0]["norm"] == 1.0
    assert blob["per_step"][0]["marginals"] == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("sites", [4, 6])
def test_run_density_default_start_matches_single_particle(dirac_file, tmp_path, sites):
    # the default start is one excitation in the first factor of site 0:
    # component 0 at site 0 of the single-particle picture
    comps = [[[0.0, 0.0]] * sites for _ in range(2)]
    comps[0] = [[1.0, 0.0]] + [[0.0, 0.0]] * (sites - 1)
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps({"components": comps}))
    dens, ref = tmp_path / "density.json", tmp_path / "reference.json"
    common = ["run", "--cca", dirac_file, "--sites", str(sites), "--steps", "3"]
    assert main([*common, "--initial", str(initial), "--out", str(ref)]) == 0
    assert main([*common, "--mode", "density", "--out", str(dens)]) == 0
    got, want = read(dens), read(ref)
    assert got["trace_drift"] <= 1e-10
    for r, s in zip(got["per_step"], want["per_step"], strict=True):
        assert np.max(np.abs(np.array(r["marginals"]) - s["marginals"])) <= 1e-10


NOT_STATES = not_states(16)  # dimension 16: a ring of 2 sites


@pytest.mark.parametrize("backend,name", [(b, n) for b, cases in NOT_STATES.items() for n in cases])
def test_run_density_refuses_initial_that_is_not_a_state(tmp_path, backend, name, capsys):
    # Hermitian, trace 1 and no diagonal entry below -1e-10 (quantum); no
    # entry below -1e-10 and sum 1 (classical); each within 1e-10
    _, path = _config_file(tmp_path, backend)
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(P.matrix_to_json(NOT_STATES[backend][name])))
    assert main(["run", "--cca", path, "--sites", "2", "--steps", "1", "--mode", "density",
                 "--initial", str(initial), "--out", str(tmp_path / "run.json")]) == 2
    assert "initial state" in capsys.readouterr().err


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_run_density_initial_within_tolerance_is_a_state(tmp_path, backend):
    _, path = _config_file(tmp_path, backend)
    data = np.eye(16) / 16 if backend == P.QUANTUM else np.full(16, 1 / 16)
    data[(0, 0) if backend == P.QUANTUM else 0] -= 5e-11
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(P.matrix_to_json(data)))
    assert main(["run", "--cca", path, "--sites", "2", "--steps", "1", "--mode", "density",
                 "--initial", str(initial), "--out", str(tmp_path / "run.json")]) == 0


@pytest.mark.parametrize("extra", [
    ["--sites", "0", "--mode", "density", "--steps", "1"],
    ["--sites", "0", "--steps", "1"],
    ["--sites", "-2", "--steps", "1"],
    ["--sites", "8", "--steps", "-1"],
])
def test_run_rejects_bad_ranges(dirac_file, extra, capsys):
    assert main(["run", "--cca", dirac_file, *extra]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sites", [8, 10**9], ids=["8", "1e9"])
def test_run_density_refuses_a_ring_over_the_cap_before_building_it(monkeypatch, sites, capsys):
    # the 4,096 cap is read from the exponent: neither the ring's step nor
    # any object of it is built, so a ring of 10^9 sites is refused at once
    config = dirac_config(0.4, 0.1)

    def never(*_args, **_kwargs):
        raise AssertionError("built a piece of a ring over the density cap")

    monkeypatch.setattr(cli, "_load_cca", lambda args: config)
    monkeypatch.setattr(cli, "ring_step_morphism", never)
    monkeypatch.setattr(P, "ProcObject", never)
    start = time.perf_counter()
    assert main(["run", "--cca", "unread.json", "--mode", "density", "--steps", "1",
                 "--sites", str(sites)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: density mode is limited to small rings\n"


def _int_options(parser: argparse.ArgumentParser, path: tuple = ()):
    """``(subcommand path, flag)`` of every ``type=int`` option."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _int_options(sub, path + (name,))
        elif action.type is int:
            yield path, action.option_strings[0]


# Otherwise valid arguments for each subcommand that has an integer option.
_VALID_ARGV = {
    ("gen", "diamond"): lambda cfg, out: ["gen", "diamond", "--t", "0..2", "--x", "-2..2", "--out", out],
    ("check",): lambda cfg, out: ["check", "functoriality", "--cca", cfg, "--samples", "2", "--out", out],
    ("run",): lambda cfg, out: ["run", "--cca", cfg, "--steps", "1", "--sites", "4", "--out", out],
}


_INT_OPTIONS = list(_int_options(cli._build_parser()))


@pytest.mark.parametrize("path, flag", _INT_OPTIONS, ids=[" ".join((*p, f)) for p, f in _INT_OPTIONS])
def test_every_int_option_refuses_minus_one(dirac_file, tmp_path, path, flag, capsys):
    # read off the parser, so a new integer flag cannot skip validation:
    # -1 with otherwise valid arguments is exit 2 with one error line
    argv = _VALID_ARGV[path](dirac_file, str(tmp_path / "out.json"))
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_csv(dirac_file, tmp_path):
    out = tmp_path / "run.json"
    csv_path = tmp_path / "marginals.csv"
    main(["run", "--cca", dirac_file, "--steps", "5", "--sites", "8",
          "--out", str(out), "--csv", str(csv_path)])
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "site", "probability"]
    assert len(rows) == 1 + 6 * 8


# -- export -------------------------------------------------------------------------------

def test_export_dot_three_chain(tmp_path):
    order = tmp_path / "chain.json"
    order.write_text(json.dumps({"events": ["a", "b", "c"],
                                 "hasse": [["a", "b"], ["b", "c"]]}))
    out = tmp_path / "chain.dot"
    assert main(["export", "dot", "--order", str(order), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("->") == 2


def test_export_dot_honeycomb_edge_count(tmp_path):
    hone = tmp_path / "honey.json"
    mor = tmp_path / "cmap.json"
    main(["gen", "honeycomb", "--t", "0:2", "--x", "-2:2", "--out", str(hone),
          "--morphism-out", str(mor)])
    out = tmp_path / "honey.dot"
    assert main(["export", "dot", "--order", str(hone), "--out", str(out)]) == 0
    assert out.read_text().count("->") == len(read(hone)["hasse"])


def test_export_csv_from_run(dirac_file, tmp_path):
    run_out = tmp_path / "run.json"
    main(["run", "--cca", dirac_file, "--steps", "2", "--sites", "4", "--out", str(run_out)])
    csv_out = tmp_path / "m.csv"
    assert main(["export", "csv", "--run", str(run_out), "--out", str(csv_out)]) == 0
    with open(csv_out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 4


def test_export_csv_without_out_writes_through_stdout(dirac_file, tmp_path):
    run_out = tmp_path / "run.json"
    main(["run", "--cca", dirac_file, "--steps", "2", "--sites", "4", "--mode", "density", "--out", str(run_out)])
    csv_out = tmp_path / "m.csv"
    assert main(["export", "csv", "--run", str(run_out), "--out", str(csv_out)]) == 0
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert main(["export", "csv", "--run", str(run_out)]) == 0
    assert captured.getvalue().encode() == csv_out.read_bytes()


@pytest.mark.parametrize("blob", [
    {"per_step": 3},
    {},
    {"per_step": [3]},
    {"per_step": [{"t": 0}]},
    {"per_step": [{"t": 0, "marginals": 0.5}]},
    {"per_step": [{"t": 0, "marginals": ["0.5"]}]},
], ids=json.dumps)
def test_export_csv_refuses_a_malformed_run(tmp_path, blob, capsys):
    run = tmp_path / "run.json"
    run.write_text(json.dumps(blob))
    out = tmp_path / "m.csv"
    assert main(["export", "csv", "--run", str(run), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "per_step" in err
    assert not out.exists()


# JSON integers a float cannot hold: they overflow to infinity, and the
# longest are past Python's 4,300-digit int conversion limit
HUGE_INTEGERS = {"401 digits": "1" + "0" * 400, "-401 digits": "-1" + "0" * 400, "4301 digits": "1" + "0" * 4300}


@pytest.mark.parametrize("name", list(HUGE_INTEGERS))
def test_an_integer_that_overflows_a_float_is_a_usage_error(dirac_file, fork_file, tmp_path, name, capsys):
    # refused where the JSON is parsed, for a run's marginals, a config's
    # integer and a leaf's event id alike, and no output is written
    huge = HUGE_INTEGERS[name]
    run, cfg, out = tmp_path / "run.json", tmp_path / "cfg.json", tmp_path / "out"
    run.write_text('{"per_step": [{"t": 0, "marginals": [%s]}]}' % huge)
    cfg.write_text(Path(dirac_file).read_text().replace('"d": 1', '"d": ' + huge))
    for argv in (
        ["export", "csv", "--run", str(run)],
        ["check", "functoriality", "--cca", str(cfg)],
        ["check", "foliation", "--order", fork_file, "--leaves", '[["a", %s], ["c"]]' % huge],
    ):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_export_dot_refuses_an_id_ending_in_a_backslash(tmp_path, capsys):
    # a DOT quoted id has no escape for a final backslash
    order = tmp_path / "order.json"
    order.write_text(json.dumps({"events": ["a\\", "c"], "hasse": [["a\\", "c"]]}))
    out = tmp_path / "order.dot"
    assert main(["export", "dot", "--order", str(order), "--out", str(out)]) == 2
    assert "ends in a backslash" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exit_code():
    assert main(["query", "dplus", "--order", "/nonexistent.json", "--events", "a"]) == 2


@pytest.mark.parametrize("argv, flag", [
    *[(["check", target], "cca") for target in cca.CHECK_SUITES],
    (["check", "foliation", "--leaves", '[["a"]]'], "order"),
    (["check", "category"], "order"),
    (["export", "csv"], "run"),
    (["export", "dot"], "order"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_missing_file_flag_is_a_usage_error(tmp_path, argv, flag, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {argv[0]} {argv[1]} needs --{flag}\n"
    assert not out.exists()


# Every flag that reads JSON, as (argv, flag, depth); "{deep}" is the nested
# input and "{dirac}" / "{fork}" valid files.
_DEEP_INPUTS = [
    (["check", "functoriality", "--cca", "{deep}"], "cca", 200_000),
    (["check", "category", "--order", "{deep}"], "order", 200_000),
    (["gen", "file", "--in", "{deep}"], "in", 200_000),
    (["run", "--cca", "{dirac}", "--steps", "1", "--initial", "{deep}"], "initial", 200_000),
    (["export", "csv", "--run", "{deep}"], "run", 200_000),
    (["check", "foliation", "--order", "{fork}", "--leaves", "{deep}"], "leaves", 5_000),
]


@pytest.mark.parametrize("argv, flag, depth", _DEEP_INPUTS, ids=[flag for _, flag, _ in _DEEP_INPUTS])
def test_deeply_nested_json_is_a_usage_error(dirac_file, fork_file, tmp_path, argv, flag, depth, capsys):
    # nesting past the parser's recursion limit is malformed input (exit 2),
    # never a RecursionError traceback with exit 1, which reads as "law violated"
    deep = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(deep)
    files = {"deep": deep if flag == "leaves" else str(path), "dirac": dirac_file, "fork": fork_file}
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON input") and err.count("\n") == 1
    assert not out.exists()


# -- file boundaries --------------------------------------------------------------

@pytest.mark.parametrize("where", ["out", "order"])
def test_a_directory_at_a_file_boundary_is_a_usage_error(fork_file, tmp_path, where, capsys):
    # IsADirectoryError is an OSError like FileNotFoundError: exit 2 with
    # one line, never a traceback and the exit code of "violations found"
    paths = {"out": str(tmp_path / "report.json"), "order": fork_file, where: str(tmp_path)}
    argv = ["check", "foliation", "--order", paths["order"], "--leaves", '[["a", "b"], ["c"]]',
            "--out", paths["out"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "directory" in err


def test_input_that_is_not_utf8_is_malformed_json(tmp_path, capsys):
    path = tmp_path / "order.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["gen", "file", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON input") and err.count("\n") == 1


def test_files_are_read_and_written_as_utf8(tmp_path):
    order = tmp_path / "order.json"
    order.write_bytes(json.dumps({"events": ["é", "漢"], "hasse": [["é", "漢"]]},
                                 ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "order.dot"
    assert main(["export", "dot", "--order", str(order), "--out", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    assert '"é" -> "漢";' in text


# -- the JSON emitter ----------------------------------------------------------------

def _strict(x):
    return json.dumps(x, indent=2, sort_keys=True, allow_nan=False)


_SPECIAL_NUMBERS = [True, False, None, 0, -1, 10 ** 40, -(10 ** 40), 0.0, -0.0, 5e-324, -5e-324,
                    1e308, -1e308, 0.1, np.float64(0.1), np.float64(-0.0), np.float64(1e308)]
_texts = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600"]),
), max_size=6)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(st.sampled_from(_SPECIAL_NUMBERS), st.integers(), _floats, _texts)
# homogeneous lists and lists of flat lists are the emitter's own joins
_flat = st.one_of(*(st.lists(s, max_size=5) for s in (_floats, _texts, st.integers(), st.booleans())))
_pairs = st.one_of(*(st.lists(st.lists(s, min_size=1, max_size=3), max_size=4)
                     for s in (_floats, _texts, st.integers())))
_documents = st.recursive(
    st.one_of(_scalars, _flat, _pairs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=20,
)


@given(_documents)
@settings(max_examples=300, deadline=None)
def test_prop_emitter_writes_the_bytes_of_json_dumps(doc):
    assert cli._dumps(doc, "\n") == _strict(doc)


def test_emit_writes_json_dumps_and_a_newline(tmp_path):
    doc = {"z": [[0.5, -0.0], [1e-300, 2.0]], "a": {"é": ["x", "y"], "b": []}, "n": [None, 1, "s"]}
    out = tmp_path / "doc.json"
    cli._emit(doc, str(out))
    assert out.read_bytes() == (_strict(doc) + "\n").encode("ascii")


_poisons = st.sampled_from([float("nan"), float("inf"), float("-inf"), {1, 2}, object(),
                            {1: "a", "b": 2}, np.array([0.5, 1.5])])
_poisoned = st.recursive(
    st.one_of(
        _poisons,
        st.lists(_floats, max_size=3).flatmap(
            lambda xs: st.integers(0, len(xs)).map(lambda i: xs[:i] + [float("nan")] + xs[i:])),
        st.lists(st.lists(_floats, min_size=1, max_size=2), max_size=2).map(lambda rows: rows + [[float("inf")]]),
    ),
    lambda inner: st.one_of(
        st.tuples(st.lists(_documents, max_size=2), inner, st.lists(_documents, max_size=2)).map(
            lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(st.dictionaries(_texts, _documents, max_size=2), _texts, inner).map(
            lambda t: {**t[0], t[1]: t[2]}),
    ),
    max_leaves=6,
)


@given(_poisoned)
@settings(max_examples=200, deadline=None)
def test_prop_emitter_raises_what_json_dumps_raises(doc):
    with pytest.raises(Exception) as want:
        _strict(doc)
    with pytest.raises(type(want.value)) as got:
        cli._dumps(doc, "\n")
    assert str(got.value) == str(want.value)
