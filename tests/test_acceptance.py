"""The acceptance suite: every claimed law checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Run the whole file with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import json
import time

import numpy as np
import pytest

from causal_fields import process as P
from causal_fields.cca import (
    PartitionedCCAConfig,
    build_cca,
    build_reversal,
    expand_sites,
    lattice_slice,
    mass_coin,
    reversal_theory,
    run_single_particle,
    sample_separated_quads,
    sample_zigzag_chain_pairs,
    site_probabilities,
    translation_action,
    window_morphisms,
)
from causal_fields.cli import main
from causal_fields.errors import NotInvertible
from causal_fields.field_theory import (
    CategoryRegion,
    check_environment,
    check_monoidality,
    check_reversal,
    check_stable_family,
    push_forward_family,
    restrict_states,
)
from causal_fields.order import (
    OrderMorphism,
    Window,
    check_morphism,
    epi_mono_factor,
    future_domain,
    lattice,
    materialize,
    order_from_json,
    past_domain,
    pullback_slice,
    reverse,
)
from causal_fields.slices import is_slice

from helpers import (
    dirac_convergence_deviations,
    future_domain_oracle,
    random_dag,
    random_density,
    random_unitary,
)

TOL = 1e-10


def _line(n: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)


def sl(t, *xs):
    return lattice_slice(t, xs)


# -----------------------------------------------------------------------------
# 1. oracle equivalence for domains of dependence
# -----------------------------------------------------------------------------

def test_acceptance_1_domain_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    mismatches = 0
    checked = 0
    for _ in range(200):
        omega = random_dag(rng, max_events=10, p=0.3)
        rev = reverse(omega)
        events = list(omega.events)
        subsets = [frozenset({e}) for e in events]
        subsets += [frozenset(c) for c in itertools.combinations(events, 2)]
        for a in subsets:
            checked += 1
            if future_domain(omega, a) != future_domain_oracle(omega, a):
                mismatches += 1
            if past_domain(omega, a) != future_domain_oracle(rev, a):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _line(1, ok, f"D+/D- recursion vs chain enumeration: {checked} subsets, "
                 f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


# -----------------------------------------------------------------------------
# 2. the lattice cone law
# -----------------------------------------------------------------------------

def _cone_mismatches(d: int) -> int:
    if d == 1:
        cells = [(x,) for x in range(-4, 5, 2)]
        box = 4
    else:
        cells = [(x, y) for x in (-2, 0, 2) for y in (-2, 0, 2)]
        box = 2
    omega = lattice(d)
    mismatches = 0
    for k in range(0, 5):
        # pad the box so every target's past cone is complete in the window
        win = Window(0, k, (-box - k,) * d, (box + k,) * d)
        fin = materialize(omega, win)
        level_k = [
            e for e in fin.events
            if e[0] == k and all(-box <= c <= box for c in e[1])
        ]
        for bits in range(1 << len(cells)):
            xs = frozenset(cells[i] for i in range(len(cells)) if bits >> i & 1)
            sigma = frozenset((0, c) for c in xs)
            dplus = future_domain(fin, sigma)
            closed_form = {
                (k, y) for (_, y) in level_k
                if expand_sites(frozenset({y}), k, d) <= xs
            }
            windowed = {
                e for e in dplus
                if e[0] == k and all(-box <= c <= box for c in e[1])
            }
            if closed_form != windowed:
                mismatches += 1
    return mismatches


def test_acceptance_2_lattice_cone_law():
    t0 = time.monotonic()
    bad = _cone_mismatches(1) + _cone_mismatches(2)
    elapsed = time.monotonic() - t0
    _line(2, bad == 0, f"closed-form cone vs windowed D+ (d=1,2; k<=4; all X,Y): "
                       f"{bad} mismatches, {elapsed:.1f}s")
    assert bad == 0


# -----------------------------------------------------------------------------
# 3. functor laws on the partitioned automaton
# -----------------------------------------------------------------------------

def test_acceptance_3_functor_laws():
    t0 = time.monotonic()
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(3), 4)
    )
    theory = build_cca(config)
    pairs = window_morphisms(0, 3, 0, 6, 3)
    by_source: dict = {}
    for s, g in pairs:
        by_source.setdefault(s, []).append(g)
    # deviations within TOL are Frobenius bounds, those above it exact;
    # np.max keeps a NaN, which then fails the assertion
    devs = []
    for s, g in pairs:
        f = theory.mor(s, g)
        for d in by_source.get(g, ()):  # every composable pair
            comp = P.compose(theory.mor(g, d), f)
            devs.append(P.deviation(comp, theory.mor(s, d), TOL))
    n_pairs = len(devs)
    slices = {s for s, _ in pairs} | {g for _, g in pairs}
    for s in slices:
        devs.append(P.deviation(theory.mor(s, s), P.identity(theory.obj(s)), TOL))
    worst = float(np.max(devs))
    elapsed = time.monotonic() - t0
    ok = worst <= TOL and elapsed < 60.0
    _line(3, ok, f"functoriality on {n_pairs} composable pairs + {len(slices)} "
                 f"identities: max deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= TOL
    assert elapsed < 60.0


# -----------------------------------------------------------------------------
# 4. monoidality
# -----------------------------------------------------------------------------

def test_acceptance_4_monoidality():
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(4), 4)
    )
    theory = build_cca(config)
    quads = sample_separated_quads(np.random.default_rng(44), 100)
    report = check_monoidality(theory, quads, tol=TOL)
    _line(4, report.ok, f"monoidal factorisation on {len(quads)} separated "
                        f"quadruples: {len(report.violations)} violations")
    assert report.ok, report.violations[:3]


# -----------------------------------------------------------------------------
# 5. no-signalling / environment structure
# -----------------------------------------------------------------------------

def test_acceptance_5_no_signalling():
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(5), 4)
    )
    theory = build_cca(config)
    rng = np.random.default_rng(55)
    pairs = window_morphisms(0, 3, 0, 6, 3)
    idx = rng.choice(len(pairs), size=100, replace=False)
    morphisms = [pairs[i] for i in idx]
    products = [(s, g) for s, _, g, _ in sample_separated_quads(rng, 100)]
    report = check_environment(theory, morphisms, products, tol=TOL)
    _line(5, report.ok, f"discard-family equations on {len(morphisms)} morphisms "
                        f"and {len(products)} products: {len(report.violations)} violations")
    assert report.ok, report.violations[:3]


# -----------------------------------------------------------------------------
# 6. reversal
# -----------------------------------------------------------------------------

def test_acceptance_6_reversal():
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(6), 4)
    )
    theory = build_cca(config)
    reversal = build_reversal(config)
    chain_pairs = sample_zigzag_chain_pairs(np.random.default_rng(66), 100)
    report = check_reversal(theory, reversal, chain_pairs, tol=TOL)

    # a non-invertible scattering map admits no reversal
    lossy = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=np.full((4, 4), 0.25), backend=P.CLASSICAL
    )
    with pytest.raises(NotInvertible):
        build_reversal(lossy)
    # and a wrong reverse construction is reported as a violation
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    wrong = reversal_theory(config, np.kron(sx, np.eye(2)))
    zigzags = [
        p for p in sample_zigzag_chain_pairs(np.random.default_rng(67), 60)
        if max(len(p[0]), len(p[1])) > 2
    ]
    wrong_report = check_reversal(theory, wrong, zigzags, tol=TOL)
    ok = report.ok and not wrong_report.ok
    _line(6, ok, f"inverse-scattering reversal on {len(chain_pairs)} chain pairs: "
                 f"{len(report.violations)} violations; lossy map rejected; wrong "
                 f"reversal reported {len(wrong_report.violations)} violations")
    assert report.ok, report.violations[:3]
    assert not wrong_report.ok


# -----------------------------------------------------------------------------
# 7. translation invariance
# -----------------------------------------------------------------------------

def test_acceptance_7_translation_invariance():
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(7), 4)
    )
    theory = build_cca(config)
    action = translation_action(1)
    letters = [(name, sign) for name in sorted(action.generators) for sign in (1, -1)]
    words = [()]
    for length in (1, 2, 3):
        words += list(itertools.product(letters, repeat=length))
    morphisms = window_morphisms(0, 2, 0, 4, 2)
    failures = 0
    checked = 0
    for word in words:
        for s, g in morphisms:
            checked += 1
            f = theory.mor(s, g)
            if P.program_form(f) != P.program_form(theory.mor(action.act(word, s), action.act(word, g))):
                failures += 1
    _line(7, failures == 0, f"exact kernel equality under {len(words)} translation "
                            f"words x {len(morphisms)} morphisms ({checked} checks): "
                            f"{failures} failures")
    assert failures == 0


# -----------------------------------------------------------------------------
# 8. the presheaf of states
# -----------------------------------------------------------------------------

def test_acceptance_8_presheaf_of_states():
    config = PartitionedCCAConfig(
        d=1, cell_dim=2, scattering=random_unitary(np.random.default_rng(8), 4)
    )
    theory = build_cca(config)
    rng = np.random.default_rng(88)
    towers = [
        (sl(0, 0, 2, 4), sl(2, 2), sl(0, 0, 2), sl(1, 1), sl(0, 0), sl(0, 0)),
        (sl(0, 0, 2, 4), sl(1, 1, 3), sl(0, 2, 4), sl(1, 3), sl(0, 2), sl(0, 2)),
        (sl(0, -2, 0, 2), sl(1, -1, 1), sl(0, -2, 0), sl(0, -2, 0), sl(0, 0), sl(0, 0)),
    ]
    failures = []
    for spec_tower in towers:
        big = CategoryRegion.bounded(spec_tower[0], spec_tower[1])
        mid = CategoryRegion.bounded(spec_tower[2], spec_tower[3])
        small = CategoryRegion.bounded(spec_tower[4], spec_tower[5])
        sigma = spec_tower[0]
        rho = P.state(theory.obj(sigma), random_density(rng, theory.obj(sigma).dim))
        fam = push_forward_family(theory, big, sigma, rho)
        if not check_stable_family(theory, fam, tol=TOL).ok:
            failures.append("push-forward family not stable")
        # identity law
        same = restrict_states(theory, big, fam)
        if set(same.states) != set(fam.states) or any(
            P.state_deviation(same.states[s], fam.states[s]) != 0.0 for s in fam.states
        ):
            failures.append("identity restriction changed the family")
        # composition law, all depth-3 chains big >= mid >= small
        direct = restrict_states(theory, small, fam)
        via = restrict_states(theory, small, restrict_states(theory, mid, fam))
        if set(direct.states) != set(via.states) or any(
            P.state_deviation(direct.states[s], via.states[s]) != 0.0
            for s in direct.states
        ):
            failures.append("restriction composition law failed")
        for region in (mid, small):
            if not check_stable_family(theory, restrict_states(theory, region, fam), tol=TOL).ok:
                failures.append("restricted family not stable")
    _line(8, not failures, f"presheaf identity/composition laws on {len(towers)} "
                           f"depth-3 region chains: {len(failures)} failures")
    assert not failures, failures


# -----------------------------------------------------------------------------
# 9. the Dirac automaton
# -----------------------------------------------------------------------------

def test_acceptance_9_dirac_automaton():
    t0 = time.monotonic()
    # norm conservation over 50 steps on 64 sites
    rng = np.random.default_rng(9)
    psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi /= np.linalg.norm(psi)
    states = run_single_particle(psi, mass_coin(0.8, 0.1), 50)
    drift = max(abs(np.linalg.norm(s) - 1.0) for s in states)

    # mass zero: exact transport, marginals shift one site per step
    psi0 = np.zeros((2, 64), dtype=complex)
    psi0[0, 10] = 1.0
    transport_exact = True
    for k, st in enumerate(run_single_particle(psi0, mass_coin(0.0, 0.1), 50)):
        probs = site_probabilities(st)
        if probs[(10 + k) % 64] != 1.0:
            transport_exact = False

    # convergence against the independent finite-difference reference
    devs = dirac_convergence_deviations(m=1.0, t_phys=4.0, eps0=0.2, halvings=3)
    ratios = [devs[i] / devs[i + 1] for i in range(3)]
    ratios_ok = all(3.0 <= r <= 5.0 for r in ratios)

    elapsed = time.monotonic() - t0
    ok = drift <= 1e-12 and transport_exact and ratios_ok and elapsed < 30.0
    _line(9, ok, f"norm drift {drift:.1e}; m=0 transport exact: {transport_exact}; "
                 f"halving ratios {[f'{r:.2f}' for r in ratios]}; {elapsed:.1f}s")
    assert drift <= 1e-12
    assert transport_exact
    assert ratios_ok, ratios
    assert elapsed < 30.0


# -----------------------------------------------------------------------------
# 10. coarse-graining a causal order
# -----------------------------------------------------------------------------

def test_acceptance_10_coarse_graining(tmp_path):
    # gen honeycomb writes the 2-to-1 collapse of the brick-wall honeycomb
    # onto the diamond lattice window; it is a causal-order morphism that
    # factors as a quotient onto its image followed by an embedding, and a
    # slice of the coarse order pulls back to one slice per choice of an
    # antichain in each fibre
    mor = tmp_path / "collapse.json"
    assert main(["gen", "honeycomb", "--t", "0:2", "--x", "-2:2", "--out", str(tmp_path / "honey.json"),
                 "--morphism-out", str(mor)]) == 0
    blob = json.loads(mor.read_text())
    dom, cod = order_from_json(blob["dom"]), order_from_json(blob["cod"])
    q = OrderMorphism(dom, cod, {src: dst for src, dst in blob["map"]})
    quotient, embedding = epi_mono_factor(q)
    factors = (check_morphism(q) and set(quotient.cod.events) == set(cod.events)
               and embedding.is_injective()
               and all(embedding(quotient(e)) == q(e) for e in dom.events))
    # each fibre over the 2-point slice is a 2-chain with 3 antichains
    sigma = frozenset({"0,0", "0,2"})
    _, slices = pullback_slice(q, sigma)
    pulled = is_slice(cod, sigma) and len(slices) == len(set(slices)) == 9
    _line(10, factors and pulled, f"honeycomb collapse onto {len(cod.events)} diamond events: "
                                  f"epi-mono factorisation {factors}; {len(slices)} pulled-back slices")
    assert factors
    assert pulled
