import json

import numpy as np
import pytest

from causal_fields import process as P
from causal_fields.cca import (
    build_cca,
    build_reversal,
    dirac_config,
    lattice_slice,
    reversal_theory,
    sample_separated_quads,
    sample_zigzag_chain_pairs,
    window_morphisms,
)
from causal_fields.errors import NonEnumerableRegion, NotAReversal, NotCauchy, NotInCategory
from causal_fields.field_theory import (
    CategoryRegion,
    FieldTheory,
    check_environment,
    check_functoriality,
    check_monoidality,
    check_reversal,
    check_stable_family,
    composable_triples,
    global_state_from_cauchy,
    push_forward_family,
    region_slices,
    restrict_states,
    slot_wiring,
)
from causal_fields.order import region_between

from helpers import (
    composable_triples_oracle,
    not_states,
    position_dependent,
    random_density,
    random_unitary,
    relabelled,
)

RNG = np.random.default_rng(77)
TOL = P.VALIDITY_TOL


def sl(t, *xs):
    return lattice_slice(t, xs)


@pytest.fixture(scope="module")
def theory():
    return build_cca(dirac_config(0.7, 0.3))


@pytest.fixture(scope="module")
def generic_theory():
    u = random_unitary(np.random.default_rng(5), 4)
    from causal_fields.cca import PartitionedCCAConfig

    return build_cca(PartitionedCCAConfig(d=1, cell_dim=2, scattering=u))


def generic_theory_config():
    u = random_unitary(np.random.default_rng(5), 4)
    from causal_fields.cca import PartitionedCCAConfig

    return PartitionedCCAConfig(d=1, cell_dim=2, scattering=u)


# -- functoriality ------------------------------------------------------------------

@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("window", [(0, 3, -4, 6, 3), (0, 2, 0, 4, 2), (0, 2, -3, 3, 3), (0, 0, 0, 0, 1)])
def test_composable_triples_are_the_oracle_chains(window, strict):
    # the chains are read by index off the pairs, in the order of the list
    # the oracle builds whole; without identities, the pairs into the last
    # time have no continuation, and the one-slice window has no chain
    pairs = [(s, g) for s, g in window_morphisms(*window) if not strict or s != g]
    want, got = composable_triples_oracle(pairs), composable_triples(pairs)
    assert [got[i] for i in range(len(got))] == list(got) == want
    assert [got[i] for i in range(-len(want), 0)] == want
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[i]


def test_functoriality_window(generic_theory):
    triples = list(composable_triples(window_morphisms(0, 2, 0, 4, 2)))[:200]
    rep = check_functoriality(generic_theory, triples)
    assert rep.ok, rep.violations[:2]


def test_functoriality_detects_breakage(generic_theory):
    # tamper a kept output factor of the two-to-one same-time restrictions;
    # chains factoring through them then disagree with the direct morphism
    def bad_mor(s, g):
        f = generic_theory.mor_fn(s, g)
        if len(g) == 1 and len(s) == 2 and next(iter(s))[0] == next(iter(g))[0]:
            sx = np.array([[0, 1], [1, 0]], dtype=complex)
            return P.compose(P.unitary_channel(f.cod, sx, [0]), f)
        return f

    broken = FieldTheory(
        category=generic_theory.category,
        obj_fn=generic_theory.obj_fn,
        mor_fn=bad_mor,
        slots_fn=generic_theory.slots_fn,
    )
    triples = [(sl(0, 0, 2, 4), sl(0, 0, 2), sl(0, 0))]
    rep = check_functoriality(broken, triples)
    assert not rep.ok


def test_functoriality_nan_scattering_fails_closed():
    # the unitarity gate reads not (dev <= tol), so a NaN scattering never
    # becomes a theory whose law checks could pass on samples that miss it
    from causal_fields.cca import PartitionedCCAConfig
    from causal_fields.errors import NotUnitary

    u = random_unitary(np.random.default_rng(5), 4)
    u[1, 2] = np.nan
    with pytest.raises(NotUnitary):
        PartitionedCCAConfig(d=1, cell_dim=2, scattering=u)


def test_identity_assignment(theory):
    rep = check_functoriality(theory, [(sl(0, 0), sl(0, 0), sl(0, 0))])
    assert rep.ok


# -- monoidality -----------------------------------------------------------------------

def test_monoidality_sampled(generic_theory):
    quads = sample_separated_quads(np.random.default_rng(3), 30)
    rep = check_monoidality(generic_theory, quads)
    assert rep.ok, rep.violations[:2]


def test_monoidality_unit_case(generic_theory):
    quads = [(sl(0, 0), sl(0, 0), frozenset(), frozenset())]
    rep = check_monoidality(generic_theory, quads)
    assert rep.ok


def test_singleton_factorisation(generic_theory):
    # the object of a finite slice is the tensor of its singleton objects
    merged = generic_theory.obj(sl(0, 0, 2))
    split = P.tensor_obj(generic_theory.obj(sl(0, 0)), generic_theory.obj(sl(0, 2)))
    assert merged == split


def test_slot_wiring_interleaved(generic_theory):
    # gamma's site lies between sigma's: the split of the union's object
    # into sigma's slots then gamma's moves factors, and the merge back
    # from the tensor of the parts undoes it
    sigma, gamma = sl(0, 0, 4), sl(0, 2)
    union = sigma | gamma
    merged = generic_theory.slots(union)
    concat = generic_theory.slots(sigma) + generic_theory.slots(gamma)
    p_split = slot_wiring(generic_theory.obj(union), merged, concat)
    assert p_split.out != tuple(range(len(merged)))
    assert p_split.cod == P.tensor_obj(generic_theory.obj(sigma), generic_theory.obj(gamma))
    p_merge = slot_wiring(p_split.cod, concat, merged)
    assert P.deviation(P.compose(p_merge, p_split), P.identity(p_split.dom), TOL) <= TOL


# -- environment / no-signalling ----------------------------------------------------------

def test_environment_equations(generic_theory):
    pairs = [
        (sl(0, 0, 2), sl(1, 1)),
        (sl(0, 0, 2, 4), sl(1, 1, 3)),
        (sl(0, 0, 2), sl(0, 0)),
    ]
    products = [(sl(0, 0), sl(0, 2)), (sl(0, 0, 2), sl(0, 4))]
    rep = check_environment(generic_theory, pairs, products)
    assert rep.ok, rep.violations[:2]


def test_environment_with_a_lossy_dead_step_still_fails(generic_theory, monkeypatch):
    # every evolution first shrinks its first factor by 0.9, a step no
    # output depends on once discarded: the cone keeps it, so the report
    # (violations and their deviations) is the full sweep's
    lossy = 0.9 * np.eye(2, dtype=complex)

    def mor_fn(sigma, gamma):
        f = generic_theory.mor(sigma, gamma)
        if not (sigma and gamma):
            return f
        return P.ProcMorphism(f.dom, f.cod, (("matrix", lossy, (0,)),) + f.ops, f.gone, f.out)

    theory = FieldTheory(generic_theory.category, generic_theory.obj_fn, mor_fn, generic_theory.slots_fn)
    pairs = [(sl(0, 0, 2), sl(1, 1)), (sl(0, 0, 2, 4), sl(1, 1, 3)), (sl(0, 0, 2), sl(0, 0))]
    products = [(sl(0, 0), sl(0, 2))]
    rep = check_environment(theory, pairs, products)
    assert not rep.ok and len(rep.violations) == 3

    exact = P.deviation  # without tol: the full sweep's max entry
    monkeypatch.setattr(P, "deviation", lambda f, g, tol=None: exact(f, g))
    assert rep.to_json() == check_environment(theory, pairs, products).to_json()


def test_discard_effect_of_empty_is_one(generic_theory):
    eff = generic_theory.discard_effect(frozenset())
    assert eff.dom.factors == () == eff.cod.factors
    assert P.deviation(eff, P.identity(P.unit(P.QUANTUM)), TOL) <= TOL


def test_environment_matches_backend_discard(generic_theory):
    sigma = sl(0, 0, 2)
    effect, discard = generic_theory.discard_effect(sigma), P.discard(generic_theory.obj(sigma))
    assert P.deviation(effect, discard, TOL) <= TOL


# Theories whose union slots are not their parts' slots reordered: the first
# label of each slice renamed, so the parts' labels clash in the union
# (slot_wiring raises BadFactorIndex), or, on a slice of three or more
# events (every union of the samples below), the first label repeated over
# the second, so the union lacks a label of a part (ValueError).
SLOT_MUTANTS = {
    "renamed": lambda s, slots: [("renamed",)] + slots[1:],
    "repeated": lambda s, slots: slots[:1] * 2 + slots[2:] if len(s) > 2 else slots,
}


@pytest.mark.parametrize("mutant", sorted(SLOT_MUTANTS))
def test_mismatched_slots_fail_monoidality_and_no_signalling_unwired(monkeypatch, mutant):
    # the slot check before the wiring: every sample fails its law with a
    # NaN deviation, counted once, and no permutation is built
    theory = relabelled(build_cca(dirac_config(0.4, 0.1)), SLOT_MUTANTS[mutant])
    quads = sample_separated_quads(np.random.default_rng(3), 8)
    products = [(s, g) for s, _, g, _ in quads]

    def unwired(*a):
        raise AssertionError("a sample without a wiring was wired")

    monkeypatch.setattr(P, "permute_factors", unwired)
    reports = {"object equation": check_monoidality(theory, quads),
               "discard of product": check_environment(theory, [], products)}
    for law, report in reports.items():
        assert report.samples == len(quads), law
        violations = [(v["witness"]["law"], v["deviation"]) for v in report.to_json()["violations"]]
        assert violations == [(law, "NaN")] * len(quads)


# -- state families and the presheaf ----------------------------------------------------------

def region_tower():
    big = CategoryRegion.bounded(sl(0, 0, 2, 4), sl(2, 2))
    mid = CategoryRegion.bounded(sl(0, 0, 2), sl(1, 1))
    small = CategoryRegion.bounded(sl(0, 0), sl(0, 0))
    return big, mid, small


def test_region_events(theory):
    big, _, _ = region_tower()
    events = big.events(theory.category.order)
    assert events == region_between(theory.category.order, sl(0, 0, 2, 4), sl(2, 2))


def test_region_slices_refuses_a_region_past_the_bound(theory):
    # the diamond from (0, 0) to (256, 0) holds 129^2 = 16,641 > 2^14 events
    region = CategoryRegion.bounded(sl(0, 0), sl(256, 0))
    assert len(region.events(theory.category.order)) == 129 ** 2
    with pytest.raises(NonEnumerableRegion):
        region_slices(theory, region)


def test_push_forward_family_is_stable(theory):
    big, _, _ = region_tower()
    sigma = sl(0, 0, 2, 4)
    rho = P.state(theory.obj(sigma), random_density(RNG, theory.obj(sigma).dim))
    fam = push_forward_family(theory, big, sigma, rho)
    rep = check_stable_family(theory, fam)
    assert rep.ok and rep.samples > len(fam.states)


def test_perturbed_family_not_stable(theory):
    big, _, _ = region_tower()
    sigma = sl(0, 0, 2, 4)
    rho = P.state(theory.obj(sigma), random_density(RNG, theory.obj(sigma).dim))
    fam = push_forward_family(theory, big, sigma, rho)
    victim = sl(1, 1)
    d = theory.obj(victim).dim
    fam.states[victim] = P.state(theory.obj(victim), np.eye(d, dtype=complex) / d)
    rep = check_stable_family(theory, fam)
    # every violation is an ordering onto the victim, and each is listed
    pairs = [v["witness"]["pair"] for v in rep.violations]
    assert pairs and all(gamma == victim != delta for delta, gamma in pairs)
    assert len(pairs) == sum(theory.category.hom(s, victim) for s in fam.states if s != victim)


def test_family_state_on_a_wrong_object_is_a_violation(theory):
    # a held state on another object than the theory's is recorded with a
    # NaN deviation in each comparison it takes part in, not raised
    big, _, _ = region_tower()
    sigma = sl(0, 0, 2, 4)
    rho = P.state(theory.obj(sigma), random_density(RNG, theory.obj(sigma).dim))
    fam = push_forward_family(theory, big, sigma, rho)
    victim = sl(1, 1)
    fam.states[victim] = P.basis_state(theory.obj(sl(0, 0, 2)), 0)
    rep = check_stable_family(theory, fam)
    assert rep.violations and all(np.isnan(v["deviation"]) for v in rep.violations)
    assert all(victim in v["witness"]["pair"] for v in rep.violations)
    assert (victim, victim) in [v["witness"]["pair"] for v in rep.violations]


def test_empty_region_vacuously_stable(theory):
    empty_region = CategoryRegion.bounded(frozenset(), frozenset())
    fam = push_forward_family(
        theory, empty_region, frozenset(), P.state(P.unit(P.QUANTUM), [[1.0]])
    )
    assert check_stable_family(theory, fam).ok


def test_restrict_states_identity_and_composition(theory):
    big, mid, small = region_tower()
    sigma = sl(0, 0, 2, 4)
    rho = P.state(theory.obj(sigma), random_density(RNG, theory.obj(sigma).dim))
    fam = push_forward_family(theory, big, sigma, rho)
    # identity
    same = restrict_states(theory, big, fam)
    assert set(same.states) == set(fam.states)
    # composition: restrict in one step vs through the middle region
    direct = restrict_states(theory, small, fam)
    via_mid = restrict_states(theory, small, restrict_states(theory, mid, fam))
    assert set(direct.states) == set(via_mid.states)
    for s in direct.states:
        assert P.state_deviation(direct.states[s], via_mid.states[s]) == 0.0
    # restrictions of stable families are stable
    assert check_stable_family(theory, restrict_states(theory, mid, fam)).ok


def test_restrict_states_requires_inclusion(theory):
    big, mid, _ = region_tower()
    sigma = sl(0, 0, 2)
    rho = P.state(theory.obj(sigma), random_density(RNG, theory.obj(sigma).dim))
    fam = push_forward_family(theory, mid, sigma, rho)
    with pytest.raises(NotInCategory):
        restrict_states(theory, big, fam)


def test_region_slices_enumeration(theory):
    _, mid, _ = region_tower()
    slices = region_slices(theory, mid)
    assert frozenset() in slices
    assert sl(0, 0, 2) in slices
    assert sl(1, 1) in slices


# -- global states and reversal ------------------------------------------------------------------

def leaves_tower():
    return [sl(0, 0, 2, 4), sl(1, 1, 3), sl(2, 2)]


def test_global_state_forward_only(generic_theory):
    leaves = leaves_tower()
    sigma = leaves[0]
    rho = P.state(generic_theory.obj(sigma), random_density(RNG, 64))
    gs = global_state_from_cauchy(generic_theory, None, sigma, rho, leaves)
    for leaf in leaves[1:]:
        want = P.apply(generic_theory.mor(sigma, leaf), rho)
        assert P.state_deviation(gs.state(leaf), want) <= 1e-12
    # sub-slice states come from restriction of the containing leaf
    sub = sl(1, 1)
    want = P.apply(generic_theory.mor(leaves[1], sub), gs.state(leaves[1]))
    assert P.state_deviation(gs.state(sub), want) <= 1e-12


def test_global_state_from_middle_slice(generic_theory):
    # reconstruct backwards onto slices inside the backward cone of the
    # datum, and compare with the construction from the initial leaf
    rev = build_reversal(generic_theory_config())
    leaves = leaves_tower()
    initial = leaves[0]
    rho0 = P.state(generic_theory.obj(initial), random_density(RNG, 64))
    from_initial = global_state_from_cauchy(generic_theory, rev, initial, rho0, leaves)
    sigma = leaves[1]
    rho_sigma = from_initial.state(sigma)
    past_narrow = sl(0, 2)  # inside the backward cone of sigma
    family = [past_narrow, sigma, leaves[2]]
    from_middle = global_state_from_cauchy(generic_theory, rev, sigma, rho_sigma, family)
    # the reconstructions agree on every slice determined by both data
    want_past = P.apply(generic_theory.mor(initial, past_narrow), rho0)
    assert P.state_deviation(from_middle.state(past_narrow), want_past) <= 1e-10
    assert P.state_deviation(from_middle.state(leaves[2]), from_initial.state(leaves[2])) <= 1e-10


def test_global_state_wide_past_not_reconstructible(generic_theory):
    rev = build_reversal(generic_theory_config())
    leaves = leaves_tower()
    sigma = leaves[1]
    rho = P.state(generic_theory.obj(sigma), random_density(RNG, 16))
    with pytest.raises(NotCauchy):
        global_state_from_cauchy(generic_theory, rev, sigma, rho, leaves)


def test_global_state_needs_normalised_datum(generic_theory):
    sigma = leaves_tower()[0]
    bad = P.state(generic_theory.obj(sigma), 0.5 * random_density(RNG, 64))
    with pytest.raises(NotCauchy):
        global_state_from_cauchy(generic_theory, None, sigma, bad, leaves_tower())


@pytest.mark.parametrize("name", sorted(not_states(16)[P.QUANTUM]))
def test_global_state_refuses_a_datum_that_is_not_a_state(name):
    # the data that run --mode density --initial refuses; triangular and
    # negative_diagonal have trace 1, so a rule on the trace alone takes them
    theory = build_cca(dirac_config(0.4, 0.1))
    sigma = lattice_slice(0, [0, 2])
    rho = P.state(theory.obj(sigma), not_states(16)[P.QUANTUM][name])
    with pytest.raises(NotCauchy):
        global_state_from_cauchy(theory, None, sigma, rho, [sigma, lattice_slice(1, [1])])


def test_global_state_past_leaf_needs_reversal(generic_theory):
    leaves = leaves_tower()
    sigma = leaves[1]
    rho = P.state(generic_theory.obj(sigma), random_density(RNG, 16))
    with pytest.raises(NotAReversal):
        global_state_from_cauchy(generic_theory, None, sigma, rho, leaves)


def test_zigzag_trivial_pair(generic_theory):
    rev = build_reversal(generic_theory_config())
    s, g = sl(0, 0, 2), sl(1, 1)
    rep = check_reversal(generic_theory, rev, [([s, g], [s, g])])
    assert rep.ok


def test_check_reversal_rejects_mismatched_endpoints(generic_theory):
    rev = build_reversal(generic_theory_config())
    with pytest.raises(NotAReversal):
        check_reversal(generic_theory, rev, [([sl(0, 0), sl(0, 0)], [sl(0, 2), sl(0, 2)])])


def test_check_reversal_refuses_a_reversal_with_other_objects(generic_theory):
    # the object branch: a reversal whose object of a chain's slice is not
    # the theory's is no reversal of it
    rev = build_reversal(generic_theory_config())
    other = FieldTheory(rev.category, lambda s: P.ProcObject(P.QUANTUM, (3,) * len(s)), rev.mor_fn, rev.slots_fn)
    s, g = sl(0, 0, 2), sl(1, 1)
    with pytest.raises(NotAReversal, match="objects"):
        check_reversal(generic_theory, other, [([s, g], [s, g])])


def test_check_reversal_sampled(generic_theory):
    rev = build_reversal(generic_theory_config())
    pairs = sample_zigzag_chain_pairs(np.random.default_rng(21), 20)
    assert check_reversal(generic_theory, rev, pairs).ok


def test_check_reversal_negative(generic_theory):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    wrong = reversal_theory(generic_theory_config(), np.kron(sx, np.eye(2)))
    pairs = [
        p
        for p in sample_zigzag_chain_pairs(np.random.default_rng(22), 40)
        if max(len(p[0]), len(p[1])) > 2
    ]
    rep = check_reversal(generic_theory, wrong, pairs)
    assert not rep.ok
    assert max(v["deviation"] for v in rep.violations) > 1e-6


# -- report serialisation ----------------------------------------------------------------------------

def test_report_json_shape(generic_theory):
    rep = check_functoriality(generic_theory, [(sl(0, 0), sl(0, 0), frozenset())])
    blob = rep.to_json()
    assert set(blob) == {"law", "samples", "violations"}
    assert isinstance(blob["violations"], list)


# -- the comparison memo of a law check ---------------------------------------------------------

def _without_memo(monkeypatch):
    # every comparison of a check calls P.deviation, as before the memo
    monkeypatch.setattr(P, "deviation_memo", lambda: lambda f, g, tol: P.deviation(f, g, tol))


@pytest.fixture()
def dirac_path(tmp_path):
    from causal_fields.cca import cca_config_to_json

    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(cca_config_to_json(dirac_config(0.4, 0.1))))
    return str(path)


@pytest.mark.parametrize("target", ["invariance", "functoriality", "monoidality", "nosignalling"])
def test_memo_hides_no_violation(monkeypatch, tmp_path, dirac_path, target):
    # on a theory whose kernels differ at one site, each check gives the
    # same report, violations and values included, with and without the memo
    from causal_fields import cli

    u = random_unitary(np.random.default_rng(8), 4)
    monkeypatch.setattr(cli, "build_cca", lambda config: position_dependent(build_cca(config), (0,), u))
    argv = ["check", target, "--cca", dirac_path, "--samples", "24", "--seed", "4", "--out"]
    memo, reference = tmp_path / "memo.json", tmp_path / "reference.json"
    memo_code = cli.main([*argv, str(memo)])
    _without_memo(monkeypatch)
    assert cli.main([*argv, str(reference)]) == memo_code
    assert memo.read_bytes() == reference.read_bytes()
    if target == "invariance":
        assert memo_code == 1 and json.loads(memo.read_text())["violations"]


def test_memo_hides_no_functoriality_violation(monkeypatch):
    # the CLI's functoriality samples are mostly restrictions; these chains
    # of one-step morphisms through the site do break the law
    u = random_unitary(np.random.default_rng(8), 4)
    theory = position_dependent(build_cca(dirac_config(0.4, 0.1)), (0,), u)
    triples = [(s, g, d) for s, g, d in composable_triples(window_morphisms(0, 2, -3, 3, 3)) if s != g != d and d]
    memo = check_functoriality(theory, triples)
    _without_memo(monkeypatch)
    reference = check_functoriality(theory, triples)
    assert not memo.ok
    assert json.dumps(memo.to_json(), default=repr) == json.dumps(reference.to_json(), default=repr)


def test_invariance_compares_each_distinct_pair_once(monkeypatch, tmp_path, dirac_path):
    # the CLI's invariance samples are mostly translates of each other: the
    # memo calls P.deviation once per distinct pair of programs
    from causal_fields import cli

    exact, calls = P.deviation, []
    monkeypatch.setattr(P, "deviation", lambda f, g, tol=None: calls.append((f, g)) or exact(f, g, tol))
    argv = ["check", "invariance", "--cca", dirac_path, "--samples", "6", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    memo_calls = len(calls)
    calls.clear()
    _without_memo(monkeypatch)
    assert cli.main(argv) == 0
    distinct = {(P.program_form(f), P.program_form(g)) for f, g in calls}
    assert memo_calls == len(distinct) < len(calls)


# -- every float checker fails closed -----------------------------------------------------------

def _float_checks(theory, reversal):
    """The five float checkers, each on fixed samples that meet site 0."""
    from causal_fields.cca import check_invariance, identity_invariance, translation_action

    rng = np.random.default_rng(13)
    pairs = window_morphisms(0, 2, -3, 3, 3)
    triples = [(s, g, d) for s, g, d in composable_triples(pairs) if s != g != d and d]
    pairs = pairs[::6]
    # the default window's quads that keep to sites -2..2, so some steps meet site 0
    quads = [q for q in sample_separated_quads(rng, 400)
             if all(-2 <= x <= 2 for s in q for _, (x,) in s)][:12]
    assert len(quads) == 12
    words = [(("tau_p", 1),), (("tau_m", -1),)]
    return {
        "functoriality": check_functoriality(theory, triples),
        "monoidality": check_monoidality(theory, quads),
        "no-signalling": check_environment(theory, pairs, [(s, g) for s, _, g, _ in quads]),
        "reversal": check_reversal(theory, reversal, sample_zigzag_chain_pairs(rng, 12)),
        "invariance": check_invariance(
            theory, translation_action(1), identity_invariance(theory), words, pairs,
            word_pairs=[(words[0], words[1])], slice_samples=[sl(0, 0), sl(0, 0, 2)],
        ),
    }


def test_float_checkers_fail_closed_on_nan():
    # a NaN cell matrix at one site gives a NaN comparison in every float
    # checker: each report fails on it and takes the clean theory's samples
    config = dirac_config(0.4, 0.1)
    clean, reversal = build_cca(config), build_reversal(config)
    broken = position_dependent(clean, (0,), np.full((4, 4), np.nan, dtype=complex))
    reference = _float_checks(clean, reversal)
    for law, report in _float_checks(broken, reversal).items():
        assert reference[law].ok, law
        assert not report.ok, law
        assert "NaN" in [v["deviation"] for v in report.to_json()["violations"]], law
        assert report.samples == reference[law].samples, law


# -- detection power: the suites at their default samples on a planted defect ----------------

# The share of seeds 0-7 on which each suite, at the CLI's default 50
# samples, fails on a theory whose kernels differ at site 0.  Functoriality's
# samples almost never meet a step kernel through the site (ROADMAP item 1).
DETECTED_OF_8 = {"functoriality": 0, "monoidality": 8, "invariance": 8}


def test_site_defect_detection_table():
    from causal_fields.cca import check_suite

    u = random_unitary(np.random.default_rng(8), 4)
    theory = position_dependent(build_cca(dirac_config(0.4, 0.1)), (0,), u)
    detected = {target: sum(not check_suite(target, theory, None, np.random.default_rng(seed), 50, TOL).ok
                            for seed in range(8))
                for target in DETECTED_OF_8}
    assert detected == DETECTED_OF_8
