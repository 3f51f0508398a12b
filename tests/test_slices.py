import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_fields.errors import BadParams, InvalidFoliation, UnboundedQuery
from causal_fields.order import (
    ExplicitOrder,
    Window,
    build_explicit,
    diamond,
    future_domain,
    lattice,
    materialize,
    region_between,
    reverse,
)
from causal_fields import slices as slices_module
from causal_fields.report import Report
from causal_fields.slices import (
    SliceCategory,
    all_slices_category,
    enumerate_slices,
    foliation_category,
    is_cauchy,
    is_slice,
    maximal_slices,
    slice_leads_to,
    space_like_separated,
    validate_foliation,
    validate_slice_category,
)

from helpers import all_subsets, maximal_chains, random_dag

CHAIN = build_explicit(["a", "b"], [("a", "b")])
CHAIN3 = build_explicit(["a", "b", "c"], [("a", "b"), ("b", "c")])
FORK = build_explicit(["a", "b", "c"], [("a", "c"), ("b", "c")])


def ev(t, *xs):
    return (t, tuple(xs))


# -- predicates -----------------------------------------------------------------

def test_is_slice_empty():
    assert is_slice(CHAIN, frozenset())


def test_is_slice_related_pair():
    assert not is_slice(CHAIN, {"a", "b"})


def test_is_slice_lattice():
    assert is_slice(lattice(1), {ev(0, 0), ev(0, 2)})


def test_separated_antichain_singletons():
    anti = build_explicit(["a", "b"], [])
    assert space_like_separated(anti, {"a"}, {"b"})


def test_separated_chain_fails():
    assert not space_like_separated(CHAIN3, {"a"}, {"c"})


def test_separated_lattice_cone():
    assert space_like_separated(lattice(1), {ev(0, 0)}, {ev(1, 3)})


def test_leads_to_subslice():
    assert slice_leads_to(FORK, {"a", "b"}, {"a"})


def test_leads_to_empty_target():
    assert slice_leads_to(FORK, {"a"}, frozenset())


def test_leads_to_fork():
    assert not slice_leads_to(FORK, {"a"}, {"c"})
    assert slice_leads_to(FORK, {"a", "b"}, {"c"})


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_two_chain():
    got = sorted(enumerate_slices(CHAIN), key=sorted)
    assert got == [frozenset(), frozenset({"a"}), frozenset({"b"})]
    assert sorted(maximal_slices(CHAIN), key=sorted) == [frozenset({"a"}), frozenset({"b"})]


def test_enumerate_two_antichain():
    anti = build_explicit(["a", "b"], [])
    assert len(list(enumerate_slices(anti))) == 4
    assert list(maximal_slices(anti)) == [frozenset({"a", "b"})]


def test_enumerate_fork_maximal():
    got = sorted(maximal_slices(FORK), key=sorted)
    assert got == [frozenset({"a", "b"}), frozenset({"c"})]


def test_enumerate_unique():
    omega = random_dag(np.random.default_rng(3), max_events=7, p=0.3)
    got = list(enumerate_slices(omega))
    assert len(got) == len(set(got))
    for s in got:
        assert is_slice(omega, s)


def test_enumerate_lattice_needs_window():
    with pytest.raises(UnboundedQuery):
        list(enumerate_slices(lattice(1)))


def test_every_slice_extends_to_maximal():
    omega = random_dag(np.random.default_rng(4), max_events=7, p=0.3)
    maxes = list(maximal_slices(omega))
    for s in enumerate_slices(omega):
        assert any(s <= m for m in maxes)


# -- cauchy + foliations ------------------------------------------------------------------

def test_cauchy_fork():
    assert is_cauchy(FORK, {"a", "b"})
    assert is_cauchy(FORK, {"c"})
    assert not is_cauchy(FORK, {"a"})


def test_cauchy_empty_on_nonempty_order():
    assert not is_cauchy(FORK, frozenset())


def test_cauchy_lattice_constant_time():
    win = Window(0, 2, (-2,), (2,))
    d1 = lattice(1)
    leaf = frozenset((1, (x,)) for x in (-1, 1))
    assert is_cauchy(d1, leaf, win)


def test_validate_foliation_lattice_window():
    win = Window(0, 3, (-3,), (3,))
    d1 = lattice(1)
    fin = materialize(d1, win)
    leaves = [
        frozenset(e for e in fin.events if e[0] == t)
        for t in range(4)
    ]
    # the window is materialised first; the unbounded lattice is refused
    assert validate_foliation(fin, leaves).ok
    with pytest.raises(UnboundedQuery):
        validate_foliation(d1, leaves)


def test_validate_foliation_duplicate_leaf_fails():
    rep = validate_foliation(FORK, [{"a", "b"}, {"a", "b"}, {"c"}])
    assert not rep.ok
    assert any("disjoint" in v["witness"]["reason"] for v in rep.violations)


def test_validate_foliation_fork():
    assert validate_foliation(FORK, [{"a", "b"}, {"c"}]).ok


def _pairwise_foliation_reference(fin, leaves):
    """The foliation report as its conditions read: each leaf through
    ``is_slice`` and ``is_cauchy``, each pair through ``slice_leads_to`` both
    ways."""
    report = Report("foliation")
    leaves = [frozenset(leaf) for leaf in leaves]
    for i, leaf in enumerate(leaves):
        report.count()
        if not is_slice(fin, leaf):
            report.record({"leaf": i, "reason": "not an antichain"})
        elif not is_cauchy(fin, leaf):
            report.record({"leaf": i, "reason": "not a Cauchy slice"})
    for i, j in itertools.combinations(range(len(leaves)), 2):
        report.count()
        if not (slice_leads_to(fin, leaves[i], leaves[j]) or slice_leads_to(fin, leaves[j], leaves[i])):
            report.record({"leaves": (i, j), "reason": "not ordered by ->>"})
        if leaves[i] & leaves[j]:
            report.record({"leaves": (i, j), "reason": "not disjoint"})
    covered = frozenset().union(*leaves)
    for e in fin.events:
        if e not in covered:
            report.record({"event": e, "reason": "not covered by any leaf"})
    report.count()
    return report


# the foliation window of the structure_checks benchmark: 7 rows of the
# d=1 diamond lattice, each a Cauchy slice
FOL_WINDOW = Window(0, 6, (-6,), (6,))
FOL = materialize(lattice(1), FOL_WINDOW)
ROWS = [frozenset(e for e in FOL.events if e[0] == t) for t in range(7)]
LEFT = [frozenset(e for e in row if e[1][0] < 0) for row in ROWS]
RIGHT = [frozenset(e for e in row if e[1][0] > 0) for row in ROWS]
FOLIATION_CORPUS = {
    "covering": (FOL, ROWS),
    "reversed": (FOL, ROWS[::-1]),
    "not_covering": (FOL, ROWS[:-1]),
    # two crossing antichains, neither in the future domain of the other
    "unordered": (FOL, [LEFT[0] | RIGHT[2], LEFT[2] | RIGHT[0], *ROWS[3:]]),
    "overlapping": (FOL, [ROWS[0], ROWS[1], LEFT[1] | RIGHT[3], ROWS[4]]),
    "duplicate": (FOL, [ROWS[1], ROWS[1], ROWS[2]]),
    "not_antichain": (FOL, [frozenset({ev(0, 0), ev(1, 1)}), *ROWS[1:]]),
    "empty_leaf": (FOL, [frozenset(), *ROWS]),
    "no_leaves": (FOL, []),
    "fork": (FORK, [{"a", "b"}, {"c"}]),
    # a lattice window is materialised before its leaves are validated
    "lattice_window": (materialize(lattice(1), FOL_WINDOW), ROWS),
    "lattice_window_not_covering": (materialize(lattice(1), FOL_WINDOW), ROWS[1:]),
}


@pytest.mark.parametrize("name", sorted(FOLIATION_CORPUS))
def test_validate_foliation_matches_the_pairwise_reference(name):
    omega, leaves = FOLIATION_CORPUS[name]
    want = _pairwise_foliation_reference(omega, leaves)
    assert validate_foliation(omega, leaves).to_json() == want.to_json()


def test_validate_foliation_unknown_event_raises_as_the_reference():
    leaves = [ROWS[0], ROWS[1], frozenset({ev(2, 0), ev(99, 99)}), frozenset({ev(0, 100)})]
    with pytest.raises(Exception) as want:
        _pairwise_foliation_reference(FOL, leaves)
    with pytest.raises(type(want.value)) as got:
        validate_foliation(FOL, leaves)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["covering", "not_antichain", "lattice_window"])
def test_validate_foliation_makes_at_most_two_domain_passes_per_leaf(name, monkeypatch):
    omega, leaves = FOLIATION_CORPUS[name]
    calls = []
    domain = ExplicitOrder._domain

    def counted(self, bits, past=False):
        calls.append(past)
        return domain(self, bits, past)

    monkeypatch.setattr(ExplicitOrder, "_domain", counted)
    validate_foliation(omega, leaves)
    # D+ of every leaf, D- of every antichain leaf
    antichains = sum(is_slice(omega, leaf) for leaf in leaves)
    assert calls.count(False) == len(leaves)
    assert calls.count(True) == antichains
    assert len(calls) <= 2 * len(leaves)


def test_foliation_category_members():
    cat = foliation_category(FORK, [{"a", "b"}, {"c"}])
    members = sorted(cat.objects(), key=sorted)
    assert members == sorted(
        [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"}), frozenset({"c"})],
        key=sorted,
    )
    assert cat.contains(frozenset())


def test_foliation_category_rejects_leaves_that_miss_an_event():
    # {a, b} alone leaves c uncovered
    with pytest.raises(InvalidFoliation, match="not covered"):
        foliation_category(FORK, [{"a", "b"}])


# a small window whose rows foliate it, for region queries over every subset
BOX = materialize(lattice(1), Window(0, 2, (-2,), (2,)))
BOX_ROWS = [frozenset(e for e in BOX.events if e[0] == t) for t in range(3)]


@pytest.mark.parametrize("make", [lambda: foliation_category(BOX, BOX_ROWS), lambda: all_slices_category(BOX),
                                  lambda: foliation_category(FORK, [{"a", "b"}, {"c"}])],
                         ids=["foliation", "all-slices", "fork-foliation"])
def test_slices_within_is_the_members_inside_the_region(make):
    # asked through the membership predicate, the answer is the category's
    # objects inside the region, each once
    cat = make()
    objs = list(cat.objects())
    assert len(objs) == len(set(objs))
    for region in all_subsets(cat.order.events):
        got = cat.slices_within(region)
        assert len(got) == len(set(got))
        assert set(got) == {o for o in objs if o <= region}


def test_foliation_category_common_leaf_rule():
    cat = foliation_category(FORK, [{"a", "b"}, {"c"}])
    assert cat.tensor_defined({"a"}, {"b"})
    assert not cat.tensor_defined({"a"}, {"c"})


def test_validate_slice_category_all_slices():
    for omega in (CHAIN3, FORK):
        assert validate_slice_category(all_slices_category(omega)).ok


def test_validate_slice_category_foliation():
    cat = foliation_category(FORK, [{"a", "b"}, {"c"}])
    assert validate_slice_category(cat).ok


def test_validate_slice_category_missing_empty():
    cat = all_slices_category(FORK)
    broken = type(cat)(
        order=cat.order,
        contains=lambda s: bool(s) and cat.contains(s),
        product_rule=cat.product_rule,
        objects=lambda: [o for o in cat.objects() if o],
        label="broken",
    )
    rep = validate_slice_category(broken)
    assert not rep.ok
    assert any("empty" in v["witness"]["reason"] for v in rep.violations)


def _reference_validation(cat: SliceCategory) -> Report:
    """validate_slice_category on an enumerable category, spelled out as
    plain loops: condition (1) searches every hom for every related pair (on
    finite orders), condition (2) rebuilds the bounded region of every
    triple from diamonds."""
    report = Report("slice-category")
    omega = cat.order
    if not cat.contains(frozenset()):
        report.record({"reason": "empty slice is not a member"})
    report.count()
    objs = list(cat.objects())
    for x in omega.events if omega.is_finite else ():
        for y in omega.events:
            if omega.leq(x, y):
                report.count()
                if not any(x in s and y in g and cat.hom(s, g) for s in objs for g in objs):
                    report.record({"pair": (x, y), "reason": "condition (1) fails"})
    for sigma in objs:
        for gamma in objs:
            for delta in objs:
                report.count()
                box = set()
                for x in sigma:
                    for y in gamma:
                        box |= diamond(omega, x, y)
                if not cat.contains(delta & box):
                    report.record({"triple": (sigma, gamma, delta), "reason": "condition (2) fails"})
    for sigma in objs:
        for gamma in objs:
            report.count()
            if cat.tensor_defined(sigma, gamma):
                if not space_like_separated(omega, sigma, gamma):
                    report.record({"pair": (sigma, gamma), "reason": "product defined but not separated"})
                elif not cat.contains(sigma | gamma):
                    report.record({"pair": (sigma, gamma), "reason": "product leaves the category"})
    return report


def test_validate_slice_category_matches_triple_loop():
    # two chains a < c and b < d: dropping {a} breaks condition (2), since
    # {a, b} cut to the region between {a, b} and {c} is {a}
    omega = build_explicit(["a", "b", "c", "d"], [("a", "c"), ("b", "d")])
    full = all_slices_category(omega)
    broken = SliceCategory(
        order=omega,
        contains=lambda s: s != {"a"} and full.contains(s),
        product_rule=full.product_rule,
        objects=lambda: [o for o in full.objects() if o != {"a"}],
        label="broken",
    )
    got, want = validate_slice_category(broken), _reference_validation(broken)
    assert any("(2)" in v["witness"]["reason"] for v in got.violations)
    assert got.samples == want.samples
    assert got.violations == want.violations


def test_validate_slice_category_asks_each_restriction_once():
    # over the whole validation, contains is asked once per distinct slice:
    # the empty slice, the objects, every restriction to a bounded region
    # and the unions of defined products
    omega = build_explicit(["a", "b", "c", "d"], [("a", "c"), ("b", "d")])
    full = all_slices_category(omega)
    asked = collections.Counter()

    def contains(s):
        asked[s] += 1
        return s != {"a"} and full.contains(s)

    cat = SliceCategory(
        order=omega,
        contains=contains,
        product_rule=full.product_rule,
        objects=lambda: [o for o in full.objects() if o != {"a"}],
        label="broken",
    )
    got = validate_slice_category(cat)
    objs = list(cat.objects())
    cuts = {d & region_between(omega, s, g) for s in objs for g in objs for d in objs}
    unions = {s | g for s in objs for g in objs}
    assert cuts <= set(asked) <= {frozenset()} | set(objs) | cuts | unions
    assert set(asked.values()) == {1}
    want = _reference_validation(cat)
    assert any("(2)" in v["witness"]["reason"] for v in got.violations)
    assert got.samples == want.samples
    assert got.violations == want.violations


def _without(cat: SliceCategory, gone, product_rule=None) -> SliceCategory:
    """The category with the slices in ``gone`` removed from both its
    objects and its membership predicate."""
    gone = set(gone)
    return SliceCategory(
        order=cat.order,
        contains=lambda s: s not in gone and cat.contains(s),
        product_rule=product_rule or cat.product_rule,
        objects=lambda: [o for o in cat.objects() if o not in gone],
        label="without",
    )


def test_validate_lattice_window_category_is_pinned():
    # an enumerable category over the lattice, built here since no library
    # category enumerates one: the bitsets live on the sub-order induced on
    # the objects' events
    omega, box = lattice(1), materialize(lattice(1), Window(0, 2, (-2,), (2,)))
    cat = SliceCategory(omega, lambda s: is_slice(omega, s), lambda a, b: True,
                        lambda: enumerate_slices(box), label="lattice-window")
    rep = validate_slice_category(cat)
    assert (rep.samples, rep.violations) == (14401, [])
    broken = _without(cat, [frozenset({ev(0, 0)})])
    rep = validate_slice_category(broken)
    assert rep.samples == 12697 and len(rep.violations) == 56
    reason = "condition (2) fails"
    assert rep.violations[0]["witness"] == {
        "triple": ({ev(0, -2), ev(0, 0)}, {ev(0, -2), ev(0, 0)}, {ev(0, 0), ev(0, 2)}),
        "reason": reason,
    }
    assert rep.violations[-1]["witness"] == {
        "triple": ({ev(0, 0), ev(0, 2)}, {ev(2, 2)}, {ev(0, -2), ev(0, 0)}),
        "reason": reason,
    }
    want = _reference_validation(broken)
    assert (rep.samples, rep.violations) == (want.samples, want.violations)


def test_validate_refuses_a_large_category_before_enumerating_it(monkeypatch):
    # 64 slices: the refusal reads 4 of them and asks only for the empty one
    monkeypatch.setattr(slices_module, "MAX_CATEGORY_OBJECTS", 3)
    full = all_slices_category(build_explicit(list("abcdef"), []))
    pulled, asked = [], []

    def objects():
        for s in full.objects():
            pulled.append(s)
            yield s

    def contains(s):
        asked.append(s)
        return full.contains(s)

    cat = SliceCategory(full.order, contains, full.product_rule, objects, label="big")
    with pytest.raises(BadParams, match="'big' exceeds the limit of 3 objects"):
        validate_slice_category(cat)
    assert len(pulled) == 4
    assert asked == [frozenset()]


def test_validate_with_constructive_witnesses():
    from causal_fields.cca import cone_pair_witness, foliation_category_of_lattice

    cat = foliation_category_of_lattice(lattice(1))
    pairs = [((0, (0,)), (2, (0,))), ((0, (0,)), (1, (1,))), ((0, (0,)), (0, (0,)))]
    rep = validate_slice_category(
        cat, pair_witnesses=cone_pair_witness(1), event_pairs=pairs
    )
    assert rep.ok


def test_validate_records_a_failing_witness_and_skips_unrelated_pairs():
    # the witness branches of condition (1): a related pair whose witness
    # is no hom is recorded, and an unrelated pair is skipped before its
    # witness is asked for
    from causal_fields.cca import foliation_category_of_lattice

    cat = foliation_category_of_lattice(lattice(1))
    asked = []

    def singletons(x, y):
        asked.append((x, y))
        return {x}, {y}

    related = [((0, (0,)), (0, (0,))), ((0, (0,)), (1, (1,)))]
    unrelated = [((0, (0,)), (0, (2,))), ((1, (1,)), (0, (0,)))]
    rep = validate_slice_category(cat, pair_witnesses=singletons, event_pairs=related + unrelated)
    assert asked == related
    assert rep.samples == 4  # the empty slice, the two related pairs, the witness-only count
    assert rep.violations == [{"witness": {"pair": related[1], "reason": "witness fails condition (1)"},
                               "deviation": 0.0}]


def test_validate_non_enumerable_without_witnesses():
    cat = all_slices_category(lattice(1))
    rep = validate_slice_category(cat)
    assert not rep.ok


# -- property tests --------------------------------------------------------------------------------

dags = st.builds(
    lambda seed, p: random_dag(np.random.default_rng(seed), max_events=6, p=p),
    st.integers(0, 10_000),
    st.floats(0.1, 0.6),
)


@given(dags)
@settings(max_examples=40, deadline=None)
def test_prop_leads_to_reflexive_transitive(omega):
    slices = list(enumerate_slices(omega))
    for s in slices:
        assert slice_leads_to(omega, s, s)
    for a, b, c in itertools.product(slices[:12], repeat=3):
        if slice_leads_to(omega, a, b) and slice_leads_to(omega, b, c):
            assert slice_leads_to(omega, a, c)


@given(dags)
@settings(max_examples=40, deadline=None)
def test_prop_separation_stable_under_evolution(omega):
    slices = [s for s in enumerate_slices(omega) if s]
    for sigma, gamma in itertools.product(slices[:10], repeat=2):
        if not space_like_separated(omega, sigma, gamma):
            continue
        dplus = future_domain(omega, sigma)
        for sp in all_subsets(dplus, max_size=2):
            if slice_leads_to(omega, sigma, sp):
                assert space_like_separated(omega, sp, gamma)


@given(dags, st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_prop_foliation_category_is_slice_category(omega, seed):
    # build a layered foliation greedily: repeatedly peel minimal elements
    layers = []
    remaining = set(omega.events)
    sub = omega
    while remaining:
        layer = frozenset(e for e in sub.events if not sub.immediate_predecessors(e))
        layers.append(layer)
        remaining -= layer
        if not remaining:
            break
        sub = omega.suborder(remaining)
    rep = validate_foliation(omega, layers)
    if not rep.ok:
        return  # peeled layers of an arbitrary DAG need not be Cauchy
    cat = foliation_category(omega, layers)
    assert validate_slice_category(cat).ok


@given(dags)
@settings(max_examples=30, deadline=None)
def test_prop_cauchy_unique_intersection(omega):
    for sigma in maximal_slices(omega):
        if not is_cauchy(omega, sigma):
            continue
        for chain in maximal_chains(omega):
            assert len(set(chain) & sigma) == 1


@given(dags)
@settings(max_examples=40, deadline=None)
def test_prop_is_cauchy_matches_chain_definition(omega):
    chains = [set(c) for c in maximal_chains(omega)]
    for sigma in all_subsets(omega.events, max_size=3):
        want = is_slice(omega, sigma) and all(c & sigma for c in chains)
        assert is_cauchy(omega, sigma) == want
    for sigma in maximal_slices(omega):
        assert is_cauchy(omega, sigma) == all(c & sigma for c in chains)


@given(dags, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_prop_validator_matches_reference(omega, seed):
    # random slices removed from both objects and contains, and a random
    # product rule: every condition can fail, on the order and its reverse
    rng = np.random.default_rng(seed)
    full = all_slices_category(omega)
    objs = list(full.objects())
    gone = [s for s in objs if rng.random() < 0.2]
    allowed = {(a, b) for a in objs for b in objs if rng.random() < 0.7}
    cat = _without(full, gone, lambda a, b: (a, b) in allowed)
    for order in (omega, reverse(omega)):
        cat.order = order
        got, want = validate_slice_category(cat), _reference_validation(cat)
        assert got.samples == want.samples
        assert got.violations == want.violations
