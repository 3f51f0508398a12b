import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_fields.errors import (
    BadParams,
    CycleDetected,
    DuplicateEvent,
    InfinitePreimage,
    InvalidMorphism,
    UnboundedQuery,
    UnknownEvent,
)
from causal_fields.order import (
    OrderMorphism,
    Window,
    build_explicit,
    causal_paths,
    check_morphism,
    covers_to_json,
    diamond,
    epi_mono_factor,
    event_id,
    future,
    future_domain,
    induced_order,
    iterated_neighbourhood,
    lattice,
    materialize,
    order_from_json,
    order_to_dot,
    order_to_json,
    parse_lattice_event,
    past,
    past_domain,
    pullback_slice,
    region_between,
    reverse,
    window_covers,
    window_events,
)

from helpers import (
    BOX_WINDOWS,
    all_subsets,
    causal_paths_oracle,
    future_domain_oracle,
    maximal_chains,
    order_json_oracle,
    random_dag,
    reachable_oracle,
    shuffled_dag,
    window_order_oracle,
)

CHAIN = build_explicit(["a", "b", "c"], [("a", "b"), ("b", "c")])
FORK = build_explicit(["a", "b", "c"], [("a", "c"), ("b", "c")])


def ev(t, *xs):
    return (t, tuple(xs))


# -- construction ---------------------------------------------------------------

def test_build_chain_closure():
    assert CHAIN.leq("a", "c")
    assert not CHAIN.leq("c", "a")


def test_build_single_point():
    one = build_explicit(["a"], [])
    assert one.leq("a", "a")
    assert one.immediate_predecessors("a") == () == one.immediate_successors("a")


def test_build_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_explicit(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_duplicate_rejected():
    with pytest.raises(DuplicateEvent):
        build_explicit(["a", "a"], [])


def test_redundant_edges_reduced_to_hasse():
    omega = build_explicit(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert sorted(omega.hasse_edges()) == [("a", "b"), ("b", "c")]


# -- leq --------------------------------------------------------------------------

def test_lattice_leq_immediate():
    d1 = lattice(1)
    assert d1.leq(ev(0, 0), ev(1, 1))
    assert d1.leq(ev(0, 0), ev(0, 0))


def test_lattice_leq_outside_cone_matches_bfs():
    d1 = lattice(1)
    assert not d1.leq(ev(0, 0), ev(1, 3))
    assert reachable_oracle(d1, ev(0, 0), ev(1, 3), max_depth=6) is False
    # sampled agreement with breadth-first search
    for t in range(3):
        for x in range(-3, 4):
            if (x - t) % 2:
                continue
            want = reachable_oracle(d1, ev(0, 0), ev(t, x), max_depth=5)
            assert d1.leq(ev(0, 0), ev(t, x)) == want


def test_unknown_event():
    with pytest.raises(UnknownEvent):
        CHAIN.leq("a", "z")
    with pytest.raises(UnknownEvent):
        lattice(1).leq(ev(0, 1), ev(1, 1))


# -- future / past -----------------------------------------------------------------

def test_future_chain():
    assert future(CHAIN, {"b"}) == {"b", "c"}


def test_future_empty():
    assert future(CHAIN, frozenset()) == frozenset()


def test_future_fork():
    assert future(FORK, {"a"}) == {"a", "c"}
    assert past(FORK, {"c"}) == {"a", "b", "c"}


def test_future_lattice_needs_window():
    d1 = lattice(1)
    with pytest.raises(UnboundedQuery):
        future(d1, {ev(0, 0)})
    win = Window(0, 2, (-2,), (2,))
    got = future(d1, {ev(0, 0)}, win)
    assert got == {ev(0, 0), ev(1, -1), ev(1, 1), ev(2, -2), ev(2, 0), ev(2, 2)}


# -- domains of dependence -----------------------------------------------------------

def test_dplus_empty():
    assert future_domain(CHAIN, frozenset()) == frozenset()


def test_dplus_chain():
    assert future_domain(CHAIN, {"a"}) == {"a", "b", "c"}


def test_dplus_fork_blocked():
    assert future_domain(FORK, {"a"}) == {"a"}
    assert future_domain(FORK, {"a", "b"}) == {"a", "b", "c"}


def test_dminus_dual():
    assert past_domain(CHAIN, {"c"}) == {"a", "b", "c"}
    assert past_domain(FORK, {"c"}) == {"a", "b", "c"}


def test_dplus_lattice_single_slice():
    d1 = lattice(1)
    a = {ev(0, 0), ev(0, 2)}
    assert future_domain(d1, a) == {ev(0, 0), ev(0, 2), ev(1, 1)}


def test_dplus_lattice_mixed_times():
    d1 = lattice(1)
    a = {ev(0, 0), ev(0, 2), ev(1, -1)}
    got = future_domain(d1, a)
    assert ev(1, 1) in got
    assert ev(1, -1) in got
    assert ev(2, 0) in got  # predecessors (1,-1), (1,1) both in the domain
    assert ev(2, 2) not in got


# -- paths ------------------------------------------------------------------------------

def test_paths_chain_unique():
    assert list(causal_paths(CHAIN, "a", "c")) == [("a", "b", "c")]


def test_paths_singleton():
    assert list(causal_paths(CHAIN, "b", "b")) == [("b",)]


def test_paths_lattice_two_routes():
    d1 = lattice(1)
    got = sorted(causal_paths(d1, ev(0, 0), ev(2, 0)))
    assert got == [
        (ev(0, 0), ev(1, -1), ev(2, 0)),
        (ev(0, 0), ev(1, 1), ev(2, 0)),
    ]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("arrow", [1, -1])
def test_lattice_paths_match_the_diamond_walk(d, arrow):
    # every pair of a small window, x == y and unrelated pairs included;
    # the oracle's universe is wide enough to hold every diamond
    omega = lattice(d) if arrow > 0 else reverse(lattice(d))
    events = list(window_events(lattice(d), Window(0, 3, (-2,) * d, (2,) * d)))
    universe = list(window_events(lattice(d), Window(0, 3, (-5,) * d, (5,) * d)))
    for x, y in itertools.product(events, repeat=2):
        assert list(causal_paths(omega, x, y)) == causal_paths_oracle(omega, x, y, universe)


def test_paths_empty_when_unrelated():
    assert list(causal_paths(FORK, "a", "b")) == []


# -- diamonds and regions ------------------------------------------------------------------

def test_diamond_point():
    assert diamond(CHAIN, "b", "b") == {"b"}


def test_diamond_chain():
    assert diamond(CHAIN, "a", "c") == {"a", "b", "c"}


def test_diamond_lattice():
    d1 = lattice(1)
    assert diamond(d1, ev(0, 0), ev(2, 0)) == {ev(0, 0), ev(1, -1), ev(1, 1), ev(2, 0)}


def test_diamond_equals_union_of_paths():
    d1 = lattice(1)
    box = diamond(d1, ev(0, 0), ev(3, 1))
    from_paths = set()
    for p in causal_paths(d1, ev(0, 0), ev(3, 1)):
        from_paths |= set(p)
    assert box == from_paths


def test_region_between_slice_itself():
    sigma = frozenset({"a", "b"})
    assert region_between(FORK, sigma, sigma) == sigma


def test_region_between_singletons_is_diamond():
    assert region_between(CHAIN, {"a"}, {"c"}) == diamond(CHAIN, "a", "c")


def test_region_between_lattice():
    d1 = lattice(1)
    got = region_between(d1, {ev(0, 0), ev(0, 2)}, {ev(1, 1)})
    assert got == {ev(0, 0), ev(0, 2), ev(1, 1)}


# -- reversal ---------------------------------------------------------------------------------

def test_reverse_chain():
    rev = reverse(CHAIN)
    assert rev.leq("c", "a")
    assert not rev.leq("a", "c")


def test_reverse_involution():
    assert reverse(reverse(CHAIN)) == CHAIN
    d1 = lattice(1)
    assert reverse(reverse(d1)) == d1


def test_reverse_lattice_swaps_neighbours():
    d1 = lattice(1)
    rev = reverse(d1)
    assert set(rev.immediate_successors(ev(1, 1))) == set(d1.immediate_predecessors(ev(1, 1)))


WINDOWS = [Window(0, 3, (-3,), (3,)), Window(-1, 2, (-2, -1), (2, 2))]


@pytest.mark.parametrize("win", WINDOWS, ids=["d1", "d2"])
def test_reverse_lattice_is_forward_with_endpoints_swapped(win):
    fwd = lattice(len(win.lo))
    rev = reverse(fwd)
    assert rev.level(ev(2, *win.lo)) == -2 and rev != fwd
    events = list(window_events(fwd, win))
    for x, y in itertools.product(events, repeat=2):
        assert rev.leq(x, y) == fwd.leq(y, x)
        assert diamond(rev, x, y) == diamond(fwd, y, x)
    assert materialize(rev, win) == reverse(materialize(fwd, win))


@pytest.mark.parametrize("win", WINDOWS, ids=["d1", "d2"])
def test_induced_order_on_lattice_window_is_materialize(win):
    omega = lattice(len(win.lo))
    events = list(window_events(omega, win))
    sub = induced_order(omega, events)
    assert sub.events == tuple(events)  # the caller's event order is kept
    assert sub == materialize(omega, win)
    assert sub.hasse_edges() == materialize(omega, win).hasse_edges()


def test_induced_order_keeps_caller_order():
    sub = induced_order(CHAIN, ["c", "a"])
    assert sub.events == ("c", "a")
    assert sub.leq("a", "c") and not sub.leq("c", "a")
    assert CHAIN.suborder(["c", "a"]).events == ("a", "c")


# -- morphisms -----------------------------------------------------------------------------------

def test_identity_morphism_valid():
    assert check_morphism(OrderMorphism(CHAIN, CHAIN, {e: e for e in CHAIN.events}))


def test_collapse_chain_to_point_valid():
    point = build_explicit(["p"], [])
    f = OrderMorphism(CHAIN, point, {"a": "p", "b": "p", "c": "p"})
    assert check_morphism(f)


def test_antichain_to_chain_invalid():
    anti = build_explicit(["a", "b"], [])
    two = build_explicit(["p", "q"], [("p", "q")])
    f = OrderMorphism(anti, two, {"a": "p", "b": "q"})
    assert not check_morphism(f)


def test_check_morphism_refuses_a_mapping_that_is_not_on_the_domain_events():
    # the mapping-keys branch: a domain event left unmapped, or a key that
    # is no event of the domain
    point = build_explicit(["p"], [])
    assert not check_morphism(OrderMorphism(CHAIN, point, {"a": "p", "b": "p"}))
    assert not check_morphism(OrderMorphism(CHAIN, point, {"a": "p", "b": "p", "c": "p", "z": "p"}))


def test_check_morphism_refuses_a_related_pair_sent_to_an_unrelated_one():
    # the order-preservation branch: a < b in the chain, sent to two
    # unrelated events
    anti = build_explicit(["p", "q"], [])
    assert not check_morphism(OrderMorphism(CHAIN, anti, {"a": "p", "b": "q", "c": "q"}))


def test_epi_mono_injective():
    sub = build_explicit(["a", "c"], [("a", "c")])
    f = OrderMorphism(sub, CHAIN, {"a": "a", "c": "c"})
    q, m = epi_mono_factor(f)
    assert q.is_injective() and set(q.mapping.values()) == {"a", "c"}
    assert check_morphism(q) and check_morphism(m)


def test_epi_mono_constant():
    point_img = OrderMorphism(CHAIN, CHAIN, {"a": "b", "b": "b", "c": "b"})
    q, m = epi_mono_factor(point_img)
    assert len(q.cod.events) == 1
    assert check_morphism(q) and check_morphism(m)
    back = {e: m(q(e)) for e in CHAIN.events}
    assert back == point_img.mapping


def test_epi_mono_rejects_a_non_morphism():
    anti = build_explicit(["a", "b"], [])
    two = build_explicit(["p", "q"], [("p", "q")])
    with pytest.raises(InvalidMorphism):
        epi_mono_factor(OrderMorphism(anti, two, {"a": "p", "b": "q"}))


# -- pullbacks ------------------------------------------------------------------------------------

def test_pullback_identity():
    f = OrderMorphism(FORK, FORK, {e: e for e in FORK.events})
    sub, slices = pullback_slice(f, {"a", "b"})
    assert set(sub.events) == {"a", "b"}
    assert sorted(slices, key=sorted) == sorted(
        [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})],
        key=sorted,
    )


def test_pullback_needs_a_finite_domain():
    f = OrderMorphism(lattice(1), lattice(1), {})
    with pytest.raises(InfinitePreimage):
        pullback_slice(f, {(0, (0,))})


def test_pullback_collapsed_antichain():
    anti = build_explicit(["a", "b"], [])
    point = build_explicit(["p"], [])
    f = OrderMorphism(anti, point, {"a": "p", "b": "p"})
    sub, slices = pullback_slice(f, {"p"})
    assert set(sub.events) == {"a", "b"}
    assert set(slices) == {frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}


def test_pullback_slices_are_antichains():
    rng = np.random.default_rng(11)
    for _ in range(20):
        omega = random_dag(rng, max_events=6, p=0.4)
        cod = build_explicit(["p", "q"], [("p", "q")])
        mapping = {}
        for e in omega.events:
            mapping[e] = "p"
        f = OrderMorphism(omega, cod, mapping)
        if not check_morphism(f):
            continue
        sub, slices = pullback_slice(f, {"p"})
        for s in slices:
            assert all(
                not sub.leq(x, y)
                for x in s
                for y in s
                if x != y
            )
        # the product-of-fibre-slices enumeration matches plain antichain the count
        from causal_fields.order import _antichains

        assert sorted(map(sorted, slices)) == sorted(
            map(sorted, _antichains(sub, list(sub.events)))
        )


# -- lattice constructor -------------------------------------------------------------------------

def test_lattice_d1_successors():
    d1 = lattice(1)
    assert set(d1.immediate_successors(ev(0, 0))) == {ev(1, -1), ev(1, 1)}


def test_lattice_d2_four_successors():
    d2 = lattice(2)
    assert len(d2.immediate_successors(ev(0, 0, 0))) == 4


def test_lattice_parity_rejected():
    assert not lattice(1).has_event(ev(0, 1))


def test_iterated_neighbourhood():
    assert iterated_neighbourhood(0, 1) == [(0,)]
    assert sorted(iterated_neighbourhood(2, 1)) == [(-2,), (0,), (2,)]
    assert len(iterated_neighbourhood(1, 2)) == 4
    assert len(iterated_neighbourhood(3, 2)) == 16


# -- windows and io -------------------------------------------------------------------------------

def test_materialize_window():
    d1 = lattice(1)
    win = Window(0, 2, (-2,), (2,))
    omega = materialize(d1, win)
    assert ev(0, 0) in omega.events
    assert omega.leq(ev(0, 0), ev(2, 0))
    assert ev(1, 3) not in set(omega.events)


@pytest.mark.parametrize("arrow", [1, -1])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t0, t1, lo, hi", BOX_WINDOWS)
def test_window_covers_are_the_closure_route(d, arrow, t0, t1, lo, hi):
    omega = lattice(d) if arrow == 1 else reverse(lattice(d))
    win = Window(t0, t1, (lo,) * d, (hi,) * d)
    want = window_order_oracle(omega, win)
    events, covers = window_covers(omega, win)
    assert tuple(events) == want.events
    assert [(events[i], events[j]) for i, j in covers] == want.hasse_edges()
    got = materialize(omega, win)
    assert got.events == want.events
    assert got.hasse_edges() == want.hasse_edges()
    assert got == want
    assert covers_to_json(events, covers) == order_to_json(got) == order_json_oracle(want)


def test_json_roundtrip():
    blob = order_to_json(CHAIN)
    again = order_from_json(blob)
    assert again == CHAIN
    assert order_to_json(again) == blob


def test_json_lattice_spec():
    assert order_from_json({"lattice": {"d": 2}}) == lattice(2)


def test_event_id_forms():
    assert event_id("a") == "a"
    assert event_id(ev(1, -2)) == "1,-2"
    assert parse_lattice_event("1,-2") == ev(1, -2)


def test_dot_export():
    dot = order_to_dot(CHAIN)
    assert dot.count("->") == 2
    assert '"a" -> "b"' in dot


def test_dot_export_escapes_quotes():
    # a '"' inside an id would end the DOT quoted id early
    dot = order_to_dot(build_explicit(['a"b', "c"], [('a"b', "c")]))
    assert '  "a\\"b";' in dot.splitlines()
    assert '  "a\\"b" -> "c";' in dot.splitlines()


def test_dot_export_refuses_an_id_ending_in_a_backslash():
    # "a\" would never close: DOT reads its final \" as an escaped quote,
    # and has no escape for a backslash
    with pytest.raises(BadParams, match="ends in a backslash"):
        order_to_dot(build_explicit(["a\\", "c"], [("a\\", "c")]))
    dot = order_to_dot(build_explicit(["a\\b", "c"], [("a\\b", "c")]))
    assert '  "a\\b" -> "c";' in dot.splitlines()


# -- property tests --------------------------------------------------------------------------------

dags = st.builds(
    lambda seed, p: random_dag(np.random.default_rng(seed), max_events=8, p=p),
    st.integers(0, 10_000),
    st.floats(0.1, 0.6),
)


@given(dags)
@settings(max_examples=60, deadline=None)
def test_prop_partial_order_laws(omega):
    es = omega.events
    for x in es:
        assert omega.leq(x, x)
    for x in es:
        for y in es:
            if x != y and omega.leq(x, y):
                assert not omega.leq(y, x)
            for z in es:
                if omega.leq(x, y) and omega.leq(y, z):
                    assert omega.leq(x, z)


@given(dags, st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_prop_dplus_oracle_and_bounds(omega, seed):
    rng = np.random.default_rng(seed)
    events = list(omega.events)
    k = int(rng.integers(0, len(events) + 1))
    a = frozenset(events[i] for i in rng.choice(len(events), size=k, replace=False))
    dplus = future_domain(omega, a)
    assert dplus == future_domain_oracle(omega, a)
    assert a <= dplus
    assert dplus <= future(omega, a)


@given(dags)
@settings(max_examples=40, deadline=None)
def test_prop_dependence_propagation(omega):
    # if B lies in D+(A) then future(B) <= future(A) and
    # past(B) <= past(A) | future(A)
    events = list(omega.events)
    for a in all_subsets(events, max_size=2):
        dplus = future_domain(omega, a)
        for b in all_subsets(dplus, max_size=2):
            if not b:
                continue
            assert future(omega, b) <= future(omega, a)
            assert past(omega, b) <= past(omega, a) | future(omega, a)


@given(dags)
@settings(max_examples=40, deadline=None)
def test_prop_reverse_involution_and_duality(omega):
    assert reverse(reverse(omega)) == omega
    rev = reverse(omega)
    for a in all_subsets(omega.events, max_size=2):
        assert future_domain(rev, a) == past_domain(omega, a)


@given(dags)
@settings(max_examples=30, deadline=None)
def test_prop_maximal_chains_cover(omega):
    seen = set()
    for c in maximal_chains(omega):
        seen |= set(c)
        for u, v in itertools.pairwise(c):
            assert v in omega.immediate_successors(u)
    assert seen == set(omega.events)


@st.composite
def supplied_edges(draw):
    """Events e0..e{n-1} listed in shuffled order, with random edges
    e_i -> e_j (i < j): redundant ones and duplicates included."""
    n = draw(st.integers(0, 9))
    events = draw(st.permutations([f"e{i}" for i in range(n)]))
    edges = []
    for _ in range(draw(st.integers(0, 3 * n if n > 1 else 0))):
        i = draw(st.integers(0, n - 2))
        edges.append((f"e{i}", f"e{draw(st.integers(i + 1, n - 1))}"))
    return events, edges + edges[: draw(st.integers(0, len(edges)))]


def _dfs_reach(events, edges) -> dict:
    out = {e: set() for e in events}
    for a, b in edges:
        out[a].add(b)
    reach = {}
    for x in events:
        seen, stack = {x}, [x]
        while stack:
            for b in out[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach[x] = seen
    return reach


@given(supplied_edges())
@settings(max_examples=200, deadline=None)
def test_prop_explicit_order_matches_brute_force(case):
    events, edges = case
    omega = build_explicit(events, edges)
    reach = _dfs_reach(events, edges)
    for x in events:
        for y in events:
            assert omega.leq(x, y) == (y in reach[x])
    # transitive reduction: x < y with nothing strictly between, listed by
    # the position of x, then of y, in the event list
    cover = [
        (x, y)
        for x in events
        for y in events
        if x != y and y in reach[x]
        and not any(z not in (x, y) and z in reach[x] and y in reach[z] for z in events)
    ]
    assert omega.hasse_edges() == cover
    n = len(events)
    for i in range(n):
        for j in range(n):
            assert (omega._up[i] >> j) & 1 == (omega._down[j] >> i) & 1
    if edges:
        # close a cycle a -> b -> ... -> z -> a through the first edge
        a, b = edges[0]
        z = sorted(reach[b])[-1]
        with pytest.raises(CycleDetected):
            build_explicit(events, edges + [(z, a)])


@given(dags, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_prop_region_between_is_union_of_diamonds(omega, seed):
    rng = np.random.default_rng(seed)
    events = list(omega.events)
    for _ in range(5):
        sigma = [e for e in events if rng.random() < 0.4]
        gamma = [e for e in events if rng.random() < 0.4]
        want = frozenset().union(*(diamond(omega, x, y) for x in sigma for y in gamma))
        assert region_between(omega, sigma, gamma) == want


@given(dags, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_prop_domains_match_chain_oracle(omega, seed):
    rng = np.random.default_rng(seed)
    rev = reverse(omega)
    for _ in range(5):
        a = frozenset(e for e in omega.events if rng.random() < 0.4)
        assert future_domain(omega, a) == future_domain_oracle(omega, a)
        assert past_domain(omega, a) == future_domain_oracle(rev, a)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_prop_causal_paths_match_the_diamond_walk(seed):
    # every pair, so x == y and pairs with x not <= y are included
    omega = shuffled_dag(np.random.default_rng(seed), max_events=8, p=0.5)
    for x, y in itertools.product(omega.events, repeat=2):
        assert list(causal_paths(omega, x, y)) == causal_paths_oracle(omega, x, y)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_prop_past_is_the_future_of_the_reverse(seed):
    omega = shuffled_dag(np.random.default_rng(seed), max_events=8, p=0.4)
    rev = reverse(omega)
    for a in all_subsets(omega.events, max_size=3):
        assert past(omega, a) == future(rev, a)
        assert past(omega, a) == {x for x in omega.events if any(omega.leq(x, e) for e in a)}
