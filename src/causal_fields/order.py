"""Causal orders: finite explicit posets and the implicit diamond lattice.

Events of an explicit order are arbitrary hashable values (strings when
loaded from JSON).  Events of the ``(1+d)`` diamond lattice are pairs
``(t, xs)`` with ``t`` an integer and ``xs`` a length-``d`` tuple of
integers satisfying the parity constraint ``xs[i] == t (mod 2)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    BadParams,
    CycleDetected,
    DuplicateEvent,
    InfinitePreimage,
    InvalidMorphism,
    UnboundedQuery,
    UnknownEvent,
)

Event = Hashable


# ---------------------------------------------------------------------------
# explicit finite orders
# ---------------------------------------------------------------------------

class ExplicitOrder:
    """A finite poset stored as events + Hasse edges + reachability closure.

    Reachability is kept as one bitset per event in each direction, so
    ``leq`` is O(1).  The stored edges are the transitive reduction of the
    supplied ones, so Hasse-adjacency queries (and hence causal paths and
    domains of dependence) are reliable even for redundant input.  The
    build takes two passes: up-sets and covers together in reverse
    topological order, then down-sets along covers.
    """

    is_finite = True

    def __init__(self, events: Sequence[Event], hasse_edges: Iterable[tuple[Event, Event]]):
        events = list(events)
        if len(set(events)) != len(events):
            raise DuplicateEvent("duplicate event in event list")
        self.events: tuple = tuple(events)
        self._index = {e: i for i, e in enumerate(events)}
        n = len(events)
        adj = [set() for _ in range(n)]
        for a, b in hasse_edges:
            if a not in self._index or b not in self._index:
                raise UnknownEvent(f"edge endpoint {a!r} or {b!r} not an event")
            if a == b:
                raise CycleDetected(f"self-loop at {a!r}")
            adj[self._index[a]].add(self._index[b])
        self._topo = self._toposort(adj)
        # Up-sets and covers in one pass, each event after every event it
        # reaches.  Successors are visited in topological order, so one above
        # another is already in the accumulated up-set: it is not a cover.
        rank = {x: i for i, x in enumerate(self._topo)}
        self._up, self._succ, self._pred = [0] * n, [()] * n, [[] for _ in range(n)]
        for x in reversed(self._topo):
            acc, covers = 1 << x, []
            for b in sorted(adj[x], key=rank.__getitem__):
                if not (acc >> b) & 1:
                    covers.append(b)
                    acc |= self._up[b]
            self._up[x], self._succ[x] = acc, tuple(sorted(covers))
        for x, ys in enumerate(self._succ):
            for y in ys:
                self._pred[y].append(x)
        self._down = self._closure(self._pred, self._topo)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _toposort(adj: list[set[int]]) -> list[int]:
        n = len(adj)
        indeg = [0] * n
        for outs in adj:
            for b in outs:
                indeg[b] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        order = []
        while queue:
            x = queue.pop()
            order.append(x)
            for b in adj[x]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
        if len(order) != n:
            raise CycleDetected("edges admit a directed cycle")
        return order

    @staticmethod
    def _closure(adj: Sequence[Iterable[int]], order: Iterable[int]) -> list[int]:
        """Reflexive reachability along ``adj``, visiting each event after
        every event it reaches."""
        reach = [0] * len(adj)
        for x in order:
            acc = 1 << x
            for b in adj[x]:
                acc |= reach[b]
            reach[x] = acc
        return reach

    # -- queries ---------------------------------------------------------------

    def has_event(self, e: Event) -> bool:
        return e in self._index

    def require_event(self, e: Event) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UnknownEvent(f"{e!r} is not an event of this order") from None

    def leq(self, x: Event, y: Event) -> bool:
        return bool(self._up[self.require_event(x)] & (1 << self.require_event(y)))

    def immediate_successors(self, x: Event) -> tuple:
        return tuple(self.events[i] for i in self._succ[self.require_event(x)])

    def immediate_predecessors(self, x: Event) -> tuple:
        return tuple(self.events[i] for i in self._pred[self.require_event(x)])

    def hasse_edges(self) -> list[tuple[Event, Event]]:
        return [
            (self.events[x], self.events[y])
            for x in range(len(self.events))
            for y in self._succ[x]
        ]

    def topological_order(self) -> list:
        return [self.events[i] for i in self._topo]

    def _bits_to_events(self, bits: int) -> set:
        out = set()
        while bits:
            b = bits & -bits
            out.add(self.events[b.bit_length() - 1])
            bits ^= b
        return out

    # -- event bitsets: bit i stands for ``events[i]`` ---------------------------

    def _mask(self, events: Iterable[Event]) -> int:
        bits = 0
        for e in events:
            bits |= 1 << self.require_event(e)
        return bits

    @staticmethod
    def _span(bits: int, table: Sequence[int]) -> int:
        """The OR of ``table[i]`` over the members ``i`` of ``bits``: with
        ``_up`` the up-closure of the set, with ``_down`` its down-closure."""
        out = 0
        while bits:
            b = bits & -bits
            out |= table[b.bit_length() - 1]
            bits ^= b
        return out

    def _domain(self, bits: int, past: bool = False) -> int:
        """D+ of a set of events (D- with ``past``), in one pass over the
        linear extension (backwards for D-): an event is in the domain iff
        it is in the set, or it has immediate predecessors (successors) and
        all of them are in the domain."""
        order, covers = (reversed(self._topo), self._succ) if past else (self._topo, self._pred)
        out = 0
        for x in order:
            if (bits >> x) & 1 or (covers[x] and all((out >> c) & 1 for c in covers[x])):
                out |= 1 << x
        return out

    def suborder(self, subset: Iterable[Event]) -> "ExplicitOrder":
        """The causal sub-order induced on a subset of events, in this
        order's event order."""
        keep = set(subset)
        return induced_order(self, [e for e in self.events if e in keep])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplicitOrder):
            return NotImplemented
        if set(self.events) != set(other.events):
            return False
        return all(
            self.leq(a, b) == other.leq(a, b)
            for a in self.events
            for b in self.events
        )

    def __hash__(self):
        return hash(frozenset(self.events))

    def __repr__(self):
        return f"ExplicitOrder({len(self.events)} events, {len(self.hasse_edges())} hasse edges)"


def build_explicit(events: Sequence[Event], hasse_edges: Iterable[tuple[Event, Event]]) -> ExplicitOrder:
    """Build a finite order whose relation is the reflexive-transitive
    closure of the given edges."""
    return ExplicitOrder(events, hasse_edges)


def induced_order(omega: "CausalOrder", events: Iterable[Event]) -> ExplicitOrder:
    """The explicit sub-order of any causal order induced on a finite set of
    its events, with the events kept in the caller's order."""
    events = list(events)
    edges = [(a, b) for a in events for b in events if a != b and omega.leq(a, b)]
    return ExplicitOrder(events, edges)


# ---------------------------------------------------------------------------
# the (1+d) diamond lattice, in either time direction
# ---------------------------------------------------------------------------

def neighbourhood(d: int) -> list[tuple[int, ...]]:
    """The set {+-1}^d of immediate-step displacements."""
    return [tuple(s) for s in itertools.product((-1, 1), repeat=d)]


def iterated_neighbourhood(k: int, d: int) -> list[tuple[int, ...]]:
    """The k-fold sumset of the neighbourhood; {0}^d for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    line = list(range(-k, k + 1, 2)) if k else [0]
    return [tuple(s) for s in itertools.product(line, repeat=d)]


class DiamondLattice:
    """The infinite diamond lattice on {(t, xs) : xs == (t,...,t) mod 2}.

    ``arrow`` is the time arrow.  With +1 an event precedes the events of
    later times inside its light cone; -1 is the causal reverse, the same
    events with the relation transposed.  ``level`` is ``arrow * t``, and an
    immediate successor is one step of ``t`` in the direction of ``arrow``.
    """

    is_finite = False

    def __init__(self, d: int, arrow: int = 1):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if arrow not in (1, -1):
            raise ValueError("arrow must be +1 or -1")
        self.d = d
        self.arrow = arrow
        self._nbhd = neighbourhood(d)

    def has_event(self, e: Event) -> bool:
        if not (isinstance(e, tuple) and len(e) == 2):
            return False
        t, xs = e
        if not (isinstance(t, int) and isinstance(xs, tuple) and len(xs) == self.d):
            return False
        return all(isinstance(x, int) and (x - t) % 2 == 0 for x in xs)

    def require_event(self, e: Event) -> Event:
        if not self.has_event(e):
            raise UnknownEvent(f"{e!r} is not an event of the d={self.d} lattice")
        return e

    def level(self, e: Event) -> int:
        return self.arrow * e[0]

    def leq(self, x: Event, y: Event) -> bool:
        (t, a), (s, b) = self.require_event(x), self.require_event(y)
        k = self.arrow * (s - t)
        if k < 0:
            return False
        return all(abs(b[i] - a[i]) <= k for i in range(self.d))

    def _step(self, x: Event, sign: int) -> tuple:
        t, a = self.require_event(x)
        return tuple(
            (t + sign, tuple(a[i] + sign * dlt[i] for i in range(self.d))) for dlt in self._nbhd
        )

    def immediate_successors(self, x: Event) -> tuple:
        return self._step(x, self.arrow)

    def immediate_predecessors(self, x: Event) -> tuple:
        return self._step(x, -self.arrow)

    def __eq__(self, other):
        if isinstance(other, DiamondLattice):
            return (self.d, self.arrow) == (other.d, other.arrow)
        return NotImplemented

    def __hash__(self):
        return hash(("diamond", self.d, self.arrow))

    def __repr__(self):
        return f"DiamondLattice(d={self.d}, arrow={self.arrow:+d})"


CausalOrder = ExplicitOrder | DiamondLattice


def lattice(d: int) -> DiamondLattice:
    return DiamondLattice(d)


def reverse(omega: CausalOrder) -> CausalOrder:
    """The same events with the order relation transposed."""
    if isinstance(omega, ExplicitOrder):
        return ExplicitOrder(omega.events, [(b, a) for a, b in omega.hasse_edges()])
    if isinstance(omega, DiamondLattice):
        return DiamondLattice(omega.d, -omega.arrow)
    raise TypeError(f"not a causal order: {omega!r}")


# ---------------------------------------------------------------------------
# windows: bounded views of infinite lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """A time interval and coordinate bounding box on a lattice order."""

    t0: int
    t1: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]


def _level_ranges(d: int, window: Window, t: int) -> list[range]:
    """Per coordinate, the window's values of the parity of time t."""
    return [range(window.lo[i] + (window.lo[i] - t) % 2, window.hi[i] + 1, 2) for i in range(d)]


def window_events(omega: DiamondLattice, window: Window) -> Iterator[Event]:
    for t in range(window.t0, window.t1 + 1):
        for xs in itertools.product(*_level_ranges(omega.d, window, t)):
            yield (t, xs)


def window_covers(omega: DiamondLattice, window: Window) -> tuple[list, list[tuple[int, int]]]:
    """The events of a lattice window, in ``window_events`` order, and its
    covers as index pairs, in ``ExplicitOrder.hasse_edges`` order.

    The covers are the in-window immediate steps.  Each spans one time
    level, so none lies above another and the list is already the
    transitive reduction: no closure is needed to write the window out.
    A level's events are the product of its coordinate ranges, so a step
    x -> x +- 1 in each coordinate is an index offset in the next level,
    and the product of the offsets lists a cover's heads in index order.
    """
    levels = {t: _level_ranges(omega.d, window, t) for t in range(window.t0, window.t1 + 1)}
    events, first = [], {}
    for t, ranges in levels.items():
        first[t] = len(events)
        events.extend((t, xs) for xs in itertools.product(*ranges))
    covers = []
    for t, ranges in levels.items():
        nxt = t + omega.arrow
        if nxt not in levels:
            continue
        heads = levels[nxt]
        strides = [math.prod(map(len, heads[i + 1:])) for i in range(omega.d)]
        offsets = [
            [[w * r1.index(y) for y in (x - 1, x + 1) if y in r1] for x in r0]
            for r0, r1, w in zip(ranges, heads, strides)
        ]
        for i, per_coordinate in enumerate(itertools.product(*offsets), first[t]):
            covers.extend((i, first[nxt] + sum(o)) for o in itertools.product(*per_coordinate))
    return events, covers


def materialize(omega: DiamondLattice, window: Window) -> ExplicitOrder:
    """The explicit finite order induced on a window of a lattice."""
    events, covers = window_covers(omega, window)
    return ExplicitOrder(events, [(events[i], events[j]) for i, j in covers])


# ---------------------------------------------------------------------------
# futures, pasts, domains of dependence
# ---------------------------------------------------------------------------

def _require_all(omega: CausalOrder, a: Iterable[Event]):
    for e in a:
        omega.require_event(e)


def future(omega: CausalOrder, a: Iterable[Event], window: Window | None = None) -> frozenset:
    """The up-closure of a set of events (within a window, on lattices)."""
    a = frozenset(a)
    _require_all(omega, a)
    if omega.is_finite:
        return frozenset(omega._bits_to_events(omega._span(omega._mask(a), omega._up)))
    if window is None:
        raise UnboundedQuery("future on a lattice order needs a window")
    return frozenset(
        w for w in window_events(omega, window) if any(omega.leq(x, w) for x in a)
    )


def past(omega: CausalOrder, a: Iterable[Event], window: Window | None = None) -> frozenset:
    """The down-closure of a set of events: the future in the reversed
    order, read off the down-sets on finite orders."""
    if omega.is_finite:
        return frozenset(omega._bits_to_events(omega._span(omega._mask(a), omega._down)))
    return future(reverse(omega), a, window)


def future_domain(omega: CausalOrder, a: Iterable[Event]) -> frozenset:
    """The future domain of dependence: events x such that every causal
    path from the infinite past to x intersects the given set.

    Computed by the recursion "x is in the domain iff x is in the set, or x
    is non-minimal and all its immediate predecessors are in the domain".
    On finite orders that is one bitset pass over a linear extension.  On
    lattices the recursion is run level by level; it grounds out because
    the domain is contained in the up-closure of a finite set and each
    level's slice of the domain shrinks above the set's maximal time.
    """
    a = frozenset(a)
    _require_all(omega, a)
    if not a:
        return frozenset()
    if omega.is_finite:
        return frozenset(omega._bits_to_events(omega._domain(omega._mask(a))))
    levels = sorted({omega.level(e) for e in a})
    lo = levels[0]
    hi = levels[-1]
    by_level: dict[int, set] = {}
    for e in a:
        by_level.setdefault(omega.level(e), set()).add(e)
    current: set = set(by_level.get(lo, set()))
    out: set = set(current)
    lvl = lo
    while current or lvl < hi:
        lvl += 1
        candidates = set(by_level.get(lvl, set()))
        for e in current:
            candidates.update(omega.immediate_successors(e))
        nxt = set()
        for x in candidates:
            if x in by_level.get(lvl, set()):
                nxt.add(x)
            elif all(p in current for p in omega.immediate_predecessors(x)):
                nxt.add(x)
        out |= nxt
        current = nxt
    return frozenset(out)


def past_domain(omega: CausalOrder, a: Iterable[Event]) -> frozenset:
    """The past domain of dependence: the future domain in the reversed
    order.  On finite orders it is the mirror pass, backwards over the
    linear extension along immediate successors."""
    if omega.is_finite:
        return frozenset(omega._bits_to_events(omega._domain(omega._mask(a), past=True)))
    return future_domain(reverse(omega), a)


# ---------------------------------------------------------------------------
# paths, diamonds, regions
# ---------------------------------------------------------------------------

def diamond(omega: CausalOrder, x: Event, y: Event) -> frozenset:
    """The causal diamond {z : x <= z <= y}."""
    omega.require_event(x)
    omega.require_event(y)
    if omega.is_finite:
        xi, yi = omega._index[x], omega._index[y]
        return frozenset(omega._bits_to_events(omega._up[xi] & omega._down[yi]))
    if not omega.leq(x, y):
        return frozenset()
    (t, a), (s, b) = x, y
    out = []
    for lvl in range(t, s + omega.arrow, omega.arrow):
        up, down = abs(lvl - t), abs(s - lvl)
        ranges = []
        for i in range(omega.d):
            lo = max(a[i] - up, b[i] - down)
            hi = min(a[i] + up, b[i] + down)
            lo += (lo - lvl) % 2
            ranges.append(range(lo, hi + 1, 2))
        out.extend((lvl, xs) for xs in itertools.product(*ranges))
    return frozenset(out)


def causal_paths(omega: CausalOrder, x: Event, y: Event) -> Iterator[tuple]:
    """All causal paths (maximal chains) from x to y.

    A chain between fixed endpoints is maximal exactly when consecutive
    members are Hasse-adjacent, so paths are depth-first walks along
    immediate successors inside the diamond from x to y, run on event
    indices by ``_walks``.  On finite orders the walk follows ``_succ``
    inside the diamond's bitset ``up[x] & down[y]``, which is empty unless
    x <= y; on lattices it follows ``immediate_successors`` inside the
    indexed ``diamond``.
    """
    if omega.is_finite:
        xi, yi = omega.require_event(x), omega.require_event(y)
        yield from _walks(omega._succ, xi, yi, omega._up[xi] & omega._down[yi], omega.events)
        return
    events = list(diamond(omega, x, y))
    if not events:
        return
    index = {e: i for i, e in enumerate(events)}
    succ = [[index[s] for s in omega.immediate_successors(e) if s in index] for e in events]
    yield from _walks(succ, index[x], index[y], (1 << len(events)) - 1, events)


def _walks(succ: Sequence[Sequence[int]], x: int, y: int, box: int, events: Sequence) -> Iterator[tuple]:
    """The walks from x to y along ``succ`` that stay inside the bitset
    ``box``, depth first with successors in ``succ`` order, as tuples of
    ``events``.  With ``box = up[x] & down[y]`` every member lies on such a
    walk, so the search meets no dead end."""
    if not (box >> x) & 1:
        return
    if x == y:
        yield (events[x],)
        return
    inside, bits = {}, box
    while bits:
        b = bits & -bits
        i = b.bit_length() - 1
        inside[i] = [(s, events[s]) for s in succ[i] if (box >> s) & 1]
        bits ^= b
    path, stack = [events[x]], [iter(inside[x])]
    while stack:
        for s, e in stack[-1]:
            path.append(e)
            if s == y:
                yield tuple(path)
                path.pop()
            else:
                stack.append(iter(inside[s]))
            break
        else:
            stack.pop()
            path.pop()


def region_between(omega: CausalOrder, sigma: Iterable[Event], gamma: Iterable[Event]) -> frozenset:
    """The union of the diamonds from members of sigma to members of gamma.

    On finite orders that is ``up[sigma] & down[gamma]``, the up-closure of
    sigma cut by the down-closure of gamma: the diamond from x to y is
    ``up[x] & down[y]``, and AND distributes over the union.
    """
    if omega.is_finite:
        up = omega._span(omega._mask(sigma), omega._up)
        return frozenset(omega._bits_to_events(up & omega._span(omega._mask(gamma), omega._down)))
    sigma, gamma = frozenset(sigma), frozenset(gamma)
    out: set = set()
    for x in sigma:
        for y in gamma:
            out |= diamond(omega, x, y)
    return frozenset(out)


# ---------------------------------------------------------------------------
# morphisms of causal orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderMorphism:
    """A function between causal orders, stored pointwise (finite domains)."""

    dom: CausalOrder
    cod: CausalOrder
    mapping: dict

    def __call__(self, e: Event) -> Event:
        try:
            return self.mapping[e]
        except KeyError:
            raise UnknownEvent(f"{e!r} not in the domain of the morphism") from None

    @property
    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    def is_injective(self) -> bool:
        return len(self.image) == len(self.mapping)


def check_morphism(f: OrderMorphism) -> bool:
    """Monotone and strict-order-reflecting, checked on all event pairs."""
    if not f.dom.is_finite:
        raise UnboundedQuery("morphism checking needs a finite domain")
    if set(f.mapping) != set(f.dom.events):
        return False
    for e in f.mapping.values():
        f.cod.require_event(e)
    for a in f.dom.events:
        for b in f.dom.events:
            fa, fb = f.mapping[a], f.mapping[b]
            if f.dom.leq(a, b) and not f.cod.leq(fa, fb):
                return False
            if f.cod.leq(fa, fb) and fa != fb and not f.dom.leq(a, b):
                return False
    return True


def epi_mono_factor(f: OrderMorphism) -> tuple[OrderMorphism, OrderMorphism]:
    """Factor f as a causal quotient onto its image followed by the
    inclusion of the image as a causal sub-order."""
    if not (f.dom.is_finite and f.cod.is_finite):
        raise UnboundedQuery("epi-mono factorisation needs finite orders")
    if not check_morphism(f):
        raise InvalidMorphism("not a valid causal-order morphism")
    image_order = f.cod.suborder(f.image)
    quotient = OrderMorphism(f.dom, image_order, dict(f.mapping))
    embedding = OrderMorphism(image_order, f.cod, {e: e for e in image_order.events})
    return quotient, embedding


def _antichains(omega: ExplicitOrder, universe: Sequence[Event]) -> Iterator[frozenset]:
    universe = list(universe)

    def extend(prefix: list, start: int) -> Iterator[frozenset]:
        yield frozenset(prefix)
        for k in range(start, len(universe)):
            e = universe[k]
            if all(not omega.leq(e, p) and not omega.leq(p, e) for p in prefix):
                yield from extend(prefix + [e], k + 1)

    yield from extend([], 0)


def pullback_slice(f: OrderMorphism, sigma: Iterable[Event]) -> tuple[ExplicitOrder, list[frozenset]]:
    """The sub-order over the preimage of a slice, together with all its
    slices, enumerated as disjoint unions of per-fibre antichains."""
    sigma = frozenset(sigma)
    if not f.dom.is_finite:
        raise InfinitePreimage("pullbacks need a finite domain")
    preimage = [e for e in f.dom.events if f.mapping[e] in sigma]
    sub = f.dom.suborder(preimage)
    fibre_choices = []
    for x in sorted(sigma, key=repr):
        fibre = [e for e in preimage if f.mapping[e] == x]
        fibre_choices.append(list(_antichains(sub, fibre)))
    slices = [
        frozenset().union(*choice) if choice else frozenset()
        for choice in itertools.product(*fibre_choices)
    ]
    return sub, slices


# ---------------------------------------------------------------------------
# JSON and DOT interchange
# ---------------------------------------------------------------------------

def event_id(e: Event) -> str:
    """Serialise an event id: lattice events as "t,x1,...,xd"."""
    if isinstance(e, tuple) and len(e) == 2 and isinstance(e[1], tuple):
        return ",".join(map(str, (e[0], *e[1])))
    return str(e)


def parse_lattice_event(s: str) -> Event:
    try:
        parts = [int(p) for p in s.split(",")]
    except ValueError:
        raise BadParams(f"a lattice event id is 't,x1,...,xd' with integer entries, not {s!r}") from None
    return (parts[0], tuple(parts[1:]))


def covers_to_json(events: Sequence[Event], covers: Iterable[tuple[int, int]]) -> dict:
    """The ``order_to_json`` layout from events and covers given as index
    pairs, formatting each event id once."""
    ids = [event_id(e) for e in events]
    return {"events": ids, "hasse": [[ids[i], ids[j]] for i, j in covers]}


def order_to_json(omega: ExplicitOrder) -> dict:
    return covers_to_json(omega.events, ((x, y) for x, ys in enumerate(omega._succ) for y in ys))


def order_from_json(obj: dict) -> CausalOrder:
    """Read ``{"lattice": {"d": d}}`` or the ``order_to_json`` layout; a
    malformed blob is BadParams."""
    if "lattice" in obj:
        d = obj["lattice"].get("d") if isinstance(obj["lattice"], dict) else None
        if type(d) is not int or d < 1:
            raise BadParams(f'"lattice" needs an integer "d" >= 1, not {d!r}')
        return DiamondLattice(d)
    events, hasse = obj.get("events"), obj.get("hasse")
    if not (isinstance(events, list) and isinstance(hasse, list)
            and all(isinstance(p, list) and len(p) == 2 for p in hasse)
            and all(isinstance(e, str) for e in itertools.chain(events, *hasse))):
        raise BadParams('an explicit order needs "events" (event ids) and "hasse" ([from, to] pairs)')
    return build_explicit(events, [tuple(p) for p in hasse])


def order_to_dot(omega: ExplicitOrder) -> str:
    """A DOT digraph of the Hasse diagram, nodes listed in a linear extension.
    A DOT quoted id cannot end in a backslash, so such an event id is BadParams."""
    for text in map(event_id, omega.events):
        if text.endswith("\\"):
            raise BadParams(f"event id {text!r} ends in a backslash, which a DOT quoted id cannot hold")
    quoted = {e: '"' + event_id(e).replace('"', '\\"') + '"' for e in omega.events}
    lines = ["digraph causal_order {", "  rankdir=BT;"]
    for e in omega.topological_order():
        lines.append(f"  {quoted[e]};")
    for a, b in omega.hasse_edges():
        lines.append(f"  {quoted[a]} -> {quoted[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
