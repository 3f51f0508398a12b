"""Slices (finite antichains) and categories of slices.

A slice is represented as a frozenset of events of an ambient causal order.
A slice category bundles the ambient order with a membership predicate and
a partial-product definedness predicate; the ordering between slices is
always ``slice_leads_to`` (containment of the target in the future domain
of dependence of the source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BadParams, InvalidFoliation, UnboundedQuery
from .order import (
    CausalOrder,
    ExplicitOrder,
    Window,
    _antichains,
    future_domain,
    induced_order,
    materialize,
)
from .report import Report

Slice = frozenset

# The largest category ``validate_slice_category`` checks exhaustively.  Its
# cost grows with the cube of the object count: 1,300 slices take about a
# minute on 2 vCPUs (README, Scale).
MAX_CATEGORY_OBJECTS = 1300


# ---------------------------------------------------------------------------
# basic predicates
# ---------------------------------------------------------------------------

def is_slice(omega: CausalOrder, a: Iterable) -> bool:
    """An antichain: no two distinct members are causally related."""
    a = list(a)
    for e in a:
        omega.require_event(e)
    return all(
        not omega.leq(x, y) and not omega.leq(y, x)
        for x, y in itertools.combinations(a, 2)
    )


def space_like_separated(omega: CausalOrder, a: Iterable, b: Iterable) -> bool:
    """A and (future(B) | past(B)) are disjoint; symmetric in A and B."""
    a, b = frozenset(a), frozenset(b)
    return all(
        not omega.leq(x, y) and not omega.leq(y, x)
        for x in a
        for y in b
    )


def slice_leads_to(omega: CausalOrder, sigma: Iterable, gamma: Iterable) -> bool:
    """The slice ordering: gamma lies in the future domain of dependence
    of sigma."""
    sigma, gamma = frozenset(sigma), frozenset(gamma)
    if not gamma:
        return True
    return gamma <= future_domain(omega, sigma)


# ---------------------------------------------------------------------------
# slice categories
# ---------------------------------------------------------------------------

@dataclass
class SliceCategory:
    """A category of slices: ambient order + membership + partial product.

    ``objects`` is an optional thunk returning the (finite) objects as an
    iterable; predicate-only categories leave it as None.
    """

    order: CausalOrder
    contains: Callable[[Slice], bool]
    product_rule: Callable[[Slice, Slice], bool]
    objects: Callable[[], Iterable[Slice]] | None = None
    label: str = "slices"

    def __contains__(self, s: Iterable) -> bool:
        return self.contains(frozenset(s))

    def tensor_defined(self, sigma: Iterable, gamma: Iterable) -> bool:
        sigma, gamma = frozenset(sigma), frozenset(gamma)
        return (
            self.contains(sigma)
            and self.contains(gamma)
            and space_like_separated(self.order, sigma, gamma)
            and self.product_rule(sigma, gamma)
        )

    def hom(self, sigma: Iterable, gamma: Iterable) -> bool:
        sigma, gamma = frozenset(sigma), frozenset(gamma)
        return (
            self.contains(sigma)
            and self.contains(gamma)
            and slice_leads_to(self.order, sigma, gamma)
        )

    def slices_within(self, region_events: Iterable) -> list:
        """All member slices contained in a finite set of events: the
        slices of the induced order that ``contains`` admits."""
        sub = induced_order(self.order, sorted(frozenset(region_events), key=repr))
        return [s for s in enumerate_slices(sub) if self.contains(s)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _finite_view(omega: CausalOrder, window: Window | None) -> ExplicitOrder:
    if omega.is_finite:
        return omega
    if window is None:
        raise UnboundedQuery("lattice orders need a window here")
    return materialize(omega, window)


def enumerate_slices(omega: CausalOrder, window: Window | None = None) -> Iterator[Slice]:
    """Every antichain exactly once (depth-first, canonical event order)."""
    fin = _finite_view(omega, window)
    yield from _antichains(fin, fin.events)


def maximal_slices(omega: CausalOrder, window: Window | None = None) -> Iterator[Slice]:
    """Every maximal antichain: the slices nothing can be added to."""
    fin = _finite_view(omega, window)
    events = list(fin.events)
    for s in enumerate_slices(fin):
        if all(
            any(fin.leq(e, x) or fin.leq(x, e) for x in s)
            for e in events
            if e not in s
        ):
            yield s


def is_cauchy(omega: CausalOrder, sigma: Iterable, window: Window | None = None) -> bool:
    """Whether every inextendible causal path meets the slice.

    An antichain is Cauchy iff ``D+(sigma) | D-(sigma)`` is every event: an
    event outside both domains has a path from the past and a path to the
    future that avoid sigma, and together they make a maximal chain that
    avoids it; conversely every event on such a chain lies outside both.
    """
    sigma = frozenset(sigma)
    fin = _finite_view(omega, window)
    if not is_slice(fin, sigma):
        return False
    bits = fin._mask(sigma)
    return fin._domain(bits) | fin._domain(bits, past=True) == (1 << len(fin.events)) - 1


# ---------------------------------------------------------------------------
# foliations
# ---------------------------------------------------------------------------

def validate_foliation(omega: CausalOrder, leaves: Sequence[Iterable]) -> Report:
    """Check the foliation conditions: each leaf Cauchy, the family totally
    ordered by ->>, covering, and pairwise disjoint.

    Each leaf's mask and D+ are computed once, D- once for each antichain
    leaf; sigma ->> gamma is then ``mask(gamma) & ~D+(sigma) == 0``, the
    test of ``slice_leads_to``, and an antichain is Cauchy as in
    ``is_cauchy``."""
    report = Report("foliation")
    leaves = [frozenset(l) for l in leaves]
    fin = _finite_view(omega, None)
    everything = (1 << len(fin.events)) - 1
    masks, dplus = [], []
    for i, leaf in enumerate(leaves):
        report.count()
        antichain = is_slice(fin, leaf)
        masks.append(fin._mask(leaf))
        dplus.append(fin._domain(masks[i]))
        if not antichain:
            report.record({"leaf": i, "reason": "not an antichain"})
        elif dplus[i] | fin._domain(masks[i], past=True) != everything:
            report.record({"leaf": i, "reason": "not a Cauchy slice"})
    for i, j in itertools.combinations(range(len(leaves)), 2):
        report.count()
        fwd = not masks[j] & ~dplus[i]
        bwd = not masks[i] & ~dplus[j]
        if not (fwd or bwd):
            report.record({"leaves": (i, j), "reason": "not ordered by ->>"})
        if leaves[i] & leaves[j]:
            report.record({"leaves": (i, j), "reason": "not disjoint"})
    covered = frozenset().union(*leaves) if leaves else frozenset()
    for e in fin.events:
        if e not in covered:
            report.record({"event": e, "reason": "not covered by any leaf"})
    report.count()
    return report


def foliation_category(omega: CausalOrder, leaves: Sequence[Iterable]) -> SliceCategory:
    """The category generated by all subsets of the foliation's leaves,
    which must pass ``validate_foliation``.

    The product of two members is defined exactly when they are disjoint
    subsets of one common Cauchy slice.  The leaves are disjoint, so
    ``objects`` yields the empty slice and then each leaf's non-empty
    subsets, each once.
    """
    leaves = tuple(frozenset(l) for l in leaves)
    rep = validate_foliation(omega, leaves)
    if not rep.ok:
        raise InvalidFoliation(str(rep.violations[:3]))

    def contains(s: Slice) -> bool:
        return not s or any(s <= leaf for leaf in leaves)

    def product_rule(a: Slice, b: Slice) -> bool:
        if not a or not b:
            return True
        return not (a & b) and any(a <= leaf and b <= leaf for leaf in leaves)

    def objects() -> Iterator[Slice]:
        yield frozenset()
        for leaf in leaves:
            members = sorted(leaf, key=repr)
            for k in range(1, len(members) + 1):
                for combo in itertools.combinations(members, k):
                    yield frozenset(combo)

    return SliceCategory(
        order=omega,
        contains=contains,
        product_rule=product_rule,
        objects=objects,
        label="foliation",
    )


def all_slices_category(omega: CausalOrder) -> SliceCategory:
    """Slice(Omega): every slice, with products defined whenever separated;
    enumerable when the order is finite."""

    def contains(s: Slice) -> bool:
        return is_slice(omega, s)

    def product_rule(a: Slice, b: Slice) -> bool:
        return True

    objects = None
    if omega.is_finite:

        def objects() -> Iterator[Slice]:  # noqa: F811
            return enumerate_slices(omega)

    return SliceCategory(omega, contains, product_rule, objects, label="all-slices")


# ---------------------------------------------------------------------------
# validation of the category-of-slices conditions
# ---------------------------------------------------------------------------

def validate_slice_category(
    cat: SliceCategory,
    pair_witnesses: Callable[[object, object], tuple[Slice, Slice]] | None = None,
    event_pairs: Sequence[tuple] | None = None,
) -> Report:
    """Check the three defining conditions of a category of slices.

    (1) every causally related event pair is covered by a hom between
        member slices, (2) members are closed under restriction to bounded
        regions, (3) the partial monoidal structure is respected (the empty
        slice is a member; defined products are separated unions that stay
        in the category).

    Enumerable categories are checked exhaustively, on event bitsets over
    the order (over the sub-order induced on the objects' events, for a
    lattice: a diamond cut to those events is the induced order's
    diamond).  ``cat.contains`` is asked once per distinct slice.
    Condition (1) takes one ``D+`` per member source, and marks every
    event of the source as covered to every event of the member targets
    inside it.  Condition (2) takes the bounded region of a pair as
    ``up[sigma] & down[gamma]`` (see ``region_between``) and lists the
    failing restrictions once per distinct region.  Condition (3) decides
    separation as ``(up | down)[sigma] & gamma == 0``, since the up- and
    down-sets are reflexive.  A category of more than
    ``MAX_CATEGORY_OBJECTS`` objects is refused with BadParams before any
    of that work.

    Condition (1) on a non-enumerable category is undecidable by search,
    so the caller must supply ``pair_witnesses``: a constructive map
    sending a related event pair to a witnessing hom, checked on the given
    ``event_pairs``.
    """
    report = Report("slice-category")
    omega = cat.order

    empty_ok = cat.contains(frozenset())
    if not empty_ok:
        report.record({"reason": "empty slice is not a member"})
    report.count()

    if cat.objects is None and pair_witnesses is None:
        report.record({"reason": "category is not enumerable and no witnesses supplied"})
        return report

    if cat.objects is not None:
        objs = list(itertools.islice(cat.objects(), MAX_CATEGORY_OBJECTS + 1))
        if len(objs) > MAX_CATEGORY_OBJECTS:
            raise BadParams(
                f"category {cat.label!r} exceeds the limit of {MAX_CATEGORY_OBJECTS} "
                "objects for exhaustive validation"
            )

    if pair_witnesses is not None:
        for x, y in event_pairs or ():
            if not omega.leq(x, y):
                continue
            report.count()
            sigma, gamma = (frozenset(s) for s in pair_witnesses(x, y))
            if not (x in sigma and y in gamma and cat.hom(sigma, gamma)):
                report.record({"pair": (x, y), "reason": "witness fails condition (1)"})

    if cat.objects is not None:
        _validate_objects(cat, objs, empty_ok, report)
    else:
        # witness-driven condition (1) only
        report.count()
    return report


class _Members(dict):
    """``cat.contains`` memoised by event bitset."""

    def __init__(self, contains: Callable[[Slice], bool], fin: ExplicitOrder):
        super().__init__()
        self.contains, self.fin = contains, fin

    def __missing__(self, bits: int) -> bool:
        ok = self[bits] = self.contains(frozenset(self.fin._bits_to_events(bits)))
        return ok


def _validate_objects(cat: SliceCategory, objs: list, empty_ok: bool, report: Report) -> None:
    """Conditions (1)-(3) of ``validate_slice_category`` on the object list."""
    omega = cat.order
    if omega.is_finite:
        fin = omega
    else:
        fin = induced_order(omega, dict.fromkeys(e for s in objs for e in s))
    masks = [fin._mask(s) for s in objs]
    member = _Members(cat.contains, fin)
    member[0] = empty_ok
    ups = [fin._span(m, fin._up) for m in masks]
    downs = [fin._span(m, fin._down) for m in masks]
    k = len(objs)

    if omega.is_finite:
        sources = [m for m in dict.fromkeys(masks) if m and member[m]]
        covered = [0] * len(fin.events)
        for s in sources:
            dplus = fin._domain(s)
            reach = 0
            for g in sources:
                if not g & ~dplus:
                    reach |= g
            while s:
                b = s & -s
                covered[b.bit_length() - 1] |= reach
                s ^= b
        for x, above in enumerate(fin._up):
            while above:
                b = above & -above
                above ^= b
                report.count()
                if not covered[x] & b:
                    pair = (fin.events[x], fin.events[b.bit_length() - 1])
                    report.record({"pair": pair, "reason": "condition (1) fails"})

    report.count(k * k * k)
    failing: dict[int, list] = {}
    for sigma, up in zip(objs, ups):
        for gamma, down in zip(objs, downs):
            box = up & down
            bad = failing.get(box)
            if bad is None:
                bad = failing[box] = [d for d, m in zip(objs, masks) if not member[m & box]]
            for delta in bad:
                report.record({"triple": (sigma, gamma, delta), "reason": "condition (2) fails"})

    report.count(k * k)
    for sigma, s, up, down in zip(objs, masks, ups, downs):
        if not member[s]:
            continue
        apart = up | down
        for gamma, g in zip(objs, masks):
            if member[g] and not apart & g and cat.product_rule(sigma, gamma) \
                    and not member[s | g]:
                report.record({"pair": (sigma, gamma), "reason": "product leaves the category"})
