"""Causal field theories and machine checks of their laws.

A field theory assigns a backend object to each slice of a slice category
and a backend morphism to each slice ordering, and is supposed to be a
(partially) monoidal functor.  Nothing here assumes it is one: the
``check_*`` functions evaluate the laws on samples and report violations.
Each law sample compares two kernel programs through the check's
``process.deviation_memo`` and passes the value to ``Report.compare``, the
one accept rule (``dev <= tol``, so a NaN fails).

Slot bookkeeping: each theory exposes ``slots(sigma)``, the list of labels
of the tensor factors of the object assigned to ``sigma``.  The monoidal
product of slices is the *merged* canonical object, so the monoidality and
no-signalling checks wire the compared morphisms through ``slot_wiring``,
the permutation from one slot order to the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import process as P
from .errors import NonEnumerableRegion, NotAReversal, NotCauchy, NotInCategory
from .order import region_between
from .report import Report
from .slices import Slice, SliceCategory


# ---------------------------------------------------------------------------
# field theories
# ---------------------------------------------------------------------------

@dataclass
class FieldTheory:
    """A slice-indexed assignment of objects and morphisms.

    ``obj_fn`` and ``mor_fn`` must be pure functions of their slice
    arguments.  ``slots_fn`` returns the per-factor labels of an object in
    the same order as its factor list.  Objects and slots are asked of
    ``obj_fn`` and ``slots_fn`` on every call; only morphisms are kept,
    after the category has decided the pair.
    """

    category: SliceCategory
    obj_fn: Callable[[Slice], P.ProcObject]
    mor_fn: Callable[[Slice, Slice], P.ProcMorphism]
    slots_fn: Callable[[Slice], list]
    _mors: dict = field(default_factory=dict, init=False, repr=False)

    def obj(self, sigma: Iterable) -> P.ProcObject:
        return self.obj_fn(frozenset(sigma))

    def mor(self, sigma: Iterable, gamma: Iterable) -> P.ProcMorphism:
        sigma, gamma = frozenset(sigma), frozenset(gamma)
        # decided before the memo is read: a pair of float events equals,
        # and hashes like, the integer pair it would otherwise be served
        if not self.category.hom(sigma, gamma):
            raise NotInCategory(f"no morphism {sorted(sigma, key=repr)} ->> {sorted(gamma, key=repr)}")
        key = (sigma, gamma)
        if key not in self._mors:
            self._mors[key] = self.mor_fn(sigma, gamma)
        return self._mors[key]

    def slots(self, sigma: Iterable) -> list:
        return self.slots_fn(frozenset(sigma))

    def discard_effect(self, sigma: Iterable) -> P.ProcMorphism:
        """The induced environment effect: the image of sigma ->> empty."""
        return self.mor(sigma, frozenset())


def slot_wiring(obj: P.ProcObject, have: list, want: list) -> P.ProcMorphism:
    """The permutation that takes the factors of ``obj``, labelled ``have``,
    to the order ``want``: the canonical isomorphism between the merged
    object of a union slice and the tensor of its parts, either way round."""
    return P.permute_factors(obj, tuple(have.index(s) for s in want))


# ---------------------------------------------------------------------------
# functoriality and monoidality
# ---------------------------------------------------------------------------

def check_functoriality(
    theory: FieldTheory,
    triples: Sequence[tuple[Slice, Slice, Slice]],
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """Psi(id) = id and Psi(g . f) = Psi(g) . Psi(f) on the given chains."""
    report = Report("functoriality")
    deviation = P.deviation_memo()
    seen = set()
    for chain in triples:
        sigma, gamma, delta = (frozenset(s) for s in chain)
        direct = theory.mor(sigma, delta)
        step = P.compose(theory.mor(gamma, delta), theory.mor(sigma, gamma))
        dev = deviation(step, direct, tol)
        report.compare({"chain": chain, "law": "composition"}, dev, tol)
        for s in chain:
            seen.add(frozenset(s))
    for s in seen:
        dev = deviation(theory.mor(s, s), P.identity(theory.obj(s)), tol)
        report.compare({"slice": s, "law": "identity"}, dev, tol)
    return report


def check_monoidality(
    theory: FieldTheory,
    quads: Sequence[tuple[Slice, Slice, Slice, Slice]],
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """Objects and morphisms factorise over separated products.

    Each sample is (sigma, sigma', gamma, gamma') with sigma ->> sigma',
    gamma ->> gamma' and both products defined.  The slots of
    sigma | gamma, sigma and gamma are asked once, for the wiring and for
    the object equation.
    """
    report = Report("monoidality")
    deviation = P.deviation_memo()
    for quad in quads:
        sigma, sigma_p, gamma, gamma_p = (frozenset(s) for s in quad)
        f = theory.mor(sigma, sigma_p)
        g = theory.mor(gamma, gamma_p)
        union, union_p = sigma | gamma, sigma_p | gamma_p
        merged, concat = theory.slots(union), theory.slots(sigma) + theory.slots(gamma)
        p_split = slot_wiring(theory.obj(union), merged, concat)
        p_merge_out = slot_wiring(P.tensor_obj(f.cod, g.cod),
                                  theory.slots(sigma_p) + theory.slots(gamma_p), theory.slots(union_p))
        wired = P.compose_all(p_split, P.tensor_mor(f, g), p_merge_out)
        union_mor = theory.mor(union, union_p)
        obj_ok = sorted(merged) == sorted(concat) and p_split.cod == P.tensor_obj(
            theory.obj(sigma), theory.obj(gamma))
        if not obj_ok:
            report.record({"quad": quad, "law": "object equation"}, float("nan"))
        dev = deviation(wired, union_mor, tol)
        report.compare({"quad": quad, "law": "morphism factorisation"}, dev, tol)
    return report


def check_environment(
    theory: FieldTheory,
    morphisms: Sequence[tuple[Slice, Slice]],
    products: Sequence[tuple[Slice, Slice]],
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """The no-signalling equations of the induced discard family:
    compatibility with evolution and with the partial products."""
    report = Report("no-signalling")
    deviation = P.deviation_memo()
    for pair in morphisms:
        sigma, gamma = (frozenset(s) for s in pair)
        lhs = P.compose(theory.discard_effect(gamma), theory.mor(sigma, gamma))
        dev = deviation(lhs, theory.discard_effect(sigma), tol)
        report.compare({"pair": pair, "law": "discard after evolution"}, dev, tol)
    for pair in products:
        sigma, gamma = (frozenset(s) for s in pair)
        union = sigma | gamma
        p_split = slot_wiring(theory.obj(union), theory.slots(union), theory.slots(sigma) + theory.slots(gamma))
        tensored = P.compose(
            P.tensor_mor(theory.discard_effect(sigma), theory.discard_effect(gamma)),
            p_split,
        )
        dev = deviation(tensored, theory.discard_effect(union), tol)
        report.compare({"pair": pair, "law": "discard of product"}, dev, tol)
    return report


# ---------------------------------------------------------------------------
# regions of the category, state families, the presheaf of states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryRegion:
    """A region of a slice category, kept as its generating family of
    bounded regions (pairs of member slices)."""

    generators: tuple[tuple[Slice, Slice], ...]

    @staticmethod
    def bounded(sigma: Iterable, gamma: Iterable) -> "CategoryRegion":
        return CategoryRegion(((frozenset(sigma), frozenset(gamma)),))

    def events(self, order) -> frozenset:
        out: set = set()
        for sigma, gamma in self.generators:
            out |= region_between(order, sigma, gamma)
        return frozenset(out)

    def includes(self, other: "CategoryRegion", order) -> bool:
        return other.events(order) <= self.events(order)


@dataclass
class StateFamily:
    """A region plus one state per member slice inside it."""

    region: CategoryRegion
    states: dict


def region_slices(theory: FieldTheory, region: CategoryRegion) -> list:
    events = region.events(theory.category.order)
    if len(events) > 1 << 14:
        raise NonEnumerableRegion("region too large to enumerate")
    return theory.category.slices_within(events)


def push_forward_family(
    theory: FieldTheory,
    region: CategoryRegion,
    sigma: Iterable,
    rho: P.ProcState,
) -> StateFamily:
    """The family obtained by evolving one state to every slice in the
    region; requires sigma ->> every member slice."""
    sigma = frozenset(sigma)
    states = {}
    for delta in region_slices(theory, region):
        if not theory.category.hom(sigma, delta):
            raise NotInCategory(
                f"{sorted(sigma, key=repr)} does not lead to {sorted(delta, key=repr)}"
            )
        states[delta] = P.apply(theory.mor(sigma, delta), rho)
    return StateFamily(region, states)


def check_stable_family(
    theory: FieldTheory,
    family: StateFamily,
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """Each state of the family pushed along every slice ordering inside
    its region, against the state held at the target, by
    ``process.state_deviation``; a held state on another object than the
    theory's is a NaN deviation in every comparison it takes part in."""
    report = Report("stable family")
    for delta, delta_p in itertools.product(family.states, repeat=2):
        if not theory.category.hom(delta, delta_p):
            continue
        f, rho, held = theory.mor(delta, delta_p), family.states[delta], family.states[delta_p]
        on_objects = rho.obj == f.dom and held.obj == f.cod
        dev = P.state_deviation(P.apply(f, rho), held) if on_objects else float("nan")
        report.compare({"pair": (delta, delta_p)}, dev, tol)
    return report


def restrict_states(
    theory: FieldTheory,
    sub_region: CategoryRegion,
    family: StateFamily,
) -> StateFamily:
    """The presheaf restriction map: component-wise reindexing of a stable
    family along an inclusion of regions."""
    order = theory.category.order
    if not family.region.includes(sub_region, order):
        raise NotInCategory("sub region is not included in the family's region")
    keep = set(region_slices(theory, sub_region))
    states = {s: family.states[s] for s in family.states if s in keep}
    return StateFamily(sub_region, states)


# ---------------------------------------------------------------------------
# reversal and global states
# ---------------------------------------------------------------------------

def zigzag_composite(
    theory: FieldTheory,
    reversal: FieldTheory,
    chain: Sequence[Slice],
) -> P.ProcMorphism:
    """The image of an alternating chain: forward steps through the theory,
    odd steps through the reversal."""
    chain = [frozenset(s) for s in chain]
    steps = [
        theory.mor(a, b) if i % 2 == 0 else reversal.mor(a, b)
        for i, (a, b) in enumerate(itertools.pairwise(chain))
    ]
    return P.compose_all(*steps) if steps else P.identity(theory.obj(chain[0]))


def check_reversal(
    theory: FieldTheory,
    reversal: FieldTheory,
    chain_pairs: Sequence[tuple[Sequence[Slice], Sequence[Slice]]],
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """Compare the composites of pairs of alternating chains with equal
    endpoints (sound but bounded: the caller fixes the chain lengths).
    The two theories' objects are compared once per distinct slice of a
    chain pair."""
    report = Report("reversal")
    deviation = P.deviation_memo()
    for a, b in chain_pairs:
        a = [frozenset(s) for s in a]
        b = [frozenset(s) for s in b]
        if a[0] != b[0] or a[-1] != b[-1]:
            raise NotAReversal("chain pair endpoints differ")
        for s in dict.fromkeys(itertools.chain(a, b)):
            if theory.obj(s) != reversal.obj(s):
                raise NotAReversal("reversal disagrees with the theory on objects")
        lhs, rhs = zigzag_composite(theory, reversal, a), zigzag_composite(theory, reversal, b)
        dev = deviation(lhs, rhs, tol)
        report.compare({"chains": (a, b)}, dev, tol)
    return report


@dataclass
class GlobalState:
    """A state on every foliation leaf, determined by one Cauchy datum."""

    theory: FieldTheory
    leaf_states: dict

    def state(self, sigma: Iterable) -> P.ProcState:
        """The state on any member slice contained in a stored leaf."""
        sigma = frozenset(sigma)
        if sigma in self.leaf_states:
            return self.leaf_states[sigma]
        for leaf, rho in self.leaf_states.items():
            if sigma <= leaf:
                return P.apply(self.theory.mor(leaf, sigma), rho)
        raise NotInCategory("slice is not contained in any stored leaf")


def global_state_from_cauchy(
    theory: FieldTheory,
    reversal: FieldTheory | None,
    sigma: Iterable,
    rho: P.ProcState,
    leaves: Sequence[Slice],
) -> GlobalState:
    """Reconstruct the state on a family of slices from one datum: future
    slices by evolution, past slices through the reversal.

    A past slice is reconstructible exactly when the reversed category has
    a morphism onto it (for honest Cauchy slices that is the same as the
    forward comparability; for finite windowed slices it further requires
    the target to sit inside the backward cone of the datum, since edge
    data outside that cone is genuinely lost)."""
    sigma = frozenset(sigma)
    if not P.is_state(rho):
        raise NotCauchy("the Cauchy datum must be a state")
    leaf_states = {}
    for leaf in (frozenset(l) for l in leaves):
        if theory.category.hom(sigma, leaf):
            leaf_states[leaf] = P.apply(theory.mor(sigma, leaf), rho)
        elif theory.category.hom(leaf, sigma) or reversal is not None and reversal.category.hom(sigma, leaf):
            if reversal is None:
                raise NotAReversal("a past slice needs a causal reversal")
            if reversal.obj(leaf) != theory.obj(leaf):
                raise NotAReversal("reversal disagrees with the theory on objects")
            if not reversal.category.hom(sigma, leaf):
                raise NotCauchy(
                    "slice lies outside the backward cone of the datum "
                    "(not reconstructible from finite data)"
                )
            leaf_states[leaf] = P.apply(reversal.mor(sigma, leaf), rho)
        else:
            raise NotCauchy("slice is not comparable with the given slice")
    return GlobalState(theory, leaf_states)


# ---------------------------------------------------------------------------
# enumeration helpers for finite categories
# ---------------------------------------------------------------------------

def composable_triples(pairs: Sequence[tuple[Slice, Slice]]) -> list:
    """Every chain (s, g, d) with (s, g) and (g, d) in ``pairs``, in the
    order of ``pairs``: by the first pair, then by the second."""
    by_source: dict = {}
    for s, g in pairs:
        by_source.setdefault(s, []).append(g)
    return [(s, g, d) for s, g in pairs for d in by_source.get(g, ())]
