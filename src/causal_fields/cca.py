"""The partitioned causal cellular automaton on the diamond lattice.

The field assigns to each event a cell of ``2^d`` tensor factors, one per
past-neighbourhood direction; a single scattering map acts homogeneously.
Slice objects are indexed canonically: events sorted by coordinate, inner
factors by direction (lexicographic sign order).

Wiring convention: the scattering matrix is applied together with the
direction-reversal permutation, and the factor kept from direction ``dlt``
at event ``y`` becomes the incoming-from-``dlt`` factor of ``y - dlt``.
Of the two index conventions the scattering matrix admits, this is the one
under which the mass-zero Dirac automaton transports excitations one site
per step (and under which the inverse-scattering construction below is an
actual causal reversal).

Every evolution kernel comes from one scatter-and-route builder (the
partitioned, Margolus form of Schumacher-Werner, quant-ph/0405174), which
assembles a chain of steps in one pass.  Each step kind defines its cells,
slot groups of the slice the chain has reached, each acted on by the one
cell matrix, and its route, which names for every slot of the next slice,
in canonical order, the slot it comes from.  A restriction has no cells
and keeps its target's slots under their own labels; a forward step
scatters at each source event and routes ``(y, dlt)`` to
``(y - dlt, dlt)``; a reverse step applies the inverse effective
scattering to the slots ``(x - dlt, dlt)`` and routes them back to
``(x, dlt)``; a ring step routes modulo the ring.  The program is one
matrix step per cell, the unrouted slots discarded and the kept ones put
in canonical target order, step after step, written as one resolved form
(``process.ProcMorphism``) and checked once.  Both time directions share
one factorisation of slice morphisms into a restriction followed by single
steps, and a lattice theory builds each morphism as that whole chain; the
restriction kernel and each single step kernel (``restriction_kernel``,
``one_step_kernel``, ``reverse_one_step_kernel``, ``ring_step_morphism``)
is a chain of one.

A pair of slices is read by one reader, ``_slice_pair``: both slices
parsed by the lattice's leaf rule (``order.leaf_form``) and the cone test
run.  A lattice theory reads each pair it builds once more than its
category's ``hom`` does, and that reading gives both the pair's
translation-class key and its factorisation, so a build parses nothing.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import process as P
from .errors import (
    BadParams,
    NegativeTimeGap,
    NotInvertible,
    NotStochastic,
    NotSubset,
    NotUnitary,
    WrongPredecessorSet,
)
from .field_theory import (
    ComposableTriples,
    FieldTheory,
    check_environment,
    check_functoriality,
    check_monoidality,
    check_reversal,
    composable_triples,
)
from .order import (
    DiamondLattice,
    Window,
    iterated_neighbourhood,
    lattice,
    leaf_form,
    neighbourhood,
    reverse,
    window_events,
)
from .report import Report
from .slices import SliceCategory

Coord = tuple
Sites = frozenset


def _add(x: Coord, d: Coord) -> Coord:
    return tuple(map(operator.add, x, d))


def _sub(x: Coord, d: Coord) -> Coord:
    return tuple(map(operator.sub, x, d))


# ---------------------------------------------------------------------------
# lattice slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSlice:
    """A finite constant-time slice: a time plus a set of space coordinates."""

    t: int
    sites: Sites


def lattice_slice(t: int, sites) -> frozenset:
    """The slice of ``sites`` (coordinate tuples, or integers for d = 1) at
    time ``t``.  A set that is not a member of the constant-time foliation
    of a lattice of d >= 1 (``order.leaf_form``: an off-parity site, a
    non-integer time or site, sites of mixed length or of no coordinate)
    is BadParams."""
    events = frozenset((t, tuple(x) if isinstance(x, (tuple, list)) else (x,)) for x in sites)
    d = len(next(iter(events))[1]) if events else 1
    if not d or leaf_form(events, d) is None:
        raise BadParams(f"not a lattice slice: time {t!r}, sites {sorted(events, key=repr)}")
    return events


def expand_sites(sites: Sites, k: int, d: int) -> Sites:
    """All coordinates reachable by k backward steps: the k-fold sumset
    with the neighbourhood."""
    out = set()
    for x in sites:
        for dlt in iterated_neighbourhood(k, d):
            out.add(_add(x, dlt))
    return frozenset(out)


def lattice_slice_leq(sigma: LatticeSlice, gamma: LatticeSlice, d: int) -> bool:
    """The closed-form cone test for the slice ordering on the lattice:
    the iterated-neighbourhood cast of the target lies inside the source."""
    k = gamma.t - sigma.t
    if k < 0:
        raise NegativeTimeGap(f"target is {-k} steps in the past")
    return expand_sites(gamma.sites, k, d) <= sigma.sites


# ---------------------------------------------------------------------------
# the slice category of the constant-time foliation
# ---------------------------------------------------------------------------

def _slice_pair(sigma, gamma, d: int, arrow: int) -> tuple | None:
    """The one reading of a pair of slices: the decision of the slice
    ordering sigma ->> gamma on the constant-time foliation (``arrow`` is
    -1 on the reversed lattice).  The leaf forms (``order.leaf_form``) of
    both slices and the time gap ``k >= 0`` whose ``k``-step cone of gamma
    lies inside sigma, or None when the pair is not a morphism.  A pair
    with an empty slice has gap 0, so everything maps to the empty slice
    and the empty slice to nothing else."""
    s, g = leaf_form(frozenset(sigma), d), leaf_form(frozenset(gamma), d)
    if s is None or g is None:
        return None
    (ts, ss), (tg, gs) = s, g
    k = 0 if ts is None or tg is None else arrow * (tg - ts)
    if k < 0 or not expand_sites(gs, k, d) <= ss:
        return None
    return s, g, k


@dataclass
class LatticeSliceCategory(SliceCategory):
    """Finite constant-time slices of the diamond lattice (or its reverse),
    with the slice ordering decided by the closed-form cone test
    (``_slice_pair``), which parses both slices on every call."""

    def hom(self, sigma, gamma) -> bool:
        return _slice_pair(sigma, gamma, self.order.d, self.order.arrow) is not None


def cone_pair_witness(d: int):
    """A constructive witness for the event-pair-covering condition of the
    constant-time foliation category: the past-cone slice through the lower
    event leading onto the singleton upper slice."""

    def witness(x, y):
        (t, _a), (s, b) = x, y
        k = s - t
        sigma = frozenset(
            (t, _add(b, dlt)) for dlt in iterated_neighbourhood(k, d)
        )
        return sigma, frozenset({y})

    return witness


def foliation_category_of_lattice(d: int, reversed_: bool = False) -> LatticeSliceCategory:
    omega = reverse(lattice(d)) if reversed_ else lattice(d)

    def contains(s) -> bool:
        return leaf_form(frozenset(s), d) is not None

    def product_rule(a, b) -> bool:
        if not a or not b:
            return True
        return not (a & b) and len({e[0] for e in a | b}) == 1

    return LatticeSliceCategory(
        order=omega,
        contains=contains,
        product_rule=product_rule,
        objects=None,
        label="lattice-foliation" + ("-rev" if reversed_ else ""),
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PartitionedCCAConfig:
    """Spatial dimension, cell dimension, and the scattering matrix acting
    on the cell (one tensor factor per neighbourhood direction).  ``cell``,
    not an argument, is the effective scattering checked once as the cell
    matrix (``_cell_matrix``): every forward step kernel holds that array.
    ``directions``, not an argument either, is the neighbourhood of ``d``
    in lexicographic sign order."""

    d: int
    cell_dim: int
    scattering: np.ndarray
    scattering_inv: np.ndarray | None = None
    backend: str = P.QUANTUM
    cell: np.ndarray = field(init=False, repr=False)
    directions: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1 or self.cell_dim < 1:
            raise BadParams("d and cell_dim must be >= 1")
        u = np.asarray(self.scattering)
        # cell_dim ** 2**d by squaring, stopped once it passes every side of
        # u: a d read from JSON may be any integer
        m, k, n = self.cell_dim, 0, max(u.shape, default=0)
        while k < self.d and 1 < m <= n:
            m, k = m * m, k + 1
        if u.shape != (m, m):
            size = f"{m}x{m}" if k == self.d or m == 1 else f"larger than {n}x{n}"
            raise BadParams(f"scattering must be {size} for d={self.d}, cell_dim={self.cell_dim}")
        if self.backend == P.QUANTUM:
            if not (np.max(np.abs(u.conj().T @ u - np.eye(m))) <= P.VALIDITY_TOL):
                raise NotUnitary("quantum scattering must be unitary")
        elif self.backend == P.CLASSICAL:
            if not (-np.min(u) <= P.VALIDITY_TOL and np.max(np.abs(u.sum(axis=0) - 1)) <= P.VALIDITY_TOL):
                raise NotStochastic("classical scattering must be column-stochastic")
        else:
            raise BadParams(f"unknown backend {self.backend!r}")
        if self.scattering_inv is not None:
            P.require_finite(np.asarray(self.scattering_inv), "scattering inverse")
        object.__setattr__(self, "directions", tuple(neighbourhood(self.d)))
        object.__setattr__(self, "cell", _cell_matrix(self, effective_scattering(self)))

    @property
    def cell_factors(self) -> int:
        return 2 ** self.d


def _direction_reversal(h: int, d: int) -> np.ndarray:
    """The permutation matrix sending the factor for direction dlt to the
    factor for -dlt (factor order reversal on the cell)."""
    m = 2 ** d
    dim = h ** m
    perm = np.arange(dim).reshape((h,) * m).transpose(tuple(reversed(range(m)))).reshape(-1)
    out = np.zeros((dim, dim))
    out[perm, np.arange(dim)] = 1.0
    return out


def effective_scattering(config: PartitionedCCAConfig) -> np.ndarray:
    return _direction_reversal(config.cell_dim, config.d) @ np.asarray(config.scattering)


def cca_config_to_json(config: PartitionedCCAConfig) -> dict:
    out = {
        "d": config.d,
        "cell_dim": config.cell_dim,
        "U": P.matrix_to_json(np.asarray(config.scattering)),
        "backend": config.backend,
    }
    if config.scattering_inv is not None:
        out["U_inv"] = P.matrix_to_json(np.asarray(config.scattering_inv))
    return out


def cca_config_from_json(obj: dict) -> PartitionedCCAConfig:
    """Read the ``cca_config_to_json`` layout; a malformed blob is BadParams."""
    for key in ("d", "cell_dim"):
        if type(obj.get(key)) is not int:
            raise BadParams(f'a config needs an integer "{key}", not {obj.get(key)!r}')
    if "U" not in obj:
        raise BadParams('a config needs the scattering matrix "U"')
    backend = obj.get("backend", P.QUANTUM)

    def matrix(key: str) -> np.ndarray:
        m = P.matrix_from_json(obj[key])
        if backend != P.CLASSICAL:
            return m
        if np.any(m.imag != 0):
            raise BadParams(f"classical {key} has a nonzero imaginary part")
        return m.real

    u = matrix("U")
    u_inv = matrix("U_inv") if "U_inv" in obj else None
    return PartitionedCCAConfig(
        d=obj["d"],
        cell_dim=obj["cell_dim"],
        scattering=u,
        scattering_inv=u_inv,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# slice objects and kernels
# ---------------------------------------------------------------------------

def slice_slots(config: PartitionedCCAConfig, sites: Sites) -> list:
    return [(x, dlt) for x in sorted(sites) for dlt in config.directions]


def slice_object(config: PartitionedCCAConfig, sites: Sites) -> P.ProcObject:
    return P.ProcObject(config.backend, (config.cell_dim,) * (config.cell_factors * len(sites)))


def _cell_matrix(config: PartitionedCCAConfig, mat) -> np.ndarray:
    """``mat`` checked as the automaton's cell matrix, by the backend's own
    constructor on a single cell; the array that constructor keeps."""
    cell = P.ProcObject(config.backend, (config.cell_dim,) * config.cell_factors)
    make = P.unitary_channel if config.backend == P.QUANTUM else P.stochastic_map
    return make(cell, mat).ops[0][1]


def _scatter_and_route(config: PartitionedCCAConfig, sites: Sites, steps) -> P.ProcMorphism:
    """The one kernel builder: a chain of scatter-and-route steps from the
    slice ``sites``, assembled in one pass into one resolved form.

    Each step is ``(cell, cells, route)`` on the slots of the slice the
    chain has reached: the checked cell matrix ``cell`` on every slot group
    of ``cells`` (in the given order), then the route, which names for
    each slot of the next slice, in canonical order, the slot it comes
    from.  The slots no route entry names are discarded, in canonical slot
    order.  Labels are followed to the domain wires that hold them, so the
    result has the ``program_form`` of ``compose_all`` over one kernel per
    step, and only the result is checked (``ProcMorphism``)."""
    slots = slice_slots(config, sites)
    wire = {s: i for i, s in enumerate(slots)}
    ops, gone = [], []
    for cell, cells, route in steps:
        ops += [("matrix", cell, tuple(wire[s] for s in group)) for group in cells]
        kept = set(route.values())
        gone += [wire[s] for s in slots if s not in kept]
        wire = {t: wire[s] for t, s in route.items()}
        slots = route
    out = list(wire.values())
    cod = P.ProcObject(config.backend, (config.cell_dim,) * len(out))
    return P.ProcMorphism(slice_object(config, sites), cod, ops, gone, out)


def _restriction_step(config: PartitionedCCAConfig, ys: Sites) -> tuple:
    """Marginalisation onto ``ys`` (``restriction_kernel``'s form): no
    cell, and the slots over ``ys`` kept under their own labels."""
    return None, (), {s: s for s in slice_slots(config, ys)}


def _forward_step(config: PartitionedCCAConfig, ys: Sites, xs: Sites) -> tuple:
    """One synchronous step from ``ys`` onto ``xs``: ``config.cell`` at
    every source event, and the target slot ``(x, dlt)`` taken from
    ``(x + dlt, dlt)``."""
    dirs = config.directions
    cells = [[(y, dlt) for dlt in dirs] for y in sorted(ys)]
    route = {(x, dlt): (_add(x, dlt), dlt) for x in sorted(xs) for dlt in dirs}
    return config.cell, cells, route


def _reverse_step(config: PartitionedCCAConfig, cell: np.ndarray, xs: Sites) -> tuple:
    """One reverse step onto ``xs``: the checked inverse cell ``cell`` on
    the slots ``(x - dlt, dlt)`` that the forward scattering at ``x``
    produced, and the target slot ``(x, dlt)`` taken from ``(x - dlt,
    dlt)``."""
    dirs = config.directions
    cells = [[(_sub(x, dlt), dlt) for dlt in dirs] for x in sorted(xs)]
    route = {(x, dlt): (_sub(x, dlt), dlt) for x in sorted(xs) for dlt in dirs}
    return cell, cells, route


def restriction_kernel(config: PartitionedCCAConfig, xs: Sites, ys: Sites) -> P.ProcMorphism:
    """Marginalisation: discard the field over the events left out."""
    xs, ys = frozenset(xs), frozenset(ys)
    if not ys <= xs:
        raise NotSubset("restriction target must be a subset")
    return _scatter_and_route(config, xs, [_restriction_step(config, ys)])


def one_step_kernel(config: PartitionedCCAConfig, ys: Sites, xs: Sites) -> P.ProcMorphism:
    """One synchronous step: scatter at every source event, discard the
    outputs not aimed at the target slice, and re-index the kept factors
    by their destination events.  Every cell holds ``config.cell``, the
    effective scattering the configuration checked when it was built."""
    ys, xs = frozenset(ys), frozenset(xs)
    if ys != expand_sites(xs, 1, config.d):
        raise WrongPredecessorSet("source must be the exact predecessor set of the target")
    return _scatter_and_route(config, ys, [_forward_step(config, ys, xs)])


def reverse_one_step_kernel(
    config: PartitionedCCAConfig, v_inv: np.ndarray, ys: Sites, xs: Sites
) -> P.ProcMorphism:
    """One reverse step: for each reconstructed event, apply the inverse of
    the effective scattering to the factors that its forward scattering
    produced (the incoming-from-``dlt`` factors of the events ``x - dlt``),
    and discard the rest.  ``v_inv`` is checked here as the cell matrix
    (``_cell_matrix``); a matrix that already passed keeps its identity, so
    the kernels of one reversal theory all hold its one checked array."""
    ys, xs = frozenset(ys), frozenset(xs)
    if ys != expand_sites(xs, 1, config.d):
        raise WrongPredecessorSet("source must be the exact reverse predecessor set")
    return _scatter_and_route(config, ys, [_reverse_step(config, _cell_matrix(config, v_inv), xs)])


# ---------------------------------------------------------------------------
# morphism factorisation and the field theory
# ---------------------------------------------------------------------------

def factorize_morphism(config: PartitionedCCAConfig, pair: tuple, direction: int = 1) -> list:
    """The canonical factorisation of a slice morphism into one restriction
    followed by full one-step evolutions, read off ``pair``, the morphism's
    reading by ``_slice_pair`` (so nothing is parsed here); ``direction``
    is +1 for the forward foliation and -1 for the reversed one."""
    (ts, ss), (_tg, gs), k = pair
    cones = [expand_sites(gs, k - i, config.d) for i in range(k + 1)]
    return [("restrict", ss, cones[0], ts)] + [
        ("step", src, tgt, ts + direction * i) for i, (src, tgt) in enumerate(itertools.pairwise(cones), 1)
    ]


def _lattice_theory(config: PartitionedCCAConfig, direction: int, step) -> FieldTheory:
    """A field theory on the constant-time foliation (reversed when
    ``direction`` is -1): slice objects and slots of the automaton, and
    morphisms as the factorisation's restriction followed by one
    ``step(src, tgt)`` per time step, a step kind of ``_scatter_and_route``.
    The chain is assembled in one pass, so a morphism is one resolved form,
    checked once, with the ``program_form`` of ``compose_all`` over
    ``restriction_kernel`` and one step kernel per step.

    Every kernel comes from the one cell matrix and its wires are domain
    positions, so a lattice translate of a pair has the pair's program: the
    same ``dom``, ``cod`` and ``program_form``.  ``mor_fn`` therefore reads
    the pair once (``_slice_pair``; a pair that is not a morphism is
    BadParams) and keys its translation class on that reading: the time gap
    and both site sets, shifted by their least site.  Every site has the
    parity of its slice's time, so two pairs share a key exactly when a
    lattice translation maps one onto the other, and the reading settles
    membership first, since a float event hashes like its integer
    translate.  On a class miss the same reading is factorised and built;
    a translate gets the representative's morphism.  The classes live in
    this closure, as long as the theory; a theory whose ``mor_fn`` is
    replaced keeps only ``FieldTheory``'s absolute keys."""
    cat = foliation_category_of_lattice(config.d, reversed_=direction < 0)
    classes: dict = {}

    def sites_of(sigma) -> Sites:
        s = leaf_form(sigma, config.d)
        if s is None:
            raise BadParams("not a constant-time lattice slice")
        return s[1]

    def mor_fn(sigma, gamma) -> P.ProcMorphism:
        pair = _slice_pair(sigma, gamma, config.d, direction)
        if pair is None:
            raise BadParams("not a lattice slice morphism")
        (_, ss), (_, gs), k = pair
        x0 = min(ss | gs, default=())
        key = k, frozenset(_sub(x, x0) for x in ss), frozenset(_sub(x, x0) for x in gs)
        f = classes.get(key)
        if f is None:
            (_, ss, cone, _t), *steps = factorize_morphism(config, pair, direction)
            chain = [_restriction_step(config, cone)] + [step(src, tgt) for _, src, tgt, _t in steps]
            f = classes[key] = _scatter_and_route(config, ss, chain)
        return f

    return FieldTheory(
        category=cat,
        obj_fn=lambda sigma: slice_object(config, sites_of(sigma)),
        mor_fn=mor_fn,
        slots_fn=lambda sigma: slice_slots(config, sites_of(sigma)),
    )


def build_cca(config: PartitionedCCAConfig) -> FieldTheory:
    """The partitioned automaton as a field theory on the constant-time
    foliation category of the diamond lattice; its steps are those of
    ``one_step_kernel``, so every step holds ``config.cell``."""
    return _lattice_theory(config, 1, lambda src, tgt: _forward_step(config, src, tgt))


def scattering_inverse(config: PartitionedCCAConfig) -> np.ndarray:
    """The validated inverse of the scattering map; invertibility means
    invertibility as a backend morphism (unitary / permutation)."""
    u = np.asarray(config.scattering)
    m = u.shape[0]
    if config.backend == P.CLASSICAL:
        is_perm = np.all(np.isin(np.round(u, 12), (0.0, 1.0))) and np.all(
            np.abs(u.sum(axis=1) - 1) <= P.VALIDITY_TOL
        )
        if not is_perm:
            raise NotInvertible("classical scattering is invertible only for permutations")
    # the adjoint: for a real permutation, its transpose
    u_inv = u.conj().T if config.scattering_inv is None else np.asarray(config.scattering_inv)
    if not (np.max(np.abs(u @ u_inv - np.eye(m))) <= P.VALIDITY_TOL):
        raise NotInvertible("scattering inverse does not invert the scattering")
    return u_inv


def reversal_theory(config: PartitionedCCAConfig, v_inv: np.ndarray) -> FieldTheory:
    """The reverse-time field theory built from a given inverse of the
    *effective* scattering.  ``v_inv`` is checked as a cell matrix
    (unitary / stochastic) here, when the theory is built, but not as an
    inverse: see build_reversal.  Its steps are those of
    ``reverse_one_step_kernel`` on that checked array, which every step
    then holds."""
    cell = _cell_matrix(config, v_inv)
    return _lattice_theory(config, -1, lambda src, tgt: _reverse_step(config, cell, tgt))


def build_reversal(config: PartitionedCCAConfig) -> FieldTheory:
    """The causal reversal of the automaton: the reverse-time construction
    using the inverse scattering map."""
    u_inv = scattering_inverse(config)
    r = _direction_reversal(config.cell_dim, config.d)
    v_inv = u_inv @ r.T  # inverse of (reversal . scattering)
    return reversal_theory(config, v_inv)


# ---------------------------------------------------------------------------
# symmetries and invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryAction:
    """A group action given by generators (and their inverses) on events."""

    generators: dict
    inverses: dict

    def apply_word(self, word, event):
        for name, sign in word:
            fn = self.generators[name] if sign >= 0 else self.inverses[name]
            event = fn(event)
        return event

    def act(self, word, sl) -> frozenset:
        return frozenset(self.apply_word(word, e) for e in sl)


def translation_action(d: int) -> SymmetryAction:
    gens, invs = {}, {}
    for dlt in neighbourhood(d):
        name = "tau_" + "".join("p" if s > 0 else "m" for s in dlt)
        gens[name] = (lambda dd: lambda e: (e[0] + 1, _sub(e[1], dd)))(dlt)
        invs[name] = (lambda dd: lambda e: (e[0] - 1, _add(e[1], dd)))(dlt)
    return SymmetryAction(gens, invs)


def sample_words(action: SymmetryAction, rng, count: int) -> list:
    """``count`` random words of one to three generators or inverses."""
    names = sorted(action.generators)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 4))
        word = tuple(
            (names[int(rng.integers(len(names)))], 1 if rng.random() < 0.5 else -1)
            for _ in range(k)
        )
        out.append(word)
    return out


def check_symmetry_action(
    action: SymmetryAction,
    cat: SliceCategory,
    slice_samples,
    morphism_samples,
    event_pairs,
    words=None,
) -> Report:
    """Automorphism property plus the three slice-category conditions of a
    symmetry, on samples; for lattice translations also checks that the
    generators shift whole foliation leaves forward.  The order is
    ``cat.order``.  What does not depend on the word (``leq`` of each event
    pair, membership of each slice, ``hom`` and ``tensor_defined`` of each
    morphism sample) is asked once, before the words."""
    report = Report("symmetry-action")
    omega = cat.order
    words = words or [((name, 1),) for name in sorted(action.generators)]
    leq = [omega.leq(x, y) for x, y in event_pairs]
    member = [cat.contains(frozenset(s)) for s in slice_samples]
    decided = [(cat.hom(s, g), cat.tensor_defined(s, g)) for s, g in morphism_samples]
    for word in words:
        for (x, y), before in zip(event_pairs, leq):
            report.count()
            gx, gy = action.apply_word(word, x), action.apply_word(word, y)
            if before != omega.leq(gx, gy):
                report.record({"word": word, "pair": (x, y), "law": "automorphism"})
        for s, is_member in zip(slice_samples, member):
            report.count()
            if is_member and not cat.contains(action.act(word, s)):
                report.record({"word": word, "slice": s, "law": "slice preservation"})
        for (s, g), (is_hom, is_product) in zip(morphism_samples, decided):
            report.count()
            gs, gg = action.act(word, s), action.act(word, g)
            if is_hom and not cat.hom(gs, gg):
                report.record({"word": word, "pair": (s, g), "law": "ordering preservation"})
            if is_product and (not cat.tensor_defined(gs, gg)
                               or action.act(word, frozenset(s) | frozenset(g)) != gs | gg):
                report.record({"word": word, "pair": (s, g), "law": "product preservation"})
    if isinstance(omega, DiamondLattice):
        for name in sorted(action.generators):
            for s, is_member in zip(slice_samples, member):
                s = frozenset(s)
                if not (s and is_member):
                    continue
                report.count()
                times = {e[0] for e in action.act(((name, 1),), s)}
                if times != {next(iter(s))[0] + 1}:
                    report.record({"generator": name, "law": "leaf transitivity"})
    return report


def identity_invariance(theory: FieldTheory):
    """The invariance witness for a translation-homogeneous theory: every
    component of every natural isomorphism is an identity."""

    def alpha(word, sigma) -> P.ProcMorphism:
        return P.identity(theory.obj(sigma))

    return alpha


def check_invariance(
    theory: FieldTheory,
    action: SymmetryAction,
    alpha,
    words,
    morphism_samples,
    word_pairs=None,
    slice_samples=None,
    tol: float = P.VALIDITY_TOL,
) -> Report:
    """Naturality squares of the invariance data, plus the composition rule
    for the natural isomorphisms on sampled word pairs.  Each sample's
    ``theory.mor(s, g)`` is asked once, in the first word's square, at the
    point of that square where it is first needed."""
    report = Report("invariance")
    deviation = P.deviation_memo()
    samples = [(frozenset(s), frozenset(g)) for s, g in morphism_samples]
    mors: dict = {}
    for word in words:
        for i, (s, g) in enumerate(samples):
            gs, gg = action.act(word, s), action.act(word, g)
            a = alpha(word, g)
            if i not in mors:
                mors[i] = theory.mor(s, g)
            lhs = P.compose(a, mors[i])
            rhs = P.compose(theory.mor(gs, gg), alpha(word, s))
            dev = deviation(lhs, rhs, tol)
            report.compare({"word": word, "pair": (s, g), "law": "naturality"}, dev, tol)
    for h, g in word_pairs or []:
        for s in slice_samples or []:
            s = frozenset(s)
            lhs = alpha(tuple(g) + tuple(h), s)
            rhs = P.compose(alpha(h, action.act(g, s)), alpha(g, s))
            dev = deviation(lhs, rhs, tol)
            report.compare({"words": (h, g), "slice": s, "law": "cocycle"}, dev, tol)
    return report


# ---------------------------------------------------------------------------
# samplers over finite windows (for the law-check suites)
# ---------------------------------------------------------------------------

def window_slices(d1_t: int, lo: int, hi: int, max_sites: int) -> list:
    """All d=1 constant-time slices in a site box, as event sets: the
    slices of at most ``max_sites`` of the lattice's events at time
    ``d1_t`` with sites in ``lo..hi``."""
    events = list(window_events(lattice(1), Window(d1_t, d1_t, (lo,), (hi,))))
    return [frozenset(combo) for k in range(max_sites + 1) for combo in itertools.combinations(events, k)]


def window_morphisms(t0: int, t1: int, lo: int, hi: int, max_sites: int) -> list:
    """Every slice morphism between windowed d=1 slices (including into
    the empty slice), in source-major, target-minor order.

    Decides the foliation category's ``hom`` for every pair (every window
    slice is one of its objects) with each slice parsed once and each
    target's cone cast once per time gap."""
    members = [(s, leaf_form(s, 1))
               for t in range(t0, t1 + 1) for s in window_slices(t, lo, hi, max_sites)]
    cones: dict = {}
    pairs = []
    for s, (ts, ss) in members:
        for j, (g, (tg, gs)) in enumerate(members):
            if not g:
                pairs.append((s, g))
                continue
            if ts is None or tg < ts:
                continue
            k = tg - ts
            cone = cones.get((j, k))
            if cone is None:
                cone = cones[(j, k)] = expand_sites(gs, k, 1)
            if cone <= ss:
                pairs.append((s, g))
    return pairs


def sample_separated_quads(rng, count: int) -> list:
    """Random (sigma, sigma', gamma, gamma') with both products defined and
    both morphisms present (d=1), from time-0 slices of sites -6..6.  Mixes
    same-time restrictions with one-step evolutions, keeping the union
    slices at desk scale."""
    sites = [x for _, (x,) in window_events(lattice(1), Window(0, 0, (-6,), (6,)))]
    anchors = [x for x in sites if x + 2 in sites]

    def leaf(t, xs):
        return frozenset((t, (x,)) for x in xs)

    out = []
    while len(out) < count:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # restrictions of a small split union
            u = int(rng.integers(2, 5))
            picks = sorted(int(x) for x in rng.choice(sites, size=u, replace=False))
            split = int(rng.integers(1, len(picks)))
            sig, gam = leaf(0, picks[:split]), leaf(0, picks[split:])
            sig_p = frozenset(e for e in sig if rng.random() < 0.7)
            gam_p = frozenset(e for e in gam if rng.random() < 0.7)
        elif kind == 1:
            # one-step evolution on one side, a discard on the other
            a = int(rng.choice(anchors))
            b = int(rng.choice([x for x in sites if x < a - 1 or x > a + 3]))
            sig, gam = leaf(0, (a, a + 2)), leaf(0, (b,))
            sig_p, gam_p = leaf(1, (a + 1,)), frozenset()
        else:
            # one-step evolutions on both sides
            a, b = sorted(int(x) for x in rng.choice(anchors, size=2, replace=False))
            if b - a < 4:
                continue
            sig, gam = leaf(0, (a, a + 2)), leaf(0, (b, b + 2))
            sig_p = leaf(1, (a + 1,)) if rng.random() < 0.8 else frozenset()
            gam_p = leaf(1, (b + 1,)) if rng.random() < 0.8 else frozenset()
        out.append((sig, sig_p, gam, gam_p))
    return out


def sample_zigzag_chain_pairs(rng, count: int) -> list:
    """Pairs of alternating forward/reverse chains from time 0, with equal
    endpoints, each of at most two zig-zags (six slices).

    Slices are site intervals around one centre, and a link of time gap
    ``g`` (forward, then backward, in turn) goes from ``w + g`` sites to
    ``w``.  The ``g``-step cone of the target is then exactly the source,
    in either time direction, and narrowing the last slice keeps it inside:
    every chain is valid by construction, so none is checked.  Reverse
    links of gap zero (restrictions backwards) keep the widths small.
    """
    budget = 3  # cap on nonzero time gaps, keeps dimensions small

    def interval(t, centre, n_sites):
        start = centre - (n_sites - 1)
        start = start + ((start - t) % 2)
        return frozenset((t, (start + 2 * i,)) for i in range(n_sites))

    def gaps_for(nz, net):
        # pattern: up g0 | down g1 | up g2 | ... (an odd number of links)
        segs = 2 * nz + 1
        gaps = [0] * segs
        ups = list(range(0, segs, 2))
        downs = list(range(1, segs, 2))
        # net time change = sum(up gaps) - sum(down gaps) must equal `net`
        up_total = net
        down_total = 0
        extra = int(rng.integers(0, budget - net + 1))
        if downs and extra > 0:
            up_total += extra
            down_total += extra
        for _ in range(up_total):
            gaps[ups[int(rng.integers(len(ups)))]] += 1
        for _ in range(down_total):
            gaps[downs[int(rng.integers(len(downs)))]] += 1
        return gaps

    def chain(gaps, width, final, centre):
        # link i starts from width - sum(gaps[:i]) sites
        t, slices = 0, []
        for i, g in enumerate(gaps):
            slices.append(interval(t, centre, width))
            t, width = (t + g if i % 2 == 0 else t - g), width - g
        return slices + [interval(t, centre, final)]

    out = []
    while len(out) < count:
        n = int(rng.integers(0, 3))
        m = int(rng.integers(0, 3))
        final = int(rng.integers(1, 3))
        centre = int(rng.integers(-2, 3)) * 2
        net = int(rng.integers(0, 2))
        ga = gaps_for(n, net)
        gb = gaps_for(m, net)
        width = final + max(sum(ga), sum(gb))
        if width > 4:
            continue
        out.append((chain(ga, width, final, centre), chain(gb, width, final, centre)))
    return out


# ---------------------------------------------------------------------------
# the law-check suites: one sampling policy
# ---------------------------------------------------------------------------

# The law-check box: sites -4..6, and at most 3 sites a slice.
_CHECK_BOX = (-4, 6, 3)


@functools.cache
def _check_window() -> tuple:
    """Every slice morphism of the law-check window (1,220): the box at
    times 0..3, built once per process."""
    return tuple(window_morphisms(0, 3, *_CHECK_BOX))


@functools.cache
def _check_triples() -> ComposableTriples:
    """Every composable triple of the check window (13,069), addressed by
    index over the window's morphisms: a draw builds only the triples it
    picks."""
    return composable_triples(_check_window())


def _draw(rng, population, n: int) -> list:
    """``n`` distinct members of ``population``; more than it holds is BadParams."""
    if n > len(population):
        raise BadParams(f"{n} samples asked for, but this suite draws from {len(population)}")
    return [population[i] for i in rng.choice(len(population), size=n, replace=False)]


# The CCA law-check suites, in the order the command line lists them.
CHECK_SUITES = ("functoriality", "monoidality", "nosignalling", "reversal", "symmetry", "invariance")


def check_suite(target: str, theory: FieldTheory, reversal: FieldTheory | None, rng,
                samples: int, tol: float) -> Report:
    """The law-check suite ``target`` on a d=1 theory, checking exactly the
    ``samples`` samples it draws with ``rng`` (README, "The command line").
    Window draws are without replacement: fewer than one sample, or more
    than the window holds, is BadParams."""
    if samples < 1:
        raise BadParams("a law check needs at least one sample")
    if target == "functoriality":
        return check_functoriality(theory, _draw(rng, _check_triples(), samples), tol)
    if target == "monoidality":
        return check_monoidality(theory, sample_separated_quads(rng, samples), tol)
    if target == "nosignalling":
        morphisms = _draw(rng, _check_window(), samples)
        products = [(s, g) for s, _, g, _ in sample_separated_quads(rng, samples)]
        return check_environment(theory, morphisms, products, tol)
    if target == "reversal":
        if reversal is None:
            raise BadParams("the reversal suite needs a reversal theory")
        return check_reversal(theory, reversal, sample_zigzag_chain_pairs(rng, samples), tol)
    action, cat = translation_action(1), theory.category
    if target == "symmetry":
        slices = _draw(rng, window_slices(0, *_CHECK_BOX) + window_slices(1, *_CHECK_BOX), 16)
        morphisms = _draw(rng, _check_window(), samples)
        pairs = [((0, (0,)), (1, (1,))), ((0, (0,)), (0, (2,))), ((0, (0,)), (3, (1,)))]
        words = sample_words(action, rng, 6)
        return check_symmetry_action(action, cat, slices, morphisms, pairs, words)
    if target == "invariance":
        words = sample_words(action, rng, 4)
        morphisms = _draw(rng, _check_window(), samples)
        slices = [lattice_slice(0, [0]), lattice_slice(0, [0, 2])]
        return check_invariance(theory, action, identity_invariance(theory), words, morphisms,
                                word_pairs=[(words[0], words[-1])], slice_samples=slices, tol=tol)
    raise BadParams(f"unknown check target {target!r}")


# ---------------------------------------------------------------------------
# the Dirac automaton and its single-particle sector
# ---------------------------------------------------------------------------

def dirac_scattering(m: float, eps: float) -> np.ndarray:
    """The 4x4 scattering unitary of the Dirac automaton at mesh ``eps``:
    identity on the empty and doubly occupied cell, and the Pauli-X times
    its own exponential on the one-particle block."""
    theta = m * eps
    mid = np.array(
        [[-1j * np.sin(theta), np.cos(theta)], [np.cos(theta), -1j * np.sin(theta)]]
    )
    u = np.eye(4, dtype=complex)
    u[1:3, 1:3] = mid
    return u


def dirac_config(m: float, eps: float) -> PartitionedCCAConfig:
    return PartitionedCCAConfig(d=1, cell_dim=2, scattering=dirac_scattering(m, eps))


def mass_coin(m: float, eps: float) -> np.ndarray:
    """The one-particle block of the effective scattering: exp(-i m eps X)."""
    theta = m * eps
    return np.array(
        [[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]]
    )


def effective_one_particle_block(config: PartitionedCCAConfig) -> np.ndarray:
    """The one-particle block of a qubit-cell configuration's effective
    scattering, in the component order of ``single_particle_step``."""
    return effective_scattering(config)[np.ix_((2, 1), (2, 1))]


def single_particle_step(psi: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One automaton step in the one-particle sector on a ring.

    ``psi`` has shape (2, sites): component 0 is the incoming-from-the-left
    factor (a right mover), component 1 the incoming-from-the-right factor.
    """
    mixed = coin @ psi.reshape(2, -1)
    out = np.empty_like(mixed)
    out[0] = np.roll(mixed[0], 1)
    out[1] = np.roll(mixed[1], -1)
    return out


def run_single_particle(psi0: np.ndarray, coin: np.ndarray, steps: int) -> list[np.ndarray]:
    states = [np.asarray(psi0, dtype=complex)]
    for _ in range(steps):
        states.append(single_particle_step(states[-1], coin))
    return states


def site_probabilities(psi: np.ndarray) -> np.ndarray:
    return np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2


# ---------------------------------------------------------------------------
# ring evolution of the full automaton (small rings, any backend)
# ---------------------------------------------------------------------------

def ring_step_morphism(config: PartitionedCCAConfig, sites: int) -> P.ProcMorphism:
    """One synchronous step on a d=1 ring: scatter everywhere, then route
    each direction factor to its destination site (no discards)."""
    if config.d != 1:
        raise BadParams("ring evolution is implemented for d=1")
    if sites < 2 or sites % 2:
        raise BadParams("ring size must be even and at least 2 to respect the parity of the lattice")
    dirs = config.directions
    cells = [[((x,), dlt) for dlt in dirs] for x in range(sites)]
    route = {((x,), dlt): (((x + dlt[0]) % sites,), dlt) for x in range(sites) for dlt in dirs}
    ring = frozenset((x,) for x in range(sites))
    return _scatter_and_route(config, ring, [(config.cell, cells, route)])


def ring_site_marginals(config: PartitionedCCAConfig, diag: np.ndarray, sites: int) -> np.ndarray:
    """Per-site occupation from the diagonal of a ring state (the
    probability vector, classically): one minus the weight of the local
    all-zero state.

    One pass over the diagonal sums the factors out from the last one down,
    as partial traces one factor at a time would; each site reads its
    all-zero entry off the pass with the later sites summed out, and sums
    out the earlier ones in the same order."""
    c, m = config.cell_dim, config.cell_factors
    tails = [np.asarray(diag).reshape((c,) * (m * sites))]
    for _ in range(m * (sites - 1)):
        tails.append(tails[-1].sum(axis=-1))
    out = np.zeros(sites)
    for i in range(sites):
        q = tails[m * (sites - 1 - i)][(...,) + (0,) * m]
        while q.ndim:
            q = q.sum(axis=-1)
        out[i] = 1.0 - float(q)
    return out
