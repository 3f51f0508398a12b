"""Shared test utilities: independent oracles and random-order generators.

The oracles here deliberately re-derive everything from first principles
(path enumeration, brute-force reachability, dense linear algebra) so that
library results are checked against an independent route.
"""

from __future__ import annotations

import itertools

import numpy as np

from causal_fields.order import ExplicitOrder, build_explicit, event_id, window_events


def random_dag(rng, max_events: int = 10, p: float = 0.3) -> ExplicitOrder:
    n = int(rng.integers(1, max_events + 1))
    names = [f"e{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return build_explicit(names, edges)


def chains_to(omega: ExplicitOrder, x) -> list[tuple]:
    """All maximal chains ending at x (paths from the infinite past)."""

    def walk(suffix):
        preds = omega.immediate_predecessors(suffix[0])
        if not preds:
            yield tuple(suffix)
            return
        for p in preds:
            yield from walk([p] + suffix)

    return list(walk([x]))


def maximal_chains(omega: ExplicitOrder):
    """All inextendible chains of a finite order (minimal to maximal), by
    walking immediate successors: the definition a Cauchy slice is tested
    against."""

    def walk(prefix):
        succ = omega.immediate_successors(prefix[-1])
        if not succ:
            yield tuple(prefix)
            return
        for s in succ:
            yield from walk(prefix + [s])

    for m in omega.events:
        if not omega.immediate_predecessors(m):
            yield from walk([m])


def future_domain_oracle(omega: ExplicitOrder, a) -> frozenset:
    """x is in D+(A) iff every maximal chain ending at x intersects A."""
    a = frozenset(a)
    out = set()
    for x in omega.events:
        if all(set(c) & a for c in chains_to(omega, x)):
            out.add(x)
    return frozenset(out)


def reachable_oracle(omega, x, y, max_depth: int = 64) -> bool:
    """Breadth-first search over immediate successors."""
    frontier = {x}
    seen = {x}
    for _ in range(max_depth):
        if y in frontier:
            return True
        frontier = {
            s for e in frontier for s in omega.immediate_successors(e)
        } - seen
        if not frontier:
            break
        seen |= frontier
    return y in seen


def shuffled_dag(rng, max_events: int = 10, p: float = 0.3) -> ExplicitOrder:
    """A random order whose event list is not a linear extension, built
    from edges that include redundant (transitive) ones."""
    omega = random_dag(rng, max_events, p)
    events = list(omega.events)
    rng.shuffle(events)
    edges = [(a, b) for a in events for b in events if a != b and omega.leq(a, b)]
    return build_explicit(events, [edges[i] for i in rng.permutation(len(edges))])


# (t0, t1, lo, hi) of lattice windows: a box, empty ones (time and
# coordinate ranges reversed), one level, one column, and an offset box
BOX_WINDOWS = [(0, 4, -3, 3), (3, 0, -3, 3), (0, 4, 3, -3), (2, 2, -3, 3), (0, 4, 1, 1), (-2, 1, -4, 2)]


def window_order_oracle(omega, window) -> ExplicitOrder:
    """The closure route to a lattice window: its in-window successor
    edges through ``ExplicitOrder`` (toposort, closure and reduction)."""
    events = list(window_events(omega, window))
    have = set(events)
    edges = [(e, s) for e in events for s in omega.immediate_successors(e) if s in have]
    return ExplicitOrder(events, edges)


def order_json_oracle(omega: ExplicitOrder) -> dict:
    """The interchange layout written from the public accessors, one
    ``event_id`` call per mention."""
    return {
        "events": [event_id(e) for e in omega.events],
        "hasse": [[event_id(a), event_id(b)] for a, b in omega.hasse_edges()],
    }


def causal_paths_oracle(omega, x, y, universe=None) -> list[tuple]:
    """Depth-first walks from x to y along ``immediate_successors``, kept
    inside the diamond {z : x <= z <= y} found by brute force over
    ``universe`` (the order's events unless given; on a lattice, a set of
    events holding the diamond)."""
    universe = omega.events if universe is None else universe
    box = {z for z in universe if omega.leq(x, z) and omega.leq(z, y)}
    if x not in box:
        return []

    def walk(prefix):
        if prefix[-1] == y:
            yield tuple(prefix)
            return
        for s in omega.immediate_successors(prefix[-1]):
            if s in box:
                yield from walk(prefix + [s])

    return list(walk([x]))


def all_subsets(items, max_size=None):
    items = list(items)
    hi = len(items) if max_size is None else min(max_size, len(items))
    for k in range(hi + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


# -- finite-difference Dirac oracle (convergence reference) --------------------

def upwind_coin(m: float, eps: float) -> np.ndarray:
    """First-order finite-difference mass coupling: forward Euler,
    normalised to stay in the probability-preserving class.  Transport is
    upwind differencing at unit Courant number, i.e. the exact shift."""
    c = np.array([[1.0, -1j * m * eps], [-1j * m * eps, 1.0]])
    return c / np.sqrt(1.0 + (m * eps) ** 2)


def dirac_packet(eps: float, length: float, width: float, kick: float) -> np.ndarray:
    """A right-moving Gaussian packet sampled on a ring of physical size
    ``length`` at mesh ``eps``."""
    sites = int(round(length / eps))
    x = np.arange(sites) * eps
    env = np.exp(-((x - length / 2) ** 2) / (2 * width ** 2))
    psi = np.zeros((2, sites), dtype=complex)
    psi[0] = env * np.exp(1j * kick * x)
    return psi / np.linalg.norm(psi)


def dirac_dressed_run(eps, coin, m, t_phys, length, width, kick) -> np.ndarray:
    """Evolve a packet to the fixed physical time and return the physical
    amplitude field in the symmetrised (half-coin dressed) frame.

    The one-step operator is shift-after-coin; conjugating by half a coin
    turns it into the symmetric splitting, which is the frame in which the
    lattice state is compared against the continuum field.
    """
    from causal_fields.cca import mass_coin, single_particle_step

    half = mass_coin(m, eps / 2)
    psi = np.linalg.inv(half) @ dirac_packet(eps, length, width, kick).reshape(2, -1)
    for _ in range(int(round(t_phys / eps))):
        psi = single_particle_step(psi, coin)
    return (half @ psi.reshape(2, -1)) / np.sqrt(eps)


def dirac_convergence_deviations(
    m: float = 1.0,
    t_phys: float = 4.0,
    eps0: float = 0.2,
    halvings: int = 3,
    length: float = 51.2,
    width: float = 2.0,
    kick: float = 1.0,
) -> list[float]:
    """Max-norm deviation of the automaton from the finite-difference
    oracle run at a fixed fine mesh (the reference solution), at fixed
    physical time, for successive halvings of the automaton mesh."""
    from causal_fields.cca import mass_coin

    eps_min = eps0 / (2 ** halvings)
    eps_ref = eps_min / 8
    phi_ref = dirac_dressed_run(eps_ref, upwind_coin(m, eps_ref), m, t_phys, length, width, kick)
    out = []
    for h in range(halvings + 1):
        eps = eps0 / (2 ** h)
        phi = dirac_dressed_run(eps, mass_coin(m, eps), m, t_phys, length, width, kick)
        stride = int(round(eps / eps_ref))
        out.append(float(np.max(np.abs(phi - phi_ref[:, ::stride]))))
    return out


def composable_triples_oracle(pairs) -> list:
    """Every chain (s, g, d) with (s, g) and (g, d) in ``pairs``, by the
    first pair, then by the second, built whole (a reference for the
    index-addressed ``field_theory.composable_triples``)."""
    by_source: dict = {}
    for s, g in pairs:
        by_source.setdefault(s, []).append(g)
    return [(s, g, d) for s, g in pairs for d in by_source.get(g, ())]


# -- dense quantum oracle ------------------------------------------------------

def translation_class_oracle(sigma, gamma) -> tuple:
    """A pair of lattice slices with its least event moved to the origin:
    one value per class of translates (a reference for
    ``cca.translation_class``, which keys differently)."""
    if not sigma | gamma:
        return sigma, gamma
    t0, x0 = min(sigma | gamma)
    return tuple(frozenset((t - t0, tuple(a - b for a, b in zip(xs, x0))) for t, xs in s) for s in (sigma, gamma))


def random_unitary(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def choi_matrix(f) -> np.ndarray:
    """The Choi matrix of a quantum program from its compiled Kraus family,
    indexed Choi[(a, i), (b, j)] = <a| f(|i><j|) |b>: the cross-validation
    reference for the library's basis sweep, at small dimensions only."""
    from causal_fields import process as P

    ms = P.compile_kernel(f)
    v = ms.reshape(ms.shape[0], -1)
    return v.T @ v.conj()


def is_completely_positive(f, tol: float = 1e-10) -> bool:
    """Positivity of the Choi matrix; holds by construction for programs
    built from the library's generators."""
    assert f.dom.dim * f.cod.dim <= 256, "Choi cross-validation is limited to small dimensions"
    return float(np.linalg.eigvalsh(choi_matrix(f)).min()) >= -tol


def normalisation_defect(f) -> float:
    """The exact deviation of discard-after from discard-before: the max
    entry of |sum_e M_e^dag M_e - I| (quantum) or of the column sums' gap
    to 1 (classical)."""
    from causal_fields import process as P

    return P.deviation(P.compose(P.discard(f.cod), f), P.discard(f.dom))


def dense_superoperator(f) -> np.ndarray:
    """Column-stacked superoperator built by evaluating a morphism on every
    matrix unit (or basis vector) via the step interpreter."""
    from causal_fields import process as P

    d = f.dom.dim
    if f.backend == "quantum":
        cols = []
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                cols.append(P.apply(f, P.ProcState(f.dom, e)).data.reshape(-1))
        return np.array(cols).T
    cols = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        cols.append(P.apply(f, P.ProcState(f.dom, v)).data)
    return np.array(cols).T


def _embed_full(m: np.ndarray, positions, dims) -> np.ndarray:
    """Extend an operator on the chosen tensor positions to the full space
    as a permuted ``kron(m, I)``."""
    n = len(dims)
    pos = list(positions)
    rest = [i for i in range(n) if i not in set(pos)]
    rest_dim = int(np.prod([dims[i] for i in rest]))
    big = np.kron(m, np.eye(rest_dim, dtype=m.dtype))
    order = pos + rest
    shape = tuple(dims[i] for i in order)
    big = big.reshape(shape + shape)
    inv = np.argsort(order)
    big = big.transpose(tuple(inv) + tuple(inv + n))
    d = int(np.prod(dims))
    return big.reshape(d, d)


# -- step lists: the reference for building and composing programs -----------

def resolve_steps(factors, steps):
    """The resolved form ``(ops, gone, out)`` of a step list on a domain
    of ``factors``, by walking the domain wire at each position.  A step is
    read against the current factor list:

      ("matrix", M, idx)   M in place on factors idx
      ("kraus", Ms, idx)   the Kraus family in place on factors idx
      ("discard", idx)     partial trace / marginal sum over factors idx
      ("permute", perm)    reorder all factors: new[i] = old[perm[i]]

    The steps are not checked here; the program's constructor checks the
    form."""
    alive = list(range(len(factors)))
    ops, gone = [], []
    for step in steps:
        if step[0] == "discard":
            idx = set(step[1])
            gone += [alive[i] for i in sorted(idx)]
            alive = [w for i, w in enumerate(alive) if i not in idx]
        elif step[0] == "permute":
            alive = [alive[p] for p in step[1]]
        else:
            ops.append((step[0], step[1], tuple(alive[i] for i in step[2])))
    return ops, gone, alive


def live_factors(factors, steps) -> tuple:
    """The factor list a step list leaves on a domain of ``factors``."""
    return tuple(factors[w] for w in resolve_steps(factors, steps)[2])


def steps_program(dom, steps):
    """The kernel program of a step list on ``dom``, to the factors it leaves."""
    from causal_fields import process as P

    ops, gone, out = resolve_steps(dom.factors, steps)
    cod = P.ProcObject(dom.backend, tuple(dom.factors[w] for w in out))
    return P.ProcMorphism(dom, cod, ops, gone, out)


def compile_kernel_oracle(dom, steps) -> np.ndarray:
    """The compiled form of a step list on ``dom`` by full-space products:
    every step is embedded as a d x d operator and multiplied onto a list
    of Kraus branches (Kraus operator outer, existing branch inner);
    discards are deferred to one partial trace / marginal sum at the end.
    Same layout as ``process.compile_kernel``, by an independent route: it
    walks the steps itself and never reads a program's resolved form."""
    dims = dom.factors
    n, d = len(dims), dom.dim
    quantum = dom.backend == "quantum"
    dtype = complex if quantum else float
    alive, discarded = list(range(n)), []
    mats = [np.eye(d, dtype=dtype)]
    for step in steps:
        kind = step[0]
        if kind == "matrix":
            m_full = _embed_full(step[1].astype(dtype), [alive[i] for i in step[2]], dims)
            mats = [m_full @ a for a in mats]
        elif kind == "kraus":
            embedded = [_embed_full(k, [alive[i] for i in step[2]], dims) for k in step[1]]
            mats = [e @ a for e in embedded for a in mats]
        elif kind == "discard":
            idx = set(step[1])
            discarded.extend(alive[i] for i in sorted(idx))
            alive = [w for i, w in enumerate(alive) if i not in idx]
        elif kind == "permute":
            alive = [alive[p] for p in step[1]]
    k_dim = int(np.prod([dims[w] for w in alive]))
    e_dim = int(np.prod([dims[w] for w in discarded]))
    order = tuple(alive) + tuple(discarded) + (n,)
    branches = [a.reshape(dims + (d,)).transpose(order).reshape(k_dim, e_dim, d) for a in mats]
    if quantum:
        return np.concatenate([t.transpose(1, 0, 2) for t in branches], axis=0)
    assert len(branches) == 1, "classical programs have no kraus steps"
    return branches[0].sum(axis=1)


# -- lattice morphisms: the kernel-by-kernel reference for the chain build -----

def _reference_kernel(config, sites, cell, cells, route):
    """One scatter-and-route kernel on ``sites``, built and checked on its
    own: ``cell`` on each slot group of ``cells``, the slots ``route``
    leaves out discarded, the kept ones in the order of their targets."""
    from causal_fields import cca, process as P

    slots = cca.slice_slots(config, sites)
    pos = {s: i for i, s in enumerate(slots)}
    ops = [("matrix", cell, tuple(pos[s] for s in group)) for group in cells]
    gone = [i for i, s in enumerate(slots) if s not in route]
    out = [pos[s] for s in sorted(route, key=route.get)]
    cod = P.ProcObject(config.backend, (config.cell_dim,) * len(out))
    return P.ProcMorphism(cca.slice_object(config, sites), cod, ops, gone, out)


def reference_restriction(config, src, tgt):
    """The restriction of the slice over ``src`` to ``tgt`` as one
    ``discard`` of the factors over the events left out."""
    from causal_fields import cca, process as P

    slots = cca.slice_slots(config, src)
    drop = [i for i, (x, _) in enumerate(slots) if x not in tgt]
    return P.discard(cca.slice_object(config, src), drop)


def reference_lattice_morphism(config, sigma, gamma, direction: int, cell):
    """The lattice theory's morphism sigma ->> gamma built kernel by kernel:
    ``compose_all`` of a ``discard`` for the factorisation's restriction and
    one separately checked step kernel per time step (forward steps with
    ``config.cell``, reverse steps with ``cell``, the checked inverse
    cell), each composed through the ``out`` of those before it."""
    from causal_fields import cca, process as P

    dirs = config.directions
    kernels = []
    for kind, src, tgt, _t in cca.factorize_morphism(config, sigma, gamma, direction):
        if kind == "restrict":
            kernels.append(reference_restriction(config, src, tgt))
        elif direction > 0:
            cells = [[(y, dlt) for dlt in dirs] for y in sorted(src)]
            route = {(y, dlt): (cca._sub(y, dlt), dlt) for y in src for dlt in dirs if cca._sub(y, dlt) in tgt}
            kernels.append(_reference_kernel(config, src, config.cell, cells, route))
        else:
            cells = [[(cca._sub(x, dlt), dlt) for dlt in dirs] for x in sorted(tgt)]
            route = {(cca._sub(x, dlt), dlt): (x, dlt) for x in tgt for dlt in dirs}
            kernels.append(_reference_kernel(config, src, cell, cells, route))
    return P.compose_all(*kernels)


# -- planted defects: mutants of a lattice theory for detection tests ---------

def position_dependent(theory, site, u):
    """``theory`` with the matrix of every kernel whose slices touch
    ``site`` replaced by ``u``: a theory that is not translation invariant."""
    from causal_fields import process as P
    from causal_fields.field_theory import FieldTheory

    def mor_fn(sigma, gamma):
        f = theory.mor(sigma, gamma)
        if all(x != site for _, x in sigma | gamma):
            return f
        ops = [(kind, u if kind == "matrix" else m, wires) for kind, m, wires in f.ops]
        return P.ProcMorphism(f.dom, f.cod, ops, f.gone, f.out)

    return FieldTheory(theory.category, theory.obj_fn, mor_fn, theory.slots_fn)


# -- data of a state's shape that is not a state ------------------------------

def not_states(d: int) -> dict:
    """By backend, named data of dimension ``d`` that ``process.is_state``
    refuses: each breaks one rule (Hermitian, trace 1, no diagonal entry
    below -1e-10; no entry below -1e-10, sum 1) by far more than 1e-10."""
    from causal_fields import process as P

    eye = np.eye(d)
    skew = eye / d
    skew[0, 1] = 0.1  # upper triangular: not Hermitian
    negative_diagonal = np.diag([1.5, -0.5] + [0.0] * (d - 2))
    p_negative = np.full(d, 1.0 / (d - 2))
    p_negative[:2] = [-0.5, 0.5]
    return {
        P.QUANTUM: {"triangular": skew, "minus_identity": -eye / d, "twice_identity": 2 * eye / d,
                    "negative_diagonal": negative_diagonal},
        P.CLASSICAL: {"negative_entry": p_negative, "sum_two": np.full(d, 2.0 / d)},
    }
