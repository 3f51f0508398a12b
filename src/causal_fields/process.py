"""Process backends: symmetric monoidal composition with discarding.

Two concrete backends share one morphism representation:

* ``quantum``  -- finite-dimensional channels acting on density operators;
* ``classical`` -- stochastic maps acting on probability vectors.

Morphisms are lazy kernel programs (sequences of elementary steps), never
dense superoperators.  No step creates a wire, so every program has one
resolved form, recorded when it is built: its matrix and Kraus steps on
domain wires (``ops``), the domain wires it discards in discard order
(``gone``), and the domain wire at each codomain position (``out``).
Every interpreter reads that form, and composites are built from it.
``apply`` contracts each op onto the axes its wires hold in the working
state and traces each discarded wire right after the last op on it, so
the state never holds a wire longer than the step list does.  The
one-sided evaluator ``_evolve`` runs the form on a batch of columns with
a leading branch axis: a Kraus step branches the batch, and the
discarded wires join the branch axis (quantum) or are summed out
(classical).  Compiling runs it on the identity, giving the Kraus /
matrix form of the program; a ``FactorPair`` runs it on both factors of
rho = sum_b A_b B_b^dag and so steps a state without forming rho, from a
ket in one batch of width 1.  Two programs with one resolved form
(``program_form``, the library's one test of structural identity) and
finite matrices are one morphism, so their deviation is exactly 0 and
neither is compiled.  Otherwise equality checking evaluates both programs
via that compiled form on the full operator basis (quantum) or the
standard basis (classical), entrywise.  Against a tolerance, a
comparison accepts on one rule, a bound from the joint causal cone of the
two programs: discarding after a normalised step is discarding its
inputs, so domain factors that reach no output only through normalised
steps are dropped, and the bound grows with those steps' normalisation
defects.  With nothing dropped the cone is the whole domain and the bound
is the Frobenius norm of the Choi difference, from a QR of the stacked
Kraus columns.  Otherwise the result is the exact max-entry deviation, so
every reported violation comes from the full sweep.  A law check compares
through ``deviation_memo``, which keys each comparison on both programs'
resolved forms and computes each distinct one once per check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    BackendMismatch,
    BadFactorIndex,
    BadParams,
    NotFinite,
    NotStochastic,
    NotUnitary,
    ShapeMismatch,
)

QUANTUM = "quantum"
CLASSICAL = "classical"

#: tolerance for validity predicates (unitarity, normalisation, ...)
VALIDITY_TOL = 1e-10
#: tolerance for oracle agreement in tests
ORACLE_TOL = 1e-12

#: refuse to compile programs on spaces larger than this
_MAX_COMPILE_DIM = 4096


# ---------------------------------------------------------------------------
# objects and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcObject:
    """A backend object: an ordered list of atomic tensor factors."""

    backend: str
    factors: tuple[int, ...]

    def __post_init__(self):
        if self.backend not in (QUANTUM, CLASSICAL):
            raise BackendMismatch(f"unknown backend {self.backend!r}")
        if any(d < 1 for d in self.factors):
            raise ShapeMismatch("factor dimensions must be >= 1")

    @property
    def dim(self) -> int:
        return prod(self.factors)

    @property
    def is_unit(self) -> bool:
        return len(self.factors) == 0


def unit(backend: str) -> ProcObject:
    return ProcObject(backend, ())


def tensor_obj(a: ProcObject, b: ProcObject) -> ProcObject:
    if a.backend != b.backend:
        raise BackendMismatch(f"{a.backend} vs {b.backend}")
    return ProcObject(a.backend, a.factors + b.factors)


@dataclass(frozen=True)
class ProcState:
    """A state on a ProcObject: density operator or probability vector."""

    obj: ProcObject
    data: np.ndarray

    def __post_init__(self):
        d = self.obj.dim
        want = (d, d) if self.obj.backend == QUANTUM else (d,)
        if self.data.shape != want:
            raise ShapeMismatch(f"state data {self.data.shape}, expected {want}")
        require_finite(self.data, "state data")

    @property
    def norm(self) -> float:
        if self.obj.backend == QUANTUM:
            return float(np.real(np.trace(self.data)))
        return float(np.sum(self.data))


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself, or NotFinite if any entry is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise NotFinite(f"{what} has a NaN or infinite entry")
    return arr


def state(obj: ProcObject, data) -> ProcState:
    return ProcState(obj, np.asarray(data, dtype=complex if obj.backend == QUANTUM else float))


def basis_state(obj: ProcObject, index: int) -> ProcState:
    d = obj.dim
    if not 0 <= index < d:
        raise ShapeMismatch(f"basis index {index} out of range for dim {d}")
    if obj.backend == QUANTUM:
        rho = np.zeros((d, d), dtype=complex)
        rho[index, index] = 1.0
        return ProcState(obj, rho)
    p = np.zeros(d)
    p[index] = 1.0
    return ProcState(obj, p)


# ---------------------------------------------------------------------------
# kernel steps
#
# A step is a tuple, interpreted against the current factor list:
#   ("matrix", M, idx)   apply M (unitary / stochastic) in place on factors idx
#   ("kraus", Ms, idx)   apply the Kraus family in place on factors idx
#   ("discard", idx)     partial trace / marginal sum over factors idx
#   ("permute", perm)    reorder all factors: new[i] = old[perm[i]]
#
# Steps are the input format.  The constructor resolves them once against
# the domain wires: ``ops`` holds the matrix and Kraus steps with their
# factor indices replaced by domain wires, ``gone`` the discarded wires in
# discard order, ``out`` the domain wire at each codomain position.
# ``program`` writes a resolved form back as steps.
# ---------------------------------------------------------------------------

def _step_out_factors(factors: tuple[int, ...], step) -> tuple[int, ...]:
    kind = step[0]
    n = len(factors)
    if kind in ("matrix", "kraus"):
        idx = step[2]
        if len(set(idx)) != len(idx) or any(not 0 <= i < n for i in idx):
            raise BadFactorIndex(f"bad factor indices {idx} for {n} factors")
        m = prod(factors[i] for i in idx)
        shapes = {mat.shape for mat in ((step[1],) if kind == "matrix" else step[1])}
        if shapes != {(m, m)}:
            raise ShapeMismatch(f"{kind} step of shapes {sorted(shapes)} on factors of total dim {m}")
        return factors
    if kind == "discard":
        idx = step[1]
        if len(set(idx)) != len(idx) or any(not 0 <= i < n for i in idx):
            raise BadFactorIndex(f"bad factor indices {idx} for {n} factors")
        drop = set(idx)
        return tuple(d for i, d in enumerate(factors) if i not in drop)
    if kind == "permute":
        perm = step[1]
        if sorted(perm) != list(range(n)):
            raise BadFactorIndex(f"{perm} is not a permutation of {n} factors")
        return tuple(factors[p] for p in perm)
    raise ShapeMismatch(f"unknown step kind {kind!r}")


@dataclass(frozen=True)
class ProcMorphism:
    """A morphism as a kernel program from ``dom`` to ``cod``; ``ops``,
    ``gone`` and ``out`` hold its resolved form."""

    dom: ProcObject
    cod: ProcObject
    steps: tuple = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    ops: tuple = field(init=False, compare=False, repr=False)
    gone: tuple = field(init=False, compare=False, repr=False)
    out: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        facs = self.dom.factors
        alive = list(range(len(facs)))  # the domain wire at each position
        ops, gone = [], []
        for step in self.steps:
            kind = step[0]
            if kind == "kraus" and self.backend != QUANTUM:
                raise ShapeMismatch("classical programs cannot contain kraus steps")
            facs = _step_out_factors(facs, step)
            if kind == "discard":
                idx = set(step[1])
                gone.extend(alive[i] for i in sorted(idx))
                alive = [w for i, w in enumerate(alive) if i not in idx]
            elif kind == "permute":
                alive = [alive[p] for p in step[1]]
            else:
                ops.append((kind, step[1], tuple(alive[i] for i in step[2])))
        if facs != self.cod.factors:
            raise ShapeMismatch(
                f"program produces factors {facs}, declared cod {self.cod.factors}"
            )
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "gone", tuple(gone))
        object.__setattr__(self, "out", tuple(alive))

    @property
    def backend(self) -> str:
        return self.dom.backend


def identity(obj: ProcObject) -> ProcMorphism:
    return ProcMorphism(obj, obj, ())


def discard(obj: ProcObject, which: Sequence[int] | None = None) -> ProcMorphism:
    """Discard the chosen factors (all of them by default)."""
    if which is None:
        which = range(len(obj.factors))
    idx = tuple(sorted(which))
    if not idx:
        return identity(obj)
    drop = set(idx)
    keep = tuple(d for i, d in enumerate(obj.factors) if i not in drop)
    return ProcMorphism(obj, ProcObject(obj.backend, keep), (("discard", idx),))


def unitary_channel(obj: ProcObject, u, factors: Sequence[int] | None = None,
                    tol: float = VALIDITY_TOL) -> ProcMorphism:
    """The channel rho -> U rho U^dag on the chosen factors of a quantum object."""
    if obj.backend != QUANTUM:
        raise BackendMismatch("unitary_channel needs a quantum object")
    u = np.asarray(u, dtype=complex)
    if factors is None:
        factors = range(len(obj.factors))
    idx = tuple(factors)
    if not (np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol):
        raise NotUnitary("matrix is not unitary within tolerance")
    return ProcMorphism(obj, obj, (("matrix", u, idx),))


def kraus_channel(obj: ProcObject, kraus_ops, factors: Sequence[int] | None = None) -> ProcMorphism:
    """A completely positive map given by a Kraus family on the chosen factors."""
    if obj.backend != QUANTUM:
        raise BackendMismatch("kraus_channel needs a quantum object")
    ks = tuple(require_finite(np.asarray(k, dtype=complex), "Kraus operator") for k in kraus_ops)
    if factors is None:
        factors = range(len(obj.factors))
    return ProcMorphism(obj, obj, (("kraus", ks, tuple(factors)),))


def stochastic_map(obj: ProcObject, s, factors: Sequence[int] | None = None) -> ProcMorphism:
    """A (sub)stochastic matrix acting on the chosen factors of a classical object."""
    if obj.backend != CLASSICAL:
        raise BackendMismatch("stochastic_map needs a classical object")
    s = require_finite(np.asarray(s, dtype=float), "stochastic matrix")
    if not (-np.min(s) <= VALIDITY_TOL):
        raise NotStochastic("negative entries in stochastic matrix")
    if factors is None:
        factors = range(len(obj.factors))
    return ProcMorphism(obj, obj, (("matrix", s, tuple(factors)),))


def permute_factors(obj: ProcObject, perm: Sequence[int]) -> ProcMorphism:
    perm = tuple(perm)
    cod = ProcObject(obj.backend, tuple(obj.factors[p] for p in perm))
    if perm == tuple(range(len(perm))):
        return identity(obj)
    return ProcMorphism(obj, cod, (("permute", perm),))


def compose(g: ProcMorphism, f: ProcMorphism) -> ProcMorphism:
    """g after f."""
    return compose_all(f, g)


def compose_all(*morphisms: ProcMorphism) -> ProcMorphism:
    """Compose left to right: compose_all(f, g, h) = h . g . f, built once
    by reading each program's wires through the ``out`` of those before it.
    One morphism is returned as it is."""
    first = morphisms[0]
    if len(morphisms) == 1:
        return first
    ops, gone, out = list(first.ops), list(first.gone), first.out
    for f, g in itertools.pairwise(morphisms):
        if f.cod != g.dom:
            raise ShapeMismatch(f"cannot compose: cod {f.cod} != dom {g.dom}")
        ops += [(kind, m, tuple(out[w] for w in wires)) for kind, m, wires in g.ops]
        gone += [out[w] for w in g.gone]
        out = tuple(out[w] for w in g.out)
    return program(first.dom, morphisms[-1].cod, ops, gone, out)


def program(dom: ProcObject, cod: ProcObject, ops, gone, out) -> ProcMorphism:
    """The kernel program with a given resolved form: the steps ``ops`` on
    domain wires, then one permutation that puts the wires ``out`` first
    and the wires ``gone`` after them, then one discard of the ``gone``
    block, so the wires are discarded in the order given.  A step that
    would do nothing is left out."""
    order = tuple(out) + tuple(gone)
    steps = list(ops)
    if order != tuple(range(len(order))):
        steps.append(("permute", order))
    if gone:
        steps.append(("discard", tuple(range(len(out), len(order)))))
    return ProcMorphism(dom, cod, tuple(steps))


def tensor_mor(f: ProcMorphism, g: ProcMorphism) -> ProcMorphism:
    """f tensor g; runs f on the left block, then g on the right block."""
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    n = len(f.dom.factors)

    def shift(wires):
        return tuple(w + n for w in wires)

    ops = f.ops + tuple((kind, m, shift(wires)) for kind, m, wires in g.ops)
    return program(tensor_obj(f.dom, g.dom), tensor_obj(f.cod, g.cod), ops,
                   f.gone + shift(g.gone), f.out + shift(g.out))


# ---------------------------------------------------------------------------
# interpretation of kernel programs on states
# ---------------------------------------------------------------------------

def _apply_on_axes(t: np.ndarray, m: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract the matrix ``m`` onto the given tensor axes, in place."""
    k = len(axes)
    dims = tuple(t.shape[a] for a in axes)
    mt = m.reshape(dims + dims)
    out = np.tensordot(mt, t, axes=(tuple(range(k, 2 * k)), tuple(axes)))
    return np.moveaxis(out, range(k), axes)


def _evolve(f: ProcMorphism, t: np.ndarray) -> np.ndarray:
    """Run the resolved ops of ``f`` on a batch ``t`` of shape
    ``(branches, dom.dim, width)``, returning ``(branches', cod.dim,
    width)``: the one-sided evaluator behind compilation and
    ``FactorPair``.

    The batch is viewed as ``(branches,) + dom.factors + (width,)`` and
    each op is contracted onto the axes of its domain wires; a Kraus step
    branches the batch, Kraus operator outer, existing branch inner.  The
    discarded wires then join the branch axis in discard order (quantum) or
    are summed out (classical), and the kept wires are read in ``out``
    order."""
    n, width = len(f.dom.factors), t.shape[-1]
    quantum = f.backend == QUANTUM
    dtype = complex if quantum else float
    t = t.reshape((len(t),) + f.dom.factors + (width,))
    for kind, m, wires in f.ops:
        axes = [1 + w for w in wires]
        if kind == "matrix":
            t = _apply_on_axes(t, m.astype(dtype, copy=False), axes)
        else:
            t = np.concatenate([_apply_on_axes(t, k, axes) for k in m])
    if quantum:
        t = t.transpose((0,) + tuple(1 + w for w in f.gone + f.out) + (n + 1,))
        return np.ascontiguousarray(t.reshape(-1, f.cod.dim, width))
    t = t[0].transpose(f.out + f.gone + (n,))
    return t.reshape(f.cod.dim, -1, width).sum(axis=1)[None]


def apply(f: ProcMorphism, rho: ProcState) -> ProcState:
    """Evaluate the kernel program on a state, op by op on the axes of the
    live wires.  Each discarded wire is traced out (summed, classically)
    right after the last op on it; wires freed at the same point go last
    discarded first, so a discard step sums its highest factor first."""
    if rho.obj != f.dom:
        raise ShapeMismatch(f"state on {rho.obj}, morphism from {f.dom}")
    dims = f.dom.factors
    quantum = f.backend == QUANTUM
    last = {w: i for i, (_, _, wires) in enumerate(f.ops) for w in wires}
    drops: dict[int, list] = {}
    for w in f.gone:
        drops.setdefault(last.get(w, -1), []).append(w)
    live = list(range(len(dims)))  # the domain wire on each axis
    t = rho.data.reshape(dims * 2 if quantum else dims)

    def trace(after: int):
        nonlocal t
        for w in reversed(drops.get(after, ())):
            i = live.index(w)
            t = np.trace(t, axis1=i, axis2=i + len(live)) if quantum else np.sum(t, axis=i)
            del live[i]

    trace(-1)
    for i, (kind, m, wires) in enumerate(f.ops):
        axes = [live.index(w) for w in wires]
        conj_axes = [a + len(live) for a in axes]
        if kind == "matrix":
            t = _apply_on_axes(t, m, axes)
            if quantum:
                t = _apply_on_axes(t, m.conj(), conj_axes)
        else:
            terms = [_apply_on_axes(_apply_on_axes(t, k, axes), k.conj(), conj_axes) for k in m]
            t = sum(terms[1:], terms[0])
        trace(i)
    perm = [live.index(w) for w in f.out]
    t = t.transpose(perm + [p + len(live) for p in perm] if quantum else perm)
    d = f.cod.dim
    return ProcState(f.cod, t.reshape((d, d) if quantum else (d,)))


class FactorPair:
    """A state held as a factor pair, rho = sum_b A_b B_b^dag, with A and B
    batches of shape ``(branches, dim, width)``; rho is formed only by
    ``state``.  A step runs each factor through ``_evolve``, so
    ``step(f).state()`` is ``apply(f, state())``.  A ket starts with
    A = B = psi of width 1 and keeps B = A, so it is evolved once per step;
    a density operator starts from A = rho, B = I; a probability vector is
    A = p of width 1, with no B."""

    def __init__(self, obj: ProcObject, a: np.ndarray, b: np.ndarray | None = None):
        self.obj, self._a, self._b = obj, a, b  # b None: B = A, or no B (classical)

    @classmethod
    def from_ket(cls, obj: ProcObject, psi) -> "FactorPair":
        if obj.backend != QUANTUM:
            raise BackendMismatch("a ket needs a quantum object")
        psi = require_finite(np.asarray(psi, dtype=complex), "ket")
        if psi.shape != (obj.dim,):
            raise ShapeMismatch(f"ket {psi.shape}, expected {(obj.dim,)}")
        return cls(obj, psi.reshape(1, obj.dim, 1))

    @classmethod
    def from_state(cls, rho: ProcState) -> "FactorPair":
        d = rho.obj.dim
        if rho.obj.backend == CLASSICAL:
            return cls(rho.obj, rho.data.reshape(1, d, 1))
        return cls(rho.obj, rho.data[None], np.eye(d, dtype=complex)[None])

    def step(self, f: ProcMorphism) -> "FactorPair":
        if self.obj != f.dom:
            raise ShapeMismatch(f"state on {self.obj}, morphism from {f.dom}")
        return FactorPair(f.cod, _evolve(f, self._a), None if self._b is None else _evolve(f, self._b))

    def diagonal(self) -> np.ndarray:
        """The diagonal of rho (the probability vector, classically)."""
        if self.obj.backend == CLASSICAL:
            return self._a[0, :, 0]
        b = self._a if self._b is None else self._b
        return np.real(np.sum(self._a * b.conj(), axis=(0, 2)))

    def state(self) -> ProcState:
        if self.obj.backend == CLASSICAL:
            return ProcState(self.obj, self._a[0, :, 0])
        b = self._a if self._b is None else self._b
        return ProcState(self.obj, np.tensordot(self._a, b.conj(), axes=([0, 2], [0, 2])))


# ---------------------------------------------------------------------------
# compiled form: the program applied to the identity batch
#
# Compiling is evaluating the program on every basis vector at once: the
# identity batch eye(d) with one branch, run through ``_evolve``.  The
# compiled form of a quantum program is the Kraus family of the channel; of
# a classical program, its matrix.
# ---------------------------------------------------------------------------

def compile_kernel(f: ProcMorphism) -> np.ndarray:
    """Compile a program to its channel form.

    Quantum: an ndarray of shape (r, cod.dim, dom.dim) holding the Kraus
    family.  Classical: an ndarray of shape (cod.dim, dom.dim).  The result
    is cached on the morphism.
    """
    cached = f._cache.get("kernel")
    if cached is not None:
        return cached
    d = f.dom.dim
    if d > _MAX_COMPILE_DIM:
        raise ShapeMismatch(f"refusing to compile a program on dimension {d}")
    out = _evolve(f, np.eye(d, dtype=complex if f.backend == QUANTUM else float)[None])
    if f.backend == CLASSICAL:
        out = out[0]
    f._cache["kernel"] = out
    return out


def _choi_maxdiff(x: np.ndarray, r: int) -> float:
    """Max entry of |V V^dag - W W^dag| for stacked columns x = [V | W]
    with r columns in V: the max entrywise deviation between two Choi
    matrices.  NaN if any entry is NaN."""
    y = x.conj().T.copy()
    y[r:] *= -1  # x @ y = V V^dag - W W^dag, 512 rows at a time
    worst = [np.max(np.abs(x[r0:r0 + 512] @ y)) for r0 in range(0, x.shape[0], 512)]
    return float(np.max(worst))


def _choi_qr_bound(x: np.ndarray, r: int) -> float:
    """Frobenius norm of V V^dag - W W^dag for x = [V | W] with r columns
    in V, an upper bound on its max entry.

    With X = Q R and R = [R1 | R2], the difference is
    Q (R1 R1^dag - R2 R2^dag) Q^dag, so its Frobenius norm is that of the
    matrix in the middle, of side at most the column count of X (X itself
    stands in for R when it has no more rows than columns).  The QR route
    is backward stable, unlike a difference of Gram sums, which cancels.
    """
    if x.shape[0] > x.shape[1]:
        x = np.linalg.qr(x, mode="r")
    r1, r2 = x[:, :r], x[:, r:]
    return float(np.linalg.norm(r1 @ r1.conj().T - r2 @ r2.conj().T))


def _kraus_columns(ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Both Kraus families as columns, (cod*dom, r1 + r2): Choi(f) = V V^dag."""
    return np.concatenate([ms.reshape(len(ms), -1).T, ns.reshape(len(ns), -1).T], axis=1)


def _defect(m: np.ndarray, quantum: bool) -> float:
    """Normalisation defect of a matrix step: ||M^dag M - I|| in Frobenius
    norm (quantum; it bounds the spectral norm) or max_j |sum_i M_ij - 1|
    (classical; infinite if an entry is negative).  NaN gives NaN or inf."""
    if quantum:
        return float(np.linalg.norm(m.conj().T @ m - np.eye(len(m))))
    if not (np.min(m) >= 0):
        return np.inf
    return float(np.max(np.abs(m.sum(axis=0) - 1.0)))


def _joint_cone(f: ProcMorphism, g: ProcMorphism) -> tuple[list[bool], dict]:
    """Which domain wires of ``f`` and ``g`` the comparison must keep, and
    the defect of every matrix step (keyed by the matrix's id).

    Wires acted on by one matrix or Kraus step of either program are
    joined; a component is kept if it holds a codomain wire of either
    program, a Kraus step, or a matrix step whose defect is not within
    VALIDITY_TOL (NaN included).
    """
    quantum = f.backend == QUANTUM
    n = len(f.dom.factors)
    root = list(range(n))

    def find(w: int) -> int:
        while root[w] != w:
            root[w] = root[root[w]]
            w = root[w]
        return w

    defects: dict[int, float] = {}
    marked: set[int] = set()
    for h in (f, g):
        for kind, m, wires in h.ops:
            for w in wires[1:]:
                root[find(w)] = find(wires[0])
            if kind == "matrix" and id(m) not in defects:
                defects[id(m)] = _defect(m, quantum)
            if kind == "kraus" or not (defects[id(m)] <= VALIDITY_TOL):
                marked.update(wires)
        marked.update(h.out)
    kept_roots = {find(w) for w in marked}
    return [find(w) in kept_roots for w in range(n)], defects


def _restrict(f: ProcMorphism, keep: list[bool], defects: dict) -> tuple[ProcMorphism, float]:
    """``f`` on the kept domain wires (domain order, same codomain), and
    e = prod(1 + defect) - 1 over the matrix steps it drops.

    Ops on dropped wires go, dropped wires leave the discards, and the
    kept wires are re-indexed.  An op on no wire at all is kept.
    """
    new = {w: j for j, w in enumerate(w for w, k in enumerate(keep) if k)}
    ops, grow = [], 1.0
    for kind, m, wires in f.ops:
        if not wires or keep[wires[0]]:
            ops.append((kind, m, tuple(new[w] for w in wires)))
        else:
            grow *= 1 + defects[id(m)]
    dom = ProcObject(f.backend, tuple(d for d, k in zip(f.dom.factors, keep) if k))
    gone = [new[w] for w in f.gone if keep[w]]
    return program(dom, f.cod, ops, gone, [new[w] for w in f.out]), grow - 1


def _cone_bound(f: ProcMorphism, g: ProcMorphism) -> float:
    """An upper bound on the max-entry deviation of ``f`` and ``g`` from
    their joint cone; when it is the whole domain, the programs themselves
    are compared and ``e_f = e_g = 0``."""
    keep, defects = _joint_cone(f, g)
    e_f = e_g = 0.0
    if not all(keep):
        f, e_f = _restrict(f, keep, defects)
        g, e_g = _restrict(g, keep, defects)
    a, c = compile_kernel(f), compile_kernel(g)
    if f.backend == QUANTUM:
        x = _kraus_columns(a, c)
        w = x[:, len(a):]
        b = _choi_qr_bound(x, len(a))
        m_g = float(np.max(np.sum(w.real ** 2 + w.imag ** 2, axis=1)))
    else:
        b = float(np.max(np.abs(a - c)))
        m_g = float(np.max(np.abs(c)))
    return b * (1 + e_f) + m_g * (e_f + e_g)


def program_form(f: ProcMorphism) -> tuple:
    """The resolved form of ``f`` as a key: its ``dom``, ``cod``, ``gone``
    and ``out``, and each op's kind, matrix object (by ``id``) and wires.

    Two programs with one form run the same matrices on the same wires, so
    they are one morphism.  An ``id`` names a matrix only while it lives:
    a caller that keeps forms must keep their matrices too."""
    return f.dom, f.cod, f.gone, f.out, tuple((kind, id(m), wires) for kind, m, wires in f.ops)


def deviation(f: ProcMorphism, g: ProcMorphism, tol: float | None = None) -> float:
    """Max entrywise deviation of the two programs over a basis sweep.

    Quantum morphisms are evaluated on the full operator basis E_ij of the
    input space (the sweep outputs are exactly the entries of the Choi
    matrices); classical morphisms on the standard basis.

    Two programs with one ``program_form`` whose matrices are all finite
    are one morphism: the result is exactly 0.0, with or without ``tol``,
    and nothing is compiled.  With a NaN or infinite matrix the pair is
    compared as below, so it never passes.

    Given ``tol``, the comparison first tries to accept on the joint causal
    cone.  Every domain factor is a wire; the wires of each matrix or Kraus
    step of ``f`` and of ``g`` are joined, and a component is kept if it
    holds a codomain wire of either program, a Kraus step, or a matrix step
    that is not normalised within VALIDITY_TOL (a classical one also if it
    has a negative entry; NaN is never normalised).  The programs f', g'
    on the kept wires give

        bound = b' (1 + e_f) + m_g (e_f + e_g),

    where b' is the Frobenius norm of Choi(f') - Choi(g') (quantum; via a
    QR of the stacked Kraus columns) or max|T(f') - T(g')| (classical), m_g
    is the largest diagonal entry of Choi(g') (quantum) or max|T(g')|
    (classical), and e_f = prod(1 + d_i) - 1 over the defects d_i of the
    matrix steps f drops (e_g alike).  If ``bound <= tol`` it is returned.
    When every wire is kept, f' = f, g' = g and e_f = e_g = 0, so the bound
    is the Frobenius norm of the full Choi difference.  Soundness: on the
    wire partition f = f' (x) D_f, where D_f ends in a full trace, so
    Choi(f) = Choi(f') (x) N_f^T with N_f = D_f^dag(1) (classical: the row
    of column sums of D_f).  Each dropped step is completely positive (or
    entrywise non-negative) and grows ||N - 1|| from x to at most
    (1 + d) x + d, so ||N_f - 1|| <= e_f.  Then
    Choi(f) - Choi(g) = (Choi(f') - Choi(g')) (x) N_f^T
    + Choi(g') (x) (N_f - N_g)^T, the max entry of X (x) Y is
    max|X| max|Y|, and a positive matrix's max entry is on its diagonal,
    so the exact deviation is at most ``bound``.

    Otherwise (no ``tol``, a bound above ``tol``, or NaN) the result is the
    exact max-entry deviation of the full programs, so every value above
    ``tol`` is exact.  NaN entries give NaN, never a pass.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("morphisms must share dom and cod")
    if program_form(f) == program_form(g) and all(np.isfinite(m).all() for _, m, _ in f.ops):
        return 0.0
    if tol is not None:
        bound = _cone_bound(f, g)
        if bound <= tol:
            return bound
    a, c = compile_kernel(f), compile_kernel(g)
    if f.backend == QUANTUM:
        return _choi_maxdiff(_kraus_columns(a, c), len(a))
    return float(np.max(np.abs(a - c)))


def deviation_memo():
    """``deviation`` for one law check, computed once per distinct
    comparison.

    A comparison is keyed by both programs' ``program_form`` and ``tol``.
    In a homogeneous theory translated samples give programs of one form,
    so one check meets most comparisons several times.  The matrices of
    every key are held for as long as the memo lives, so that no id is
    reused; the programs and their compiled kernels are not held.  A NaN
    is stored as NaN and fails the check each time it is returned.
    ``deviation`` is looked up when a comparison is computed, so a
    rebinding of the module's ``deviation`` is seen.
    """
    values: dict = {}
    held: dict = {}

    def memoised(f: ProcMorphism, g: ProcMorphism, tol: float) -> float:
        key = program_form(f), program_form(g), tol
        if key not in values:
            held.update((id(m), m) for h in (f, g) for _, m, _ in h.ops)
            values[key] = deviation(f, g, tol)
        return values[key]

    return memoised


def is_normalised_state(rho: ProcState, tol: float = VALIDITY_TOL) -> bool:
    return abs(rho.norm - 1.0) <= tol


def states_equal(a: ProcState, b: ProcState, tol: float = VALIDITY_TOL) -> bool:
    if a.obj != b.obj:
        return False
    return float(np.max(np.abs(a.data - b.data))) <= tol


# ---------------------------------------------------------------------------
# matrix JSON interchange
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {
        "shape": list(m.shape),
        "data": [[float(np.real(x)), float(np.imag(x))] for x in m.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Read the ``matrix_to_json`` layout; a malformed blob is BadParams."""
    shape, data = (obj.get("shape"), obj.get("data")) if isinstance(obj, dict) else (None, None)
    if not (
        isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
        and isinstance(data, list) and all(
            isinstance(z, list) and len(z) == 2 and all(type(v) in (int, float) for v in z)
            for z in data
        )
    ):
        raise BadParams('a matrix is {"shape": [n, ...], "data": [[re, im], ...]}')
    shape = tuple(shape)
    flat = np.array([complex(re, im) for re, im in data])
    if flat.size != prod(shape):
        raise ShapeMismatch("matrix data does not match declared shape")
    return flat.reshape(shape)
