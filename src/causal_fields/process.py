"""Process backends: symmetric monoidal composition with discarding.

Two concrete backends share one morphism representation:

* ``quantum``  -- finite-dimensional channels acting on density operators;
* ``classical`` -- stochastic maps acting on probability vectors.

Morphisms are lazy kernel programs, never dense superoperators.  No step
creates a wire, so a program is held in its resolved form, checked once
when it is built: its matrix and Kraus steps on domain wires (``ops``),
the domain wires it discards in discard order (``gone``), and the domain
wire at each codomain position (``out``).  Every interpreter reads that
form, and every builder, composites included, writes one directly.
The one-sided evaluator ``_evolve`` runs the form on a batch of columns
with a leading branch axis: a Kraus step branches the batch, and the
discarded wires join the branch axis (quantum) or are summed out
(classical).  Compiling runs it on the identity, giving the Kraus /
matrix form of the program; a ``FactorPair`` runs it on both factors of
rho = sum_b A_b B_b^dag, from a ket in one batch of width 1, and
``apply`` runs it on a probability vector.  On a density operator
``apply`` contracts each op from both sides and traces each discarded
wire right after the last op on it.  Two programs with one resolved form
(``program_form``, the library's one test of structural identity) and
finite matrices are one morphism, so their deviation is exactly 0 and
neither is compiled.  Otherwise equality checking splits the pair into
the blocks of its wiring, which share no wire, so each Choi (or
transfer) matrix is a tensor product of its blocks'.  Identical blocks
factor out exactly as their peak entries; the blocks that differ are
compiled and compared, on the full operator basis (quantum) or the
standard basis (classical), entrywise.  Against a tolerance, a
comparison accepts on one rule, a telescoped bound over the differing
blocks from a QR of each block's stacked Kraus columns; otherwise the
result is the exact max-entry deviation, so every reported violation
comes from a sweep.  A law check compares
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


def unit(backend: str) -> ProcObject:
    return ProcObject(backend, ())


def tensor_obj(a: ProcObject, b: ProcObject) -> ProcObject:
    if a.backend != b.backend:
        raise BackendMismatch(f"{a.backend} vs {b.backend}")
    return ProcObject(a.backend, a.factors + b.factors)


@dataclass(frozen=True, eq=False)
class ProcState:
    """Data on a ProcObject of the shape of a density operator or a
    probability vector, with finite entries; ``is_state`` tells whether it
    is a state.  Equality is identity; ``state_deviation`` compares
    values."""

    obj: ProcObject
    data: np.ndarray

    def __post_init__(self):
        d = self.obj.dim
        want = (d, d) if self.obj.backend == QUANTUM else (d,)
        if self.data.shape != want:
            raise ShapeMismatch(f"state data {self.data.shape}, expected {want}")
        require_finite(self.data, "state data")


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself, or NotFinite if any entry is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise NotFinite(f"{what} has a NaN or infinite entry")
    return arr


def state(obj: ProcObject, data) -> ProcState:
    return ProcState(obj, np.asarray(data, dtype=complex if obj.backend == QUANTUM else float))


def is_state(rho: ProcState) -> bool:
    """Whether ``rho`` is a state within VALIDITY_TOL: Hermitian, trace 1
    and no diagonal entry below -tol (quantum), or no entry below -tol and
    summing to 1 (classical).  An overflow reads inf and is refused."""
    x, tol = rho.data, VALIDITY_TOL
    with np.errstate(over="ignore"):
        if rho.obj.backend == CLASSICAL:
            return bool(-np.min(x) <= tol and abs(np.sum(x) - 1.0) <= tol)
        return bool(np.max(np.abs(x - x.conj().T)) <= tol and abs(np.trace(x) - 1.0) <= tol
                    and -np.min(np.real(np.diagonal(x))) <= tol)


def state_deviation(a: ProcState, b: ProcState) -> float:
    """Max entry of |a - b| for two states on one object, passed through
    unchanged: an overflow reads inf, so it never passes a tolerance."""
    if a.obj != b.obj:
        raise ShapeMismatch(f"states on {a.obj} and {b.obj}")
    return float(np.max(np.abs(a.data - b.data)))


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
# kernel programs
#
# A program is its resolved form on the domain wires (the domain factors,
# numbered in order).  No step creates a wire, so every program is:
#   ops   its ("matrix", M, wires) and ("kraus", Ms, wires) steps, in order,
#         each applying M (unitary / stochastic) or the Kraus family in
#         place on the domain wires it names;
#   gone  the domain wires it discards (partial trace / marginal sum), in
#         discard order;
#   out   the domain wire at each codomain position.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProcMorphism:
    """A morphism from ``dom`` to ``cod`` as a kernel program in resolved
    form (``ops``, ``gone``, ``out``), checked once when built.  Equality
    is identity; ``program_form`` is the structural comparison."""

    dom: ProcObject
    cod: ProcObject
    ops: tuple
    gone: tuple
    out: tuple
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.dom.backend != self.cod.backend:
            raise BackendMismatch(f"{self.dom.backend} domain, {self.cod.backend} codomain")
        facs = self.dom.factors
        n = len(facs)
        ops = []
        for op in self.ops:
            kind = op[0]
            if kind not in ("matrix", "kraus"):
                raise ShapeMismatch(f"unknown step kind {kind!r}")
            if kind == "kraus" and self.backend != QUANTUM:
                raise ShapeMismatch("classical programs cannot contain kraus steps")
            _, m, wires = op
            wires = tuple(wires)
            if len(set(wires)) != len(wires) or any(not 0 <= w < n for w in wires):
                raise BadFactorIndex(f"bad factor indices {wires} for {n} factors")
            d = prod(facs[w] for w in wires)
            shapes = {mat.shape for mat in ((m,) if kind == "matrix" else m)}
            if shapes != {(d, d)}:
                raise ShapeMismatch(f"{kind} step of shapes {sorted(shapes)} on factors of total dim {d}")
            ops.append((kind, m, wires))
        gone, out = tuple(self.gone), tuple(self.out)
        if sorted(out + gone) != list(range(n)):
            raise BadFactorIndex(f"outputs {out} and discards {gone} do not split {n} factors")
        produced = tuple(facs[w] for w in out)
        if produced != self.cod.factors:
            raise ShapeMismatch(f"program produces factors {produced}, declared cod {self.cod.factors}")
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "gone", gone)
        object.__setattr__(self, "out", out)

    @property
    def backend(self) -> str:
        return self.dom.backend


def identity(obj: ProcObject) -> ProcMorphism:
    return ProcMorphism(obj, obj, (), (), range(len(obj.factors)))


def discard(obj: ProcObject, which: Sequence[int] | None = None) -> ProcMorphism:
    """Discard the chosen factors (all of them by default)."""
    n = len(obj.factors)
    gone = tuple(sorted(range(n) if which is None else which))
    out = tuple(w for w in range(n) if w not in gone)
    return ProcMorphism(obj, ProcObject(obj.backend, tuple(obj.factors[w] for w in out)), (), gone, out)


def unitary_channel(obj: ProcObject, u, factors: Sequence[int] | None = None) -> ProcMorphism:
    """The channel rho -> U rho U^dag on the chosen factors of a quantum object."""
    if obj.backend != QUANTUM:
        raise BackendMismatch("unitary_channel needs a quantum object")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatch(f"a unitary is a square matrix, not one of shape {u.shape}")
    if not (np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= VALIDITY_TOL):
        raise NotUnitary("matrix is not unitary within tolerance")
    wires = range(len(obj.factors))
    return ProcMorphism(obj, obj, (("matrix", u, wires if factors is None else factors),), (), wires)


def kraus_channel(obj: ProcObject, kraus_ops, factors: Sequence[int] | None = None) -> ProcMorphism:
    """A completely positive map given by a Kraus family on the chosen factors."""
    if obj.backend != QUANTUM:
        raise BackendMismatch("kraus_channel needs a quantum object")
    ks = tuple(require_finite(np.asarray(k, dtype=complex), "Kraus operator") for k in kraus_ops)
    wires = range(len(obj.factors))
    return ProcMorphism(obj, obj, (("kraus", ks, wires if factors is None else factors),), (), wires)


def stochastic_map(obj: ProcObject, s, factors: Sequence[int] | None = None) -> ProcMorphism:
    """A (sub)stochastic matrix acting on the chosen factors of a classical object."""
    if obj.backend != CLASSICAL:
        raise BackendMismatch("stochastic_map needs a classical object")
    s = require_finite(np.asarray(s, dtype=float), "stochastic matrix")
    if not (-np.min(s) <= VALIDITY_TOL):
        raise NotStochastic("negative entries in stochastic matrix")
    wires = range(len(obj.factors))
    return ProcMorphism(obj, obj, (("matrix", s, wires if factors is None else factors),), (), wires)


def permute_factors(obj: ProcObject, perm: Sequence[int]) -> ProcMorphism:
    """Reorder the factors: output i is input factor ``perm[i]``."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(obj.factors))):
        raise BadFactorIndex(f"{perm} is not a permutation of {len(obj.factors)} factors")
    return ProcMorphism(obj, ProcObject(obj.backend, tuple(obj.factors[p] for p in perm)), (), (), perm)


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
    return ProcMorphism(first.dom, morphisms[-1].cod, ops, gone, out)


def tensor_mor(f: ProcMorphism, g: ProcMorphism) -> ProcMorphism:
    """f tensor g; runs f on the left block, then g on the right block."""
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    n = len(f.dom.factors)

    def shift(wires):
        return tuple(w + n for w in wires)

    ops = f.ops + tuple((kind, m, shift(wires)) for kind, m, wires in g.ops)
    return ProcMorphism(tensor_obj(f.dom, g.dom), tensor_obj(f.cod, g.cod), ops,
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
    are summed out one at a time, last discarded first (classical), and the
    kept wires are read in ``out`` order."""
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
    gone = tuple(f.dom.factors[w] for w in f.gone)
    t = t[0].transpose(f.out + f.gone + (n,)).reshape((f.cod.dim,) + gone + (width,))
    for _ in gone:
        t = t.sum(axis=-2)
    return t[None]


def apply(f: ProcMorphism, rho: ProcState) -> ProcState:
    """Evaluate the kernel program on a state: a probability vector as a
    ``FactorPair`` steps it, a density operator from both sides, op by op
    on the axes of the live wires, tracing out each discarded wire right
    after the last op on it (wires freed together, last discarded first)."""
    if rho.obj != f.dom:
        raise ShapeMismatch(f"state on {rho.obj}, morphism from {f.dom}")
    if f.backend == CLASSICAL:
        return FactorPair.from_state(rho).step(f).state()
    dims = f.dom.factors
    last = {w: i for i, (_, _, wires) in enumerate(f.ops) for w in wires}
    drops: dict[int, list] = {}
    for w in f.gone:
        drops.setdefault(last.get(w, -1), []).append(w)
    live = list(range(len(dims)))  # the domain wire on each axis
    t = rho.data.reshape(dims * 2)

    def trace(after: int):
        nonlocal t
        for w in reversed(drops.get(after, ())):
            i = live.index(w)
            t = np.trace(t, axis1=i, axis2=i + len(live))
            del live[i]

    trace(-1)
    for i, (kind, m, wires) in enumerate(f.ops):
        axes = [live.index(w) for w in wires]
        conj_axes = [a + len(live) for a in axes]
        terms = [_apply_on_axes(_apply_on_axes(t, k, axes), k.conj(), conj_axes)
                 for k in ((m,) if kind == "matrix" else m)]
        t = sum(terms[1:], terms[0])
        trace(i)
    perm = [live.index(w) for w in f.out]
    d = f.cod.dim
    return ProcState(f.cod, t.transpose(perm + [p + len(live) for p in perm]).reshape(d, d))


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


def _peak(k: np.ndarray, quantum: bool) -> float:
    """max|Choi| of a compiled Kraus family, which is its largest diagonal
    entry since a Choi matrix is positive (quantum), or max|T| of a
    compiled matrix (classical)."""
    if quantum:
        return float(np.max(np.sum(k.real ** 2 + k.imag ** 2, axis=0)))
    return float(np.max(np.abs(k)))


def _telescoped(pairs: list, quantum: bool) -> float:
    """sum_k prod_{j<k} max|C_j| * b_k * prod_{j>k} max|A_j| over the
    compiled pairs (A_k, C_k), with b_k the Frobenius norm of the Choi
    difference (quantum) or max|A_k - C_k| (classical): a bound on
    max|(x)_k A_k - (x)_k C_k|."""
    if quantum:
        bs = [_choi_qr_bound(_kraus_columns(a, c), len(a)) for a, c in pairs]
    else:
        bs = [float(np.max(np.abs(a - c))) for a, c in pairs]
    ma = [_peak(a, quantum) for a, _ in pairs]
    mc = [_peak(c, quantum) for _, c in pairs]
    return sum(prod(mc[:k]) * b * prod(ma[k + 1:]) for k, b in enumerate(bs))


def _wiring_blocks(f: ProcMorphism, g: ProcMorphism) -> list:
    """The block of each domain wire.  The wires of every op of ``f`` and
    ``g`` are joined, and so are ``f.out[p]`` and ``g.out[p]`` at every
    output position, so each block holds the same positions in both."""
    root = list(range(len(f.dom.factors)))

    def find(w: int) -> int:
        while root[w] != w:
            root[w] = root[root[w]]
            w = root[w]
        return w

    for wires in itertools.chain((wires for _, _, wires in f.ops + g.ops), zip(f.out, g.out)):
        for w in wires[1:]:
            root[find(w)] = find(wires[0])
    return [find(w) for w in range(len(root))]


def _op_block(block: list, wires: tuple):
    """The block of an op: that of its wires, or None for an op on no wire."""
    return block[wires[0]] if wires else None


def _part(h: ProcMorphism, block: list, keys: set) -> ProcMorphism:
    """``h`` on the blocks ``keys``: its ops, discards and outputs there,
    on those blocks' wires renumbered in order."""
    wires = [w for w, b in enumerate(block) if b in keys]
    new = {w: j for j, w in enumerate(wires)}
    ops = [(kind, m, tuple(new[w] for w in ws)) for kind, m, ws in h.ops if _op_block(block, ws) in keys]
    out = [w for w in h.out if block[w] in keys]
    facs = h.dom.factors
    return ProcMorphism(ProcObject(h.backend, tuple(facs[w] for w in wires)),
                        ProcObject(h.backend, tuple(facs[w] for w in out)),
                        ops, [new[w] for w in h.gone if block[w] in keys], [new[w] for w in out])


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

    Otherwise the pair is split into the blocks of its wiring
    (``_wiring_blocks``; the ops on no wire form one more block, with no
    wires and no outputs).  Blocks share no wire, so up to a permutation
    common to both programs, Choi(f) is the tensor product of the blocks'
    Choi matrices A_k (classical: transfer matrices), and Choi(g) that of
    the C_k.  Where both programs have one form on a block and its matrices
    are finite, A_k = C_k, and since max|X (x) Y| = max|X| max|Y| the block
    factors out exactly as max|A_k|: the largest diagonal entry of a
    positive matrix, and 1 for a block with no ops, which is not compiled.
    With ``same`` the product of those, the deviation is
    ``same * max|(x) A_k - (x) C_k|`` over the blocks that differ (0.0 if
    none does).  Given ``tol``, the telescoped sum
    A - C = sum_k C_1..C_{k-1} (x) (A_k - C_k) (x) A_{k+1}..A_m bounds
    it (``_telescoped``), and a bound ``<= tol`` is returned.  Otherwise
    (no ``tol``, a bound above ``tol``, or NaN) the differing blocks are
    compiled as one pair and swept exactly, so every value above ``tol`` is
    exact.  NaN entries give NaN, never a pass.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("morphisms must share dom and cod")
    if program_form(f) == program_form(g) and all(np.isfinite(m).all() for _, m, _ in f.ops):
        return 0.0
    quantum = f.backend == QUANTUM
    block = _wiring_blocks(f, g)
    keys = list(dict.fromkeys(block)) + [None] * any(not wires for _, _, wires in f.ops + g.ops)
    forms = [{b: ([], [], []) for b in keys} for _ in (f, g)]
    for h, form in zip((f, g), forms):
        for kind, m, wires in h.ops:
            form[_op_block(block, wires)][0].append((kind, id(m), wires))
        for i, wires in ((1, h.gone), (2, h.out)):
            for w in wires:
                form[block[w]][i].append(w)
    nonfinite = {_op_block(block, wires) for _, m, wires in f.ops if not np.isfinite(m).all()}
    differ = [b for b in keys if forms[0][b] != forms[1][b] or b in nonfinite]
    shared = [b for b in keys if b not in differ and forms[0][b][0]]
    if not differ:
        return 0.0

    def part(h: ProcMorphism, ks) -> ProcMorphism:
        return h if len(ks) == len(keys) else _part(h, block, set(ks))

    same = prod(_peak(compile_kernel(part(f, [b])), quantum) for b in shared)
    pairs = [(part(f, [b]), part(g, [b])) for b in differ] if tol is not None else []
    if pairs:
        bound = same * _telescoped([(compile_kernel(x), compile_kernel(y)) for x, y in pairs], quantum)
        if bound <= tol:
            return bound
    x, y = pairs[0] if len(pairs) == 1 else (part(f, differ), part(g, differ))
    a, c = compile_kernel(x), compile_kernel(y)
    if quantum:
        return same * _choi_maxdiff(_kraus_columns(a, c), len(a))
    return same * float(np.max(np.abs(a - c)))


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
