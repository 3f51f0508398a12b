from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causal_fields import cca, process as P
from causal_fields.cca import (
    PartitionedCCAConfig,
    build_cca,
    dirac_config,
    factorize_morphism,
    lattice_slice,
    one_step_kernel,
    restriction_kernel,
)
from causal_fields.errors import (
    BackendMismatch,
    BadFactorIndex,
    CausalFieldsError,
    NotFinite,
    NotStochastic,
    NotUnitary,
    ShapeMismatch,
)
from causal_fields.order import lattice

from helpers import (
    choi_matrix,
    compile_kernel_oracle,
    dense_superoperator,
    is_completely_positive,
    live_factors,
    normalisation_defect,
    random_density,
    random_unitary,
    steps_program,
)

RNG = np.random.default_rng(42)
TOL = P.VALIDITY_TOL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def qobj(*factors):
    return P.ProcObject(P.QUANTUM, factors)


def cobj(*factors):
    return P.ProcObject(P.CLASSICAL, factors)


# -- objects ------------------------------------------------------------------

def test_tensor_obj_unit_law():
    a = qobj(2, 3)
    assert P.tensor_obj(a, P.unit(P.QUANTUM)) == a
    assert P.tensor_obj(P.unit(P.QUANTUM), a) == a


def test_tensor_obj_dims():
    assert P.tensor_obj(qobj(2), qobj(3)).dim == 6


def test_tensor_obj_backend_mismatch():
    with pytest.raises(BackendMismatch):
        P.tensor_obj(qobj(2), cobj(2))


# -- composition --------------------------------------------------------------

def test_identity_unit_for_compose():
    a = qobj(2, 2)
    u = random_unitary(RNG, 4)
    f = P.unitary_channel(a, u)
    assert P.deviation(P.compose(P.identity(a), f), f, TOL) <= TOL
    assert P.deviation(P.compose(f, P.identity(a)), f, TOL) <= TOL


def test_discard_all_after_unitary_is_discard_all():
    a = qobj(2, 2)
    u = random_unitary(RNG, 4)
    lhs = P.compose(P.discard(a), P.unitary_channel(a, u))
    assert P.deviation(lhs, P.discard(a), TOL) <= TOL


def test_permutations_compose():
    a = qobj(2, 3, 4)
    p1 = P.permute_factors(a, (1, 2, 0))
    p2 = P.permute_factors(p1.cod, (2, 0, 1))
    comp = P.compose(p2, p1)
    assert comp.cod == a
    assert P.deviation(comp, P.identity(a), TOL) <= TOL


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        P.compose(P.identity(qobj(2)), P.identity(qobj(3)))
    a, b = P.identity(qobj(2)), P.identity(qobj(3))
    for ms in [(a, b, b), (a, a, b), (b, a, a)]:
        with pytest.raises(ShapeMismatch):
            P.compose_all(*ms)


# -- discarding ----------------------------------------------------------------

def test_discard_all_normalised_state_gives_scalar_one():
    a = qobj(2, 2)
    rho = P.state(a, random_density(RNG, 4))
    out = P.apply(P.discard(a), rho)
    assert out.obj.factors == ()
    assert abs(out.data[0, 0] - 1.0) < 1e-12


def test_partial_trace_of_product_state():
    a = qobj(2, 2)
    r1 = random_density(RNG, 2)
    r2 = random_density(RNG, 2)
    rho = P.state(a, np.kron(r1, r2))
    out = P.apply(P.discard(a, [1]), rho)
    assert np.max(np.abs(out.data - r1)) < 1e-12
    out0 = P.apply(P.discard(a, [0]), rho)
    assert np.max(np.abs(out0.data - r2)) < 1e-12


def test_discard_unit_is_scalar_one():
    f = P.discard(P.unit(P.QUANTUM))
    out = P.apply(f, P.state(P.unit(P.QUANTUM), [[1.0]]))
    assert out.data[0, 0] == 1.0


def test_discard_respects_tensor():
    a, b = qobj(2), qobj(3)
    lhs = P.discard(P.tensor_obj(a, b))
    rhs = P.tensor_mor(P.discard(a), P.discard(b))
    assert P.deviation(lhs, rhs, TOL) <= TOL


def test_bad_factor_index():
    with pytest.raises(BadFactorIndex):
        P.discard(qobj(2), [3])
    with pytest.raises(BadFactorIndex):  # too short: it used to give the identity
        P.permute_factors(qobj(2, 2), (0,))
    for perm in [(0, -1), (0, 5), (1, 1)]:  # (0, 5) names a factor past the last
        with pytest.raises(BadFactorIndex):
            P.permute_factors(qobj(2, 2), perm)


# -- unitary channels --------------------------------------------------------------

def test_identity_matrix_is_identity_channel():
    a = qobj(2, 2)
    f = P.unitary_channel(a, np.eye(4))
    assert P.deviation(f, P.identity(a), TOL) <= TOL


def test_pauli_x_flips_basis_state():
    a = qobj(2)
    f = P.unitary_channel(a, SX)
    out = P.apply(f, P.basis_state(a, 0))
    assert np.max(np.abs(out.data - np.array([[0, 0], [0, 1]]))) < 1e-12


def test_random_unitary_channel_preserves_trace_and_positivity():
    a = qobj(2, 2)
    u = random_unitary(RNG, 4)
    f = P.unitary_channel(a, u)
    for _ in range(5):
        rho = P.state(a, random_density(RNG, 4))
        out = P.apply(f, rho)
        assert abs(np.real(np.trace(out.data)) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.data).min() > -1e-12


def test_not_unitary_rejected():
    with pytest.raises(NotUnitary):
        P.unitary_channel(qobj(2), np.array([[1, 0], [0, 0.5]]))


@pytest.mark.parametrize("u", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 1))])
def test_unitary_channel_refuses_a_non_square_matrix(u):
    # refused by shape before the unitarity test, which cannot broadcast it
    with pytest.raises(ShapeMismatch):
        P.unitary_channel(qobj(2, 2), u)


# -- evaluation ----------------------------------------------------------------------

def test_apply_identity():
    a = qobj(2, 2)
    rho = P.state(a, random_density(RNG, 4))
    out = P.apply(P.identity(a), rho)
    assert np.array_equal(out.data, rho.data)


def test_apply_agrees_with_dense_superoperator():
    a = qobj(2, 2)
    u = random_unitary(RNG, 4)
    v = random_unitary(RNG, 2)
    f = P.compose_all(
        P.unitary_channel(a, u),
        P.permute_factors(a, (1, 0)),
        P.unitary_channel(a, v, [0]),
        P.discard(a, [1]),
    )
    s = dense_superoperator(f)
    ms = P.compile_kernel(f)
    s_kraus = np.einsum("rai,rbj->abij", ms, ms.conj()).reshape(s.shape[0], -1)
    # dense_superoperator columns are indexed (i, j); match layouts
    d = f.dom.dim
    s_cols = s_kraus.reshape(f.cod.dim ** 2, d, d).reshape(s.shape[0], d * d)
    assert np.max(np.abs(s - s_cols)) < 1e-12
    _assert_apply_is_superoperator(f, s)


def _assert_apply_is_superoperator(f, s):
    # apply on a non-Hermitian operator is the superoperator on its entries
    d, c = f.dom.dim, f.cod.dim
    x = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    got = P.apply(f, P.ProcState(f.dom, x)).data
    assert np.max(np.abs(got - (s @ x.reshape(-1)).reshape(c, c))) < 1e-12


def test_apply_agrees_with_dense_superoperator_dim16():
    a = qobj(2, 2, 2, 2)
    f = P.compose_all(
        P.unitary_channel(a, random_unitary(RNG, 4), [1, 3]),
        P.discard(a, [0]),
        P.unitary_channel(a.__class__(a.backend, (2, 2, 2)), random_unitary(RNG, 2), [2]),
    )
    s = dense_superoperator(f)
    ms = P.compile_kernel(f)
    d = f.dom.dim
    s_kraus = np.einsum("rai,rbj->abij", ms, ms.conj()).reshape(f.cod.dim ** 2, d * d)
    assert np.max(np.abs(s - s_kraus)) < 1e-12
    _assert_apply_is_superoperator(f, s)


def test_composition_of_normalised_is_normalised():
    a = qobj(2, 2)
    f = P.unitary_channel(a, random_unitary(RNG, 4))
    g = P.discard(a, [1])
    h = P.unitary_channel(g.cod, random_unitary(RNG, 2))
    comp = P.compose_all(f, g, h)
    assert all(normalisation_defect(k) <= TOL for k in (f, g, h))
    assert normalisation_defect(comp) <= TOL


def test_interchange_law():
    a, b = qobj(2), qobj(2, 2)
    f1 = P.unitary_channel(a, random_unitary(RNG, 2))
    g1 = P.unitary_channel(a, random_unitary(RNG, 2))
    f2 = P.compose(P.discard(b, [0]), P.unitary_channel(b, random_unitary(RNG, 4)))
    g2 = P.unitary_channel(f2.cod, random_unitary(RNG, 2))
    lhs = P.compose(P.tensor_mor(g1, g2), P.tensor_mor(f1, f2))
    rhs = P.tensor_mor(P.compose(g1, f1), P.compose(g2, f2))
    assert P.deviation(lhs, rhs, 1e-12) <= 1e-12


def test_tensor_on_product_states_is_componentwise():
    a, b = qobj(2), qobj(3)
    u = random_unitary(RNG, 2)
    v = random_unitary(RNG, 3)
    f, g = P.unitary_channel(a, u), P.unitary_channel(b, v)
    ra, rb = random_density(RNG, 2), random_density(RNG, 3)
    joint = P.apply(P.tensor_mor(f, g), P.state(P.tensor_obj(a, b), np.kron(ra, rb)))
    want = np.kron(P.apply(f, P.state(a, ra)).data, P.apply(g, P.state(b, rb)).data)
    assert np.max(np.abs(joint.data - want)) < 1e-12


# -- normalisation and equality ----------------------------------------------------------

def test_unitary_channel_is_normalised():
    assert normalisation_defect(P.unitary_channel(qobj(2, 2), random_unitary(RNG, 4))) <= TOL


def test_discard_is_normalised():
    assert normalisation_defect(P.discard(qobj(2, 3))) <= TOL


def test_scaled_kernel_not_normalised():
    a = qobj(2)
    f = P.kraus_channel(a, [np.sqrt(0.5) * np.eye(2)])
    assert not (normalisation_defect(f) <= TOL)


def test_morphisms_equal_self_and_distinct():
    a = qobj(2)
    f = P.unitary_channel(a, SX)
    assert P.deviation(f, f, TOL) <= TOL
    assert not (P.deviation(f, P.identity(a), TOL) <= TOL)


def test_equal_programs_different_steps():
    a = qobj(2, 2)
    # swapping via a permutation step vs via the SWAP unitary
    p = P.permute_factors(a, (1, 0))
    u = P.unitary_channel(a, SWAP)
    assert P.deviation(p, u, 1e-12) <= 1e-12


def _qubit_channel(rng, n_in: int, n_out: int) -> P.ProcMorphism:
    """A Haar-random unitary on n_in qubits followed by discarding all but
    the first n_out of them."""
    a = qobj(*(2,) * n_in)
    u = P.unitary_channel(a, random_unitary(rng, 2 ** n_in))
    return P.compose(P.discard(a, range(n_out, n_in)), u)


def test_deviation_accepts_equal_large_channels():
    # 256 -> 64: the Choi matrices have 2^28 entries; U^dag U f equals f
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = _qubit_channel(rng, 8, 6)
        v = random_unitary(rng, 64)
        h = P.compose_all(f, P.unitary_channel(f.cod, v), P.unitary_channel(f.cod, v.conj().T))
        assert P.deviation(f, h, TOL) <= TOL
        assert P.deviation(f, h, tol=1e-10) <= 1e-12


def test_deviation_above_tol_is_exact():
    # a violation just above tol reports the exact max-entry Choi difference
    rng = np.random.default_rng(3)
    a = qobj(2, 2)
    u = random_unitary(rng, 4)
    f = P.compose(P.discard(a, [1]), P.unitary_channel(a, u))
    phases = np.exp(1e-7j * np.arange(4))
    g = P.compose(P.discard(a, [1]), P.unitary_channel(a, u * phases))
    exact = float(np.max(np.abs(choi_matrix(f) - choi_matrix(g))))
    tol = exact * (1 - 1e-3)
    assert P.deviation(f, g, tol) == pytest.approx(exact, rel=1e-6)
    assert P.deviation(f, g, tol=np.inf) > 1.5 * exact  # the Frobenius bound
    assert not (P.deviation(f, g, tol) <= tol)


@pytest.mark.parametrize("seed", range(12))
def test_deviation_bound_dominates_max_entry(seed):
    # given tol=inf, deviation returns the Frobenius bound: it equals the
    # dense Choi difference's norm and is never below the max entry
    rng = np.random.default_rng(seed)
    a = qobj(*(2,) * int(rng.integers(1, 4)))
    keep = int(rng.integers(0, len(a.factors) + 1))

    def channel():
        r = int(rng.integers(1, 6))
        ks = rng.normal(size=(r, a.dim, a.dim)) + 1j * rng.normal(size=(r, a.dim, a.dim))
        return P.compose(P.discard(a, range(keep, len(a.factors))), P.kraus_channel(a, ks))

    f, g = channel(), channel()
    diff = choi_matrix(f) - choi_matrix(g)
    bound, exact = P.deviation(f, g, tol=np.inf), P.deviation(f, g)
    assert bound == pytest.approx(np.linalg.norm(diff), rel=1e-10)
    assert exact == pytest.approx(np.max(np.abs(diff)), rel=1e-12)
    assert bound >= exact


def test_nan_kernel_fails_closed():
    # a NaN in a quantum matrix step, a Kraus step or a classical matrix step
    # (built directly, past the constructors' checks) never compares equal
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    k = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2)
    k[1, 1, 0] = np.nan
    s = np.eye(2)
    s[1, 1] = np.nan
    a, c = qobj(2), cobj(2)
    for f in (
        P.ProcMorphism(a, a, (("matrix", m, (0,)),), (), (0,)),
        P.ProcMorphism(a, a, (("kraus", tuple(k), (0,)),), (), (0,)),
        P.ProcMorphism(c, c, (("matrix", s, (0,)),), (), (0,)),
    ):
        ident = P.identity(f.dom)
        assert np.isnan(P.deviation(f, ident))
        assert np.isnan(P.deviation(f, ident, tol=1e-10))
        assert not (P.deviation(f, ident, TOL) <= TOL)
        assert not (P.deviation(f, f, TOL) <= TOL)


def test_library_float_warning_fails_the_suite():
    # pyproject.toml turns a numpy RuntimeWarning raised in library code
    # into an error: here an overflow in state_deviation's subtraction,
    # which reads inf and so passes no tolerance, fails the test unless the
    # site opts in with np.errstate
    a, b = P.state(cobj(2), [1e308, 0.0]), P.state(cobj(2), [-1e308, 0.0])
    with pytest.raises(RuntimeWarning, match="overflow"):
        P.state_deviation(a, b)
    with np.errstate(over="ignore"):
        assert P.state_deviation(a, b) == np.inf


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_is_state_refuses_an_overflow_without_a_warning(backend):
    # data from outside (run --initial) may hold +-1e308: the rule's
    # subtraction or sum overflows to inf, which is refused, and the site
    # opts in with np.errstate so no warning escapes
    big = np.array([[0.5, 1e308], [-1e308, 0.5]]) if backend == P.QUANTUM else np.array([1e308, 1e308])
    assert not P.is_state(P.state(P.ProcObject(backend, (2,)), big))


def test_numpy_frame_float_warning_fails_the_suite():
    # np.tensordot in _apply_on_axes warns from NumPy's own frame: a
    # classical 1e300 step applied twice overflows in its dot.  The
    # pyproject.toml filter must catch that too; the overflow reads inf,
    # and the comparison fails closed
    c = cobj(2)
    m = np.array([[1e300, 0.0], [0.0, 1.0]])
    f = P.ProcMorphism(c, c, (("matrix", m, (0,)), ("matrix", m, (0,))), (), (0,))
    with pytest.raises(RuntimeWarning, match="overflow"):
        P.compile_kernel(f)
    with np.errstate(over="ignore"):
        assert np.isinf(P.compile_kernel(f)[0, 0])
        assert not (P.deviation(f, P.identity(c), TOL) <= TOL)


def test_compile_refuses_large_domain():
    # a differing block below the cap on a domain above it is compared
    # exactly; a differing block above the cap is refused, with or without
    # tol; one program against itself needs no compiling
    a = qobj(2, P._MAX_COMPILE_DIM // 2 + 1)
    f, g = P.unitary_channel(a, SX, [0]), P.identity(a)
    with pytest.raises(ShapeMismatch):
        P.compile_kernel(f)
    small = P.deviation(P.unitary_channel(qobj(2), SX), P.identity(qobj(2)))
    for tol in (None, TOL):
        assert P.deviation(f, g, tol) == small == 1.0
    b = qobj(*[2] * 13)
    h = P.permute_factors(b, list(range(1, 13)) + [0])
    for tol in (None, TOL):
        with pytest.raises(ShapeMismatch):
            P.deviation(h, P.identity(b), tol)
    assert P.deviation(f, f) == 0.0


def test_compile_refuses_classical_kraus_step():
    a = cobj(2, 2)
    with pytest.raises(ShapeMismatch):
        P.compile_kernel(P.ProcMorphism(a, a, (("kraus", (np.eye(2), np.eye(2)), (1,)),), (), (0, 1)))


@pytest.mark.parametrize("ops", [1, 2])
def test_classical_kraus_step_is_refused_when_built(ops):
    # a one-operator step used to build, compile to a complex matrix and
    # break apply; both sizes are now refused before anything runs
    a = cobj(2, 2)
    step = ("kraus", tuple(1j * np.array([[0.0, 1.0], [1.0, 0.0]]) for _ in range(ops)), (0,))
    with pytest.raises(ShapeMismatch, match="kraus"):
        P.ProcMorphism(a, a, (step,), (), (0, 1))


# -- compilation against the full-space oracle --------------------------------------------

@st.composite
def step_lists(draw, dom=None):
    """``(dom, steps)``: a random list of matrix, Kraus, discard and
    permute steps on 1-4 factors of dims 1-3, or on ``dom`` if given; Kraus
    steps on the quantum backend only."""
    if dom is None:
        backend = draw(st.sampled_from([P.QUANTUM, P.CLASSICAL]))
        facs = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    else:
        backend, facs = dom.backend, dom.factors
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["matrix", "discard", "permute"] + (["kraus"] if backend == P.QUANTUM else [])

    def operator(m):
        if backend == P.CLASSICAL:
            return rng.random((m, m))
        return (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2 * m)

    steps, cur = [], facs
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        n = len(cur)
        if kind == "permute":
            step = ("permute", tuple(draw(st.permutations(range(n)))))
        elif kind == "discard":
            step = ("discard", tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))) if n else ())
        else:
            idx = tuple(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))) if n else ()
            m = prod(cur[i] for i in idx)
            if kind == "matrix":
                step = ("matrix", operator(m), idx)
            else:
                step = ("kraus", tuple(operator(m) for _ in range(draw(st.integers(1, 3)))), idx)
        steps.append(step)
        cur = live_factors(facs, steps)
    return P.ProcObject(backend, facs), steps


def kernel_programs(dom=None):
    """The program of a random step list (``step_lists``)."""
    return step_lists(dom).map(lambda drawn: steps_program(*drawn))


@given(step_lists())
@settings(max_examples=200, deadline=None)
def test_prop_compile_matches_full_space_oracle(drawn):
    # the identity-batch evaluator on the resolved form and the
    # kron-embedding products along the drawn steps give the same Kraus
    # family (same order) or transfer matrix, entry by entry, up to rounding
    # relative to the largest entry: unnormalised classical steps reach
    # entries of ~1e3, where the two summation orders differ by ~1e-12
    got, want = P.compile_kernel(steps_program(*drawn)), compile_kernel_oracle(*drawn)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= P.ORACLE_TOL * scale


@st.composite
def composable_step_lists(draw):
    """Three random step lists: on a domain, on what the first leaves, and
    on what the second leaves."""
    dom, fs = draw(step_lists())
    gs = draw(step_lists(P.ProcObject(dom.backend, live_factors(dom.factors, fs))))[1]
    hs = draw(step_lists(P.ProcObject(dom.backend, live_factors(dom.factors, fs + gs))))[1]
    return dom, fs, gs, hs


@given(composable_step_lists())
@settings(max_examples=200, deadline=None)
def test_prop_compose_is_step_concatenation(drawn):
    # composing resolved forms gives the program of the concatenated step
    # lists (the reference composition), and it compiles to the same array
    # bit for bit
    dom, fs, gs, hs = drawn
    f = steps_program(dom, fs)
    g = steps_program(f.cod, gs)
    h = steps_program(g.cod, hs)
    for got, want in [
        (P.compose(g, f), steps_program(dom, fs + gs)),
        (P.compose_all(f, g, h), steps_program(dom, fs + gs + hs)),
    ]:
        assert P.program_form(got) == P.program_form(want)
        assert np.array_equal(P.compile_kernel(got), P.compile_kernel(want))


def test_compose_all_of_one_morphism_is_that_morphism():
    f = P.unitary_channel(qobj(2), SX)
    kernel = P.compile_kernel(f)
    assert P.compose_all(f) is f
    assert P.compile_kernel(P.compose_all(f)) is kernel


def _random_state(obj, rng):
    if obj.backend == P.QUANTUM:
        return P.state(obj, random_density(rng, obj.dim))
    p = rng.random(obj.dim)
    return P.state(obj, p / p.sum())


@given(step_lists(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_prop_apply_matches_full_space_oracle(drawn, seed):
    # apply, tracing each discarded wire right after the last op on it,
    # agrees with sum_K K rho K^dag (quantum) or T p (classical) of the
    # full-space compiled form of the drawn steps
    f = steps_program(*drawn)
    rho = _random_state(f.dom, np.random.default_rng(seed))
    k = compile_kernel_oracle(*drawn)
    if f.backend == P.QUANTUM:
        want = np.einsum("rai,ij,rbj->ab", k, rho.data, k.conj())
    else:
        want = k @ rho.data
    got = P.apply(f, rho).data
    assert float(np.max(np.abs(got - want), initial=0.0)) <= P.ORACLE_TOL


def _unit_or_operator(obj, data):
    """A matrix unit E_ij (basis vector e_i, classically) or a random
    non-Hermitian operator (signed vector) of unit Frobenius norm."""
    d = obj.dim
    quantum = obj.backend == P.QUANTUM
    if data.draw(st.booleans()):
        x = np.zeros((d, d) if quantum else d)
        idx = tuple(data.draw(st.integers(0, d - 1)) for _ in range(2 if quantum else 1))
        x[idx] = 1.0
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.normal(size=(d, d) if quantum else d)
        if quantum:
            x = x + 1j * rng.normal(size=(d, d))
        x /= np.linalg.norm(x)
    return P.state(obj, x)


def _factor_pair_apply(f, x):
    return P.FactorPair.from_state(x).step(f).state()


@given(kernel_programs(), st.data())
@settings(max_examples=200, deadline=None)
def test_prop_factor_pair_matches_apply(f, data):
    # the one-sided batch evaluator on both factors of X = X I^dag, summed
    # over branches, agrees with the two-sided apply on any operator, not
    # only on states; a ket steps as the single factor psi
    x = _unit_or_operator(f.dom, data)
    got, want = _factor_pair_apply(f, x).data, P.apply(f, x).data
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= P.ORACLE_TOL
    if f.backend == P.QUANTUM:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        psi = rng.normal(size=f.dom.dim) + 1j * rng.normal(size=f.dom.dim)
        pair = P.FactorPair.from_ket(f.dom, psi).step(f)
        want = P.apply(f, P.state(f.dom, np.outer(psi, psi.conj()))).data
        assert np.max(np.abs(pair.state().data - want), initial=0.0) <= P.ORACLE_TOL
        assert np.max(np.abs(pair.diagonal() - np.real(np.diagonal(want))), initial=0.0) <= P.ORACLE_TOL


def test_apply_above_the_compile_cap_is_not_refused(monkeypatch):
    # neither apply nor a factor pair compiles the program
    monkeypatch.setattr(P, "_MAX_COMPILE_DIM", 4)
    a = qobj(2, 2, 2)
    f = P.compose_all(P.unitary_channel(a, random_unitary(RNG, 4), [0, 2]), P.discard(a, [1]))
    rho = P.state(a, random_density(RNG, 8))
    with pytest.raises(ShapeMismatch):
        P.compile_kernel(f)
    assert np.max(np.abs(P.apply(f, rho).data - _factor_pair_apply(f, rho).data)) <= P.ORACLE_TOL
    assert "kernel" not in f._cache


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_factor_pair_matches_apply_on_every_step_kind(backend):
    # a Kraus step (quantum), a permute between ops and a discard before the
    # last op, on every matrix unit and on a random operator
    rng = np.random.default_rng(3)
    quantum = backend == P.QUANTUM
    a = P.ProcObject(backend, (2, 3, 2))

    def op(m):
        return random_unitary(rng, m) if quantum else rng.random((m, m))

    steps = (("matrix", op(6), (0, 1)), ("permute", (2, 0, 1)), ("discard", (1,)),
             ("matrix", op(6), (1, 0)))
    if quantum:
        steps = steps[:1] + (("kraus", (0.6 * op(2), 0.8 * op(2)), (2,)),) + steps[1:]
    f = steps_program(a, steps)
    d = a.dim
    inputs = [np.eye(d * d)[k].reshape(d, d) for k in range(d * d)] if quantum else list(np.eye(d))
    inputs.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) if quantum else rng.normal(size=d))
    for x in inputs:
        x = P.state(a, x)
        assert np.max(np.abs(_factor_pair_apply(f, x).data - P.apply(f, x).data)) <= P.ORACLE_TOL


@pytest.mark.parametrize("seed", range(4))
def test_apply_on_a_probability_vector_is_the_factor_pair_step(seed):
    # stochastic steps with discards between them: apply runs _evolve on a
    # probability vector as a factor pair does, so the two agree bit for bit
    rng = np.random.default_rng(seed)
    a = cobj(2, 3, 2, 2)

    def stochastic(m):
        s = rng.random((m, m))
        return s / s.sum(axis=0)

    steps = (("matrix", stochastic(6), (0, 1)), ("discard", (3,)), ("matrix", stochastic(4), (2, 0)),
             ("permute", (2, 0, 1)), ("discard", (0,)), ("matrix", stochastic(6), (1, 0)))
    f = steps_program(a, steps)
    p = _random_state(a, rng)
    for g in (f, P.compose(P.discard(f.cod, [1]), f), P.discard(a, [0, 2])):
        got, want = P.apply(g, p).data, _factor_pair_apply(g, p).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_factor_pair_refuses_a_mismatched_step():
    pair = P.FactorPair.from_ket(qobj(2), [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        pair.step(P.identity(qobj(3)))
    with pytest.raises(BackendMismatch):
        P.FactorPair.from_ket(P.ProcObject(P.CLASSICAL, (2,)), [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        P.FactorPair.from_ket(qobj(2), [1.0, 0.0, 0.0])


@given(kernel_programs())
@settings(max_examples=100, deadline=None)
def test_prop_constructor_keeps_the_form_with_tuple_wires(f):
    # a form given with lists for its wires, discards and outputs is the
    # same form, held as tuples, discard order kept
    g = P.ProcMorphism(f.dom, f.cod, [(kind, m, list(wires)) for kind, m, wires in f.ops],
                       list(f.gone), list(f.out))
    assert (g.ops, g.gone, g.out) == (f.ops, f.gone, f.out)
    assert all(type(wires) is tuple for _, _, wires in g.ops)
    assert type(g.gone) is tuple and type(g.out) is tuple
    assert P.program_form(f) == P.program_form(g)


U2 = np.eye(2, dtype=complex)

# Resolved forms the constructor must refuse, as (error, dom, cod, ops, gone, out)
MALFORMED_FORMS = {
    "an output wire twice": (BadFactorIndex, qobj(2, 2), qobj(2, 2), (), (), (0, 0)),
    "a wire both kept and discarded": (BadFactorIndex, qobj(2, 2), qobj(2), (), (0,), (0,)),
    "a wire neither kept nor discarded": (BadFactorIndex, qobj(2, 2), qobj(2), (), (), (0,)),
    "an output wire out of range": (BadFactorIndex, qobj(2), qobj(2), (), (), (1,)),
    "a negative discarded wire": (BadFactorIndex, qobj(2), qobj(), (), (-1,), ()),
    "outputs that are not the codomain": (ShapeMismatch, qobj(2, 3), qobj(2, 3), (), (), (1, 0)),
    "an op wire twice": (BadFactorIndex, qobj(2, 2), qobj(2, 2), (("matrix", np.eye(4), (0, 0)),), (), (0, 1)),
    "an op wire out of range": (BadFactorIndex, qobj(2), qobj(2), (("matrix", U2, (1,)),), (), (0,)),
    "a matrix of the wrong shape": (ShapeMismatch, qobj(2, 2), qobj(2, 2), (("matrix", U2, (0, 1)),), (), (0, 1)),
    "a second Kraus operator of the wrong shape":
        (ShapeMismatch, qobj(2, 2), qobj(2, 2), (("kraus", (U2, np.eye(4)), (0,)),), (), (0, 1)),
    "an empty Kraus family": (ShapeMismatch, qobj(2), qobj(2), (("kraus", (), (0,)),), (), (0,)),
    "a discard given as an op": (ShapeMismatch, qobj(2, 2), qobj(2), (("discard", (1,)),), (1,), (0,)),
    # these used to build; a compiled one gave a quantum Kraus form for a
    # classical codomain
    "a quantum domain and a classical codomain": (BackendMismatch, qobj(2), cobj(2), (), (), (0,)),
    "a classical domain and a quantum codomain": (BackendMismatch, cobj(2), qobj(2), (), (), (0,)),
}


@pytest.mark.parametrize("case", list(MALFORMED_FORMS))
def test_constructor_refuses_a_malformed_form(case):
    # one check of the form: the outputs and the discards split the domain
    # wires, the outputs are the codomain, every op's wires are distinct
    # domain wires and each of its matrices fits them, and dom and cod
    # share a backend
    error, *form = MALFORMED_FORMS[case]
    with pytest.raises(error):
        P.ProcMorphism(*form)


def test_programs_and_states_compare_by_identity():
    # == and hash never reach the matrices, so neither raises; two equal
    # but distinct programs or states are not ==, and program_form and
    # state_deviation are the value comparisons
    a = qobj(2)
    f, g = P.unitary_channel(a, SX), P.unitary_channel(a, SX.copy())
    r, s = P.basis_state(a, 0), P.basis_state(a, 0)
    for x, y in ((f, g), (r, s)):
        assert x == x and hash(x) == hash(x)
        assert not (x == y) and x != y
        assert len({x, y}) == 2
    assert P.deviation(f, g) == 0.0
    assert P.state_deviation(r, s) == 0.0


def _poisoned(f, draw, garbage=None):
    """f with one entry of one matrix or Kraus operator set to NaN or
    +-inf (drawn from ``garbage``, all of GARBAGE by default), on a copy
    of that op's payload."""
    i = draw(st.integers(0, len(f.ops) - 1))
    kind, m, wires = f.ops[i]
    mats = [k.copy() for k in (m if kind == "kraus" else (m,))]
    j = draw(st.integers(0, len(mats) - 1))
    mats[j].flat[draw(st.integers(0, mats[j].size - 1))] = draw(st.sampled_from(garbage or GARBAGE))
    op = (kind, tuple(mats) if kind == "kraus" else mats[0], wires)
    return P.ProcMorphism(f.dom, f.cod, f.ops[:i] + (op,) + f.ops[i + 1:], f.gone, f.out)


@given(kernel_programs(), st.data())
@settings(max_examples=100, deadline=None)
def test_prop_non_finite_step_fails_closed(f, data):
    # one NaN or infinite entry in a matrix or Kraus step reaches the
    # result, and apply refuses it rather than return a state
    assume(f.ops)
    g = _poisoned(f, data.draw)
    rho = _random_state(f.dom, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    with np.errstate(all="ignore"), pytest.raises(NotFinite):
        P.apply(g, rho)


def test_apply_never_holds_a_wire_longer_than_the_steps(monkeypatch):
    # a 3-step field-theory morphism restricts its source and discards the
    # edge outputs of every step; apply traces each wire right after the
    # last op on it, so at every op its tensor holds at most the wires of
    # the factor kernel that op comes from (deferring the traces to the end
    # fails this): run one after another, each kernel holds its domain
    # wires while its ops run and discards its edge outputs after them
    config = dirac_config(0.3, 0.5)
    sigma, gamma = lattice_slice(0, [-4, -2, 0, 2, 4]), lattice_slice(3, [1])
    f = build_cca(config).mor(sigma, gamma)
    kernels = [
        restriction_kernel(config, src, tgt) if kind == "restrict" else one_step_kernel(config, src, tgt)
        for kind, src, tgt, _t in factorize_morphism(config, cca._slice_pair(sigma, gamma, lattice(1)))
    ]
    counts = [len(k.dom.factors) for k in kernels for _ in k.ops]
    assert len(counts) == len(f.ops) and len(set(counts)) == 3 and max(counts) < len(f.dom.factors)
    ndims, real = [], P._apply_on_axes
    monkeypatch.setattr(P, "_apply_on_axes", lambda t, m, axes: ndims.append(t.ndim) or real(t, m, axes))
    out = P.apply(f, _random_state(f.dom, np.random.default_rng(5)))
    assert len(ndims) == 2 * len(counts)  # M, then conj(M), per matrix step
    for n, c in zip(ndims, np.repeat(counts, 2)):
        assert n <= 2 * c
    assert abs(np.real(np.trace(out.data)) - 1.0) <= P.VALIDITY_TOL


def test_morphisms_equal_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        P.deviation(P.identity(qobj(2)), P.identity(qobj(3)))


# -- kraus channels -------------------------------------------------------------------------

def test_kraus_channel_matches_dense():
    a = qobj(2, 2)
    k0 = np.sqrt(0.3) * random_unitary(RNG, 2)
    k1 = np.sqrt(0.7) * random_unitary(RNG, 2)
    f = P.kraus_channel(a, [k0, k1], [1])
    rho = P.state(a, random_density(RNG, 4))
    out = P.apply(f, rho)
    big0 = np.kron(np.eye(2), k0)
    big1 = np.kron(np.eye(2), k1)
    want = big0 @ rho.data @ big0.conj().T + big1 @ rho.data @ big1.conj().T
    assert np.max(np.abs(out.data - want)) < 1e-12
    assert normalisation_defect(f) <= TOL
    # every operator of the family is checked, and the family is not empty
    for ks in ([np.eye(2), np.eye(3)], []):
        with pytest.raises(ShapeMismatch):
            P.kraus_channel(qobj(2), ks)


def test_choi_cross_validation():
    a = qobj(2, 2)
    f = P.compose(P.discard(a, [0]), P.unitary_channel(a, random_unitary(RNG, 4)))
    assert is_completely_positive(f)
    choi = choi_matrix(f)
    # trace of the Choi matrix equals the input dimension for a channel
    assert abs(np.trace(choi) - a.dim) < 1e-10


# -- classical backend ------------------------------------------------------------------------

def test_stochastic_map_and_marginal():
    a = cobj(2, 2)
    s = np.array([[0.9, 0.2], [0.1, 0.8]])
    f = P.stochastic_map(a, s, [0])
    p = P.state(a, np.array([0.5, 0.0, 0.5, 0.0]))
    out = P.apply(f, p)
    assert abs(np.sum(out.data) - 1.0) < 1e-12
    marg = P.apply(P.discard(a, [1]), p)
    assert np.allclose(marg.data, [0.5, 0.5])


def test_negative_stochastic_rejected():
    with pytest.raises(NotStochastic):
        P.stochastic_map(cobj(2), np.array([[1.0, -0.1], [0.0, 1.1]]))


def test_classical_embedding_of_permutation():
    # a permutation unitary acting on diagonal states equals the stochastic map
    aq, ac = qobj(2, 2), cobj(2, 2)
    perm_u = SWAP
    fq = P.unitary_channel(aq, perm_u)
    fc = P.stochastic_map(ac, np.abs(perm_u) ** 2)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    out_q = P.apply(fq, P.state(aq, np.diag(p.astype(complex))))
    out_c = P.apply(fc, P.state(ac, p))
    assert np.max(np.abs(np.diag(out_q.data).real - out_c.data)) < 1e-12


def test_classical_transfer_matrix_agrees_with_dense():
    a = cobj(2, 3)
    s = RNG.random((6, 6))
    s /= s.sum(axis=0, keepdims=True)
    f = P.compose(P.discard(a, [1]), P.stochastic_map(a, s))
    assert np.max(np.abs(P.compile_kernel(f) - dense_superoperator(f))) < 1e-12


def test_classical_normalised():
    a = cobj(2, 2)
    s = RNG.random((4, 4))
    s /= s.sum(axis=0, keepdims=True)
    assert normalisation_defect(P.stochastic_map(a, s)) <= TOL


# -- environment equations ----------------------------------------------------------------------

def test_discard_tensor_equations_random_shapes():
    for _ in range(5):
        nf_a = int(RNG.integers(1, 3))
        nf_b = int(RNG.integers(1, 3))
        a = qobj(*(int(RNG.integers(2, 4)) for _ in range(nf_a)))
        b = qobj(*(int(RNG.integers(2, 4)) for _ in range(nf_b)))
        lhs = P.discard(P.tensor_obj(a, b))
        rhs = P.tensor_mor(P.discard(a), P.discard(b))
        assert P.deviation(lhs, rhs, 1e-12) <= 1e-12


def test_discard_of_unit_is_one():
    f = P.discard(P.unit(P.QUANTUM))
    assert f.dom.factors == () == f.cod.factors
    assert P.deviation(f, P.identity(P.unit(P.QUANTUM)), TOL) <= TOL


# -- matrix json ------------------------------------------------------------------------------------

def test_matrix_json_roundtrip():
    m = random_unitary(RNG, 3)
    again = P.matrix_from_json(P.matrix_to_json(m))
    assert np.max(np.abs(again - m)) < 1e-15


# -- non-finite input ----------------------------------------------------------------------------

GARBAGE = [np.nan, np.inf, -np.inf]


def _valid_input(kind: str):
    """A valid input for one constructor, as (object, array, build)."""
    rng = np.random.default_rng(3)
    if kind == "unitary":
        return qobj(2, 2), random_unitary(rng, 4), P.unitary_channel
    if kind == "kraus":
        u = random_unitary(rng, 2)
        return qobj(2), np.stack([u / np.sqrt(2), u / np.sqrt(2)]), P.kraus_channel
    if kind == "stochastic":
        s = rng.random((4, 4))
        return cobj(2, 2), s / s.sum(axis=0, keepdims=True), P.stochastic_map
    if kind == "quantum state":
        return qobj(2, 2), random_density(rng, 4), P.state
    return cobj(2, 2), np.full(4, 0.25), P.state


@given(
    st.sampled_from(["unitary", "kraus", "stochastic", "quantum state", "classical state"]),
    st.integers(0, 31),
    st.sampled_from(GARBAGE),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_prop_nonfinite_input_is_rejected(kind, where, garbage, imaginary):
    # a NaN or an infinity anywhere gives an error at construction, never an object
    obj, arr, build = _valid_input(kind)
    arr = np.array(arr, dtype=complex if obj.backend == P.QUANTUM else float)
    flat = arr.reshape(-1)
    flat[where % flat.size] = complex(0, garbage) if imaginary and arr.dtype == complex else garbage
    with pytest.raises(CausalFieldsError), np.errstate(invalid="ignore", over="ignore"):
        build(obj, arr)


# -- the block comparison --------------------------------------------------------------------

def _full_path(f, g, tol):
    """``deviation(f, g, tol)`` on the whole programs as one block: the
    Frobenius bound of the full Choi difference, else its full sweep."""
    if f.backend == P.QUANTUM:
        ms, ns = P.compile_kernel(f), P.compile_kernel(g)
        x = P._kraus_columns(ms, ns)
        bound = P._choi_qr_bound(x, len(ms))
        return bound if bound <= tol else P._choi_maxdiff(x, len(ms))
    return float(np.max(np.abs(P.compile_kernel(f) - P.compile_kernel(g))))


def _same_value(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def _close(got, want):
    """The same value up to rounding, ``1e-12 * max(1, want)``, or both NaN."""
    return np.isnan(got) == np.isnan(want) and (np.isnan(want) or abs(got - want) <= 1e-12 * max(1.0, want))


def _with_dead_steps(obj, live, bad, good):
    """(f, g) on three wires that keep wire 0: f runs ``live`` on wire 0,
    ``bad`` on wire 1 and the normalised ``good`` on wire 2, then discards
    wires 1 and 2; g runs ``live`` and discards."""
    f = P.ProcMorphism(obj, P.ProcObject(obj.backend, obj.factors[:1]), (
        ("matrix", live, (0,)), bad + ((1,),), ("matrix", good, (2,))), (1, 2), (0,))
    g = P.ProcMorphism(obj, f.cod, (("matrix", live, (0,)),), (1, 2), (0,))
    return f, g


def _nan_matrix(dtype):
    m = np.eye(2, dtype=dtype)
    m[1, 1] = np.nan
    return m


FAIL_CLOSED = {
    "quantum NaN matrix": (P.QUANTUM, ("matrix", _nan_matrix(complex))),
    "classical NaN matrix": (P.CLASSICAL, ("matrix", _nan_matrix(float))),
    "non-normalised kraus": (P.QUANTUM, ("kraus", (np.sqrt(0.5) * np.eye(2, dtype=complex),))),
    "unitary with defect 1e-9": (P.QUANTUM, ("matrix", (1 + 5e-10) * random_unitary(np.random.default_rng(1), 2))),
    "sub-stochastic": (P.CLASSICAL, ("matrix", np.array([[0.5, 0.0], [0.25, 1.0]]))),
    "negative entry -1e-11": (P.CLASSICAL, ("matrix", np.array([[1.0, -1e-11], [0.0, 1.0]]))),
}


@pytest.mark.parametrize("case", list(FAIL_CLOSED))
def test_cone_keeps_a_bad_dead_step(case):
    # a step that reaches no output still counts: a block with no output
    # is compared like any other, so a step on it that is not normalised
    # (NaN included), beside a normalised one, fails at 1e-12 and decides
    # as the whole programs' comparison does, with the same value up to
    # rounding when it fails
    backend, bad = FAIL_CLOSED[case]
    quantum = backend == P.QUANTUM
    live = random_unitary(np.random.default_rng(2), 2) if quantum else np.array([[0.3, 0.6], [0.7, 0.4]])
    good = random_unitary(np.random.default_rng(3), 2) if quantum else np.array([[0.0, 1.0], [1.0, 0.0]])
    f, g = _with_dead_steps(P.ProcObject(backend, (2, 2, 2)), live, bad, good)
    for tol in (1e-12, P.VALIDITY_TOL):
        want = _full_path(f, g, tol)
        got = P.deviation(f, g, tol)
        assert (got <= tol) == (want <= tol)
        if not (want <= tol):
            assert _close(got, want), (tol, got, want)
    assert not (P.deviation(f, g, 1e-12) <= 1e-12)


def test_cone_accept_with_exact_dropped_steps_beats_the_full_bound():
    # the dead permutation steps sit in identical blocks of peak 1, so the
    # accept is the Frobenius bound of the 2-dim block that differs, not
    # of the 16-dim domain
    rng = np.random.default_rng(4)
    a = qobj(2, 2, 2, 2)
    u = random_unitary(rng, 2)
    dead = (("matrix", SX, (1,)), ("matrix", SWAP, (2, 3)))
    cod = qobj(2)
    f = P.ProcMorphism(a, cod, (("matrix", u, (0,)),) + dead, (1, 2, 3), (0,))
    g = P.ProcMorphism(a, cod, (("matrix", u * np.exp(1e-12j * np.arange(2)), (0,)),) + dead, (1, 2, 3), (0,))
    diff = choi_matrix(f) - choi_matrix(g)
    got = P.deviation(f, g, P.VALIDITY_TOL)
    assert np.max(np.abs(diff)) <= got < np.linalg.norm(diff)
    assert got < _full_path(f, g, P.VALIDITY_TOL)


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
def test_wireless_op_beside_a_differing_block(backend):
    # a 1x1 op on no wire is a block of its own, with no outputs: shared,
    # it factors out as its peak; in one program only, it differs; either
    # way the value is the dense one, and a NaN scalar gives NaN
    quantum = backend == P.QUANTUM
    obj = P.ProcObject(backend, (2, 2))
    rng = np.random.default_rng(5)
    m = random_unitary(rng, 2) if quantum else np.array([[0.3, 0.6], [0.7, 0.4]])
    m2 = m + 1e-3 * (random_unitary(rng, 2) if quantum else np.eye(2))
    scalar = np.array([[0.5]], dtype=complex if quantum else float)

    def prog(*ops):
        return P.ProcMorphism(obj, P.ProcObject(backend, (2,)), ops, (1,), (0,))

    pairs = [
        (prog(("matrix", scalar, ()), ("matrix", m, (0,))), prog(("matrix", scalar, ()), ("matrix", m2, (0,)))),
        (prog(("matrix", scalar, ()), ("matrix", m, (0,))), prog(("matrix", m, (0,)))),
        (prog(("matrix", scalar, ()), ("matrix", m, (1,))), prog(("matrix", scalar, ()), ("matrix", m2, (1,)))),
    ]
    for f, g in pairs:
        for tol in (None, 1e-12, 1.0):
            got, dense = P.deviation(f, g, tol), _dense_deviation(f, g)
            if tol is not None and got <= tol:
                assert dense <= got + 1e-12
            else:
                assert _close(got, dense), (got, dense)
    nan = np.array([[np.nan]], dtype=scalar.dtype)
    f = prog(("matrix", nan, ()), ("matrix", m, (0,)))
    for tol in (None, 1.0):
        assert np.isnan(P.deviation(f, prog(("matrix", m, (0,))), tol))
        assert np.isnan(P.deviation(f, f, tol))


def test_wide_slice_compares_only_small_blocks(monkeypatch):
    # one cell of a 6-site one-step morphism with a 1e-6 phase error is
    # reported, and no program compiled on the way spans more than 6 wires
    u = random_unitary(np.random.default_rng(6), 4)
    theory = build_cca(PartitionedCCAConfig(d=1, cell_dim=2, scattering=u))
    s0, s1 = lattice_slice(0, range(0, 12, 2)), lattice_slice(1, range(1, 11, 2))
    f = theory.mor(s0, s1)
    i = next(i for i, op in enumerate(f.ops) if op[0] == "matrix")
    kind, m, wires = f.ops[i]
    bad = (kind, m * np.exp(1e-6j * np.arange(4)), wires)
    g = P.ProcMorphism(f.dom, f.cod, f.ops[:i] + (bad,) + f.ops[i + 1:], f.gone, f.out)
    domains = []
    compile_kernel = P.compile_kernel
    monkeypatch.setattr(P, "compile_kernel", lambda h: domains.append(h.dom.dim) or compile_kernel(h))
    assert f.dom.dim == 2 ** 12
    assert not (P.deviation(f, g, 1e-10) <= 1e-10)
    assert domains and max(domains) <= 64


def _pair_step(draw, rng, backend, kind, m):
    """One matrix or Kraus step payload of dimension m."""
    quantum = backend == P.QUANTUM
    if kind == "kraus":
        r = draw(st.integers(1, 3))
        if draw(st.booleans()):  # normalised: an isometry cut into blocks
            v = random_unitary(rng, m * r)[:, :m]
            return tuple(v[k * m:(k + 1) * m] for k in range(r))
        return tuple((rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2 * m)
                     for _ in range(r))
    flavour = draw(st.sampled_from(["normalised", "permutation", "perturbed", "lossy"]))
    perm = np.eye(m)[rng.permutation(m)]
    if flavour == "permutation":
        return perm.astype(complex) if quantum else perm
    if quantum:
        base = random_unitary(rng, m)
    else:
        base = rng.random((m, m)) if draw(st.booleans()) else perm.copy()
        base /= base.sum(axis=0, keepdims=True)
    if flavour == "lossy":
        return 0.9 * base
    if flavour == "perturbed":
        eps = draw(st.sampled_from([1e-13, 1e-12, 1e-11]))
        noise = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if quantum else 0)
        return base + eps * noise
    return base


def _perturb(draw, rng, payload):
    if isinstance(payload, tuple):
        return tuple(_perturb(draw, rng, k) for k in payload)
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-11]))
    return payload + eps * rng.normal(size=payload.shape).astype(payload.dtype)


@st.composite
def program_pairs(draw):
    """(f, g, tol) with the same domain and codomain: f is a random program
    of matrix (Haar / column-stochastic, permutation, perturbed by <= 1e-11,
    lossy), Kraus, discard and permute steps on 1-4 factors; g has f's
    shape and shares f's matrices, perturbs them or draws them fresh; each
    may start with extra steps of its own.  A step is sometimes a 1x1 op on
    no wire, and one matrix entry of f or g is sometimes NaN."""
    backend = draw(st.sampled_from([P.QUANTUM, P.CLASSICAL]))
    facs = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda fs: prod(fs) <= 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["matrix", "discard", "permute"] + (["kraus"] if backend == P.QUANTUM else [])

    def acting_step(kind, cur):
        wireless = draw(st.integers(0, 7)) == 7  # a 1x1 op on no wire
        idx = () if wireless else tuple(draw(st.lists(st.integers(0, len(cur) - 1), unique=True, min_size=1,
                                                      max_size=2)))
        return (kind, _pair_step(draw, rng, backend, kind, prod(cur[i] for i in idx)), idx)

    def prelude():
        return [acting_step(draw(st.sampled_from([k for k in kinds if k in ("matrix", "kraus")])), facs)
                for _ in range(draw(st.integers(0, 2)))]

    steps, cur = [], facs
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if not cur:
            break
        if kind == "permute":
            step = ("permute", tuple(draw(st.permutations(range(len(cur))))))
        elif kind == "discard":
            step = ("discard", tuple(sorted(draw(st.sets(st.integers(0, len(cur) - 1), max_size=len(cur))))))
        else:
            step = acting_step(kind, cur)
        steps.append(step)
        cur = live_factors(facs, steps)
    if cur and draw(st.booleans()):  # a final discard leaves dead wires
        steps.append(("discard", tuple(sorted(draw(st.sets(st.integers(0, len(cur) - 1), min_size=1))))))
    how = draw(st.sampled_from(["share", "perturb", "fresh"]))
    g_steps = []
    for step in steps:
        if step[0] in ("matrix", "kraus") and how == "perturb":
            step = (step[0], _perturb(draw, rng, step[1]), step[2])
        elif step[0] in ("matrix", "kraus") and how == "fresh":
            m = len(step[1]) if step[0] == "matrix" else len(step[1][0])
            step = (step[0], _pair_step(draw, rng, backend, step[0], m), step[2])
        g_steps.append(step)
    dom = P.ProcObject(backend, facs)
    f = steps_program(dom, prelude() + steps)
    g = steps_program(dom, prelude() + g_steps)
    poison = draw(st.sampled_from([None] * 6 + ["f", "g"]))  # one NaN entry
    if poison == "f" and f.ops:
        f = _poisoned(f, draw, [np.nan])
    elif poison == "g" and g.ops:
        g = _poisoned(g, draw, [np.nan])
    tol = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-4, 0.1, 1.0]))
    return f, g, tol


def _dense_deviation(f, g):
    """The max-entry difference of the dense Choi (quantum) or transfer
    (classical) matrices: the compiled sweep, by the reference route."""
    if f.backend == P.QUANTUM:
        return float(np.max(np.abs(choi_matrix(f) - choi_matrix(g))))
    return float(np.max(np.abs(P.compile_kernel(f) - P.compile_kernel(g))))


@given(program_pairs())
@settings(max_examples=300, deadline=None)
def test_prop_reduced_accept_is_sound(pair):
    # an accepted value bounds the dense max-entry difference; a value
    # above tol is the exact one, bit for bit; and the decision is the
    # exact one away from tol
    f, g, tol = pair
    got, exact, dense = P.deviation(f, g, tol), P.deviation(f, g), _dense_deviation(f, g)
    if got <= tol:
        assert dense <= got + 1e-12
    else:
        assert _same_value(got, exact)
    if not abs(exact - tol) <= 1e-9:
        assert (got <= tol) == (exact <= tol)


@given(program_pairs())
@settings(max_examples=300, deadline=None)
def test_prop_block_value_is_the_dense_one(pair):
    # without tol, the block comparison gives the dense Choi (or transfer)
    # difference up to rounding, and NaN exactly when that is NaN
    f, g, _ = pair
    assert _close(P.deviation(f, g), _dense_deviation(f, g))


# -- one resolved form -----------------------------------------------------------------------

@given(
    st.sampled_from([P.QUANTUM, P.CLASSICAL]),
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda fs: prod(fs) <= 24),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_prop_one_form_is_exactly_equal(backend, facs, data):
    # two programs with one resolved form give exactly 0.0 with or without
    # tol when every matrix is finite; with a NaN or infinite entry they
    # give NaN, as the compiled sweep does
    f = data.draw(kernel_programs(P.ProcObject(backend, tuple(facs))))
    if f.ops and data.draw(st.booleans()):
        f = _poisoned(f, data.draw)
    g = P.ProcMorphism(f.dom, f.cod, f.ops, f.gone, f.out)
    assert P.program_form(f) == P.program_form(g)
    finite = all(np.isfinite(m).all() for _, m, _ in f.ops)
    with np.errstate(all="ignore"):
        dense = _dense_deviation(f, g)
        for tol in (None, 0.0, 1e-12, TOL, 1.0):
            got = P.deviation(f, g, tol)
            if finite:
                assert got == 0.0 and dense <= P.ORACLE_TOL
            else:
                assert np.isnan(got) and np.isnan(dense)


def test_one_form_is_not_compiled(monkeypatch):
    # a finite pair of one form is answered without compiling; the same
    # pair holding a NaN is compared by the sweep and fails its report
    from causal_fields.report import Report

    compiled = []
    compile_kernel = P.compile_kernel
    monkeypatch.setattr(P, "compile_kernel", lambda f: compiled.append(f) or compile_kernel(f))
    a = qobj(2, 2)
    kraus = P.kraus_channel(a, [np.sqrt(0.5) * SX, np.sqrt(0.5) * np.eye(2)], [1])
    f = P.compose_all(P.unitary_channel(a, random_unitary(RNG, 4)), kraus, P.discard(a, [0]))
    g = P.ProcMorphism(f.dom, f.cod, f.ops, f.gone, f.out)
    for tol in (None, TOL):
        assert P.deviation(f, g, tol) == 0.0
    assert compiled == []
    nan = np.eye(4, dtype=complex)
    nan[2, 1] = np.nan
    h = P.ProcMorphism(f.dom, f.cod, (("matrix", nan, (0, 1)),) + f.ops[1:], f.gone, f.out)
    report = Report("one form")
    report.compare({"pair": "h, h"}, P.deviation(h, h, TOL), TOL)
    assert compiled and not report.ok
    assert np.isnan(report.violations[0]["deviation"])


# -- the comparison memo of a law check ----------------------------------------------------

def _one_change_variants(f, data) -> dict:
    """Programs with f's domain and codomain whose resolved form differs
    from f's in one place: one matrix entry, a NaN entry, the dtype of one
    matrix, the wires of one op, or the discard order."""
    def with_op(i, op):
        return P.ProcMorphism(f.dom, f.cod, f.ops[:i] + (op,) + f.ops[i + 1:], f.gone, f.out)

    out = {}
    if f.ops:
        i = data.draw(st.integers(0, len(f.ops) - 1))
        kind, m, wires = f.ops[i]

        def first_matrix(new):
            return with_op(i, (kind, (new,) + m[1:] if kind == "kraus" else new, wires))

        first = m[0] if kind == "kraus" else m
        bumped, nan = first.copy(), first.copy()
        bumped.flat[0] += 0.5
        nan.flat[0] = np.nan
        out["entry"] = first_matrix(bumped)
        out["nan"] = first_matrix(nan)
        out["dtype"] = first_matrix(first.astype(np.complex64 if f.backend == P.QUANTUM else np.float32))
        dims = f.dom.factors
        spare = [w for w in range(len(dims)) if wires and w not in wires and dims[w] == dims[wires[0]]]
        if spare:
            out["wire"] = with_op(i, (kind, m, (spare[0],) + wires[1:]))
    if len(f.gone) >= 2:
        out["discard order"] = P.ProcMorphism(f.dom, f.cod, f.ops, f.gone[::-1], f.out)
    return out


@given(kernel_programs(), st.sampled_from([0.0, 1e-10, 1.0]), st.data())
@settings(max_examples=150, deadline=None)
def test_prop_comparison_memo_is_exact(f, tol, data):
    # through a law check's memo, a run of comparisons gives P.deviation's
    # values bit for bit (twice over); a pair with the same resolved forms
    # is served without a call, and a pair that differs in one matrix
    # entry, wire, discard order or dtype, or in tol, is computed afresh
    variants = _one_change_variants(f, data)
    same = P.ProcMorphism(f.dom, f.cod, f.ops, f.gone, f.out)
    runs = [(f, f, tol, 1), (same, f, tol, 0), (f, same, tol, 0), (same, same, tol, 0), (f, f, tol + 1.0, 1)]
    runs += [run for v in variants.values() for run in ((f, v, tol, 1), (v, f, tol, 1), (f, v, tol, 0))]
    exact, calls = P.deviation, []
    P.deviation = lambda *args: calls.append(args) or exact(*args)
    try:
        deviation = P.deviation_memo()
        for again in (False, True):
            for a, b, t, new in runs:
                before = len(calls)
                with np.errstate(all="ignore"):
                    got, want = deviation(a, b, t), exact(a, b, t)
                    assert np.isnan(got) == np.isnan(want)
                    assert np.isnan(want) or np.float64(got).tobytes() == np.float64(want).tobytes()
                assert len(calls) - before == (0 if again else new)
        if "nan" in variants:
            with np.errstate(all="ignore"):
                assert np.isnan(deviation(f, variants["nan"], tol))
    finally:
        P.deviation = exact
