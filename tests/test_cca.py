import collections
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causal_fields import cca, process as P
from causal_fields.cca import (
    LatticeSlice,
    PartitionedCCAConfig,
    build_cca,
    build_reversal,
    cca_config_from_json,
    cca_config_to_json,
    check_invariance,
    check_symmetry_action,
    dirac_config,
    dirac_scattering,
    factorize_morphism,
    foliation_category_of_lattice,
    identity_invariance,
    lattice_slice,
    lattice_slice_leq,
    mass_coin,
    one_step_kernel,
    restriction_kernel,
    reverse_one_step_kernel,
    reversal_theory,
    ring_site_marginals,
    ring_step_morphism,
    run_single_particle,
    sample_separated_quads,
    sample_words,
    sample_zigzag_chain_pairs,
    scattering_inverse,
    single_particle_step,
    site_probabilities,
    translation_action,
    window_morphisms,
    window_slices,
)
from causal_fields.errors import (
    BadParams,
    CausalFieldsError,
    NegativeTimeGap,
    NotFinite,
    NotInCategory,
    NotInvertible,
    NotStochastic,
    NotSubset,
    NotUnitary,
    WrongPredecessorSet,
)
from causal_fields.field_theory import (
    FieldTheory,
    check_monoidality,
    check_reversal,
    composable_triples,
    zigzag_composite,
)
from causal_fields.order import DiamondLattice, Window, future_domain, lattice, materialize, reverse

from helpers import (
    composable_triples_oracle,
    dirac_convergence_deviations,
    normalisation_defect,
    random_density,
    random_unitary,
    reference_lattice_morphism,
    reference_restriction,
    steps_program,
    translation_class_oracle,
)

RNG = np.random.default_rng(2024)
TOL = P.VALIDITY_TOL
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def cfg(u=None, backend="quantum"):
    if u is None:
        u = random_unitary(np.random.default_rng(7), 4)
    return PartitionedCCAConfig(d=1, cell_dim=2, scattering=u, backend=backend)


def sl(t, *xs):
    return lattice_slice(t, xs)


# -- slice ordering ---------------------------------------------------------------

def test_lattice_slice_leq_basic():
    a = LatticeSlice(0, frozenset({(0,), (2,)}))
    b = LatticeSlice(1, frozenset({(1,)}))
    assert lattice_slice_leq(a, b, 1)


def test_lattice_slice_leq_k0_is_subset():
    a = LatticeSlice(0, frozenset({(0,), (2,)}))
    b = LatticeSlice(0, frozenset({(2,)}))
    assert lattice_slice_leq(a, b, 1)
    assert not lattice_slice_leq(b, a, 1)


def test_lattice_slice_leq_insufficient_cone():
    a = LatticeSlice(0, frozenset({(0,)}))
    b = LatticeSlice(1, frozenset({(1,)}))
    assert not lattice_slice_leq(a, b, 1)


def test_lattice_slice_leq_negative_gap():
    a = LatticeSlice(1, frozenset({(1,)}))
    b = LatticeSlice(0, frozenset({(0,)}))
    with pytest.raises(NegativeTimeGap):
        lattice_slice_leq(a, b, 1)


def test_cone_law_matches_windowed_dplus():
    # closed form vs the generic recursion on a materialised window
    d1 = lattice(1)
    for k in range(0, 3):
        win = Window(0, k, (-6,), (6,))
        fin = materialize(d1, win)
        x_sites = [(x,) for x in range(-4, 5, 2)]
        for _trial in range(4):
            x_subset = frozenset(x_sites[i] for i in RNG.choice(5, size=3, replace=False))
            sigma = frozenset((0, x) for x in x_subset)
            dplus = future_domain(fin, sigma)
            for y in range(-4 + k, 5 - k, 2):
                closed = lattice_slice_leq(
                    LatticeSlice(0, x_subset), LatticeSlice(k, frozenset({(y,)})), 1
                )
                assert closed == ((k, (y,)) in dplus)


@pytest.mark.parametrize("t, sites", [(0, []), (0, [0, 2]), (1, [-1, 1]), (1, [(1, -1), (3, 1)]), (2, [[0, 2]])])
def test_lattice_slice_builds_members(t, sites):
    s = lattice_slice(t, sites)
    assert len(s) == len(sites)
    assert not s or foliation_category_of_lattice(lattice(len(next(iter(s))[1]))).contains(s)


NOT_LATTICE_SLICES = {
    "off parity": (0, [0, 1]),
    "off parity d=2": (1, [(1, 2)]),
    "float time": (0.0, [0]),
    "float site": (0, [2.0]),
    "mixed length": (0, [0, (0, 2)]),
    "no coordinate": (0, [()]),
}


@pytest.mark.parametrize("t, sites", NOT_LATTICE_SLICES.values(), ids=NOT_LATTICE_SLICES.keys())
def test_lattice_slice_rejects_a_non_member(t, sites):
    with pytest.raises(BadParams):
        lattice_slice(t, sites)


# -- factorisation ------------------------------------------------------------------

def test_factorize_k0_single_restriction():
    steps = factorize_morphism(cfg(), cca._slice_pair(sl(0, 0, 2), sl(0, 0), lattice(1)))
    assert steps == [("restrict", frozenset({(0,), (2,)}), frozenset({(0,)}), 0)]


def test_factorize_one_step():
    steps = factorize_morphism(cfg(), cca._slice_pair(sl(0, 0, 2), sl(1, 1), lattice(1)))
    assert steps[0] == ("restrict", frozenset({(0,), (2,)}), frozenset({(0,), (2,)}), 0)
    assert steps[1] == ("step", frozenset({(0,), (2,)}), frozenset({(1,)}), 1)


def test_factorize_with_true_restriction():
    steps = factorize_morphism(cfg(), cca._slice_pair(sl(0, -2, 0, 2, 4), sl(1, 1), lattice(1)))
    assert steps[0][2] == frozenset({(0,), (2,)})


def test_factorize_invalid():
    # a pair that is not a morphism has no reading to factorise, and the
    # theory's mor_fn, which reads it, refuses it
    assert cca._slice_pair(sl(0, 0), sl(1, 1), lattice(1)) is None
    with pytest.raises(BadParams):
        build_cca(cfg()).mor_fn(sl(0, 0), sl(1, 1))


NON_MEMBERS = {
    "two times": frozenset({(0, (0,)), (1, (1,))}),
    "off parity": frozenset({(0, (1,))}),
    "float site": frozenset({(0, (0.0,))}),
    "float time": frozenset({(0.0, (0,))}),
    "short site": frozenset({(0, ())}),
    "not an event": frozenset({"a"}),
}


@pytest.mark.parametrize("bad", NON_MEMBERS.values(), ids=NON_MEMBERS.keys())
def test_a_non_member_slice_is_bad_params(bad):
    # both read leaves through the one member parser, which accepts only
    # integer events of one time and of its parity: the pair reader reads
    # no pair with a non-member, and mor_fn refuses it
    theory, reversal = build_cca(cfg()), build_reversal(cfg())
    for omega in (lattice(1), reverse(lattice(1))):
        assert cca._slice_pair(bad, frozenset(), omega) is None
        assert cca._slice_pair(sl(0, 0), bad, omega) is None
    for t in (theory, reversal):
        with pytest.raises(BadParams):
            t.mor_fn(bad, frozenset())
        with pytest.raises(BadParams):
            t.mor_fn(sl(0, 0), bad)
        with pytest.raises(BadParams):
            t.obj(bad)
        with pytest.raises(BadParams):
            t.slots(bad)


SEEN_MEMBER = sl(0, 0, 2)
MEMBER_TWINS = {
    "float": frozenset({(0.0, (0.0,)), (0.0, (2.0,))}),
    "off parity": frozenset({(0, (1,)), (0, (3,))}),
    "two times": frozenset({(0, (0,)), (2, (2,))}),
}


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize("twin", MEMBER_TWINS.values(), ids=MEMBER_TWINS.keys())
def test_a_twin_of_a_seen_member_is_bad_params(twin, used):
    # obj and slots parse every slice they are asked for: the float twin
    # equals, and hashes like, the member it mirrors, so a theory that kept
    # objects by slice would serve it the member's object and labels once
    # the member had been asked for
    assert MEMBER_TWINS["float"] == SEEN_MEMBER
    for t in (build_cca(cfg()), build_reversal(cfg())):
        if used:
            assert t.obj(SEEN_MEMBER).factors and t.slots(SEEN_MEMBER)
        with pytest.raises(BadParams):
            t.obj(twin)
        with pytest.raises(BadParams):
            t.slots(twin)


# -- kernels ---------------------------------------------------------------------------

def test_restriction_kernel_identity():
    f = restriction_kernel(cfg(), frozenset({(0,)}), frozenset({(0,)}))
    assert P.deviation(f, P.identity(f.dom), TOL) <= TOL


def test_restriction_kernel_discard_all():
    f = restriction_kernel(cfg(), frozenset({(0,), (2,)}), frozenset())
    assert f.cod.factors == ()
    assert normalisation_defect(f) <= TOL


def test_restriction_kernel_partial_trace_oracle():
    c = cfg()
    f = restriction_kernel(c, frozenset({(0,), (2,)}), frozenset({(0,)}))
    rng = np.random.default_rng(5)
    r1, r2 = random_density(rng, 4), random_density(rng, 4)
    rho = P.state(f.dom, np.kron(r1, r2))
    out = P.apply(f, rho)
    assert np.max(np.abs(out.data - r1)) < 1e-12


def test_restriction_kernel_not_subset():
    with pytest.raises(NotSubset):
        restriction_kernel(cfg(), frozenset({(0,)}), frozenset({(2,)}))


def test_one_step_wrong_predecessors():
    with pytest.raises(WrongPredecessorSet):
        one_step_kernel(cfg(), frozenset({(0,)}), frozenset({(1,)}))


def test_one_step_discard_pattern():
    # d=1, X={1}, Y={0,2}: keep the factors aimed at site 1, discard the rest
    c = cfg()
    f = one_step_kernel(c, frozenset({(0,), (2,)}), frozenset({(1,)}))
    assert f.dom.dim == 16 and f.cod.dim == 4
    assert normalisation_defect(f) <= TOL


def test_one_step_identity_scattering_routes_factors():
    ident = PartitionedCCAConfig(d=1, cell_dim=2, scattering=np.eye(4))
    f = one_step_kernel(ident, frozenset({(0,), (2,)}), frozenset({(1,)}))
    # a pure basis product state on the kept factors survives routing:
    # slots of Y: ((0,),-1) ((0,),+1) ((2,),-1) ((2,),+1); kept are
    # ((0,),-1)->((1,),-1) and ((2,),+1)->((1,),+1) after the direction flip
    # built into the effective scattering.
    rho = np.zeros((16, 16), dtype=complex)
    # basis index ordering (q0 q1 q2 q3); set q0=1, q3=1 -> index 0b1001 = 9
    rho[9, 9] = 1.0
    out = P.apply(f, P.state(f.dom, rho))
    # identity scattering composed with the direction reversal swaps each
    # cell, so contents of ((0,),-1) and ((2,),+1) land swapped at site 1
    diag = np.real(np.diag(out.data))
    assert abs(diag.sum() - 1.0) < 1e-12
    assert diag[np.argmax(diag)] > 1 - 1e-12


def test_one_step_trace_preservation():
    c = cfg()
    f = one_step_kernel(c, frozenset({(0,), (2,), (4,)}), frozenset({(1,), (3,)}))
    lhs = P.compose(P.discard(f.cod), f)
    assert P.deviation(lhs, P.discard(f.dom), TOL) <= TOL


def test_reverse_one_step_wrong_predecessors():
    with pytest.raises(WrongPredecessorSet):
        reverse_one_step_kernel(cfg(), np.eye(4), frozenset({(1,)}), frozenset({(2,)}))


def test_reverse_one_step_inverts_forward_step():
    # forward {0,2,4} -> {1,3}, then back {1,3} -> {2}: only the cell of
    # site 2 is reconstructed, exactly as if the rest had been discarded
    from causal_fields.cca import _direction_reversal

    c = cfg(u=random_unitary(np.random.default_rng(31), 4))
    v_inv = scattering_inverse(c) @ _direction_reversal(c.cell_dim, c.d).T
    fwd = one_step_kernel(c, frozenset({(0,), (2,), (4,)}), frozenset({(1,), (3,)}))
    back = reverse_one_step_kernel(c, v_inv, frozenset({(1,), (3,)}), frozenset({(2,)}))
    want = restriction_kernel(c, frozenset({(0,), (2,), (4,)}), frozenset({(2,)}))
    assert P.deviation(P.compose(back, fwd), want) <= 1e-12


def _counting_form_checks(monkeypatch) -> list:
    """The number of ops each form check reads, from here on."""
    checked, check = [], P.ProcMorphism.__post_init__
    monkeypatch.setattr(P.ProcMorphism, "__post_init__", lambda f: checked.append(len(f.ops)) or check(f))
    return checked


def test_ring_step_build_is_linear(monkeypatch):
    # the program is built once: its form check reads each of the ring's
    # cell ops once, so the checks grow with the ring, not with its square
    config, n = dirac_config(0.3, 0.1), 400
    checked = _counting_form_checks(monkeypatch)
    f = ring_step_morphism(config, n)
    assert len(f.ops) == n and f.gone == ()
    assert checked == [n]


def test_compose_all_is_linear(monkeypatch):
    # composing reads each program's resolved form once and checks the
    # composite once: the checks grow with the number of programs, not with
    # its square.  The composite is the program of the step lists laid end
    # to end
    obj = P.ProcObject(P.QUANTUM, (2, 2, 2))
    u = dirac_scattering(0.3, 0.1)
    n = 400
    ms = [
        P.unitary_channel(obj, u, (i % 3, (i + 1) % 3)) if i % 2 else P.permute_factors(obj, (1, 2, 0))
        for i in range(n)
    ]
    checked = _counting_form_checks(monkeypatch)
    f = P.compose_all(*ms)
    assert checked == [n // 2]
    steps = [("matrix",) + m.ops[0][1:] if i % 2 else ("permute", (1, 2, 0)) for i, m in enumerate(ms)]
    assert P.program_form(f) == P.program_form(steps_program(obj, steps))


# -- the spec picture: swap scattering is exact transport ------------------------------

def test_swap_scattering_transports():
    c = cfg(u=SWAP)
    f = one_step_kernel(c, frozenset({(0,), (2,)}), frozenset({(1,)}))
    # one-particle state: excitation in slot ((0,),-1), i.e. moving right
    psi = np.zeros(16, dtype=complex)
    psi[0b1000] = 1.0
    rho = np.outer(psi, psi.conj())
    out = P.apply(f, P.state(f.dom, rho))
    # expect excitation in slot ((1,),-1) = first factor of the target cell
    want = np.zeros(4, dtype=complex)
    want[0b10] = 1.0
    assert np.max(np.abs(out.data - np.outer(want, want.conj()))) < 1e-12


# -- field theory construction -----------------------------------------------------------

def test_build_cca_objects():
    theory = build_cca(cfg())
    assert theory.obj(frozenset()).factors == ()
    assert theory.obj(sl(0, 0, 2)).dim == 16
    assert theory.obj(sl(0, 0, 2, 4)).dim == 64


def test_build_cca_discard_is_backend_discard():
    theory = build_cca(cfg())
    f = theory.mor(sl(0, 0, 2), frozenset())
    assert P.deviation(f, P.discard(theory.obj(sl(0, 0, 2))), TOL) <= TOL


def test_build_cca_identity():
    theory = build_cca(cfg())
    s = sl(0, 0, 2)
    assert P.deviation(theory.mor(s, s), P.identity(theory.obj(s)), TOL) <= TOL


def test_build_cca_composition_spec_example():
    theory = build_cca(cfg())
    s0 = sl(0, 0, 2)
    s1 = sl(1, 1)
    empty = frozenset()
    step = P.compose(theory.mor(s1, empty), theory.mor(s0, s1))
    assert P.deviation(step, theory.mor(s0, empty), TOL) <= TOL


def test_build_cca_restriction_chain():
    theory = build_cca(cfg())
    a, b, c = sl(0, 0, 2, 4), sl(0, 0, 2), sl(0, 0)
    two = P.compose(theory.mor(b, c), theory.mor(a, b))
    assert P.deviation(two, theory.mor(a, c), TOL) <= TOL


def test_config_json_roundtrip():
    c = dirac_config(0.3, 0.1)
    blob = cca_config_to_json(c)
    again = cca_config_from_json(blob)
    assert np.max(np.abs(again.scattering - c.scattering)) < 1e-15
    assert again.d == 1 and again.cell_dim == 2 and again.backend == "quantum"


def test_config_validation():
    with pytest.raises(NotUnitary):
        PartitionedCCAConfig(d=1, cell_dim=2, scattering=np.diag([1, 1, 1, 0.5]))
    with pytest.raises(BadParams):
        PartitionedCCAConfig(d=1, cell_dim=2, scattering=np.eye(3))


@given(
    st.sampled_from(["quantum U", "quantum U_inv", "classical U", "classical U_inv"]),
    st.integers(0, 15),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
)
@settings(max_examples=60, deadline=None)
def test_prop_garbage_config_is_rejected(which, where, garbage):
    # a non-finite entry in the scattering or its inverse, or an overflowing
    # one in the scattering, is an error when the configuration is built;
    # a finite but wrong inverse is left to scattering_inverse
    backend, key = which.split()
    assume(key == "U" or not np.isfinite(garbage))
    u = SWAP.real.astype(complex if backend == "quantum" else float)
    bad = u.copy()
    bad.reshape(-1)[where] = garbage
    mats = {"U": u, "U_inv": u.T.copy()}
    mats[key] = bad
    with pytest.raises(CausalFieldsError), np.errstate(invalid="ignore", over="ignore"):
        PartitionedCCAConfig(
            d=1, cell_dim=2, scattering=mats["U"], scattering_inv=mats["U_inv"], backend=backend
        )


@pytest.mark.parametrize("key", ["U", "U_inv"])
def test_classical_config_rejects_imaginary_part(key):
    blob = cca_config_to_json(cfg(SWAP.real, backend="classical"))
    blob["U_inv"] = blob["U"]
    blob[key] = P.matrix_to_json(SWAP + 1e-3j * np.eye(4))
    with pytest.raises(BadParams):
        cca_config_from_json(blob)
    blob[key] = P.matrix_to_json(SWAP.astype(complex))
    assert cca_config_from_json(blob).backend == "classical"


# -- reversal -------------------------------------------------------------------------------

def test_reversal_zigzag_law_random_unitary():
    c = cfg()
    theory = build_cca(c)
    rev = build_reversal(c)
    s0 = sl(0, 0, 2, 4)
    d1 = sl(1, 1, 3)
    d2 = sl(0, 2)
    comp = zigzag_composite(theory, rev, [s0, d1, d2])
    assert P.deviation(comp, theory.mor(s0, d2), TOL) <= TOL


def test_reversal_check_on_sampled_chains():
    c = cfg()
    theory = build_cca(c)
    rev = build_reversal(c)
    pairs = sample_zigzag_chain_pairs(np.random.default_rng(3), 25)
    rep = check_reversal(theory, rev, pairs)
    assert rep.ok, rep.violations[:2]


def test_reversal_wrong_inverse_reports_violation():
    c = cfg()
    theory = build_cca(c)
    wrong = reversal_theory(c, np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex))
    pairs = [p for p in sample_zigzag_chain_pairs(np.random.default_rng(4), 30) if len(p[0]) > 2 or len(p[1]) > 2]
    rep = check_reversal(theory, wrong, pairs)
    assert not rep.ok


@pytest.mark.parametrize("backend", ["quantum", "classical"])
def test_theory_kernels_hold_one_checked_cell(backend):
    # the configuration checks its cell matrix once: every forward step
    # kernel and every ring step holds that very array, and the reverse
    # kernels of one reversal theory all hold a single array
    c = cfg(u=SWAP.real if backend == "classical" else None, backend=backend)
    slices = [s for t in range(3) for s in window_slices(t, -3, 3, 3)]

    def cells(theory) -> list:
        mors = [theory.mor(s, g) for s in slices for g in slices if g and theory.category.hom(s, g)]
        return [m for f in mors for _, m, _ in f.ops]

    fwd = cells(build_cca(c)) + [m for _, m, _ in ring_step_morphism(c, 4).ops]
    assert fwd and all(m is c.cell for m in fwd)
    back = cells(build_reversal(c))
    assert back and all(m is back[0] for m in back)


@pytest.mark.parametrize("backend,bad", [
    ("quantum", np.diag([1, 1, 1, 0.5])),
    ("quantum", np.diag([1, 1, 1, np.nan])),
    ("classical", SWAP.real - 0.5 * np.eye(4)),
])
def test_reversal_theory_refuses_a_bad_cell_when_built(backend, bad):
    # a theory checks its cell matrix before it builds any kernel, and a
    # kernel built directly still checks the matrix it is given
    c = cfg(u=SWAP.real if backend == "classical" else None, backend=backend)
    with pytest.raises((NotUnitary, NotStochastic, NotFinite)):
        reversal_theory(c, bad)
    with pytest.raises((NotUnitary, NotStochastic, NotFinite)):
        reverse_one_step_kernel(c, bad, frozenset({(1,), (3,)}), frozenset({(2,)}))


def test_reversal_not_invertible():
    damp = np.diag([1.0, 0.5, 0.5, 0.25])
    stoch = np.full((4, 4), 0.25)
    with pytest.raises((NotInvertible, NotUnitary)):
        build_reversal(PartitionedCCAConfig(d=1, cell_dim=2, scattering=damp))
    with pytest.raises(NotInvertible):
        build_reversal(
            PartitionedCCAConfig(d=1, cell_dim=2, scattering=stoch, backend="classical")
        )


def test_reversal_swap_scattering_is_swap_again():
    c = cfg(u=SWAP)
    rev = build_reversal(c)
    theory = build_cca(c)
    s0 = sl(0, 0, 2)
    d1 = sl(1, 1)
    back = rev.mor(d1, sl(0, ))  # restriction to the empty slice
    assert back.cod.factors == ()
    comp = zigzag_composite(theory, rev, [s0, d1, frozenset()])
    assert P.deviation(comp, theory.mor(s0, frozenset()), TOL) <= TOL


def test_classical_permutation_cca_reversal():
    perm = np.array(SWAP.real)
    c = PartitionedCCAConfig(d=1, cell_dim=2, scattering=perm, backend="classical")
    theory = build_cca(c)
    rev = build_reversal(c)
    pairs = sample_zigzag_chain_pairs(np.random.default_rng(5), 10)
    assert check_reversal(theory, rev, pairs).ok


# -- symmetry -------------------------------------------------------------------------------

def test_translation_action_on_lattice():
    act = translation_action(1)
    cat = foliation_category_of_lattice(lattice(1))
    slices = [sl(0, 0), sl(0, 0, 2), sl(1, 1, 3), frozenset()]
    morphisms = [(sl(0, 0, 2), sl(1, 1)), (sl(0, 0, 2), sl(0, 0)), (sl(0, 0), sl(0, 2))]
    event_pairs = [((0, (0,)), (1, (1,))), ((0, (0,)), (0, (2,))), ((0, (0,)), (2, (0,)))]
    words = sample_words(act, np.random.default_rng(1), 6)
    rep = check_symmetry_action(act, cat, slices, morphisms, event_pairs, words)
    assert rep.ok, rep.violations[:3]


def test_reflection_on_asymmetric_order_fails():
    from causal_fields.order import build_explicit
    from causal_fields.slices import all_slices_category
    from causal_fields.cca import SymmetryAction

    # a < b, with c isolated below nothing: swapping a and c is a bijection
    # on events but not an automorphism, and breaks the slice ordering
    omega = build_explicit(["a", "b", "c"], [("a", "b")])
    swap = {"a": "c", "b": "b", "c": "a"}
    action = SymmetryAction(
        {"s": lambda e: swap[e]},
        {"s": lambda e: swap[e]},
    )
    cat = all_slices_category(omega)
    rep = check_symmetry_action(
        action, cat,
        slice_samples=[frozenset({"a"}), frozenset({"b"})],
        morphism_samples=[(frozenset({"a"}), frozenset({"b"}))],
        event_pairs=[("a", "b")],
        words=[(("s", 1),)],
    )
    assert not rep.ok
    assert any(v["witness"]["law"] in ("automorphism", "ordering preservation")
               for v in rep.violations)


def _one_generator(step):
    """A symmetry action of one generator ``s``: the map ``step(t, x, +1)``
    on d = 1 events, with inverse ``step(t, x, -1)``."""
    from causal_fields.cca import SymmetryAction

    return SymmetryAction({"s": lambda e: step(e[0], e[1][0], 1)}, {"s": lambda e: step(e[0], e[1][0], -1)})


def _laws(report) -> dict:
    return dict(collections.Counter(v["witness"]["law"] for v in report.violations))


def test_symmetry_action_sending_an_event_off_the_order_fails_the_automorphism_law():
    # the automorphism branch with event pairs: (t, x) -> (t + 1, x) sends
    # every event off parity, off the lattice; the check records that
    # instead of asking leq of a non-event (UnknownEvent)
    act = _one_generator(lambda t, x, sign: (t + sign, (x,)))
    cat = foliation_category_of_lattice(lattice(1))
    pairs = [((0, (0,)), (1, (1,))), ((0, (0,)), (0, (2,)))]
    rep = check_symmetry_action(act, cat, [], [], pairs)
    assert rep.samples == 2 and _laws(rep) == {"automorphism": 2}


def test_off_parity_shift_fails_slice_ordering_and_product_preservation():
    # the slice, ordering and product preservation branches: the shift
    # (t, x) -> (t, x + 1) takes every non-empty slice off parity, so each
    # is no member, each non-empty hom is lost, and so is each product
    # with both parts non-empty; on the first 60 window slices (2 empty)
    # and the first 60 window morphisms
    act = _one_generator(lambda t, x, sign: (t, (x + sign,)))
    cat = foliation_category_of_lattice(lattice(1))
    slices = (window_slices(0, *cca._CHECK_BOX) + window_slices(1, *cca._CHECK_BOX))[:60]
    morphisms = list(cca._check_window())[:60]
    rep = check_symmetry_action(act, cat, slices, morphisms, [])
    assert _laws(rep) == {"slice preservation": 58, "ordering preservation": 56, "product preservation": 37,
                          "leaf transitivity": 58}


def test_a_two_step_translation_fails_leaf_transitivity_alone():
    # the leaf transitivity branch: (t, x) -> (t + 2, x) is an automorphism
    # of the lattice that keeps slices, orderings and products, but moves a
    # leaf two steps forward, not one
    act = _one_generator(lambda t, x, sign: (t + 2 * sign, (x,)))
    cat = foliation_category_of_lattice(lattice(1))
    slices = [sl(0, 0), sl(0, 0, 2), sl(1, 1, 3), frozenset()]
    morphisms = [(sl(0, 0, 2), sl(1, 1)), (sl(0, 0, 2), sl(0, 0)), (sl(0, 0), sl(0, 2))]
    pairs = [((0, (0,)), (1, (1,))), ((0, (0,)), (0, (2,))), ((0, (0,)), (2, (0,)))]
    rep = check_symmetry_action(act, cat, slices, morphisms, pairs)
    assert _laws(rep) == {"leaf transitivity": 3}


def test_translation_homogeneity_exact_kernels():
    # a morphism and its translate are one program: the same matrix
    # objects on the same wires
    theory = build_cca(cfg())
    act = translation_action(1)
    for word in sample_words(act, np.random.default_rng(2), 8):
        for s, g in [(sl(0, 0, 2), sl(1, 1)), (sl(0, 0, 2, 4), sl(0, 0, 4))]:
            f = theory.mor(s, g)
            assert P.program_form(f) == P.program_form(theory.mor(act.act(word, s), act.act(word, g)))


def test_invariance_identity_witness():
    theory = build_cca(cfg())
    act = translation_action(1)
    alpha = identity_invariance(theory)
    words = sample_words(act, np.random.default_rng(3), 4)
    morphisms = [(sl(0, 0, 2), sl(1, 1)), (sl(0, 0, 2, 4), sl(1, 1, 3))]
    rep = check_invariance(
        theory, act, alpha, words, morphisms,
        word_pairs=[(words[0], words[1])], slice_samples=[sl(0, 0)],
    )
    assert rep.ok


def test_invariance_fails_for_inhomogeneous_theory():
    c = cfg()
    theory = build_cca(c)
    act = translation_action(1)
    other = build_cca(cfg(u=random_unitary(np.random.default_rng(11), 4)))

    def patched_mor(sigma, gamma):
        use = theory if sigma and next(iter(sigma))[0] % 2 == 0 else other
        return use.mor_fn(sigma, gamma)

    broken = build_cca(c)
    broken.mor_fn = patched_mor
    broken._mors.clear()
    alpha = identity_invariance(broken)
    rep = check_invariance(
        broken, act, alpha,
        words=[(("tau_p", 1),)],
        morphism_samples=[(sl(0, 0, 2), sl(1, 1))],
    )
    assert not rep.ok


# -- translation classes ------------------------------------------------------------------

def _shift(events, dt, dx):
    return frozenset((t + dt, tuple(x + dx for x in xs)) for t, xs in events)


def _mirror(events):
    return frozenset((-t, xs) for t, xs in events)


def _pair_slices(pair) -> tuple:
    """The two slices of a ``_slice_pair`` reading."""
    return tuple(frozenset((t, xs) for xs in sites) for t, sites in pair[:2])


def _reversal_cell(c):
    # the checked inverse effective scattering: a reversal theory built on it
    # holds that very array, so two such theories build programs of one form
    return cca._cell_matrix(c, scattering_inverse(c) @ cca._direction_reversal(c.cell_dim, c.d).T)


_PERMUTATION = np.eye(4)[[2, 0, 3, 1]]
_CLASS_CONFIGS = {
    "haar": lambda: cfg(),
    "dirac": lambda: dirac_config(0.4, 0.1),
    "permutation": lambda: cfg(u=_PERMUTATION, backend="classical"),
}


@pytest.mark.parametrize("direction", [1, -1], ids=["forward", "reversal"])
@pytest.mark.parametrize("name", sorted(_CLASS_CONFIGS))
def test_class_cached_morphisms_are_fresh_builds(monkeypatch, name, direction):
    # the translation argument on the whole check window (time-mirrored for
    # the reversal): each morphism the class cache hands out has the form of
    # a fresh, uncached build of that exact pair, and the 1,220 pairs cost
    # one build per class
    c = _CLASS_CONFIGS[name]()
    if direction > 0:
        make, pairs = (lambda: build_cca(c)), list(cca._check_window())
    else:
        cell = _reversal_cell(c)
        make = lambda: reversal_theory(c, cell)  # noqa: E731
        pairs = [(_mirror(s), _mirror(g)) for s, g in cca._check_window()]
    builds, factorize = [], cca.factorize_morphism
    monkeypatch.setattr(cca, "factorize_morphism", lambda *a: builds.append(_pair_slices(a[1])) or factorize(*a))
    theory = make()
    cached = [P.program_form(theory.mor(s, g)) for s, g in pairs]
    classes = {translation_class_oracle(s, g) for s, g in pairs}
    assert len(pairs) == 1220 and len(builds) == len(classes) == 114
    assert {translation_class_oracle(s, g) for s, g in builds} == classes
    for (s, g), form in zip(pairs, cached):
        assert P.program_form(make().mor(s, g)) == form, (s, g)


@pytest.mark.parametrize("direction", [1, -1], ids=["forward", "reversal"])
def test_theory_mor_parses_each_slice_once_per_reading(monkeypatch, direction):
    # the parse budget of theory.mor: hom reads the pair, and mor_fn reads it
    # once more and keys its class and builds from that reading.  A fresh
    # pair and a class hit cost 4 leaf parses, a memo hit 2 (hom alone), and
    # a build none
    c = cfg()
    theory = build_cca(c) if direction > 0 else reversal_theory(c, _reversal_cell(c))
    # a build runs from factorize_morphism to the end of _scatter_and_route
    parses, building, builds = [], [], []
    leaf_form, factorize, assemble = cca.leaf_form, cca.factorize_morphism, cca._scatter_and_route

    def assembled(*a):
        f = assemble(*a)
        builds.append(building.pop())
        return f

    monkeypatch.setattr(cca, "leaf_form", lambda *a: parses.append(bool(building)) or leaf_form(*a))
    monkeypatch.setattr(cca, "factorize_morphism", lambda *a: building.append(1) or factorize(*a))
    monkeypatch.setattr(cca, "_scatter_and_route", assembled)

    def parsed(s, g) -> int:
        before = len(parses)
        theory.mor(s, g)
        return len(parses) - before

    def shift(s):
        return frozenset((t + 1, (x + 1,)) for t, (x,) in s)

    s, g = sl(0, 0, 2, 4), sl(2 * direction, 2)
    assert parsed(s, g) == 4  # fresh: hom, then mor_fn's reading, then a build
    assert parsed(shift(s), shift(g)) == 4  # a translate: hom and mor_fn, no build
    assert parsed(s, g) == 2  # FieldTheory's memo: hom alone
    assert builds == [1] and True not in parses


@pytest.mark.parametrize("direction", [1, -1], ids=["forward", "reversal"])
def test_a_cached_class_admits_no_other_pair(direction):
    # once a member pair's class is cached, its member translates share the
    # program, and translates that are not member pairs still get no hom and
    # no morphism (the float pair below hashes like an integer translate);
    # nor does the pair with the same sites and the time gap reversed
    c = cfg()
    theory = build_cca(c) if direction > 0 else reversal_theory(c, _reversal_cell(c))
    cat = theory.category
    s, g = sl(0, 0, 2), sl(direction, 1)
    form = P.program_form(theory.mor(s, g))
    for dt, dx in [(2, 4), (1, -3), (-3, 1), (0, -2)]:
        assert cat.hom(_shift(s, dt, dx), _shift(g, dt, dx))
        assert P.program_form(theory.mor(_shift(s, dt, dx), _shift(g, dt, dx))) == form
    later = frozenset({(2, (2,))})
    bad = {
        "off parity": (_shift(s, 0, 1), _shift(g, 0, 1)),
        "odd time shift": (_shift(s, 1, 0), _shift(g, 1, 0)),
        "float": (_shift(s, 2.0, 4.0), _shift(g, 2.0, 4.0)),
        "float time": (_shift(s, 2.0, 4), _shift(g, 2.0, 4)),
        "float site": (_shift(s, 2, 4.0), _shift(g, 2, 4)),
        "two-time source": (sl(0, 0) | later, g),
        "two-time target": (s, g | later),
        "non-event": (s | {"x"}, g),
        "short site": (s | {(0, ())}, g),
        "reversed gap": (s, _mirror(g)),
    }
    assert bad["float"] == (frozenset({(2.0, (4.0,)), (2.0, (6.0,))}), frozenset({(2.0 + direction, (5.0,))}))
    for label, (a, b) in bad.items():
        assert not cat.hom(a, b), label
        assert label == "reversed gap" or not (cat.contains(a) and cat.contains(b)), label
        with pytest.raises(NotInCategory):
            theory.mor(a, b)


def _d2_window_pairs(reversed_: bool) -> list:
    # every target of at most two sites in a d = 2 box at times 0..2, each
    # from its k-step cone (k = 0..2) and from that cone with one more site;
    # time-mirrored for the reversed foliation
    sign = -1 if reversed_ else 1
    pairs = []
    for t in range(3):
        box = [(t + 2 * a, t + 2 * b) for a in range(-1, 2) for b in range(-1, 2)]
        for n in (0, 1, 2):
            for sites in itertools.combinations(box, n):
                gs = frozenset(sites)
                for k in range(t + 1):
                    cone = cca.expand_sites(gs, k, 2)
                    extra = (max(cone, default=(t - k, t - k))[0] + 2,) + (t - k,)
                    for ss in (cone, cone | {extra}):
                        pairs.append((frozenset((sign * (t - k), x) for x in ss),
                                      frozenset((sign * t, x) for x in gs)))
    return list(dict.fromkeys(pairs))


def _d2_config():
    return PartitionedCCAConfig(d=2, cell_dim=2, scattering=random_unitary(np.random.default_rng(5), 16))


@pytest.mark.parametrize("direction", [1, -1], ids=["forward", "reversal"])
@pytest.mark.parametrize("name", sorted(_CLASS_CONFIGS) + ["d2"])
def test_chain_build_matches_the_kernel_by_kernel_reference(name, direction):
    # the one-pass chain build has the dom, cod and program_form of
    # compose_all over a restriction and one checked kernel per step: on
    # every pair of the check window (time-mirrored for the reversal) and on
    # d = 2 window pairs.  A fresh theory per pair builds that exact pair.
    # The restriction kernel, a chain of one, has the form of one discard
    c = _d2_config() if name == "d2" else _CLASS_CONFIGS[name]()
    cell = _reversal_cell(c)
    if name == "d2":
        pairs = _d2_window_pairs(direction < 0)
    elif direction > 0:
        pairs = list(cca._check_window())
    else:
        pairs = [(_mirror(s), _mirror(g)) for s, g in cca._check_window()]
    assert len(pairs) == (1220 if name != "d2" else 544)
    for s, g in pairs:
        theory = build_cca(c) if direction > 0 else reversal_theory(c, cell)
        f, want = theory.mor(s, g), reference_lattice_morphism(c, s, g, direction, cell)
        assert (f.dom, f.cod) == (want.dom, want.cod), (s, g)
        assert P.program_form(f) == P.program_form(want), (s, g)
        (_, ss, cone, _t), *_ = cca.factorize_morphism(c, cca._slice_pair(s, g, DiamondLattice(c.d, direction)))
        r, want = cca.restriction_kernel(c, ss, cone), reference_restriction(c, ss, cone)
        assert (r.dom, r.cod) == (want.dom, want.cod), (s, g)
        assert P.program_form(r) == P.program_form(want), (s, g)


def _counting(monkeypatch, owner, name: str) -> list:
    """The arguments of every call to ``owner.name`` from here on."""
    calls, orig = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or orig(*a))
    return calls


def test_monoidality_asks_six_slot_lists_per_quad(monkeypatch):
    # sigma | gamma and the slots of sigma | gamma, sigma and gamma are asked
    # once, for the wiring and for the object equation, and likewise for
    # the targets: six slot lists per quad
    quads = sample_separated_quads(np.random.default_rng(3), 16)
    theory = build_cca(cfg())
    slots = _counting(monkeypatch, FieldTheory, "slots")
    assert check_monoidality(theory, quads).ok
    assert len(slots) == 6 * len(quads)


def test_symmetry_asks_each_word_independent_question_once(monkeypatch):
    # leq of each event pair, membership of each slice and hom and
    # tensor_defined of each morphism sample are asked once; each word then
    # asks only of the translates
    rng = np.random.default_rng(5)
    act, cat = translation_action(1), foliation_category_of_lattice(lattice(1))
    slices = window_slices(0, -4, 4, 2) + [frozenset({(0, (1,))}), frozenset({(0, (0,)), (1, (1,))})]
    morphisms = list(cca._check_window())[::97] + [(sl(0, 0), sl(1, 3)), (sl(0, 0), sl(0, 2))]
    pairs = [((0, (0,)), (1, (1,))), ((0, (0,)), (0, (2,))), ((0, (0,)), (3, (1,)))]
    words = sample_words(act, rng, 6)
    member = [s for s in slices if cat.contains(s)]
    homs = [m for m in morphisms if cat.hom(*m)]
    products = [m for m in morphisms if cat.tensor_defined(*m)]
    assert 0 < len(member) < len(slices) and 0 < len(homs) < len(morphisms) and products
    contains = _counting(monkeypatch, cat, "contains")
    leq = _counting(monkeypatch, type(cat.order), "leq")
    # the two-time set is no member, so it has no leaf to shift either
    assert check_symmetry_action(act, cat, slices, [], pairs, words).ok
    assert len(contains) == len(slices) + len(words) * len(member)
    assert len(leq) == len(pairs) * (1 + len(words))
    hom = _counting(monkeypatch, type(cat), "hom")
    tensor = _counting(monkeypatch, type(cat), "tensor_defined")
    assert check_symmetry_action(act, cat, [], morphisms, pairs, words).ok
    assert len(hom) == len(morphisms) + len(words) * len(homs)
    assert len(tensor) == len(morphisms) + len(words) * len(products)


def test_invariance_asks_each_sample_morphism_once(monkeypatch):
    # theory.mor(s, g) once per sample, not once per word; the translates
    # are asked once per word.  With no words nothing is asked, so a sample
    # that is no morphism raises nothing
    rng = np.random.default_rng(8)
    theory, act = build_cca(dirac_config(0.4, 0.1)), translation_action(1)
    morphisms = [cca._check_window()[i] for i in rng.choice(1220, size=9, replace=False)]
    words = sample_words(act, rng, 4)
    mor = _counting(monkeypatch, FieldTheory, "mor")
    rep = check_invariance(theory, act, identity_invariance(theory), words, morphisms)
    assert rep.ok and rep.samples == len(words) * len(morphisms)
    asked = [(s, g) for _, s, g in mor]
    samples = [(frozenset(s), frozenset(g)) for s, g in morphisms]
    translates = [(act.act(w, s), act.act(w, g)) for w in words for s, g in samples]
    assert sum(map(asked.count, samples)) == len(samples) + sum(map(translates.count, samples))
    assert len(asked) == len(samples) * (1 + len(words))
    mor.clear()
    obj = _counting(monkeypatch, FieldTheory, "obj")
    rep = check_invariance(theory, act, identity_invariance(theory), [], [(sl(1, 1), sl(0, 0, 2))])
    assert rep.samples == 0 and not mor and not obj


def test_reversal_asks_object_agreement_once_per_distinct_slice(monkeypatch):
    c = cfg()
    theory, reversal = build_cca(c), reversal_theory(c, _reversal_cell(c))
    chain_pairs = sample_zigzag_chain_pairs(np.random.default_rng(2), 12)
    obj = _counting(monkeypatch, FieldTheory, "obj")
    assert check_reversal(theory, reversal, chain_pairs).ok
    distinct = sum(len(set(a) | set(b)) for a, b in chain_pairs)
    assert distinct < sum(len(a) + len(b) for a, b in chain_pairs)
    for t in (theory, reversal):
        assert sum(1 for call in obj if call[0] is t) == distinct


_SUITE_CONFIGS = {
    "haar": lambda: cfg(),
    "dirac": lambda: dirac_config(0.4, 0.1),
    "classical-swap": lambda: cfg(u=SWAP.real, backend="classical"),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(_SUITE_CONFIGS))
def test_suite_reports_match_the_kernel_by_kernel_build(name, seed):
    # each suite's report, byte for byte, with the theories' morphisms built
    # by the compose_all reference instead of the one-pass chain
    c = _SUITE_CONFIGS[name]()
    cell = _reversal_cell(c)

    def theories(reference: bool):
        theory, reversal = build_cca(c), reversal_theory(c, cell)
        if reference:
            theory.mor_fn = lambda s, g: reference_lattice_morphism(c, s, g, 1, cell)
            reversal.mor_fn = lambda s, g: reference_lattice_morphism(c, s, g, -1, cell)
        return theory, reversal

    for target in cca.CHECK_SUITES:
        reports = [
            json.dumps(cca.check_suite(target, *theories(reference), np.random.default_rng(seed), 12,
                                       TOL).to_json(), sort_keys=True)
            for reference in (False, True)
        ]
        assert reports[0] == reports[1], target


def _reference_member(omega, s) -> bool:
    # the membership rule before the parsed form: every event a lattice
    # event of the order, and one time
    return not s or (all(omega.has_event(e) for e in s) and len({e[0] for e in s}) == 1)


def _reference_hom(cat, s, g) -> bool:
    if not (_reference_member(cat.order, s) and _reference_member(cat.order, g)):
        return False
    if not g or not s:
        return not g
    (ts, ss), (tg, gs) = ((next(iter(x))[0], frozenset(xs for _, xs in x)) for x in (s, g))
    k = cat.order.arrow * (tg - ts)
    return k >= 0 and lattice_slice_leq(LatticeSlice(0, ss), LatticeSlice(k, gs), cat.order.d)


# one category per (d, reversed), shared by every example, so a category
# that keeps state between calls meets translates of earlier pairs
_SHARED_CATEGORIES: dict = {}


@st.composite
def _translated_pairs(draw):
    d = draw(st.sampled_from([1, 2]))
    reversed_ = draw(st.booleans())

    def leaf():
        t = draw(st.integers(-2, 2))
        n = draw(st.integers(0, 3))
        return frozenset((t, tuple(t + 2 * draw(st.integers(-2, 2)) for _ in range(d))) for _ in range(n))

    dt = draw(st.integers(-3, 3))
    dx = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    pair = [frozenset((t + dt, tuple(map(sum, zip(xs, dx)))) for t, xs in leaf()) for _ in range(2)]
    side = draw(st.integers(0, 1))
    if pair[side]:
        t, xs = e = draw(st.sampled_from(sorted(pair[side])))
        defect = draw(st.sampled_from(["none", "float site", "float time", "two times", "wrong d", "bool"]))
        new = {
            "none": e,
            "float site": (t, (float(xs[0]),) + xs[1:]),
            "float time": (float(t), xs),
            "two times": (t + 2, tuple(x + 2 for x in xs)),
            "wrong d": (t, xs + (t,)),
            "bool": (t, xs) if t not in (0, 1) else (bool(t), xs),
        }[defect]
        pair[side] = (pair[side] - {e}) | {new}
    return d, reversed_, pair[0], pair[1]


def _sites(s) -> frozenset:
    return frozenset(xs for _, xs in s)


@settings(max_examples=400, deadline=None)
@given(_translated_pairs())
def test_prop_hom_is_the_cone_test_and_factorize_agrees(case):
    # membership and the cone test agree with the per-event rule, on a fresh
    # category and on one that has seen earlier examples; factorize_morphism
    # refuses exactly the pairs that hom refuses, and factorises the others
    # into a restriction of the source and |gap| steps onto the target
    d, reversed_, s, g = case
    omega = DiamondLattice(d, -1 if reversed_ else 1)
    fresh = foliation_category_of_lattice(omega)
    shared = _SHARED_CATEGORIES.setdefault((d, reversed_), foliation_category_of_lattice(omega))
    want = _reference_hom(fresh, s, g)
    for cat in (fresh, shared):
        assert cat.contains(s) == _reference_member(cat.order, s)
        assert cat.hom(s, g) == want
    config = PartitionedCCAConfig(d=d, cell_dim=1, scattering=np.eye(1))
    direction = fresh.order.arrow
    pair = cca._slice_pair(s, g, omega)
    assert (pair is None) == (not want)
    if not want:
        theory = build_cca(config) if direction > 0 else build_reversal(config)
        with pytest.raises(BadParams):
            theory.mor_fn(s, g)
        return
    steps = factorize_morphism(config, pair)
    assert steps[0][:2] == ("restrict", _sites(s)) and steps[-1][2] == _sites(g)
    assert [kind for kind, *_ in steps[1:]] == ["step"] * (len(steps) - 1)
    assert len(steps) - 1 == (abs(next(iter(g))[0] - next(iter(s))[0]) if s and g else 0)


# -- dirac ---------------------------------------------------------------------------------

def test_dirac_scattering_m0_is_swap():
    assert np.max(np.abs(dirac_scattering(0.0, 0.1) - SWAP)) == 0.0


def test_dirac_scattering_unitary_and_block():
    m, eps = 0.7, 0.05
    u = dirac_scattering(m, eps)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    th = m * eps
    want = np.array([[-1j * np.sin(th), np.cos(th)], [np.cos(th), -1j * np.sin(th)]])
    assert np.max(np.abs(u[1:3, 1:3] - want)) < 1e-15
    # middle block equals the 2x2 exponential computed independently
    sx = np.array([[0, 1], [1, 0]])
    from scipy.linalg import expm

    assert np.max(np.abs(u[1:3, 1:3] - sx @ expm(-1j * th * sx))) < 1e-12


def test_mass_zero_transport_exact():
    sites = 16
    psi = np.zeros((2, sites), dtype=complex)
    psi[0, 4] = 1.0  # right mover
    states = run_single_particle(psi, mass_coin(0.0, 0.1), 5)
    for k, st in enumerate(states):
        probs = site_probabilities(st)
        assert probs[(4 + k) % sites] == 1.0


def test_single_particle_norm_conserved():
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
    psi /= np.linalg.norm(psi)
    states = run_single_particle(psi, mass_coin(0.4, 0.1), 40)
    norms = [np.linalg.norm(s) for s in states]
    assert max(abs(n - 1.0) for n in norms) < 1e-12


def test_single_particle_matches_ring_kernel():
    # the fast path agrees with the full automaton run through the kernels
    m, eps, sites = 0.6, 0.3, 6
    c = dirac_config(m, eps)
    obj = ring_step_morphism(c, sites).dom
    step = ring_step_morphism(c, sites)
    rng = np.random.default_rng(9)
    amp = rng.normal(size=(2, sites)) + 1j * rng.normal(size=(2, sites))
    amp /= np.linalg.norm(amp)
    # embed the one-particle state into the full ring Hilbert space
    vec = np.zeros(obj.dim, dtype=complex)
    nfac = 2 * sites
    for x in range(sites):
        for j, _dlt in enumerate(((-1,), (1,))):
            bit = x * 2 + j
            vec[1 << (nfac - 1 - bit)] += amp[j, x]
    rho = P.state(obj, np.outer(vec, vec.conj()))
    evolved = P.apply(step, rho)
    fast = single_particle_step(amp, mass_coin(m, eps))
    vec2 = np.zeros(obj.dim, dtype=complex)
    for x in range(sites):
        for j, _dlt in enumerate(((-1,), (1,))):
            bit = x * 2 + j
            vec2[1 << (nfac - 1 - bit)] += fast[j, x]
    want = np.outer(vec2, vec2.conj())
    assert np.max(np.abs(evolved.data - want)) < 1e-12


def test_ring_marginals():
    c = dirac_config(0.0, 0.1)
    sites = 4
    obj = ring_step_morphism(c, sites).dom
    vec = np.zeros(obj.dim, dtype=complex)
    vec[1 << (2 * sites - 1 - 2)] = 1.0  # excitation at site 1, slot -1
    marg = ring_site_marginals(c, np.abs(vec) ** 2, sites)
    assert np.allclose(marg, [0, 1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("backend", [P.QUANTUM, P.CLASSICAL])
@pytest.mark.parametrize("sites", [2, 4])
def test_ring_site_marginals_match_per_site_partial_traces(backend, sites):
    # the one pass over the diagonal sums in the order of one partial trace
    # (marginal sum) per site, so the two agree bit for bit
    rng = np.random.default_rng(sites)
    c = cfg(u=np.eye(4)[rng.permutation(4)], backend=backend)
    obj = ring_step_morphism(c, sites).dom
    if backend == P.QUANTUM:
        rho = P.state(obj, random_density(rng, obj.dim))
    else:
        p = rng.random(obj.dim)
        rho = P.state(obj, p / p.sum())
    m = c.cell_factors
    want = []
    for i in range(sites):
        drop = [j for j in range(m * sites) if not i * m <= j < (i + 1) * m]
        local = P.apply(P.discard(obj, drop), rho).data.reshape(-1)
        want.append(1.0 - float(np.real(local[0])))
    diag = np.real(np.diagonal(rho.data)) if backend == P.QUANTUM else rho.data
    assert np.array_equal(ring_site_marginals(c, diag, sites), want)


def test_dirac_convergence_second_order():
    devs = dirac_convergence_deviations(m=1.0, t_phys=4.0, eps0=0.2, halvings=3)
    ratios = [devs[i] / devs[i + 1] for i in range(3)]
    for r in ratios:
        assert 3.0 <= r <= 5.0, ratios


# -- samplers ---------------------------------------------------------------------------------

def test_window_morphisms_are_homs():
    cat = foliation_category_of_lattice(lattice(1))
    pairs = window_morphisms(0, 2, 0, 4, 2)
    assert pairs
    for s, g in pairs:
        assert cat.hom(s, g)


@pytest.mark.parametrize("window", [(0, 2, 0, 4, 2), (0, 3, -4, 6, 3)])
def test_window_morphisms_match_brute_force(window):
    # the brute-force double loop over cat.hom, order included: seeded
    # samplers index into this list
    t0, t1, lo, hi, max_sites = window
    cat = foliation_category_of_lattice(lattice(1))
    slices = [s for t in range(t0, t1 + 1) for s in window_slices(t, lo, hi, max_sites)]
    want = [(s, g) for s in slices for g in slices if not (not s and g) and cat.hom(s, g)]
    assert window_morphisms(*window) == want


def test_check_window_is_built_once_per_process(monkeypatch):
    # the law-check suites sample from one window; it is built on the first
    # call only, and every seed still draws the same morphisms from it
    calls = []
    monkeypatch.setattr(cca, "window_morphisms", lambda *a: calls.append(a) or window_morphisms(*a))
    cca._check_window.cache_clear()
    want = window_morphisms(0, 3, -4, 6, 3)
    for seed in (0, 7):
        got = [cca._draw(np.random.default_rng(seed), cca._check_window(), 12) for _ in range(2)]
        idx = np.random.default_rng(seed).choice(len(want), size=12, replace=False)
        assert got[0] == got[1] == [want[i] for i in idx]
    assert calls == [(0, 3, -4, 6, 3)]


@pytest.mark.parametrize("samples", [12, 50])
def test_check_triples_draw_the_oracle_triples(samples):
    # every seed draws the same triples by index as from the whole list
    oracle = composable_triples_oracle(cca._check_window())
    assert len(cca._check_triples()) == len(oracle) == 13069
    for seed in range(8):
        got = cca._draw(np.random.default_rng(seed), cca._check_triples(), samples)
        assert got == cca._draw(np.random.default_rng(seed), oracle, samples)


def test_check_triples_are_addressed_not_built():
    # the check window's triples hold its pairs, their continuations and
    # prefix counts (~80 KB), not the ~0.9 MB of every triple, and a draw
    # leaves nothing behind
    window = cca._check_window()
    cca._draw(np.random.default_rng(0), window, 50)
    tracemalloc.start()
    try:
        triples = composable_triples(window)
        built, peak = tracemalloc.get_traced_memory()
        assert peak < 200_000, peak
        for seed in range(8):
            cca._draw(np.random.default_rng(seed), triples, 50)
        assert tracemalloc.get_traced_memory()[0] - built < 1_000
    finally:
        tracemalloc.stop()


def test_window_slices_count():
    got = window_slices(0, 0, 6, 3)
    # 4 sites at parity 0 in [0, 6]; subsets of size <= 3
    assert len(got) == 1 + 4 + 6 + 4


def test_sampled_quads_valid():
    cat = foliation_category_of_lattice(lattice(1))
    quads = sample_separated_quads(np.random.default_rng(12), 20)
    for s, sp, g, gp in quads:
        assert cat.tensor_defined(s, g)
        assert cat.tensor_defined(sp, gp)
        assert cat.hom(s, sp) and cat.hom(g, gp)


def test_sampled_zigzag_chains_alternate():
    # the sampler checks no chain: each link must be a morphism of the
    # forward category (even links) or of the reversed one (odd links)
    cats = (foliation_category_of_lattice(lattice(1)), foliation_category_of_lattice(reverse(lattice(1))))
    for seed in range(80):
        for a, b in sample_zigzag_chain_pairs(np.random.default_rng(seed), 8):
            assert a[0] == b[0] and a[-1] == b[-1]
            for chain in (a, b):
                assert len(chain) % 2 == 0 and len(chain) <= 6
                for i, (src, tgt) in enumerate(itertools.pairwise(chain)):
                    assert cats[i % 2].hom(src, tgt), (seed, chain, i)
