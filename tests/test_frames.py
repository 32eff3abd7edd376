import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from meronome.frames import (
    ElementStack,
    Entanglement,
    Membership,
    MeronomicElement,
    ab_pauli,
    apply_element,
    bell_frame_unitary,
    classify,
    factor_as_local,
    pauli,
    schmidt_decompose,
    spin_hamiltonian,
    swap_operator,
    theta_frame_unitary,
)
from meronome.linalg import (
    BipartiteSplit,
    Operator,
    StateVector,
    distance_up_to_phase,
    phase_fix,
    unitary_defect,
)
from meronome.sampling import (
    haar_unitary_batch,
    random_m_element,
    random_m_elements,
    random_state,
    random_states,
    seeded,
)

S22 = BipartiteSplit(2, 2)
ISQ2 = 1.0 / np.sqrt(2.0)

BELLS = {
    "phi+": np.array([ISQ2, 0, 0, ISQ2], dtype=complex),
    "phi-": np.array([ISQ2, 0, 0, -ISQ2], dtype=complex),
    "psi+": np.array([0, ISQ2, ISQ2, 0], dtype=complex),
    "psi-": np.array([0, ISQ2, -ISQ2, 0], dtype=complex),
}
UPSILON = StateVector(0.5 * np.array([1.0, -1.0j, 1.0j, 1.0]))
PLUS_PLUS = StateVector(np.full(4, 0.5, dtype=complex))


# ---------------------------------------------------------------- Schmidt analysis

def test_schmidt_params_product_state():
    state = StateVector.basis(4, 0)
    assert_allclose(schmidt_decompose(state, S22).params, [1.0, 0.0], atol=1e-12)


def test_schmidt_params_bell():
    assert_allclose(schmidt_decompose(StateVector(BELLS["phi+"]), S22).params, [0.5, 0.5], atol=1e-12)


def _reduced_eigenvalues(state: StateVector, split: BipartiteSplit) -> np.ndarray:
    amps = state.amps.reshape(split.d1, split.d2)  # the first factor's reduced state is Psi Psi^dag
    return np.sort(np.linalg.eigvalsh(amps @ amps.conj().T))[::-1]


@pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2, 0.9, 2.5])
def test_schmidt_params_theta_family(theta):
    state = theta_frame_unitary(theta).apply(PLUS_PLUS)
    params = schmidt_decompose(state, S22).params
    lam_plus = (1 + abs(np.cos(theta / 2))) / 2
    assert_allclose(params, [lam_plus, 1 - lam_plus], atol=1e-9)
    # independent oracle: eigenvalues of the reduced density operator
    assert_allclose(params, _reduced_eigenvalues(state, S22), atol=1e-9)


def test_schmidt_reconstruction_random():
    rng = seeded(2)
    for split in (S22, BipartiteSplit(2, 3), BipartiteSplit(3, 4)):
        for _ in range(30):
            state = random_state(split.dim, rng)
            dec = schmidt_decompose(state, split)
            assert np.abs(dec.reconstruct().amps - state.amps).max() < 1e-10
            assert abs(dec.params.sum() - 1.0) < 1e-9


def test_schmidt_left_columns_are_phase_pinned():
    rng = seeded(3)
    for split in (S22, BipartiteSplit(3, 2), BipartiteSplit(2, 4)):
        for _ in range(10):
            dec = schmidt_decompose(random_state(split.dim, rng), split)
            for col in dec.left.T:
                pivot = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
                assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_schmidt_rejects_wrong_dim():
    with pytest.raises(ValueError):
        schmidt_decompose(StateVector.basis(4, 0), BipartiteSplit(2, 3))


# ---------------------------------------------------------------- classification

def test_classify_upsilon_both_frames():
    assert classify(UPSILON, S22) is Entanglement.PRODUCT
    in_bell_frame = bell_frame_unitary().apply(UPSILON)
    assert classify(in_bell_frame, S22) is Entanglement.MAXIMALLY_ENTANGLED
    assert_allclose(schmidt_decompose(in_bell_frame, S22).params, [0.5, 0.5], atol=1e-12)


def test_classify_theta_grid():
    expected = {
        0.0: Entanglement.PRODUCT,
        np.pi / 4: Entanglement.ENTANGLED,
        np.pi / 2: Entanglement.ENTANGLED,
        np.pi: Entanglement.MAXIMALLY_ENTANGLED,
    }
    for theta, cls in expected.items():
        state = theta_frame_unitary(theta).apply(PLUS_PLUS)
        assert classify(state, S22) is cls, theta


def test_classify_trivial_split_prefers_product():
    state = StateVector(BELLS["phi+"])
    assert classify(state, BipartiteSplit(1, 4)) is Entanglement.PRODUCT
    assert classify(state, BipartiteSplit(4, 1)) is Entanglement.PRODUCT


def _schmidt_state(params) -> StateVector:
    # sqrt(p0)|00> + sqrt(p1)|11> has Schmidt parameters (p0, p1) on the 2x2 split
    return StateVector(np.sqrt(np.array([params[0], 0, 0, params[1]], dtype=complex)))


def test_classify_keeps_the_classes_apart_below_a_quarter():
    tol = 0.2499
    assert classify(StateVector(BELLS["phi+"]), S22, tol) is Entanglement.MAXIMALLY_ENTANGLED
    assert classify(StateVector.basis(4, 0), S22, tol) is Entanglement.PRODUCT
    assert classify(_schmidt_state((0.75, 0.25)), S22, tol) is Entanglement.ENTANGLED


@pytest.mark.parametrize("tol", [0.25, 0.3, 0.6, 0.0, -1e-3, np.nan])
def test_classify_rejects_a_tolerance_at_which_a_state_passes_both_tests(tol):
    # at 1/4 the parameters (3/4, 1/4) are within tol of product and of maximally entangled alike
    with pytest.raises(ValueError, match=re.escape("tol must lie in (0, 1/4)")):
        classify(_schmidt_state((0.75, 0.25)), S22, tol)


def test_classify_invariant_under_elements():
    rng = seeded(9)
    states = [UPSILON, StateVector(BELLS["psi-"]),
              theta_frame_unitary(0.7).apply(PLUS_PLUS)]
    for _ in range(25):
        elem = random_m_element(S22, rng)
        for state in states:
            assert classify(apply_element(elem, state, S22), S22) is classify(state, S22)


# ---------------------------------------------------------------- group elements

def test_element_validation():
    good = Operator(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        MeronomicElement(Operator(np.diag([1.0, 0.5]).astype(complex)), good)
    with pytest.raises(ValueError):
        MeronomicElement(good, Operator(np.eye(3, dtype=complex)), swap=True)


def test_element_names_the_factor_type_it_expects():
    with pytest.raises(TypeError, match="factors must be Operators, got ndarray and ndarray"):
        MeronomicElement(np.eye(2), np.eye(2))
    with pytest.raises(TypeError, match="factors must be Operators, got Operator and list"):
        MeronomicElement(Operator.identity(2), [[1, 0], [0, 1]])


def test_apply_identity_element():
    elem = MeronomicElement.identity(S22)
    assert_allclose(apply_element(elem, UPSILON, S22).amps, UPSILON.amps)


def test_apply_swap_element_on_basis():
    eye = Operator.identity(2)
    elem = MeronomicElement(eye, eye, swap=True)
    ket01 = StateVector.basis(4, 0b01)
    assert_allclose(apply_element(elem, ket01, S22).amps, StateVector.basis(4, 0b10).amps)


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_factored_action_matches_dense_matrix(d1, d2):
    split = BipartiteSplit(d1, d2)
    rng = seeded(12)
    swaps = set()
    for _ in range(12):
        elem = random_m_element(split, rng)
        swaps.add(elem.swap)
        state = random_state(split.dim, rng)
        dense = elem.to_operator().entries @ state.amps
        assert_allclose(apply_element(elem, state, split).amps, dense, atol=1e-13)
    assert swaps == ({False, True} if d1 == d2 else {False})


@pytest.mark.parametrize("d", [2, 3, 5])
def test_swapped_operator_is_kron_times_swap_matrix(d):
    rng = seeded(d)
    for _ in range(20):
        elem = MeronomicElement(*map(Operator, haar_unitary_batch(d, 2, rng)), swap=True)
        expected = np.kron(elem.v.entries, elem.w.entries) @ swap_operator(d).entries
        np.testing.assert_array_equal(elem.to_operator().entries, expected)


def test_singlet_is_isotropic():
    # V (x) V leaves the odd Bell state alone up to phase
    rng = seeded(4)
    singlet = StateVector(BELLS["psi-"])
    for _ in range(100):
        v = Operator(haar_unitary_batch(2, 1, rng)[0])
        elem = MeronomicElement(v, v)
        moved = apply_element(elem, singlet, S22)
        assert abs(abs(singlet.overlap(moved)) - 1.0) < 1e-10


def test_element_stack_validation():
    v, w = haar_unitary_batch(2, 3, seeded(0)), haar_unitary_batch(3, 3, seeded(1))
    ElementStack(v, w, np.zeros(3, dtype=bool))
    scaled, nan, inf = v.copy(), v.copy(), v.copy()
    scaled[1] *= 1 + 1e-9
    nan[2, 0, 0] = np.nan
    inf[0, 1, 0] = np.inf
    for bad in (scaled, nan, inf):
        with pytest.raises(ValueError, match="factors of a meronomic element must be unitary"):
            ElementStack(bad, w, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="factor swap requires equal subsystem dimensions"):
        ElementStack(v, w, np.array([False, True, False]))
    for shapes in ((v[0], w, np.zeros(3, bool)), (v, w[:2], np.zeros(3, bool)), (v, w, np.zeros((3, 1), bool))):
        with pytest.raises(ValueError, match=re.escape("expected shapes (n, d1, d1), (n, d2, d2), (n,)")):
            ElementStack(*shapes)
    with pytest.raises(ValueError, match="one split"):
        ElementStack.from_elements([MeronomicElement.identity(S22), MeronomicElement.identity(BipartiteSplit(2, 3))])
    with pytest.raises(ValueError, match="one split"):
        ElementStack.from_elements([])


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (4, 4)])
def test_element_stack_rows_are_its_count1_views(d1, d2):
    split = BipartiteSplit(d1, d2)
    rng = seeded(13)
    stack = random_m_elements(split, 40, rng)
    assert stack.swaps.shape == (40,) and stack.split == split
    assert d1 != d2 or 0 < stack.swaps.sum() < 40
    amps = random_states((split.dim,), 40 * 3, rng).reshape(40, 3, split.dim)
    images, mats = stack.act(amps), stack.operators()
    rows = [stack[i] for i in range(40)]
    for elem, amp, image, mat in zip(rows, amps, images, mats):
        assert elem.split == split
        for probe, moved in zip(amp, image):
            assert np.array_equal(apply_element(elem, StateVector(probe), split).amps, moved)  # bitwise
        assert np.array_equal(elem.to_operator().entries, mat)
        assert_allclose(mat @ amp.T, image.T, atol=1e-13)
    restacked = ElementStack.from_elements(rows)
    for name in ("v", "w", "swaps"):
        assert np.array_equal(getattr(restacked, name), getattr(stack, name))


def test_element_stack_act_takes_one_state_row_per_element():
    # a one-row stack does not broadcast over several states, and no shape reaches numpy's reshape errors
    one, three = random_m_elements(S22, 1, seeded(0)), random_m_elements(BipartiteSplit(2, 3), 3, seeded(1))
    cases = [(one, (3, 4)), (three, (1, 6)), (three, (2, 6)), (three, (3, 4)), (three, (6,)), (three, (3, 2, 3))]
    for stack, shape in cases:
        n, split = len(stack.swaps), stack.split
        expected = f"a stack of {n} on {split.d1}x{split.d2} acts on amplitudes ({n}, ..., {split.dim}), got {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            stack.act(np.zeros(shape, dtype=complex))


def test_apply_element_split_mismatch():
    elem = MeronomicElement.identity(S22)
    with pytest.raises(ValueError, match="^element acts on 2x2, state split is 2x3$"):
        apply_element(elem, random_state(6, seeded(0)), BipartiteSplit(2, 3))


def test_apply_element_rejects_wrong_state_dim_at_the_boundary():
    elem, state = MeronomicElement.identity(S22), random_state(6, seeded(0))
    for call in (lambda: apply_element(elem, state, S22), lambda: schmidt_decompose(state, S22)):
        with pytest.raises(ValueError, match=r"^state dim 6 does not match split 2x2$"):
            call()


# ---------------------------------------------------------------- worked frames

def test_bell_frame_unitary_is_unitary():
    u = bell_frame_unitary()
    assert unitary_defect(u.entries) < 1e-12


def test_bell_frame_maps_bells_to_basis():
    u = bell_frame_unitary()
    order = ["phi+", "phi-", "psi+", "psi-"]
    for index, name in enumerate(order):
        image = u.apply(StateVector(BELLS[name]))
        assert_allclose(image.amps, StateVector.basis(4, index).amps, atol=1e-12)


def test_theta_frame_zero_is_identity():
    assert_allclose(theta_frame_unitary(0.0).entries, np.eye(4))


def test_theta_frame_entry():
    theta = 1.234
    u = theta_frame_unitary(theta).entries
    assert_allclose(u, np.diag([1, 1, 1, np.exp(-1j * theta)]), atol=1e-15)


# ---------------------------------------------------------------- Pauli dictionary

_DICTIONARY = {
    ("X", "A"): ("I", "X", 1.0),
    ("Y", "A"): ("Z", "Y", 1.0),
    ("Z", "A"): ("Z", "Z", 1.0),
    ("X", "B"): ("Z", "I", 1.0),
    ("Y", "B"): ("Y", "X", -1.0),
    ("Z", "B"): ("X", "X", 1.0),
}


def test_pauli_dictionary_entries():
    for (label, side), (left, right, sign) in _DICTIONARY.items():
        expected = sign * np.kron(pauli(left).entries, pauli(right).entries)
        assert np.array_equal(ab_pauli(label, side).entries, expected), (label, side)


def test_pauli_dictionary_matches_frame_conjugation():
    # independent oracle: conjugate sigma (x) 1 / 1 (x) sigma by the frame change
    u = bell_frame_unitary().entries
    eye = np.eye(2, dtype=complex)
    for side in "AB":
        for label in "XYZ":
            sigma = pauli(label).entries
            frame_op = np.kron(sigma, eye) if side == "A" else np.kron(eye, sigma)
            assert np.abs(ab_pauli(label, side).entries - u.conj().T @ frame_op @ u).max() < 1e-12


def test_pauli_dictionary_algebra():
    ops = {(label, side): ab_pauli(label, side).entries for label in "XYZ" for side in "AB"}
    for (l1, s1), (l2, s2) in itertools.product(ops, repeat=2):
        a, b = ops[(l1, s1)], ops[(l2, s2)]
        if s1 != s2:
            assert np.abs(a @ b - b @ a).max() < 1e-12, (l1, s1, l2, s2)
        elif l1 == l2:
            assert np.abs(a @ a - np.eye(4)).max() < 1e-12, (l1, s1)
        else:
            assert np.abs(a @ b + b @ a).max() < 1e-12, (l1, s1, l2, s2)


def test_ab_pauli_rejects_unknown():
    with pytest.raises(ValueError):
        ab_pauli("Q", "A")
    with pytest.raises(ValueError):
        ab_pauli("X", "C")


def test_spin_hamiltonian_zero():
    assert_allclose(spin_hamiltonian(0.0, 0.0).entries, np.zeros((4, 4)))


def test_spin_hamiltonian_is_sum_of_sides():
    rng = seeded(13)
    for _ in range(10):
        alpha, beta = rng.standard_normal(2)
        ham = spin_hamiltonian(alpha, beta).entries
        split_form = alpha * ab_pauli("Z", "A").entries + beta * ab_pauli("Z", "B").entries
        assert np.abs(ham - split_form).max() < 1e-12
        zz, xx = (np.kron(pauli(p).entries, pauli(p).entries) for p in "ZX")
        assert np.array_equal(ham, alpha * zz + beta * xx)
        expected = sorted([alpha + beta, alpha - beta, -alpha + beta, -alpha - beta], reverse=True)
        assert_allclose(sorted(np.linalg.eigvalsh(ham), reverse=True), expected, atol=1e-10)


# ---------------------------------------------------------------- membership

def test_factor_constructed_members():
    rng = seeded(21)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 2), (1, 4), (4, 1)]
    for split in (BipartiteSplit(d1, d2) for d1, d2 in shapes):
        for _ in range(40):
            elem = random_m_element(split, rng)
            result = factor_as_local(elem.to_operator(), split)
            expected = Membership.SWAP_LOCAL if elem.swap else Membership.LOCAL
            assert result.verdict is expected
            assert result.residual < 1e-8
            v, w = result.factors
            recon = np.kron(v.entries, w.entries)
            if elem.swap:
                recon = recon @ swap_operator(split.d1).entries
            assert distance_up_to_phase(elem.to_operator().entries, recon) < 1e-8
        if min(split.d1, split.d2) == 1:  # on a trivial factor every unitary is Local
            u = haar_unitary_batch(split.dim, 1, rng)[0]
            result = factor_as_local(Operator(u), split)
            assert result.verdict is Membership.LOCAL and result.residual < 1e-8
            assert distance_up_to_phase(u, np.kron(*(f.entries for f in result.factors))) < 1e-8


def _kicked_member(split, eps, rng, swap=False):
    # A group element kicked off the group by exp(i eps H), H a Hermitian Gaussian matrix.
    d = split.dim
    v, w = Operator(haar_unitary_batch(split.d1, 1, rng)[0]), Operator(haar_unitary_batch(split.d2, 1, rng)[0])
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    values, vectors = np.linalg.eigh(a + a.conj().T)
    kick = (vectors * np.exp(1j * eps * values)) @ vectors.conj().T
    return MeronomicElement(v, w, swap).to_operator().entries @ kick


@given(
    seed=st.integers(0, 2**32 - 1),
    log_eps=st.floats(-9.0, -2.0),
    shape=st.sampled_from([(2, 2, False), (2, 2, True), (2, 3, False), (3, 3, True), (3, 2, False)]),
    tol=st.sampled_from([1e-8, 1e-6]),
)
def test_member_verdict_means_residual_within_tol(seed, log_eps, shape, tol):
    # Whatever the verdict on a kicked member, it must agree with the residual it reports.
    d1, d2, swap = shape
    split = BipartiteSplit(d1, d2)
    result = factor_as_local(Operator(_kicked_member(split, 10**log_eps, seeded(seed), swap)), split, tol)
    if result.verdict is Membership.NOT_MEMBER:
        assert result.residual > tol
    else:
        assert result.residual <= tol


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 2.0])
def test_factor_as_local_rejects_a_tol_outside_the_unit_interval(tol):
    # Outside (0, 1) a verdict means nothing: at -1 the identity is NotMember, and at 2 the square root of the swap
    # lies within tol of both the identity and the swap, so it would be Local and SwapLocal at once.
    for u in (Operator.identity(4), Operator(haar_unitary_batch(4, 1, seeded(0))[0])):
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, 1), got {tol}")):
            factor_as_local(u, S22, tol)


def test_factor_swap_matrix():
    result = factor_as_local(swap_operator(2), S22)
    assert result.verdict is Membership.SWAP_LOCAL
    v, w = result.factors
    assert_allclose(v.entries, np.eye(2), atol=1e-12)
    assert_allclose(w.entries, np.eye(2), atol=1e-12)


def test_factor_phase_convention():
    rng = seeded(6)
    elem = random_m_element(S22, rng)
    result = factor_as_local(elem.to_operator(), S22)
    v = result.factors[0].entries
    pivot = v.flat[np.flatnonzero(np.abs(v) > 1e-12)[0]]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_factor_rejects_bell_frame_change():
    u = bell_frame_unitary()
    result = factor_as_local(u, S22)
    assert result.verdict is Membership.NOT_MEMBER
    assert result.factors is None
    assert result.residual > 0.1
    # oracle: a non-member must move some product state off the product set;
    # the explicit witness is the product state UPSILON ...
    assert classify(u.apply(UPSILON), S22) is not Entanglement.PRODUCT
    # ... and a short random search also finds one
    rng = seeded(17)
    hits = sum(
        classify(u.apply(StateVector(amps)), S22) is not Entanglement.PRODUCT
        for amps in random_states((2, 2), 20, rng)
    )
    assert hits >= 1


def test_factor_rejects_non_unitary():
    for bad in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="^membership test requires a unitary input$"):
            factor_as_local(Operator(np.diag([1.0, 1.0, 1.0, bad]).astype(complex)), S22)


def test_factor_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        factor_as_local(Operator.identity(4), BipartiteSplit(2, 3))


def _realigned(mat, split):
    d1, d2 = split.d1, split.d2
    return mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def _oracle_bound(mat, split):
    # One matrix's bound |s - sqrt(D) e_0| on its realigned singular values s, with the top singular vectors.
    p, s, qh = np.linalg.svd(_realigned(mat, split))
    return math.hypot(math.sqrt(split.dim) - s[0], *s[1:]), p[:, 0], qh[0, :]


def _oracle_factor_as_local(u, split, tol):
    # The one-matrix-at-a-time membership test that the stacked one replaced: kept as the reference.  The branch
    # with the smaller bound decides; its bound is the residual when above tol, else its polar factors' distance.
    d1, d2 = split.d1, split.d2
    branches = [(Membership.LOCAL, u)]
    if d1 == d2:
        branches.append((Membership.SWAP_LOCAL, u @ swap_operator(d1).entries))
    lower, left, right, verdict, mat = min(((*_oracle_bound(m, split), v, m) for v, m in branches), key=lambda c: c[0])
    if lower > tol:
        return Membership.NOT_MEMBER, None, lower
    ua, _, vha = np.linalg.svd(left.reshape(d1, d1))
    ub, _, vhb = np.linalg.svd(right.reshape(d2, d2))
    v, w = ua @ vha, ub @ vhb
    flat, phases = phase_fix(v.reshape(-1, 1))
    v, w = flat.reshape(d1, d1), w * phases[0]
    residual = distance_up_to_phase(mat, np.kron(v, w))
    return (verdict, (v, w), residual) if residual <= tol else (Membership.NOT_MEMBER, None, residual)


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (3, 2)])
def test_stacked_membership_matches_the_one_matrix_oracle(d1, d2):
    split, rng = BipartiteSplit(d1, d2), seeded(40 + 3 * d1 + d2)
    cases = []
    for _ in range(30):
        v, w = Operator(haar_unitary_batch(d1, 1, rng)[0]), Operator(haar_unitary_batch(d2, 1, rng)[0])
        for swap in (False, True) if d1 == d2 else (False,):
            cases.append(MeronomicElement(v, w, swap).to_operator().entries)
        cases.append(haar_unitary_batch(d1 * d2, 1, rng)[0])
        kick = np.diag(np.exp(1j * 1e-5 * rng.standard_normal(d1 * d2)))  # about 1e-5 off the group: the bound decides
        cases.append(cases[-2] @ kick)
    verdicts = set()
    for mat in cases:
        result = factor_as_local(Operator(mat), split, 1e-8)
        verdict, factors, residual = _oracle_factor_as_local(mat, split, 1e-8)
        verdicts.add(verdict)
        assert result.verdict is verdict
        assert result.residual == residual
        if factors is None:
            assert result.factors is None
        else:
            assert all(np.array_equal(got.entries, want) for got, want in zip(result.factors, factors))
    assert verdicts == (set(Membership) if d1 == d2 else {Membership.LOCAL, Membership.NOT_MEMBER})


def _polar(mat):
    left, _, right = np.linalg.svd(mat)
    return left @ right


def _alternating_polar(mat, split, w, steps):
    # Ascend |<v (x) w, mat>| over unitaries: v from w, then w from v, each the polar factor of its linear form.
    r = _realigned(mat, split)
    for _ in range(steps):
        v = _polar((r @ w.reshape(-1).conj()).reshape(split.d1, split.d1))
        w = _polar((r.T @ v.reshape(-1).conj()).reshape(split.d2, split.d2))
    return distance_up_to_phase(mat, np.kron(v, w))


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (3, 2)])
def test_no_sampled_product_unitary_is_closer_than_a_nonmember_residual(d1, d2):
    split, rng = BipartiteSplit(d1, d2), seeded(60 + 3 * d1 + d2)
    swaps = (False, True) if d1 == d2 else (False,)
    cases = [haar_unitary_batch(split.dim, 1, rng)[0] for _ in range(4)]
    cases += [_kicked_member(split, eps, rng, swap) for eps in (1e-3, 1e-2) for swap in swaps]
    for mat in cases:
        result = factor_as_local(Operator(mat), split, 1e-8)
        assert result.verdict is Membership.NOT_MEMBER and result.residual > 1e-8
        v, w = haar_unitary_batch(d1, 200, rng), haar_unitary_batch(d2, 200, rng)
        products = (v[:, :, None, :, None] * w[:, None, :, None, :]).reshape(200, split.dim, split.dim)
        for swap in swaps:
            target = mat @ swap_operator(d1).entries if swap else mat
            closest = min(distance_up_to_phase(target, prod) for prod in products)
            # Local optima from the top singular vector and from random starts come closest of all.
            starts = [_oracle_bound(target, split)[2].reshape(d2, d2), *haar_unitary_batch(d2, 3, rng)]
            polar = min(_alternating_polar(target, split, start, 40) for start in starts)
            assert min(closest, polar) >= result.residual - 1e-12


def test_nonmember_residual_is_the_optimum_on_two_qubits():
    # By the KAK form the top operator-Schmidt vector of a two-qubit unitary is a scaled unitary, so the bound is met
    # from that start; random starts may stop at local optima, which are farther.
    rng = seeded(71)
    for u in haar_unitary_batch(4, 20, rng):
        result = factor_as_local(Operator(u), S22)
        optimum = min(
            _alternating_polar(target, S22, start, 60)
            for target in (u, u @ swap_operator(2).entries)
            for start in (_oracle_bound(target, S22)[2].reshape(2, 2), *haar_unitary_batch(2, 2, rng))
        )
        assert result.verdict is Membership.NOT_MEMBER
        assert abs(result.residual - optimum) < 1e-12


def test_polar_factors_that_miss_tol_give_their_own_distance_as_residual():
    # 10^-1.5 off the group on 2x3 the bound trails the polar factors' distance measurably; a tol between the two
    # passes the bound, so the polar step decides, and its distance (> tol) is the NotMember residual.
    split = BipartiteSplit(2, 3)
    u = Operator(_kicked_member(split, 10**-1.5, seeded(3)))
    bound, polar = factor_as_local(u, split, 1e-8), factor_as_local(u, split, 0.99)
    assert bound.verdict is Membership.NOT_MEMBER and polar.verdict is Membership.LOCAL
    assert bound.residual == _oracle_bound(u.entries, split)[0]
    assert polar.residual - bound.residual > 1e-5
    result = factor_as_local(u, split, (bound.residual + polar.residual) / 2)
    assert result.verdict is Membership.NOT_MEMBER and result.factors is None
    assert result.residual == polar.residual


@pytest.mark.parametrize("d", [2, 3, 4])
def test_near_members_lie_far_from_the_other_branch(d):
    # The swap lies sqrt(2d^2 - 2d) >= 2 from every product unitary, so only one branch can come within a tol < 1.
    split, rng = BipartiteSplit(d, d), seeded(80 + d)
    for eps in 10.0 ** np.arange(-10, -2):
        for swap in (False, True):
            mat = _kicked_member(split, eps, rng, swap)
            plain, swapped = (_oracle_bound(m, split)[0] for m in (mat, mat @ swap_operator(d).entries))
            near, far = (swapped, plain) if swap else (plain, swapped)
            assert near < 1e-1 and far > 1
            expected = Membership.SWAP_LOCAL if swap else Membership.LOCAL
            assert factor_as_local(Operator(mat), split, 1e-1).verdict is expected


def test_schmidt_preserved_by_elements():
    rng = seeded(3)
    for split in (S22, BipartiteSplit(2, 3)):
        for _ in range(50):
            elem = random_m_element(split, rng)
            state = random_state(split.dim, rng)
            before = schmidt_decompose(state, split).params
            after = schmidt_decompose(apply_element(elem, state, split), split).params
            assert np.abs(before - after).max() < 1e-9
