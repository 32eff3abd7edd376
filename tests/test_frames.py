import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from meronome.frames import (
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
    DensityOperator,
    Operator,
    StateVector,
    distance_up_to_phase,
    partial_trace,
    phase_fix,
)
from meronome.sampling import haar_unitary, random_m_element, random_product_state, random_state, seeded

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
    rho = partial_trace(DensityOperator.from_state(state), split, keep=0)
    return np.sort(np.linalg.eigvalsh(rho.entries))[::-1]


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
        assert_allclose(elem.act(state.amps), dense, atol=1e-13)
        assert_allclose(apply_element(elem, state, split).amps, dense, atol=1e-13)
    assert swaps == ({False, True} if d1 == d2 else {False})


@pytest.mark.parametrize("d", [2, 3, 5])
def test_swapped_operator_is_kron_times_swap_matrix(d):
    rng = seeded(d)
    for _ in range(20):
        elem = MeronomicElement(haar_unitary(d, rng), haar_unitary(d, rng), swap=True)
        expected = np.kron(elem.v.entries, elem.w.entries) @ swap_operator(d).entries
        np.testing.assert_array_equal(elem.to_operator().entries, expected)


def test_singlet_is_isotropic():
    # V (x) V leaves the odd Bell state alone up to phase
    rng = seeded(4)
    singlet = StateVector(BELLS["psi-"])
    for _ in range(100):
        v = haar_unitary(2, rng)
        elem = MeronomicElement(v, v)
        moved = apply_element(elem, singlet, S22)
        assert abs(abs(singlet.overlap(moved)) - 1.0) < 1e-10


def test_apply_element_split_mismatch():
    elem = MeronomicElement.identity(S22)
    with pytest.raises(ValueError):
        apply_element(elem, random_state(6, seeded(0)), BipartiteSplit(2, 3))


# ---------------------------------------------------------------- worked frames

def test_bell_frame_unitary_is_unitary():
    u = bell_frame_unitary()
    assert np.abs(u.dag().entries @ u.entries - np.eye(4)).max() < 1e-12


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
    for split in (S22, BipartiteSplit(2, 3), BipartiteSplit(3, 3)):
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


@given(
    seed=st.integers(0, 2**32 - 1),
    log_eps=st.floats(-9.0, -2.0),
    shape=st.sampled_from([(2, 2, False), (2, 2, True), (2, 3, False)]),
    tol=st.sampled_from([1e-8, 1e-6]),
)
def test_member_verdict_means_residual_within_tol(seed, log_eps, shape, tol):
    # A group element kicked off the group by exp(i eps H): whatever the
    # verdict, it must agree with the residual it reports.
    d1, d2, swap = shape
    rng = seeded(seed)
    elem = MeronomicElement(haar_unitary(d1, rng), haar_unitary(d2, rng), swap)
    a = rng.standard_normal((d1 * d2,) * 2) + 1j * rng.standard_normal((d1 * d2,) * 2)
    values, vectors = np.linalg.eigh(a + a.conj().T)
    kick = (vectors * np.exp(1j * 10**log_eps * values)) @ vectors.conj().T
    result = factor_as_local(Operator(elem.to_operator().entries @ kick), BipartiteSplit(d1, d2), tol)
    if result.verdict is Membership.NOT_MEMBER:
        assert result.residual > tol
    else:
        assert result.residual <= tol


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
        classify(u.apply(random_product_state(S22, rng)), S22) is not Entanglement.PRODUCT
        for _ in range(20)
    )
    assert hits >= 1


def test_factor_rejects_non_unitary():
    with pytest.raises(ValueError):
        factor_as_local(Operator(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex)), S22)


def test_factor_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        factor_as_local(Operator.identity(4), BipartiteSplit(2, 3))


def _oracle_try_product_form(mat, split, tol):
    # The one-matrix-at-a-time membership step that the stacked one replaced: kept as the reference.
    d1, d2 = split.d1, split.d2
    p, s, qh = np.linalg.svd(mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2))
    if s[0] ** 2 < (1.0 - tol) * d1 * d2:
        return None, float(np.sqrt(max(d1 * d2 - s[0] ** 2, 0.0)))
    ua, _, vha = np.linalg.svd(p[:, 0].reshape(d1, d1))
    ub, _, vhb = np.linalg.svd(qh[0, :].reshape(d2, d2))
    v, w = ua @ vha, ub @ vhb
    flat, phases = phase_fix(v.reshape(-1, 1))
    v, w = flat.reshape(d1, d1), w * phases[0]
    residual = distance_up_to_phase(mat, np.kron(v, w))
    return ((v, w) if residual <= tol else None), residual


def _oracle_factor_as_local(u, split, tol):
    branches = [(Membership.LOCAL, u)]
    if split.d1 == split.d2:
        branches.append((Membership.SWAP_LOCAL, u @ swap_operator(split.d1).entries))
    best = np.inf
    for verdict, mat in branches:
        factors, residual = _oracle_try_product_form(mat, split, tol)
        if factors is not None:
            return verdict, factors, residual
        best = min(best, residual)
    return Membership.NOT_MEMBER, None, float(best)


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3)])
def test_stacked_membership_matches_the_one_matrix_oracle(d1, d2):
    split, rng = BipartiteSplit(d1, d2), seeded(40 + 3 * d1 + d2)
    cases = []
    for _ in range(30):
        v, w = haar_unitary(d1, rng), haar_unitary(d2, rng)
        for swap in (False, True) if d1 == d2 else (False,):
            cases.append(MeronomicElement(v, w, swap).to_operator().entries)
        cases.append(haar_unitary(d1 * d2, rng).entries)
        kick = np.diag(np.exp(1j * 1e-5 * rng.standard_normal(d1 * d2)))  # factors form, residual exceeds tol
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


def test_schmidt_preserved_by_elements():
    rng = seeded(3)
    for split in (S22, BipartiteSplit(2, 3)):
        for _ in range(50):
            elem = random_m_element(split, rng)
            state = random_state(split.dim, rng)
            before = schmidt_decompose(state, split).params
            after = schmidt_decompose(apply_element(elem, state, split), split).params
            assert np.abs(before - after).max() < 1e-9
