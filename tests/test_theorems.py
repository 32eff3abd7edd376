import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meronome import theorems
from meronome.frames import (
    ElementStack,
    Entanglement,
    MeronomicElement,
    bell_frame_unitary,
    classify,
    factor_as_local,
    swap_operator,
)
from meronome.linalg import TOL_ALGEBRA, TOL_EIGEN, BipartiteSplit, Operator, StateVector
from meronome.sampling import (
    haar_unitary_batch,
    random_m_element,
    random_m_elements,
    random_maxent_state,
    random_maxent_states,
    random_state,
    random_states,
    seeded,
)
from meronome.theorems import (
    PROBES,
    Verdict,
    check_lemma_antihermitian,
    check_lemma_hermitian,
    check_lemmas_suite,
    check_theorem1_suite,
    check_theorem2_suite,
    gamma_delta,
    member_recognition_check,
    nonmember_maxent_check,
    nonmember_product_check,
    relative_unitary,
    schmidt_preservation_check,
)

S22 = BipartiteSplit(2, 2)
ISQ2 = 1.0 / np.sqrt(2.0)
PHI_PLUS = StateVector(np.array([ISQ2, 0, 0, ISQ2], dtype=complex))
PHI_MINUS = StateVector(np.array([ISQ2, 0, 0, -ISQ2], dtype=complex))
PSI_PLUS = StateVector(np.array([0, ISQ2, ISQ2, 0], dtype=complex))
PSI_MINUS = StateVector(np.array([0, ISQ2, -ISQ2, 0], dtype=complex))


def _second_factor(u: np.ndarray, state: StateVector) -> StateVector:
    return StateVector((state.amps.reshape(2, 2) @ u.T).reshape(-1))


def _faulted_element() -> MeronomicElement:
    elem = MeronomicElement.identity(S22)
    object.__setattr__(elem, "w", Operator(np.diag([1.0, 0.5]).astype(complex)))
    return elem


# ---------------------------------------------------------------- verdicts

def test_verdict_witness_discipline():
    Verdict(True, "fine")
    Verdict(False, "broken", witness=np.zeros(4))
    with pytest.raises(ValueError):
        Verdict(True, "fine", witness=np.zeros(4))
    with pytest.raises(ValueError):
        Verdict(False, "broken")


def test_verdict_compares_and_hashes_by_identity():
    # a witness is an array, so field-wise equality would ask numpy for the truth value of an array
    verdict, twin = Verdict(False, "broken", witness=np.zeros(4)), Verdict(False, "broken", witness=np.zeros(4))
    assert verdict == verdict and verdict != twin
    assert len({verdict, twin, verdict}) == 2


# ---------------------------------------------------------------- relative unitary

def test_relative_unitary_pauli_cases():
    assert_allclose(relative_unitary(PHI_PLUS, PHI_PLUS).entries, np.eye(2), atol=1e-12)
    assert_allclose(relative_unitary(PHI_PLUS, PHI_MINUS).entries, np.diag([1, -1]), atol=1e-12)
    assert_allclose(relative_unitary(PHI_PLUS, PSI_PLUS).entries, np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_relative_unitary_reconstructs():
    rng = seeded(12)
    for _ in range(50):
        psi = random_maxent_state(2, rng)
        phi = random_maxent_state(2, rng)
        u = relative_unitary(psi, phi).entries
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-9
        assert np.abs(_second_factor(u, psi).amps - phi.amps).max() < 1e-9


def test_relative_unitary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        relative_unitary(StateVector.basis(4, 0), PHI_PLUS)
    with pytest.raises(ValueError):
        relative_unitary(PHI_PLUS, StateVector.basis(2, 0))


# ---------------------------------------------------------------- lemmas

def test_lemma_antihermitian_construction_passes():
    # i*sigma_z is anti-Hermitian, so the equal superposition stays maximal
    phi = _second_factor(1j * np.diag([1.0, -1.0]).astype(complex), PHI_PLUS)
    verdict = check_lemma_antihermitian(PHI_PLUS, phi)
    assert verdict.passed and verdict.witness is None


def test_lemma_antihermitian_both_sides_false():
    # sigma_z is Hermitian and (phi+ + phi-)/sqrt(2) = |00> is a product:
    # the biconditional holds with both sides false
    verdict = check_lemma_antihermitian(PHI_PLUS, PHI_MINUS)
    assert verdict.passed
    assert "anti-Hermitian=False" in verdict.detail


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0, np.pi - 1e-3])
def test_lemma_antihermitian_rejects_a_superposition_off_unit_norm(theta):
    # u = e^{i theta} 1 is not anti-Hermitian, yet the normalized superposition is psi up to phase: nothing to check
    with pytest.raises(ValueError, match=r"has norm .* need Re<psi\|phi> = 0"):
        check_lemma_antihermitian(PHI_PLUS, StateVector(np.exp(1j * theta) * PHI_PLUS.amps))


def test_lemma_antihermitian_passes_for_an_imaginary_phase():
    # theta = pi/2: u = i 1 is anti-Hermitian and Re<psi|phi> = 0
    verdict = check_lemma_antihermitian(PHI_PLUS, StateVector(1j * PHI_PLUS.amps))
    assert verdict.passed and "anti-Hermitian=True" in verdict.detail


def test_lemma_antihermitian_rejects_an_unrephased_random_pair():
    rng = seeded(5)
    psi, phi = random_maxent_state(2, rng), random_maxent_state(2, rng)
    assert abs(psi.overlap(phi).real) > 1e-3
    with pytest.raises(ValueError, match="has norm"):
        check_lemma_antihermitian(psi, phi)


def test_lemma_hermitian_example():
    verdict = check_lemma_hermitian(PHI_PLUS, PHI_MINUS)
    assert verdict.passed


def test_lemma_hermitian_preconditions():
    with pytest.raises(ValueError):
        check_lemma_hermitian(PHI_PLUS, PHI_PLUS)  # not orthogonal
    anti = _second_factor(1j * np.array([[0, 1], [1, 0]], dtype=complex), PHI_PLUS)
    with pytest.raises(ValueError):
        check_lemma_hermitian(PHI_PLUS, anti)  # relative unitary not Hermitian


def _traceless_hermitian(rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary_batch(2, 1, rng)[0]
    return v @ np.diag([1.0, -1.0]).astype(complex) @ v.conj().T


def test_lemmas_on_constructed_instances():
    rng = seeded(18)
    for _ in range(100):
        base = random_maxent_state(2, rng)
        h = _traceless_hermitian(rng)
        assert check_lemma_antihermitian(base, _second_factor(1j * h, base)).passed
        assert check_lemma_hermitian(base, _second_factor(h, base)).passed


def test_gamma_delta_basis_case():
    gamma, delta = gamma_delta(StateVector.basis(2, 0), StateVector.basis(2, 0))
    assert np.abs(gamma.amps - PHI_PLUS.amps).max() < 1e-12
    assert np.abs(delta.amps - PHI_MINUS.amps).max() < 1e-12


def test_gamma_delta_properties():
    rng = seeded(19)
    for _ in range(50):
        psi, phi = random_state(2, rng), random_state(2, rng)
        gamma, delta = gamma_delta(psi, phi)
        assert classify(gamma, S22) is Entanglement.MAXIMALLY_ENTANGLED
        assert classify(delta, S22) is Entanglement.MAXIMALLY_ENTANGLED
        recombined = (gamma.amps + delta.amps) / np.sqrt(2)
        assert np.abs(recombined - np.kron(psi.amps, phi.amps)).max() < 1e-10
        # the quarter-turn superpositions are maximally entangled as well
        for sign in (1j, -1j):
            twisted = StateVector((gamma.amps + sign * delta.amps) / np.sqrt(2))
            assert classify(twisted, S22) is Entanglement.MAXIMALLY_ENTANGLED


def test_gamma_delta_rejects_wrong_dims():
    with pytest.raises(ValueError):
        gamma_delta(StateVector.basis(4, 0), StateVector.basis(2, 0))


# ---------------------------------------------------------------- single checks

def test_schmidt_preservation_check_passes_members():
    rng = seeded(23)
    elems = random_m_elements(S22, 8, rng)
    verdicts = schmidt_preservation_check(elems, random_states((4,), 8, rng))
    assert len(verdicts) == 8
    assert all(verdict.passed for verdict in verdicts)


def test_schmidt_preservation_check_catches_fault():
    rng = seeded(24)
    [verdict] = schmidt_preservation_check(ElementStack.from_elements([_faulted_element()]), random_states((4,), 1, rng))
    assert not verdict.passed
    assert verdict.witness is not None


def test_schmidt_preservation_check_rejects_a_probe_off_the_unit_sphere():
    states = random_states((4,), 3, seeded(24))
    states[1] *= 1.5
    with pytest.raises(ValueError, match="state vector norm is .*, expected 1 within"):
        schmidt_preservation_check(random_m_elements(S22, 3, seeded(0)), states)


def test_schmidt_preservation_check_takes_one_probe_per_element():
    rng = seeded(26)
    with pytest.raises(ValueError, match=re.escape("a stack of 1 on 2x2 acts on amplitudes (1, ..., 4), got (3, 4)")):
        schmidt_preservation_check(random_m_elements(S22, 1, rng), random_states((4,), 3, rng))


def test_single_checks_of_an_empty_stack_return_no_verdicts():
    rng = seeded(27)
    for split in (S22, BipartiteSplit(2, 3)):
        empty = random_m_elements(split, 0, rng)
        assert schmidt_preservation_check(empty, random_states((split.dim,), 0, rng)) == []
        assert member_recognition_check(empty) == []


def _basis(*indices: int) -> np.ndarray:
    # the normalized equal superposition of computational basis states of two qubits
    amps = np.zeros(4, dtype=complex)
    amps[list(indices)] = 1.0
    return amps / np.linalg.norm(amps)


def test_schmidt_preservation_check_names_the_first_failing_probe_of_a_row():
    # diag(1, 0.5) on the second qubit keeps product probes product but moves |00> + |11> off 1/2, 1/2
    probes = np.array([[_basis(0), _basis(1), _basis(0, 3), _basis(1, 2)]] * 2)
    elems = ElementStack.from_elements([MeronomicElement.identity(S22), _faulted_element()])
    kept, drifted = schmidt_preservation_check(elems, probes)
    assert kept.passed and kept.detail.startswith("Schmidt parameters preserved")
    drifts, _ = theorems._schmidt_drifts(probes[1], probes[1] * [1.0, 0.5, 1.0, 0.5], S22)
    assert drifts[:2].max() < 1e-15 and drifts[2:].min() > 0.1
    assert drifted.detail == f"Schmidt parameters drifted by {drifts.max():.2e} > {TOL_ALGEBRA}"
    assert np.array_equal(drifted.witness, probes[1, 2])


def test_schmidt_preservation_check_reports_annihilation_before_drift():
    # diag(1, 0) on the second qubit keeps |00>, moves |00> + |11> to a product state and annihilates |01>
    elem = MeronomicElement.identity(S22)
    object.__setattr__(elem, "w", Operator(np.diag([1.0, 0.0]).astype(complex)))
    probes = np.array([[_basis(0), _basis(0, 3), _basis(1), _basis(0, 3)]])
    [verdict] = schmidt_preservation_check(ElementStack.from_elements([elem]), probes)
    assert verdict.detail == "element annihilated the probe state"
    assert np.array_equal(verdict.witness, probes[0, 2])


def test_schmidt_preservation_check_reads_one_probe_rows_as_rows_of_one():
    rng = seeded(32)
    rows = [random_m_element(S22, rng) for _ in range(6)]
    rows[2], rows[4] = _faulted_element(), _faulted_element()
    object.__setattr__(rows[4], "w", Operator(np.zeros((2, 2), dtype=complex)))
    elems, states = ElementStack.from_elements(rows), random_states((4,), 6, rng)
    flat, nested = schmidt_preservation_check(elems, states), schmidt_preservation_check(elems, states[:, None])
    assert [v.detail for v in flat] == [v.detail for v in nested]
    assert [v.passed for v in flat] == [True, True, False, True, False, True]
    for verdicts in (flat, nested):
        for verdict, state in zip(verdicts, states):
            assert verdict.witness is None if verdict.passed else np.array_equal(verdict.witness, state)
    assert schmidt_preservation_check(random_m_elements(S22, 0, rng), np.zeros((0, PROBES, 4), dtype=complex)) == []


def test_member_recognition_check():
    rng = seeded(25)
    verdicts = member_recognition_check(random_m_elements(S22, 8, rng))
    assert len(verdicts) == 8
    assert all(verdict.passed for verdict in verdicts)
    [faulted] = member_recognition_check(ElementStack.from_elements([_faulted_element()]))
    assert not faulted.passed and faulted.witness is not None


def _per_element_drift(elem: MeronomicElement, amps: np.ndarray, split: BipartiteSplit):
    # the one-element Schmidt check: v Psi w^T (Psi^T when swapped), then one SVD of the probe and its image
    psi = amps.reshape(split.d1, split.d2)
    image = elem.v.entries @ (psi.T if elem.swap else psi) @ elem.w.entries.T
    before, after = np.linalg.svd(np.array([psi, image]), compute_uv=False) ** 2
    if after.sum() < 1e-24:
        return None
    return float(np.abs(before - after / after.sum()).max())


def _per_element_operator(elem: MeronomicElement) -> Operator:
    # the one-element matrix: kron of the factors, times the swap matrix when swapped
    mat = np.kron(elem.v.entries, elem.w.entries)
    return Operator(mat @ swap_operator(elem.v.dim).entries if elem.swap else mat)


@pytest.mark.parametrize("split", [S22, BipartiteSplit(2, 3)], ids=["2x2", "2x3"])
def test_stacked_checks_match_the_per_element_formulas(split, monkeypatch):
    rng = seeded(40)
    stack = random_m_elements(split, 64, rng)
    rows = [stack[i] for i in range(64)]
    object.__setattr__(rows[30], "w", Operator(2.0 * rows[30].w.entries))  # scaled: a non-member that keeps Schmidt
    object.__setattr__(rows[31], "w", Operator(np.zeros((split.d2, split.d2), dtype=complex)))  # annihilates
    elems = ElementStack.from_elements(rows)
    assert split.d1 != split.d2 or 0 < elems.swaps.sum() < 64
    states = random_states((split.dim,), 64, rng)
    drifts, gone = theorems._schmidt_drifts(states, elems.act(states), split)
    verdicts = schmidt_preservation_check(elems, states)
    for elem, amps, drift, dead, verdict in zip(rows, states, drifts, gone, verdicts):
        expected = _per_element_drift(elem, amps, split)
        assert dead == (expected is None)
        if expected is not None:
            assert drift == expected  # bitwise
            assert verdict.passed == (expected <= TOL_ALGEBRA)
    assert gone.tolist() == [i == 31 for i in range(64)]
    assert verdicts[31].detail == "element annihilated the probe state"
    assert np.array_equal(verdicts[31].witness, states[31])

    calls, results = [], {}

    def recording(u, s, tol):
        calls.append(u.entries)
        results[len(calls) - 1] = factor_as_local(u, s, tol)
        return results[len(calls) - 1]

    monkeypatch.setattr(theorems, "factor_as_local", recording)
    verdicts = member_recognition_check(elems)
    assert len(calls) == 64  # one factor_as_local call per row
    for i, (elem, mat, verdict) in enumerate(zip(rows, calls, verdicts)):
        assert np.array_equal(mat, _per_element_operator(elem).entries)  # bitwise
        if i in (30, 31):
            assert i not in results
            assert verdict.detail == "membership test rejected the element: membership test requires a unitary input"
            continue
        expected = factor_as_local(_per_element_operator(elem), split, theorems.TOL_EIGEN)
        assert results[i].verdict is expected.verdict and results[i].residual == expected.residual  # bitwise
        assert verdict.passed
        assert verdict.detail == f"recognized as {expected.verdict.value} (residual {expected.residual:.2e})"


def _classified_breaks(images: np.ndarray, tol: float) -> list[bool]:
    # the per-probe reference: a zero image, or one that classify, once renormalized, does not call maximally entangled
    maxent = Entanglement.MAXIMALLY_ENTANGLED
    norms = np.linalg.norm(images, axis=1)
    return [n < 1e-12 or classify(StateVector(image / n), S22, tol) is not maxent for image, n in zip(images, norms)]


@pytest.mark.parametrize("tol", [TOL_ALGEBRA, TOL_EIGEN], ids=["TOL_ALGEBRA", "TOL_EIGEN"])
def test_stacked_maximality_matches_per_probe_classify(tol):
    rng = seeded(41)
    members = random_m_elements(S22, 64, rng)
    assert 0 < members.swaps.sum() < 64
    candidates = haar_unitary_batch(4, 64, rng)
    probes = random_maxent_states(2, 128 * PROBES, rng).reshape(128, PROBES, 4)
    images = np.concatenate((members.act(probes[:64]), np.einsum("nij,npj->npi", candidates, probes[64:])))
    drifts, gone = theorems._schmidt_drifts(probes, images, S22)
    broken = gone | ~(drifts <= tol)
    assert broken.shape == (128, PROBES)
    assert broken.ravel().tolist() == _classified_breaks(images.reshape(-1, 4), tol)
    assert not broken[:64].any() and broken[64:].any(axis=1).all()


def test_theorem2_suite_judges_maximality_without_classify(monkeypatch):
    monkeypatch.setattr(theorems, "classify", None)  # any call would raise
    assert check_theorem2_suite(70, seeded(0)).passed


def test_nonmember_checks_on_bell_frame_change():
    u = bell_frame_unitary()
    assert nonmember_product_check(u, S22, seeded(26)).passed
    assert nonmember_maxent_check(u, S22, seeded(27)).passed
    # it does send one maximally entangled state to a product state
    assert classify(u.apply(PSI_MINUS), S22) is Entanglement.PRODUCT


def test_nonmember_product_check_fails_on_member():
    # a genuine member keeps all product probes product, so this check must fail
    rng = seeded(28)
    elem = random_m_element(BipartiteSplit(2, 3), rng)
    verdict = nonmember_product_check(elem.to_operator(), BipartiteSplit(2, 3), rng)
    assert not verdict.passed and verdict.witness is not None


@pytest.mark.parametrize("swap", [False, True])
def test_nonmember_maxent_check_fails_on_member(swap):
    # a genuine two-qubit member keeps every maximally entangled probe maximal, so this check must fail
    rng = seeded(29)
    elem = random_m_element(S22, rng)
    elem = MeronomicElement(elem.v, elem.w, swap=swap)
    verdict = nonmember_maxent_check(elem.to_operator(), S22, rng)
    assert not verdict.passed
    assert verdict.detail == "all 20 maximally entangled probes stayed maximal"
    assert_allclose(verdict.witness, elem.to_operator().entries)


# ---------------------------------------------------------------- suites

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem1_suite_passes(seed):
    verdict = check_theorem1_suite(50, seeded(seed))
    assert verdict.passed, verdict.detail


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem2_suite_passes(seed):
    verdict = check_theorem2_suite(50, seeded(seed))
    assert verdict.passed, verdict.detail


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("suite", [check_theorem1_suite, check_theorem2_suite])
def test_theorem_suites_pass_across_stack_boundaries(suite, seed):
    verdict = suite(130, seeded(seed))
    assert verdict.passed, verdict.detail


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemmas_suite_passes(seed):
    verdict = check_lemmas_suite(50, seeded(seed))
    assert verdict.passed, verdict.detail


def test_lemmas_suite_classifies_every_random_pair_superposition(monkeypatch):
    # unrephased, two independent maximally entangled states have Re<psi|phi> != 0 almost surely: no unit superposition
    classes, classify_superposition = [], theorems._superposition_entanglement

    def recording(psi, phi):
        cls, s = classify_superposition(psi, phi)
        classes.append(cls)
        return cls, s

    monkeypatch.setattr(theorems, "_superposition_entanglement", recording)
    assert check_lemmas_suite(50, seeded(0)).passed
    assert len(classes) == 150
    assert None not in classes[2::3]  # per trial: anti-Hermitian, Hermitian, random pair


@pytest.mark.parametrize(
    "suite, trials, next_draw",
    [
        pytest.param(check_theorem1_suite, 20, 0.396954320030786, id="check_theorem1_suite-0.396954320030786"),
        pytest.param(check_theorem2_suite, 20, 0.5483359665192086, id="check_theorem2_suite-0.5483359665192086"),
        pytest.param(check_lemmas_suite, 20, 0.19808447144565167, id="check_lemmas_suite-0.19808447144565167"),
        # past two stack boundaries
        (check_theorem1_suite, 130, 0.10694190368985423),
        (check_theorem2_suite, 130, 0.07733600849473676),
    ],
)
def test_suite_draw_order_is_pinned(suite, trials, next_draw):
    # the payload only shows passed/detail, so a dropped or reordered draw would go unseen without this
    rng = seeded(0)
    assert suite(trials, rng).passed
    assert rng.random() == next_draw


def test_suites_pass_on_injected_members(inject_elements):
    eye = MeronomicElement.identity(S22)
    swapped = MeronomicElement(Operator.identity(2), Operator.identity(2), swap=True)
    inject_elements(eye, MeronomicElement.identity(BipartiteSplit(2, 3)))
    assert check_theorem1_suite(1, seeded(0)).passed
    inject_elements(eye, swapped)
    assert check_theorem2_suite(2, seeded(0)).passed


def test_theorem1_suite_names_the_splits_that_ran():
    assert check_theorem1_suite(2, seeded(0)).detail == "2 trials on splits 2x2 and 2x3 passed"


def test_suites_fail_on_injected_fault(inject_elements):
    for suite in (check_theorem1_suite, check_theorem2_suite):
        inject_elements(_faulted_element())
        verdict = suite(1, seeded(0))
        assert not verdict.passed
        assert verdict.witness is not None
        assert "trial 0" in verdict.detail


@pytest.mark.parametrize(
    "suite, detail",
    [
        (check_theorem1_suite, "trial 0 on 2x2: element annihilated the probe state"),
        (check_theorem2_suite, "trial 0 on 2x2: element annihilated the probe state"),
    ],
)
def test_suites_report_an_element_that_annihilates_the_probe(inject_elements, suite, detail):
    # a zero factor sends every probe to the zero vector, which has no normalized image
    elem = MeronomicElement.identity(S22)
    object.__setattr__(elem, "w", Operator(np.zeros((2, 2), dtype=complex)))
    inject_elements(elem)
    verdict = suite(1, seeded(0))
    assert not verdict.passed
    assert verdict.detail == detail
    assert verdict.witness.shape == (4,)
    assert abs(np.linalg.norm(verdict.witness) - 1.0) < 1e-12


def _scaled_element(split: BipartiteSplit) -> MeronomicElement:
    # 2 * identity keeps every state's Schmidt parameters after renormalizing, but is not unitary
    elem = MeronomicElement.identity(split)
    object.__setattr__(elem, "w", Operator(2.0 * np.eye(split.d2, dtype=complex)))
    return elem


def _late_fault() -> MeronomicElement:
    # a 2x3 element that fails the Schmidt check
    elem = MeronomicElement.identity(BipartiteSplit(2, 3))
    object.__setattr__(elem, "w", Operator(np.diag([1.0, 0.5, 0.25]).astype(complex)))
    return elem


def test_theorem1_suite_reports_the_smallest_failing_trial(inject_elements):
    good, good23 = MeronomicElement.identity(S22), MeronomicElement.identity(BipartiteSplit(2, 3))
    inject_elements(good, good, _faulted_element(), good, good, good23, good23, good23, good23, _late_fault())
    verdict = check_theorem1_suite(5, seeded(0))
    assert not verdict.passed
    assert verdict.detail.startswith("trial 2 on 2x2: Schmidt parameters drifted by")


def test_theorem1_suite_reports_a_fault_on_the_2x3_split(inject_elements):
    # the 2x2 row of trial 0 passes first, so the 2x3 fault is the first failure
    inject_elements(_late_fault())
    verdict = check_theorem1_suite(1, seeded(0))
    assert verdict.detail.startswith("trial 0 on 2x3: Schmidt parameters drifted by")
    assert verdict.witness.shape == (6,)


def test_theorem1_suite_reports_a_fault_in_the_second_stack(inject_elements):
    good = MeronomicElement.identity(S22)
    inject_elements(*[good] * 70, _faulted_element())
    verdict = check_theorem1_suite(130, seeded(0))
    assert verdict.detail.startswith("trial 70 on 2x2: Schmidt parameters drifted by ")
    assert verdict.witness.shape == (4,)


def test_theorem2_suite_reports_a_fault_in_the_second_stack(inject_elements):
    good = MeronomicElement.identity(S22)
    inject_elements(*[good] * 70, _faulted_element())
    verdict = check_theorem2_suite(130, seeded(0))
    assert verdict.detail.startswith("trial 70 on 2x2: Schmidt parameters drifted by ")
    assert verdict.witness.shape == (4,)


def test_theorem1_suite_checks_schmidt_before_membership(inject_elements):
    # the faulted element fails both checks, the scaled one only membership
    inject_elements(_faulted_element())
    verdict = check_theorem1_suite(1, seeded(0))
    assert verdict.detail.startswith("trial 0 on 2x2: Schmidt parameters drifted by")
    inject_elements(_scaled_element(S22))
    verdict = check_theorem1_suite(1, seeded(0))
    rejected = "membership test rejected the element: membership test requires a unitary input"
    assert verdict.detail == f"trial 0 on 2x2: {rejected}"


def test_theorem1_suite_runs_2x2_before_2x3_within_a_trial(monkeypatch):
    calls = []

    def failing_on(fail):
        # per-row verdicts for a stack; (d2, k) fails the k-th element checked on that split
        def check(elems, states):
            verdicts = []
            for state in states:
                calls.append(elems.split)
                failing = (elems.split.d2, calls.count(elems.split)) in fail
                verdicts.append(Verdict(False, "injected", witness=state) if failing else Verdict(True, "fine"))
            return verdicts

        return check

    monkeypatch.setattr(theorems, "schmidt_preservation_check", failing_on({(2, 1), (3, 1)}))
    assert check_theorem1_suite(3, seeded(0)).detail == "trial 0 on 2x2: injected"
    # a 2x3 failure at trial 1 comes before a 2x2 failure at trial 3
    calls.clear()
    monkeypatch.setattr(theorems, "schmidt_preservation_check", failing_on({(2, 4), (3, 2)}))
    assert check_theorem1_suite(5, seeded(0)).detail == "trial 1 on 2x3: injected"


def test_nonmember_checks_draw_a_fixed_number_of_probes(monkeypatch):
    # a non-member escapes on its first probe, a member on none: both consume the same PROBES probes
    classified = []
    monkeypatch.setattr(theorems, "classify", lambda *args: classified.append(args) or classify(*args))
    s23, haar = BipartiteSplit(2, 3), Operator(haar_unitary_batch(6, 1, seeded(30))[0])
    runs = [
        (partial(nonmember_product_check, split=s23), haar, Operator.identity(6), (1, PROBES)),
        (partial(nonmember_maxent_check, split=S22), bell_frame_unitary(), Operator.identity(4), (0, 0)),  # no classify
    ]
    for check, escapes_at_once, never_escapes, probes_classified in runs:
        after = []
        for u, count in zip((escapes_at_once, never_escapes), probes_classified):
            classified.clear()
            rng = seeded(31)
            check(u, rng=rng)
            assert len(classified) == count
            after.append(rng.random())
        assert after[0] == after[1]


def test_suites_validate_trials():
    for suite in (check_theorem1_suite, check_theorem2_suite, check_lemmas_suite):
        with pytest.raises(ValueError):
            suite(0, seeded(0))
