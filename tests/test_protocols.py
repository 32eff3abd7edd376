import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meronome.frames import MeronomicElement
from meronome.linalg import (
    BipartiteSplit,
    DensityOperator,
    Operator,
    StateVector,
    permutation_operator,
)
from meronome.protocols import (
    LambdaEstimate,
    OrderingVerdict,
    _hit_probabilities,
    _pair_projectors,
    _sym_classes,
    lambda_effect_probability,
    lambda_state,
    measure_sym_subspace,
    ordering_discriminate,
    reference_frame_effect,
    sample_lambda_measurement,
    shift_unitary,
    superdense_round,
    sym_projector,
    sym_span_analysis,
    tau_states,
)
from meronome.sampling import random_m_element, random_state, random_states, sample_m_chunks, seeded

S22 = BipartiteSplit(2, 2)


def _two_qubit_diag(lam: float) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = math.sqrt(lam)
    amps[0b11] = math.sqrt(1 - lam)
    return StateVector(amps)


def _duplicated(elem: MeronomicElement) -> np.ndarray:
    """g (x) g: the same element acting on both copies."""
    g = elem.to_operator().entries
    return np.kron(g, g)


def _unswapped_elements(seed: int, count: int):
    rng = seeded(seed)
    for _ in range(count):
        elem = random_m_element(S22, rng)
        yield MeronomicElement(elem.v, elem.w, swap=False)


def _singlet_interleave_oracle() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lambda, tau and tau' built by hand: singlets and symmetric mixtures across qubits (1,3) and (2,4)."""
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    singlet_rho = np.outer(singlet, singlet.conj())
    sym_mix = (np.eye(4) + permutation_operator((2, 2), (1, 0)).entries) / 6.0
    interleave = permutation_operator((2, 2, 2, 2), (0, 2, 1, 3)).entries  # slot order (1,3,2,4) -> (1,2,3,4)
    lam = interleave @ np.kron(singlet, singlet)
    tau = interleave @ np.kron(singlet_rho, sym_mix) @ interleave.T
    tau_prime = interleave @ np.kron(sym_mix, singlet_rho) @ interleave.T
    return lam, tau, tau_prime


# ---------------------------------------------------------------- signaling

def test_shift_unitary_qubit_is_x():
    assert_allclose(shift_unitary(2).entries, np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_shift_unitary_traceless_cyclic(d):
    w = shift_unitary(d).entries
    assert abs(w.trace()) < 1e-14
    assert np.abs(w.conj().T @ w - np.eye(d)).max() < 1e-14
    assert np.abs(np.linalg.matrix_power(w, d) - np.eye(d)).max() < 1e-14


def test_shift_unitary_rejects_dim1():
    with pytest.raises(ValueError):
        shift_unitary(1)


def test_shift_unitary_is_built_once_per_dim():
    assert shift_unitary(5) is shift_unitary(5)
    assert shift_unitary(5) is not shift_unitary(6)
    assert not shift_unitary(5).entries.flags.writeable


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superdense_round_both_bits(d):
    rng = seeded(31)
    for trial in range(20):
        quiet = superdense_round(d, 0, rng)
        assert quiet.overlap_modulus > 1 - 1e-10
        assert quiet.decoded == 0 and quiet.decode_success
        loud = superdense_round(d, 1, rng)
        assert loud.overlap_modulus < 1e-10, (d, trial)
        assert loud.decoded == 1 and loud.decode_success


def test_superdense_validation():
    with pytest.raises(ValueError):
        superdense_round(2, 2, seeded(0))


@pytest.mark.parametrize("bit", [0, 1])
def test_superdense_rejects_dimension_one_before_drawing(bit):
    rng = seeded(0)
    with pytest.raises(ValueError, match="dimension >= 2, got 1"):
        superdense_round(1, bit, rng)
    assert rng.random() == seeded(0).random()  # the stream is where it started


# ---------------------------------------------------------------- invariant state

def test_lambda_state_amplitudes():
    expected = np.zeros(16, dtype=complex)
    expected[0b0011] = 0.5
    expected[0b0110] = -0.5
    expected[0b1001] = -0.5
    expected[0b1100] = 0.5
    assert_allclose(lambda_state().amps, expected, atol=1e-15)


def test_lambda_state_invariant_under_duplicated_elements():
    lam = lambda_state()
    rng = seeded(14)
    for _ in range(100):
        moved = StateVector(_duplicated(random_m_element(S22, rng)) @ lam.amps)
        assert abs(abs(lam.overlap(moved)) - 1.0) < 1e-10


def test_lambda_effect_on_known_states():
    product = StateVector(np.kron(StateVector.basis(2, 0).amps, StateVector.basis(2, 1).amps))
    assert lambda_effect_probability(product) < 1e-14
    phi_plus = StateVector.normalized(np.array([1, 0, 0, 1], dtype=complex))
    assert abs(lambda_effect_probability(phi_plus) - 0.25) < 1e-12
    assert abs(lambda_effect_probability(_two_qubit_diag(0.1)) - 0.09) < 1e-12


def test_lambda_effect_disguise_independent():
    from meronome.frames import apply_element

    rng = seeded(15)
    state = _two_qubit_diag(0.3)
    baseline = lambda_effect_probability(state)
    assert abs(baseline - 0.21) < 1e-12
    for _ in range(100):
        disguised = apply_element(random_m_element(S22, rng), state, S22)
        assert abs(lambda_effect_probability(disguised) - baseline) < 1e-10


def test_lambda_effect_matches_overlap_with_lambda_state():
    lam = lambda_state()
    rng = seeded(16)
    for _ in range(100):
        phi = random_state(4, rng)
        overlap = lam.overlap(StateVector(np.kron(phi.amps, phi.amps)))
        assert abs(lambda_effect_probability(phi) - abs(overlap) ** 2) < 1e-12


def test_lambda_effect_rejects_wrong_dim():
    with pytest.raises(ValueError):
        lambda_effect_probability(StateVector.basis(8, 0))


def test_sample_lambda_zero_never_hits():
    est = sample_lambda_measurement(0.0, 2000, seeded(5))
    assert est.hits == 0
    assert est.p_hat == 0.0
    assert est.lambda_hat == 0.0


@pytest.mark.parametrize("shots, hits", [(0, 0), (-3, 0), (10, 11), (10, -1)])
def test_lambda_from_hits_rejects_impossible_counts(shots, hits):
    with pytest.raises(ValueError, match=f"shots={shots}, hits={hits}"):
        LambdaEstimate.from_hits(shots, hits)


def test_lambda_from_hits_accepts_the_ends():
    assert LambdaEstimate.from_hits(1, 0).lambda_hat == 0.0
    assert LambdaEstimate.from_hits(4, 4).lambda_hat == 0.5


@pytest.mark.parametrize("lam", [0.25, 0.5])
def test_sample_lambda_estimates(lam):
    shots = 100_000
    est = sample_lambda_measurement(lam, shots, seeded(40))
    p = lam * (1 - lam)
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(est.p_hat - p) < 4 * sigma
    assert abs(est.lambda_hat - lam) < 0.02
    assert est.shots == shots and est.hits == round(est.p_hat * shots)


@pytest.mark.parametrize("seed, hits", [(0, 37733), (1, 37438), (2, 37237)])
def test_sample_lambda_hits_are_pinned(seed, hits):
    # the hit counts since the stream layout was fixed; a change of the Haar kernel moves the unitaries by roundoff
    # only, and a hit flips only if its uniform lands within about 1e-16 of the hit probability
    assert sample_lambda_measurement(0.25, 200_000, seeded(seed)).hits == hits


def test_hit_probabilities_match_lambda_overlap():
    # Oracle: the explicit <Lambda| phi' (x) phi'> contraction per shot, with
    # a non-symmetric Phi so that the swap bit changes the disguised state.
    v, w, swaps = next(sample_m_chunks(S22, 64, seeded(31)))
    assert swaps.any() and not swaps.all()
    g = seeded(32)
    phi = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
    phi /= np.linalg.norm(phi)
    base = np.where(swaps[:, None, None], phi.T, phi)
    disguised = np.einsum("nai,nij,nbj->nab", v, base, w)
    lam_tensor = lambda_state().amps.reshape(2, 2, 2, 2).conj()
    oracle = np.abs(np.einsum("abcd,nab,ncd->n", lam_tensor, disguised, disguised)) ** 2
    assert np.abs(_hit_probabilities(np.linalg.det(phi), v, w) - oracle).max() < 1e-12


def test_sample_lambda_memory_is_bounded_in_shots():
    sample_lambda_measurement(0.25, 10, seeded(3))  # first-call allocations are not per shot
    peaks = []
    for shots in (40_000, 160_000):
        tracemalloc.start()
        try:
            sample_lambda_measurement(0.25, shots, seeded(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * max(peaks), peaks
    assert max(peaks) < 4 * 2**20, peaks


def test_sample_lambda_binomial_coverage():
    # The grid that scripts/lambda_sweep.py walks by default, seeds 0..10.
    shots = 50_000
    for i in range(11):
        lam = 0.5 * i / 10
        est = sample_lambda_measurement(lam, shots, seeded(i))
        p = lam * (1 - lam)
        assert abs(est.p_hat - p) <= 5 * math.sqrt(p * (1 - p) / shots), (lam, est)


def test_sample_lambda_reproducible():
    a = sample_lambda_measurement(0.2, 5000, seeded(8))
    b = sample_lambda_measurement(0.2, 5000, seeded(8))
    assert a == b


def test_sample_lambda_validation():
    with pytest.raises(ValueError):
        sample_lambda_measurement(0.7, 10, seeded(0))
    with pytest.raises(ValueError):
        sample_lambda_measurement(-0.1, 10, seeded(0))
    with pytest.raises(ValueError):
        sample_lambda_measurement(0.2, 0, seeded(0))


# ---------------------------------------------------------------- symmetric subspace

def test_sym_projector_single_copy_is_identity():
    assert_allclose(sym_projector(3, 1).entries, np.eye(3))


@pytest.mark.parametrize("d,n,expected", [(2, 2, 3), (2, 3, 4), (4, 2, 10), (3, 2, 6)])
def test_sym_projector_rank(d, n, expected):
    assert expected == math.comb(d + n - 1, n)  # binomial oracle
    proj = sym_projector(d, n).entries
    assert abs(proj.trace().real - expected) < 1e-10
    assert np.abs(proj @ proj - proj).max() < 1e-12
    assert np.abs(proj - proj.conj().T).max() < 1e-14


def _permutation_average(d: int, n: int, columns: np.ndarray) -> np.ndarray:
    """(1/n!) sum over pi of Pi_pi on each column of a (d^n, k) array, Pi_pi permuting the n tensor factors.

    Acting on columns keeps it at d^n * k entries, where the dense average would hold d^(2n).
    """
    tensors = columns.reshape((d,) * n + (-1,))
    perms = list(itertools.permutations(range(n)))
    return sum(tensors.transpose(*perm, n) for perm in perms).reshape(d**n, -1) / len(perms)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_sym_projector_matches_permutation_average(d, n):
    averaged = _permutation_average(d, n, np.eye(d**n, dtype=complex))
    assert np.abs(sym_projector(d, n).entries - averaged).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (64, 1), (16, 2), (8, 3), (4, 5)])
def test_measure_sym_matches_permutation_average(d, n):
    rng = seeded(100 * d + n)
    psi, phi = random_state(d, rng), random_state(d, rng)
    joint = psi.amps
    for _ in range(n):
        joint = np.kron(joint, phi.amps)
    oracle = np.vdot(joint, _permutation_average(d, n + 1, joint[:, None])[:, 0]).real
    assert abs(measure_sym_subspace(psi, phi, n) - oracle) < 1e-12


def test_measure_sym_large_reference_is_fast():
    # ten-copy qubit case must go through the C(11,1)-dimensional basis, not
    # a 10!-term permutation sum
    psi = StateVector.basis(2, 1)
    phi = StateVector.basis(2, 0)
    assert abs(measure_sym_subspace(psi, phi, 9) - 0.1) < 1e-12


def test_sym_projector_size_guard():
    with pytest.raises(ValueError):
        sym_projector(2, 13)
    with pytest.raises(ValueError):
        sym_projector(2, 0)


def test_dense_cap_is_decided_on_the_exponent():
    labels, sizes = _sym_classes(2, 12)  # exactly at the cap
    assert labels.shape == (4096,) and sizes.shape == (13,)
    assert _sym_classes(4, 6)[0].shape == (4096,)
    assert sym_projector(1, 50).entries.tolist() == [[1.0]]  # d = 1 never grows
    for d, n in [(2, 13), (4, 7), (4097, 1), (2, 10**9)]:
        with pytest.raises(ValueError) as info:
            _sym_classes(d, n)
        assert str(info.value) == f"n = {n} copies of dimension d = {d} exceed the dense cap 4096 on d^n"
    with pytest.raises(ValueError, match=r"^n = 20001 copies of dimension d = 2 exceed the dense cap 4096 on d\^n$"):
        measure_sym_subspace(StateVector.basis(2, 0), StateVector.basis(2, 0), 20000)


def test_one_level_copies_beyond_numpy_max_ndim():
    # numpy arrays have at most 64 axes; the digits of 1^n = 1 index must not need n of them
    assert sym_projector(1, 100).entries.tolist() == [[1.0]]
    one = StateVector.basis(1, 0)
    assert measure_sym_subspace(one, one, 100) == 1.0


def test_one_level_copies_cost_no_memory_or_loop_in_n():
    # (C^1)^(x n) is one index in one class of size 1, whatever n: nothing n-long is built or looped over
    tracemalloc.start()
    try:
        labels, sizes = _sym_classes.__wrapped__(1, 10**6)  # uncached, so the build itself is measured
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == [0] and sizes.tolist() == [1]
    assert peak < 2**20, peak
    phase = StateVector(np.array([np.exp(0.3j)]))
    assert measure_sym_subspace(phase, phase, 10**7) == 1.0  # one np.kron per copy would take minutes


def test_measure_sym_aligned_passes():
    phi = random_state(3, seeded(1))
    assert abs(measure_sym_subspace(phi, phi, 2) - 1.0) < 1e-12


def test_measure_sym_orthogonal_single_reference():
    psi = StateVector.basis(2, 0)
    phi = StateVector.basis(2, 1)
    assert abs(measure_sym_subspace(psi, phi, 1) - 0.5) < 1e-14


def test_measure_sym_balanced_two_references():
    phi = StateVector.basis(2, 0)
    psi = StateVector.normalized(np.array([1, 1], dtype=complex))
    assert abs(measure_sym_subspace(psi, phi, 2) - 2 / 3) < 1e-12


def test_measure_sym_matches_effect_operator():
    rng = seeded(22)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        psi, phi = random_state(d, rng), random_state(d, rng)
        direct = measure_sym_subspace(psi, phi, n)
        effect = reference_frame_effect(phi, n).entries
        predicted = float(np.vdot(psi.amps, effect @ psi.amps).real)
        assert abs(direct - predicted) < 1e-10


def test_measure_sym_validation():
    with pytest.raises(ValueError):
        measure_sym_subspace(StateVector.basis(2, 0), StateVector.basis(3, 0), 1)
    with pytest.raises(ValueError):
        measure_sym_subspace(StateVector.basis(8, 0), StateVector.basis(8, 0), 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: measure_sym_subspace(StateVector.basis(2, 0), StateVector.basis(2, 1), 0),
        lambda: reference_frame_effect(StateVector.basis(2, 0), 0),
    ],
    ids=["measure_sym_subspace", "reference_frame_effect"],
)
def test_reference_frame_checks_need_a_reference_copy(call):
    with pytest.raises(ValueError, match="^need at least one reference copy, got 0$"):
        call()


def test_reference_frame_effect_spectrum():
    phi = StateVector.basis(2, 0)
    for n in (1, 4, 9):
        effect = reference_frame_effect(phi, n).entries
        aligned = float(np.vdot(phi.amps, effect @ phi.amps).real)
        assert abs(aligned - 1.0) < 1e-12
        ortho = StateVector.basis(2, 1)
        leak = float(np.vdot(ortho.amps, effect @ ortho.amps).real)
        assert abs(leak - 1 / (n + 1)) < 1e-12


def test_sym_span_analysis_geometry():
    report = sym_span_analysis(50, seeded(1))
    assert report.sym_dim == 10
    assert report.product_span_rank == 9
    assert report.max_lambda_overlap < 1e-10
    assert report.min_entangled_lambda_overlap > 1e-4
    assert report.samples == 50


def test_sym_span_analysis_rank_across_seeds():
    assert {sym_span_analysis(50, seeded(seed)).product_span_rank for seed in range(20)} == {9}


def test_sym_span_analysis_draws_two_stacks():
    # the products as one random_states((2, 2), n) stack, then the entangled states as one random_states((4,), n)
    rng, reference = seeded(5), seeded(5)
    report = sym_span_analysis(40, rng)
    products = random_states((2, 2), 40, reference)
    entangled = random_states((4,), 40, reference)
    assert rng.random() == reference.random()
    lam = lambda_state().amps.conj()
    assert report.max_lambda_overlap == np.abs(np.array([np.kron(x, x) for x in products]) @ lam).max()
    assert report.min_entangled_lambda_overlap == np.abs(np.array([np.kron(x, x) for x in entangled]) @ lam).min()


def test_sym_span_analysis_needs_samples():
    with pytest.raises(ValueError):
        sym_span_analysis(19, seeded(0))


# ---------------------------------------------------------------- pair ordering

def test_tau_states_orthogonal_signals():
    tau, tau_prime = tau_states()
    assert abs(tau.entries.trace() - 1.0) < 1e-14
    assert abs(tau_prime.entries.trace() - 1.0) < 1e-14
    assert abs((tau.entries @ tau_prime.entries).trace()) < 1e-12


def test_tau_states_related_by_duplicated_swap():
    tau, tau_prime = tau_states()
    xi = _duplicated(MeronomicElement(Operator.identity(2), Operator.identity(2), swap=True))
    assert np.abs(xi @ tau.entries @ xi.conj().T - tau_prime.entries).max() < 1e-12


def test_tau_states_invariant_under_ordered_elements():
    tau, tau_prime = tau_states()
    for elem in _unswapped_elements(33, 100):
        g2 = _duplicated(elem)
        assert np.abs(g2 @ tau.entries @ g2.conj().T - tau.entries).max() < 1e-9
        assert np.abs(g2 @ tau_prime.entries @ g2.conj().T - tau_prime.entries).max() < 1e-9


def test_ordering_discriminates_signals():
    tau, tau_prime = tau_states()
    assert ordering_discriminate(tau) is OrderingVerdict.SAME
    assert ordering_discriminate(tau_prime) is OrderingVerdict.SWAPPED
    blend = DensityOperator((tau.entries + tau_prime.entries) / 2)
    assert ordering_discriminate(blend) is OrderingVerdict.AMBIGUOUS


def test_ordering_verdict_stable_under_ordered_elements():
    tau, _ = tau_states()
    for elem in _unswapped_elements(34, 20):
        g2 = _duplicated(elem)
        moved = DensityOperator(g2 @ tau.entries @ g2.conj().T)
        assert ordering_discriminate(moved) is OrderingVerdict.SAME


def test_ordering_rejects_wrong_dim():
    with pytest.raises(ValueError):
        ordering_discriminate(DensityOperator(np.eye(4) / 4))



# ---------------------------------------------------------------- two-copy commutant

def test_pair_projectors_resolve_the_identity():
    projectors = _pair_projectors(2, 2)
    assert sorted(projectors) == ["AA", "AS", "SA", "SS"]
    ranks = {"SS": 9, "SA": 3, "AS": 3, "AA": 1}
    for key, proj in projectors.items():
        assert not proj.flags.writeable
        assert np.abs(proj @ proj - proj).max() < 1e-15
        assert np.abs(proj - proj.conj().T).max() < 1e-15
        assert abs(proj.trace().real - ranks[key]) < 1e-12
        assert np.linalg.matrix_rank(proj) == ranks[key]
        for other_key, other in projectors.items():
            if other_key != key:
                assert np.abs(proj @ other).max() < 1e-15
    assert np.abs(sum(projectors.values()) - np.eye(16)).max() < 1e-15


def test_pair_projectors_commute_with_duplicated_elements():
    projectors = _pair_projectors(2, 2)
    for elem in _unswapped_elements(35, 50):
        g2 = _duplicated(elem)
        for proj in projectors.values():
            assert np.abs(g2 @ proj - proj @ g2).max() < 1e-12


def test_duplicated_swap_exchanges_as_and_sa():
    projectors = _pair_projectors(2, 2)
    xi = _duplicated(MeronomicElement(Operator.identity(2), Operator.identity(2), swap=True))
    moved = {key: xi @ proj @ xi.conj().T for key, proj in projectors.items()}
    assert np.abs(moved["AS"] - projectors["SA"]).max() < 1e-15
    assert np.abs(moved["SA"] - projectors["AS"]).max() < 1e-15
    assert np.abs(moved["SS"] - projectors["SS"]).max() < 1e-15
    assert np.abs(moved["AA"] - projectors["AA"]).max() < 1e-15


def test_commutant_objects_match_singlet_interleave_construction():
    lam, tau, tau_prime = _singlet_interleave_oracle()
    assert np.abs(lambda_state().amps - lam).max() < 1e-15
    built_tau, built_tau_prime = tau_states()
    assert np.abs(built_tau.entries - tau).max() < 1e-15
    assert np.abs(built_tau_prime.entries - tau_prime).max() < 1e-15
    assert not built_tau.entries.flags.writeable and not built_tau_prime.entries.flags.writeable
