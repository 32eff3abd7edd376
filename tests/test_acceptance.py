"""End-to-end acceptance checks, one per headline property of the package.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Every check is seeded and deterministic.
"""

import math
from contextlib import contextmanager

import numpy as np

from meronome.frames import (
    Entanglement,
    MeronomicElement,
    ab_pauli,
    apply_element,
    bell_frame_unitary,
    classify,
    pauli,
    schmidt_decompose,
    spin_hamiltonian,
    theta_frame_unitary,
)
from meronome.linalg import (
    BipartiteSplit,
    DensityOperator,
    Operator,
    StateVector,
)
from meronome.protocols import (
    OrderingVerdict,
    lambda_effect_probability,
    measure_sym_subspace,
    ordering_discriminate,
    reference_frame_effect,
    sample_lambda_measurement,
    superdense_round,
    sym_projector,
    sym_span_analysis,
    tau_states,
)
from meronome.sampling import (
    random_m_element,
    random_maxent_state,
    random_state,
    seeded,
    twirl_monte_carlo,
)
from meronome.theorems import (
    check_lemma_antihermitian,
    check_lemma_hermitian,
    check_theorem1_suite,
    check_theorem2_suite,
)

S22 = BipartiteSplit(2, 2)
ISQ2 = 1.0 / math.sqrt(2.0)
BELL_STATES = [
    StateVector(np.array([ISQ2, 0, 0, ISQ2], dtype=complex)),
    StateVector(np.array([ISQ2, 0, 0, -ISQ2], dtype=complex)),
    StateVector(np.array([0, ISQ2, ISQ2, 0], dtype=complex)),
    StateVector(np.array([0, ISQ2, -ISQ2, 0], dtype=complex)),
]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL — {name}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS — {name}")


def test_01_bell_frame_round_trip():
    with criterion(1, "Bell states become the product basis in the Bell frame"):
        u = bell_frame_unitary()
        for index, bell in enumerate(BELL_STATES):
            assert classify(bell, S22) is Entanglement.MAXIMALLY_ENTANGLED
            image = u.apply(bell)
            assert classify(image, S22) is Entanglement.PRODUCT
            assert np.abs(image.amps - StateVector.basis(4, index).amps).max() < 1e-10


def test_02_theta_frame_family():
    with criterion(2, "theta frame interpolates product -> maximally entangled"):
        plus_plus = StateVector(np.full(4, 0.5, dtype=complex))
        expected_class = [
            (0.0, Entanglement.PRODUCT),
            (math.pi / 4, Entanglement.ENTANGLED),
            (math.pi / 2, Entanglement.ENTANGLED),
            (math.pi, Entanglement.MAXIMALLY_ENTANGLED),
        ]
        for theta, cls in expected_class:
            state = theta_frame_unitary(theta).apply(plus_plus)
            assert classify(state, S22) is cls, f"theta={theta}"
            params = schmidt_decompose(state, S22).params
            lam = (1 + abs(math.cos(theta / 2))) / 2
            assert np.abs(params - np.array([lam, 1 - lam])).max() < 1e-9
            amps = state.amps.reshape(2, 2)  # reduced state of the first qubit: Psi Psi^dag
            oracle = np.sort(np.linalg.eigvalsh(amps @ amps.conj().T))[::-1]
            assert np.abs(params - oracle).max() < 1e-9


def test_03_pauli_dictionary():
    with criterion(3, "two-qubit observable dictionary and spin Hamiltonian"):
        table = {
            ("X", "A"): np.kron(np.eye(2), pauli("X").entries),
            ("Y", "A"): np.kron(pauli("Z").entries, pauli("Y").entries),
            ("Z", "A"): np.kron(pauli("Z").entries, pauli("Z").entries),
            ("X", "B"): np.kron(pauli("Z").entries, np.eye(2)),
            ("Y", "B"): -np.kron(pauli("Y").entries, pauli("X").entries),
            ("Z", "B"): np.kron(pauli("X").entries, pauli("X").entries),
        }
        for (label, side), expected in table.items():
            assert np.abs(ab_pauli(label, side).entries - expected).max() < 1e-12
        rng = seeded(101)
        for _ in range(10):
            alpha, beta = rng.standard_normal(2)
            ham = spin_hamiltonian(alpha, beta).entries
            combo = alpha * ab_pauli("Z", "A").entries + beta * ab_pauli("Z", "B").entries
            assert np.abs(ham - combo).max() < 1e-12
            spectrum = sorted(np.linalg.eigvalsh(ham))
            expected_spec = sorted([alpha + beta, alpha - beta, -alpha + beta, -alpha - beta])
            assert np.abs(np.array(spectrum) - np.array(expected_spec)).max() < 1e-10


def test_04_twirl_washout():
    with criterion(4, "group twirl sends a Bell state to the uniform mixture"):
        rho = DensityOperator(np.outer(BELL_STATES[0].amps, BELL_STATES[0].amps.conj()))
        estimate = twirl_monte_carlo(rho, S22, 100_000, seeded(42))
        uniform = np.eye(4) / 4
        assert np.linalg.norm(estimate - uniform) <= 0.02


def test_05_superdense_signaling():
    with criterion(5, "one-bit signaling succeeds without a shared frame"):
        for d in (2, 3, 4):
            rng = seeded(1000 + d)
            for _ in range(100):
                for bit in (0, 1):
                    report = superdense_round(d, bit, rng)
                    assert report.decode_success, (d, bit)
                    if bit == 1:
                        assert report.overlap_modulus <= 1e-10, d


def test_06_invariant_effect_probability():
    with criterion(6, "invariant effect measures lambda(1-lambda) through disguises"):
        rng = seeded(7)
        for lam in (0.0, 0.1, 0.25, 0.5):
            amps = np.zeros(4, dtype=complex)
            amps[0] = math.sqrt(lam)
            amps[3] = math.sqrt(1 - lam)
            state = StateVector(amps)
            expected = lam * (1 - lam)
            for _ in range(5):
                disguised = apply_element(random_m_element(S22, rng), state, S22)
                assert abs(lambda_effect_probability(disguised) - expected) < 1e-10
            shots = 100_000
            estimate = sample_lambda_measurement(lam, shots, seeded(500 + int(lam * 100)))
            sigma = math.sqrt(expected * (1 - expected) / shots)
            assert abs(estimate.p_hat - expected) <= 4 * sigma + 1e-12, lam


def test_07_symmetric_subspace_geometry():
    with criterion(7, "duplicated products span 9 of the 10 symmetric dimensions"):
        proj = sym_projector(4, 2).entries
        assert abs(proj.trace().real - 10) < 1e-10
        report = sym_span_analysis(50, seeded(1))
        assert report.sym_dim == 10
        assert report.product_span_rank == 9
        assert report.max_lambda_overlap <= 1e-10
        assert report.min_entangled_lambda_overlap > 0


def test_08_reference_frame_effect():
    with criterion(8, "symmetric measurement realizes the reference-frame effect"):
        rng = seeded(22)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            psi, phi = random_state(d, rng), random_state(d, rng)
            direct = measure_sym_subspace(psi, phi, n)
            effect = reference_frame_effect(phi, n).entries
            predicted = float(np.vdot(psi.amps, effect @ psi.amps).real)
            assert abs(direct - predicted) < 1e-10
        half = measure_sym_subspace(StateVector.basis(2, 1), StateVector.basis(2, 0), 1)
        assert abs(half - 0.5) < 1e-15


def test_09_ordering_discrimination():
    with criterion(9, "pair-ordering signals are orthogonal and invariant"):
        tau, tau_prime = tau_states()
        assert abs(np.trace(tau.entries @ tau_prime.entries)) <= 1e-12
        assert ordering_discriminate(tau) is OrderingVerdict.SAME
        assert ordering_discriminate(tau_prime) is OrderingVerdict.SWAPPED
        rng = seeded(33)
        count = 0
        while count < 100:
            elem = random_m_element(S22, rng)
            if elem.swap:
                continue
            count += 1
            g = elem.to_operator().entries
            g2 = np.kron(g, g)
            assert np.abs(g2 @ tau.entries @ g2.conj().T - tau.entries).max() < 1e-9


def test_10_theorem_suites(inject_elements):
    with criterion(10, "preservation theorems verify and catch injected faults"):
        for seed in (0, 1, 2):
            assert check_theorem1_suite(100, seeded(seed)).passed
            assert check_theorem2_suite(100, seeded(seed)).passed
        rng = seeded(18)
        for _ in range(100):
            base = random_maxent_state(2, rng)
            v = np.linalg.qr(
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )[0]
            h = v @ np.diag([1.0, -1.0]).astype(complex) @ v.conj().T
            anti_image = StateVector((base.amps.reshape(2, 2) @ (1j * h).T).reshape(-1))
            herm_image = StateVector((base.amps.reshape(2, 2) @ h.T).reshape(-1))
            assert check_lemma_antihermitian(base, anti_image).passed
            assert check_lemma_hermitian(base, herm_image).passed
        faulted = MeronomicElement.identity(S22)
        object.__setattr__(faulted, "w", Operator(np.diag([1.0, 0.5]).astype(complex)))
        for suite in (check_theorem1_suite, check_theorem2_suite):
            inject_elements(faulted)
            verdict = suite(1, seeded(0))
            assert not verdict.passed and verdict.witness is not None
