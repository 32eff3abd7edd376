"""Operational protocols that work without a shared tensor-factor convention.

Each task here only relies on structure every decomposition-preserving
element leaves alone: maximal entanglement (superdense signaling), the
invariant two-pair state used for entanglement estimation, the symmetric
subspace of repeated references, and the antisymmetric/symmetric split that
distinguishes pair orderings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import MeronomicElement, apply_element
from .linalg import (
    BipartiteSplit,
    DensityOperator,
    Operator,
    StateVector,
    kron,
    permutation_operator,
    permute_subsystems,
    tensor_state,
)
from .sampling import RngStream, random_m_element, random_maxent_state, random_state, sample_m_chunks

_DIM_CAP = 4096  # dense operators and joint vectors stay cheap below this
TOL_ORDERING = 1e-6  # ordering_discriminate: the signals weigh exactly 1 and 0; roundoff moves that by ~1e-15


def shift_unitary(d: int) -> Operator:
    """Cyclic shift |k> -> |k+1 mod d>; traceless for every d >= 2."""
    if d < 2:
        raise ValueError(f"shift needs dimension >= 2, got {d}")
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return Operator(mat)


@dataclass(frozen=True)
class SuperdenseReport:
    """One round of one-bit signaling through a shared maximally entangled pair."""

    dim: int
    bit: int
    overlap_modulus: float
    decoded: int
    decode_success: bool


def superdense_round(d: int, bit: int, rng: RngStream, encoder: Operator | None = None) -> SuperdenseReport:
    """Send one bit through a maximally entangled d x d pair, frame-independently.

    The shared pair is Haar random and then scrambled by a random
    decomposition-preserving element, so neither party can rely on a
    particular product basis.  Encoding bit 1 applies `encoder` w (default:
    the traceless cyclic shift) to the first factor, as w @ Psi on the d x d
    amplitude matrix; the receiver projects onto the original state and
    decodes by majority of that outcome.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    split = BipartiteSplit(d, d)
    shared = random_maxent_state(d, rng)
    scramble = random_m_element(split, rng)
    shared = apply_element(scramble, shared, split)

    w = encoder if encoder is not None else shift_unitary(d)
    if w.dim != d:
        raise ValueError(f"encoder dim {w.dim} does not match d={d}")
    sent = StateVector((w.entries @ shared.amps.reshape(d, d)).reshape(-1)) if bit == 1 else shared

    overlap = shared.overlap(sent)
    p_same = abs(overlap) ** 2
    decoded = 0 if p_same >= 0.5 else 1
    return SuperdenseReport(
        dim=d,
        bit=bit,
        overlap_modulus=float(abs(overlap)),
        decoded=decoded,
        decode_success=decoded == bit,
    )


def _singlet() -> StateVector:
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1.0 / math.sqrt(2.0)
    amps[2] = -1.0 / math.sqrt(2.0)
    return StateVector(amps)


# Qubit pairs (1,3) and (2,4) carry the singlets; this permutation moves the
# tensor slot order (1,3,2,4) back to (1,2,3,4).
_PAIR_INTERLEAVE = (0, 2, 1, 3)


def lambda_state() -> StateVector:
    """The invariant four-qubit state: singlets across qubits (1,3) and (2,4).

    Viewing qubits (1,2) and (3,4) as two copies of the same composite
    system, every duplicated element g (x) g maps this state to itself up to
    phase, so the projector onto it is a decomposition-independent effect.
    """
    paired = tensor_state(_singlet(), _singlet())
    return permute_subsystems(paired, (2, 2, 2, 2), _PAIR_INTERLEAVE)


def duplicate_state(state: StateVector) -> StateVector:
    """Two copies of a state, side by side."""
    return tensor_state(state, state)


def duplicated_element_operator(elem: MeronomicElement) -> Operator:
    """The same decomposition-preserving element acting on both copies."""
    g = elem.to_operator()
    return kron(g, g)


def lambda_effect_probability(phi: StateVector) -> float:
    """Probability of the invariant-state effect on two copies of a two-qubit state.

    Equals p * (1 - p) where p is the smaller Schmidt parameter of phi, so
    it vanishes exactly on product states and peaks at 1/4 for maximally
    entangled ones.
    """
    if phi.dim != 4:
        raise ValueError(f"expected a two-qubit state, got dim {phi.dim}")
    amp = lambda_state().overlap(duplicate_state(phi))
    return float(abs(amp) ** 2)


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of a Schmidt parameter from invariant-effect counts."""

    shots: int
    hits: int
    p_hat: float
    lambda_hat: float

    @classmethod
    def from_hits(cls, shots: int, hits: int) -> "LambdaEstimate":
        """Estimate from `hits` effect outcomes in `shots`, inverting p = lam * (1 - lam) on [0, 1/2]."""
        p_hat = hits / shots
        lambda_hat = (1.0 - math.sqrt(1.0 - 4.0 * min(p_hat, 0.25))) / 2.0
        return cls(shots=shots, hits=hits, p_hat=p_hat, lambda_hat=lambda_hat)


def _hit_probabilities(det_phi: complex, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per shot |<Lambda| phi' (x) phi'>|^2 = |det v * det Phi * det w|^2, the overlap being det Phi' of
    the disguised amplitude matrix Phi' = v Phi w^T; a swap transposes Phi and keeps its determinant."""
    det_v = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    det_w = w[:, 0, 0] * w[:, 1, 1] - w[:, 0, 1] * w[:, 1, 0]
    return np.abs(det_v * det_phi * det_w) ** 2


def sample_lambda_measurement(lam: float, shots: int, rng: RngStream) -> LambdaEstimate:
    """Estimate the smaller Schmidt parameter of sqrt(lam)|00> + sqrt(1-lam)|11>.

    Each shot disguises the pair by a fresh random decomposition-preserving
    element before both copies are measured against the invariant state;
    the hit probability lam*(1-lam) does not depend on the disguise, and
    inverting it on [0, 1/2] gives the estimate.
    """
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"lam must lie in [0, 0.5], got {lam}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    det_phi = math.sqrt(lam) * math.sqrt(1.0 - lam)  # Phi = diag(sqrt(lam), sqrt(1 - lam))
    hits = 0
    for v, w, _ in sample_m_chunks(BipartiteSplit(2, 2), shots, rng):
        hits += int((rng.generator.random(len(v)) < _hit_probabilities(det_phi, v, w)).sum())
    return LambdaEstimate.from_hits(shots, hits)


@lru_cache(maxsize=None)
def _sym_basis_cached(d: int, n: int) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace of (C^d)^(x n), shape (d^n, C(d+n-1, n)).

    Computational indices with the same digit multiset are the arrangements
    of one occupation state; each column is their equal-weight superposition.
    """
    total = d**n
    digits = np.stack(np.unravel_index(np.arange(total), (d,) * n), axis=1)
    groups: dict[tuple, list[int]] = {}
    for index, key in enumerate(map(tuple, np.sort(digits, axis=1))):
        groups.setdefault(key, []).append(index)
    basis = np.zeros((total, len(groups)), dtype=np.complex128)
    for col, members in enumerate(groups.values()):
        basis[members, col] = 1.0 / math.sqrt(len(members))
    return basis


@lru_cache(maxsize=None)
def _sym_projector_cached(d: int, n: int) -> np.ndarray:
    basis = _sym_basis_cached(d, n)
    return basis @ basis.conj().T


def sym_projector(d: int, n: int) -> Operator:
    """Orthogonal projector onto the symmetric subspace of n copies of a d-level system."""
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if d**n > _DIM_CAP:
        raise ValueError(f"total dimension {d**n} exceeds the dense cap {_DIM_CAP}")
    return Operator(_sym_projector_cached(d, n).copy())


def measure_sym_subspace(psi: StateVector, phi_ref: StateVector, n: int) -> float:
    """Probability that psi together with n reference copies of phi_ref is fully symmetric."""
    if psi.dim != phi_ref.dim:
        raise ValueError(f"system dim {psi.dim} and reference dim {phi_ref.dim} differ")
    d = psi.dim
    if n < 1:
        raise ValueError(f"need at least one reference copy, got {n}")
    if d ** (n + 1) > _DIM_CAP:
        raise ValueError(f"total dimension {d ** (n + 1)} exceeds the dense cap {_DIM_CAP}")
    joint = psi.amps
    for _ in range(n):
        joint = np.kron(joint, phi_ref.amps)
    coords = _sym_basis_cached(d, n + 1).conj().T @ joint
    return float(np.vdot(coords, coords).real)


def reference_frame_effect(phi_ref: StateVector, n: int) -> Operator:
    """Effective single-system measurement operator induced by n symmetric reference copies.

    Equals |phi><phi| + (1/(n+1)) (1 - |phi><phi|): aligned states always
    pass, orthogonal ones pass with probability 1/(n+1), which decays to the
    sharp projector as the reference grows.
    """
    if n < 1:
        raise ValueError(f"need at least one reference copy, got {n}")
    proj = np.outer(phi_ref.amps, phi_ref.amps.conj())
    eye = np.eye(phi_ref.dim, dtype=np.complex128)
    return Operator(proj + (eye - proj) / (n + 1))


@dataclass(frozen=True)
class SymSpanReport:
    """What duplicated two-qubit states span inside the symmetric subspace."""

    samples: int
    sym_dim: int
    product_span_rank: int
    max_lambda_overlap: float
    min_entangled_lambda_overlap: float


def sym_span_analysis(samples: int, rng: RngStream) -> SymSpanReport:
    """Probe the geometry of duplicated states x (x) x on two two-qubit copies.

    Duplicated product states span a nine-dimensional slice of the
    ten-dimensional symmetric subspace; the invariant state is the missing
    direction, orthogonal to every duplicated product state but never to a
    duplicated entangled one.
    """
    if samples < 20:
        raise ValueError(f"need at least 20 samples for a meaningful span, got {samples}")
    lam = lambda_state()
    sym_dim = _sym_basis_cached(4, 2).shape[1]

    rows = np.empty((samples, 16), dtype=np.complex128)
    max_product_overlap = 0.0
    for i in range(samples):
        a = random_state(2, rng)
        b = random_state(2, rng)
        dup = duplicate_state(tensor_state(a, b))
        rows[i] = dup.amps
        max_product_overlap = max(max_product_overlap, abs(lam.overlap(dup)))
    singular = np.linalg.svd(rows, compute_uv=False)
    rank = int((singular > 1e-8 * singular[0]).sum())

    min_entangled_overlap = math.inf
    for _ in range(samples):
        dup = duplicate_state(random_state(4, rng))
        min_entangled_overlap = min(min_entangled_overlap, abs(lam.overlap(dup)))

    return SymSpanReport(
        samples=samples,
        sym_dim=sym_dim,
        product_span_rank=rank,
        max_lambda_overlap=float(max_product_overlap),
        min_entangled_lambda_overlap=float(min_entangled_overlap),
    )


@lru_cache(maxsize=None)
def tau_states() -> tuple[DensityOperator, DensityOperator]:
    """The two perfectly distinguishable four-qubit pairing signals.

    The first state puts a singlet across qubits (1,3) and the uniform
    symmetric mixture across (2,4); the second swaps the two roles.  Both
    are invariant under duplicated ordered elements v (x) w (x) v (x) w, and
    their supports are orthogonal.  Built once; the entries are read-only.
    """
    singlet_rho = DensityOperator.from_state(_singlet()).entries
    sym_mix = _sym_projector_cached(2, 2) / 3.0
    interleave = permutation_operator((2, 2, 2, 2), _PAIR_INTERLEAVE).entries
    tau = interleave @ np.kron(singlet_rho, sym_mix) @ interleave.T
    tau_prime = interleave @ np.kron(sym_mix, singlet_rho) @ interleave.T
    for mat in (tau, tau_prime):
        mat.setflags(write=False)
    return DensityOperator(tau), DensityOperator(tau_prime)


class OrderingVerdict(enum.Enum):
    SAME = "Same"
    SWAPPED = "Swapped"
    AMBIGUOUS = "Ambiguous"


def ordering_discriminate(received: DensityOperator) -> OrderingVerdict:
    """Decide which pairing signal a 16-dimensional state matches.

    Projects onto the support of the first signal state: probability 1
    means the sender used the same pair ordering, 0 the swapped one, and
    anything in between is reported as ambiguous.  The first signal is a
    rank-3 projector divided by 3, so its support projector is 3 * tau.
    """
    if received.dim != 16:
        raise ValueError(f"expected a four-qubit state, got dim {received.dim}")
    tau, _ = tau_states()
    weight = 3.0 * float(np.trace(tau.entries @ received.entries).real)
    if weight >= 1.0 - TOL_ORDERING:
        return OrderingVerdict.SAME
    if weight <= TOL_ORDERING:
        return OrderingVerdict.SWAPPED
    return OrderingVerdict.AMBIGUOUS
