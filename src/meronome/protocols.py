"""Operational protocols that work without a shared tensor-factor convention.

Each task here only relies on structure every decomposition-preserving
element leaves alone: maximal entanglement (superdense signaling), the
symmetric subspace of repeated references, and the commutant of duplicated
elements on two copies.  With the copies ordered (A1 B1 A2 B2), F_A swapping
A1 with A2 and F_B swapping B1 with B2, every g (x) g with g = v (x) w
commutes with the four projectors P_ab = P_a^A P_b^B, where P_S, P_A =
(1 +- F)/2.  On qubits the invariant effect Lambda is the rank-1 P_AA, whose
probability on phi (x) phi is |det Phi|^2 = (1 - tr rho_A^2)/2 = lam(1 - lam);
the pair-ordering signals are tau = P_AS/3 and tau' = P_SA/3, which the
duplicated factor swap exchanges.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import apply_element
from .linalg import BipartiteSplit, DensityOperator, Operator, StateVector, permutation_operator
from .sampling import random_m_element, random_maxent_state, random_states, sample_m_chunks

_DIM_CAP = 4096  # dense operators and joint vectors stay cheap below this
TOL_ORDERING = 1e-6  # ordering_discriminate: the signals weigh exactly 1 and 0; roundoff moves that by ~1e-15


@lru_cache(maxsize=None)
def shift_unitary(d: int) -> Operator:
    """Cyclic shift |k> -> |k+1 mod d>; traceless for every d >= 2.  Built once per d; the entries are read-only."""
    if d < 2:
        raise ValueError(f"shift needs dimension >= 2, got {d}")
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    mat.setflags(write=False)
    return Operator(mat)


@dataclass(frozen=True)
class SuperdenseReport:
    """One round of one-bit signaling through a shared maximally entangled pair."""

    dim: int
    bit: int
    overlap_modulus: float
    decoded: int
    decode_success: bool


def superdense_round(d: int, bit: int, rng: np.random.Generator) -> SuperdenseReport:
    """Send one bit through a maximally entangled d x d pair, frame-independently.

    The shared pair is Haar random and then scrambled by a random
    decomposition-preserving element, so neither party can rely on a
    particular product basis.  Encoding bit 1 applies the traceless cyclic
    shift w to the first factor, as w @ Psi on the d x d amplitude matrix;
    the receiver projects onto the original state and decodes by majority
    of that outcome.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    split = BipartiteSplit(d, d)
    shared = random_maxent_state(d, rng)
    scramble = random_m_element(split, rng)
    shared = apply_element(scramble, shared, split)

    sent = StateVector((shift_unitary(d).entries @ shared.amps.reshape(d, d)).reshape(-1)) if bit == 1 else shared

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


@lru_cache(maxsize=None)
def _pair_projectors(d1: int, d2: int) -> dict[str, np.ndarray]:
    """The read-only P_ab = P_a^A P_b^B on two d1 x d2 copies ordered (A1 B1 A2 B2), keyed "SS", "SA", "AS", "AA".

    P_S, P_A = (1 +- F)/2 for F_A swapping A1 with A2 and F_B swapping B1 with B2; they are orthogonal, sum
    to 1 and commute with every duplicated element g (x) g with g = v (x) w.
    """
    eye = np.eye((d1 * d2) ** 2, dtype=np.complex128)
    f_a = permutation_operator((d1, d2, d1, d2), (2, 1, 0, 3)).entries
    f_b = permutation_operator((d1, d2, d1, d2), (0, 3, 2, 1)).entries
    side_a = {"S": (eye + f_a) / 2, "A": (eye - f_a) / 2}
    side_b = {"S": (eye + f_b) / 2, "A": (eye - f_b) / 2}
    projectors = {a + b: side_a[a] @ side_b[b] for a in "SA" for b in "SA"}
    for mat in projectors.values():
        mat.setflags(write=False)
    return projectors


def lambda_state() -> StateVector:
    """The invariant four-qubit state spanning P_AA: amplitudes +-1/2 on |0011>, |0110>, |1001>, |1100>.

    Viewing qubits (1,2) and (3,4) as two copies of the same composite
    system, every duplicated element g (x) g maps this state to itself up to
    phase, so the projector onto it is a decomposition-independent effect.
    """
    return StateVector.normalized(_pair_projectors(2, 2)["AA"][:, 0b0011])


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinant of a 2x2 matrix, or of each one in a stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def lambda_effect_probability(phi: StateVector) -> float:
    """Probability of the invariant-state effect on two copies of a two-qubit state.

    <Lambda| phi (x) phi> = det Phi for the 2x2 amplitude matrix Phi, so this
    is |det Phi|^2 = p * (1 - p) where p is the smaller Schmidt parameter of
    phi: it vanishes exactly on product states and peaks at 1/4 for maximally
    entangled ones.
    """
    if phi.dim != 4:
        raise ValueError(f"expected a two-qubit state, got dim {phi.dim}")
    return float(abs(_det2(phi.amps.reshape(2, 2))) ** 2)


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
        if shots < 1 or not 0 <= hits <= shots:
            raise ValueError(f"need shots >= 1 and 0 <= hits <= shots, got shots={shots}, hits={hits}")
        p_hat = hits / shots
        lambda_hat = (1.0 - math.sqrt(1.0 - 4.0 * min(p_hat, 0.25))) / 2.0
        return cls(shots=shots, hits=hits, p_hat=p_hat, lambda_hat=lambda_hat)


def _hit_probabilities(det_phi: complex, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per shot |<Lambda| phi' (x) phi'>|^2 = |det v * det Phi * det w|^2, the overlap being det Phi' of
    the disguised amplitude matrix Phi' = v Phi w^T; a swap transposes Phi and keeps its determinant."""
    return np.abs(_det2(v) * det_phi * _det2(w)) ** 2


def sample_lambda_measurement(lam: float, shots: int, rng: np.random.Generator) -> LambdaEstimate:
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
        hits += int((rng.random(len(v)) < _hit_probabilities(det_phi, v, w)).sum())
    return LambdaEstimate.from_hits(shots, hits)


@lru_cache(maxsize=None)
def _sym_classes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation classes (digit multisets) of (C^d)^(x n): the read-only label of each index and the size of each class."""
    if d > 1 and (n >= _DIM_CAP.bit_length() or d**n > _DIM_CAP):  # 2^n alone tops the cap from there on
        raise ValueError(f"n = {n} copies of dimension d = {d} exceed the dense cap {_DIM_CAP} on d^n")
    places = d ** np.arange(n - 1, -1, -1) if d > 1 else np.ones(1, dtype=int)  # d = 1: one index, one class, any n
    digits = (np.arange(d**n)[:, None] // places) % d  # row k: the base-d digits of k
    _, labels, sizes = np.unique(np.sort(digits, axis=1) @ places, return_inverse=True, return_counts=True)
    for array in (labels, sizes):
        array.setflags(write=False)
    return labels, sizes


def sym_projector(d: int, n: int) -> Operator:
    """Orthogonal projector onto the symmetric subspace of n copies of a d-level system."""
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    labels, sizes = _sym_classes(d, n)
    return Operator((labels[:, None] == labels) / sizes[labels][:, None])


def measure_sym_subspace(psi: StateVector, phi_ref: StateVector, n: int) -> float:
    """Probability that psi together with n reference copies of phi_ref is fully symmetric."""
    if psi.dim != phi_ref.dim:
        raise ValueError(f"system dim {psi.dim} and reference dim {phi_ref.dim} differ")
    if n < 1:
        raise ValueError(f"need at least one reference copy, got {n}")
    if psi.dim == 1:
        return 1.0  # one level: every joint state is symmetric
    labels, sizes = _sym_classes(psi.dim, n + 1)
    joint = psi.amps
    for _ in range(n):
        joint = np.kron(joint, phi_ref.amps)
    # The classes' normalized equal-weight superpositions are an orthonormal basis of the symmetric subspace;
    # class k's has coordinate s_k / sqrt(size_k), s_k the sum of the class's joint amplitudes.
    squares = np.bincount(labels, joint.real) ** 2 + np.bincount(labels, joint.imag) ** 2  # |s_k|^2
    return float((squares / sizes).sum())


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


def sym_span_analysis(samples: int, rng: np.random.Generator) -> SymSpanReport:
    """Probe the geometry of duplicated states x (x) x on two two-qubit copies.

    Duplicated product states span a nine-dimensional slice of the
    ten-dimensional symmetric subspace; the invariant state is the missing
    direction, orthogonal to every duplicated product state but never to a
    duplicated entangled one.
    """
    if samples < 20:
        raise ValueError(f"need at least 20 samples for a meaningful span, got {samples}")
    states = np.concatenate([random_states((2, 2), samples, rng), random_states((4,), samples, rng)])
    dup_products, dup_entangled = (states[:, :, None] * states[:, None, :]).reshape(2, samples, 16)  # x (x) x
    singular = np.linalg.svd(dup_products, compute_uv=False)
    lam = lambda_state().amps.conj()
    return SymSpanReport(
        samples=samples,
        sym_dim=len(_sym_classes(4, 2)[1]),
        product_span_rank=int((singular > 1e-8 * singular[0]).sum()),
        max_lambda_overlap=float(np.abs(dup_products @ lam).max()),
        min_entangled_lambda_overlap=float(np.abs(dup_entangled @ lam).min()),
    )


@lru_cache(maxsize=None)
def tau_states() -> tuple[DensityOperator, DensityOperator]:
    """The two perfectly distinguishable four-qubit pairing signals, P_AS/3 and P_SA/3.

    The first state is antisymmetric across qubits (1,3) and symmetric across
    (2,4), a singlet times the uniform symmetric mixture; the second swaps the
    two roles.  Both are invariant under duplicated ordered elements
    v (x) w (x) v (x) w, and their supports are orthogonal.  Built once; the
    entries are read-only.
    """
    signals = tuple(DensityOperator(_pair_projectors(2, 2)[key] / 3.0) for key in ("AS", "SA"))
    for rho in signals:
        rho.entries.setflags(write=False)
    return signals


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
