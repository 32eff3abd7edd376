"""Meronomic frames: alternative tensor-factor decompositions of one Hilbert space.

A bipartite decomposition of a dim = d1*d2 space is characterized up to
relabeling by the group of "decomposition-preserving" unitaries: products
v (x) w of local unitaries, together with the swap of the two factors when
d1 == d2.  Two decompositions are the same frame exactly when they differ
by such an element, so frame questions reduce to the membership test
implemented in factor_as_local().

The module also carries two worked frames on two qubits: the Bell frame
(the basis-change taking the four Bell states to the product basis) and a
one-parameter family of phase frames, plus the induced dictionary between
Pauli operators on the Bell-frame subsystems and ordinary two-qubit
operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    TOL_ALGEBRA,
    TOL_EIGEN,
    BipartiteSplit,
    Operator,
    StateVector,
    distance_up_to_phase,
    kron,
    permutation_operator,
    phase_fix,
)

_SIGMA = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli(label: str) -> Operator:
    """Single-qubit Pauli operator by label I, X, Y or Z."""
    try:
        return Operator(_SIGMA[label])
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


class Entanglement(enum.Enum):
    PRODUCT = "Product"
    ENTANGLED = "Entangled"
    MAXIMALLY_ENTANGLED = "MaximallyEntangled"


class Membership(enum.Enum):
    LOCAL = "Local"
    SWAP_LOCAL = "SwapLocal"
    NOT_MEMBER = "NotMember"


def swap_operator(d: int) -> Operator:
    """The unitary exchanging the two factors of a d x d decomposition."""
    return permutation_operator([d, d], (1, 0))


def _times_swap(mat: np.ndarray, d: int) -> np.ndarray:
    """mat @ swap_operator(d) without the matrix: column (a, b) of the product is column (b, a) of mat."""
    return mat.reshape(mat.shape[0], d, d).transpose(0, 2, 1).reshape(mat.shape)


@dataclass(frozen=True, eq=False)
class MeronomicElement:
    """One decomposition-preserving unitary: (v (x) w) then optionally the factor swap.

    The swap flag is only meaningful for equal factor dimensions.
    """

    v: Operator
    w: Operator
    swap: bool = False

    def __post_init__(self):
        if not self.v.is_unitary(TOL_ALGEBRA) or not self.w.is_unitary(TOL_ALGEBRA):
            raise ValueError("factors of a meronomic element must be unitary")
        if self.swap and self.v.dim != self.w.dim:
            raise ValueError("factor swap requires equal subsystem dimensions")

    @classmethod
    def identity(cls, split: BipartiteSplit) -> "MeronomicElement":
        return cls(Operator.identity(split.d1), Operator.identity(split.d2))

    @property
    def split(self) -> BipartiteSplit:
        return BipartiteSplit(self.v.dim, self.w.dim)

    def act(self, amps: np.ndarray) -> np.ndarray:
        """Raw amplitudes of (v (x) w) * swap applied to `amps`, via the factors.

        With Psi = amps reshaped to (d1, d2) the swap is Psi^T and v (x) w is
        v Psi w^T, so no composite matrix is built.  Nothing is renormalized.
        """
        psi = amps.reshape(self.v.dim, self.w.dim)
        if self.swap:
            psi = psi.T
        return (self.v.entries @ psi @ self.w.entries.T).reshape(-1)

    def to_operator(self) -> Operator:
        """The full matrix (v (x) w) * swap, for membership tests that need it whole."""
        mat = kron(self.v, self.w)
        return Operator(_times_swap(mat.entries, self.v.dim)) if self.swap else mat


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """state = sum_k sqrt(params[k]) * left[:, k] (x) right[:, k].

    params are the squared Schmidt coefficients, descending; left/right
    columns are orthonormal.
    """

    params: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        if abs(params.sum() - 1.0) > 1e-9 or params.min() < -1e-12:
            raise ValueError("Schmidt parameters must be nonnegative and sum to 1")
        object.__setattr__(self, "params", params)

    def reconstruct(self) -> StateVector:
        weights = np.sqrt(np.clip(self.params, 0.0, None))
        mat = (self.left * weights) @ self.right.T
        return StateVector(mat.reshape(-1))


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Outcome of testing a unitary against the decomposition-preserving group.

    For Local / SwapLocal verdicts, `factors` reconstructs the input up to a
    global phase within `residual`.  For NotMember, `residual` is the
    Frobenius distance to the nearest product-form unitary (over both the
    plain and the swapped branch) and `factors` is None.
    """

    verdict: Membership
    factors: Optional[tuple[Operator, Operator]]
    residual: float


def schmidt_decompose(state: StateVector, split: BipartiteSplit) -> SchmidtDecomposition:
    """Schmidt data of a pure state with respect to a bipartite split."""
    if state.dim != split.dim:
        raise ValueError(f"state dim {state.dim} does not match split {split.d1}x{split.d2}")
    mat = state.amps.reshape(split.d1, split.d2)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    left, phases = phase_fix(u)
    right = vh.T * phases  # columns right[:, k] = vh[k, :] times the phase taken off left[:, k]
    return SchmidtDecomposition(params=s**2, left=left, right=right)


def classify(state: StateVector, split: BipartiteSplit, tol: float = TOL_ALGEBRA) -> Entanglement:
    """Entanglement class of a pure state relative to a split.

    Product when one Schmidt parameter carries all the weight, maximally
    entangled when all min(d1, d2) parameters are equal; Product wins when
    both hold (trivial splits with min(d1, d2) == 1).
    """
    params = schmidt_decompose(state, split).params
    if params[0] >= 1.0 - tol:
        return Entanglement.PRODUCT
    if np.abs(params - 1.0 / min(split.d1, split.d2)).max() <= tol:
        return Entanglement.MAXIMALLY_ENTANGLED
    return Entanglement.ENTANGLED


def apply_element(elem: MeronomicElement, state: StateVector, split: BipartiteSplit) -> StateVector:
    """Act with a decomposition-preserving element on a composite state."""
    if elem.split != split:
        raise ValueError(f"element acts on {elem.split}, state split is {split}")
    return StateVector(elem.act(state.amps))


def bell_frame_unitary() -> Operator:
    """Two-qubit basis change sending the Bell basis to the product basis.

    Columns map |00>,|01>,|10>,|11> images of the four Bell states: the
    even-parity pair goes to the first "subsystem = 0" block and the
    odd-parity pair to the second, with the sign bit becoming the second
    new subsystem.
    """
    s = 1.0 / np.sqrt(2.0)
    bells = np.array(
        [
            [s, 0, 0, s],   # (|00> + |11>)/sqrt(2)
            [s, 0, 0, -s],  # (|00> - |11>)/sqrt(2)
            [0, s, s, 0],   # (|01> + |10>)/sqrt(2)
            [0, s, -s, 0],  # (|01> - |10>)/sqrt(2)
        ],
        dtype=np.complex128,
    )
    return Operator(bells)


def theta_frame_unitary(theta: float) -> Operator:
    """One-parameter frame change diag(1, 1, 1, exp(-i*theta)) on two qubits.

    At theta = 0 this is the identity; as theta grows the new decomposition
    disagrees with the original about which states are product.
    """
    return Operator(np.diag([1.0, 1.0, 1.0, np.exp(-1j * theta)]).astype(np.complex128))


def ab_pauli(label: str, side: str) -> Operator:
    """Pauli `label` on Bell-frame subsystem `side` ('A' or 'B'), as a two-qubit matrix.

    Subsystem A distinguishes even from odd parity, subsystem B the relative
    sign; the returned operator acts on ordinary two-qubit amplitudes and is
    the identity on the other Bell-frame subsystem.  It is U^dag (sigma (x) 1) U or
    U^dag (1 (x) sigma) U with U = bell_frame_unitary(), read out as the exact
    signed two-qubit Pauli string it equals.
    """
    if label not in ("X", "Y", "Z") or side not in ("A", "B"):
        raise ValueError(f"no dictionary entry for Pauli {label!r} on side {side!r}")
    u, eye = bell_frame_unitary().entries, _SIGMA["I"]
    local = np.kron(_SIGMA[label], eye) if side == "A" else np.kron(eye, _SIGMA[label])
    strings = np.array([np.kron(left, right) for left in _SIGMA.values() for right in _SIGMA.values()])
    # The 16 strings are orthogonal with squared norm 4, so tr(P^dag M) / 4 is M's coefficient on P.
    coeffs = np.einsum("kij,ij->k", strings.conj(), u.conj().T @ local @ u).real / 4
    best = np.abs(coeffs).argmax()
    return Operator(float(np.round(coeffs[best])) * strings[best])


def spin_hamiltonian(alpha: float, beta: float) -> Operator:
    """Two-qubit coupling alpha * Z(x)Z + beta * X(x)X.

    In the Bell frame this is a sum of single-subsystem terms
    alpha * Z_A + beta * Z_B, so its eigenvectors are the Bell states and
    its spectrum is {+-alpha +- beta}.
    """
    return Operator(alpha * ab_pauli("Z", "A").entries + beta * ab_pauli("Z", "B").entries)


def _try_product_form(branches: np.ndarray, split: BipartiteSplit, tol: float):
    """Membership of the first branch (Local, then SwapLocal) whose unitaries v, w give phase * v (x) w
    within tol, else NotMember with the smallest residual or, where no factors formed, rank-one defect."""
    d1, d2 = split.d1, split.d2
    # U[(i1 i2), (j1 j2)] -> R[(i1 j1), (i2 j2)] per branch: product operators become rank one.
    realigned = branches.reshape(-1, d1, d2, d1, d2).transpose(0, 1, 3, 2, 4).reshape(-1, d1 * d1, d2 * d2)
    p, s, qh = np.linalg.svd(realigned)
    best = np.inf
    for k, mat in enumerate(branches):
        # For a unitary sum(s^2) == d1*d2; rank one in the realigned picture means s[0] carries all of it.
        if s[k, 0] ** 2 < (1.0 - tol) * d1 * d2:
            best = min(best, float(np.sqrt(max(d1 * d2 - s[k, 0] ** 2, 0.0))))
            continue
        raw = p[k, :, 0].reshape(1, d1, d1), qh[k, 0, :].reshape(1, d2, d2)
        # Nearest unitaries via the polar decomposition of each factor, in one SVD when d1 == d2.
        stacks = [np.concatenate(raw)] if d1 == d2 else raw
        v, w = (unitary for left, _, right in map(np.linalg.svd, stacks) for unitary in left @ right)
        # Pin v's phase (v read row by row as one column); w takes it back, so v (x) w is unchanged.
        flat, phases = phase_fix(v.reshape(-1, 1))
        factors = Operator(flat.reshape(d1, d1)), Operator(w * phases[0])
        residual = distance_up_to_phase(mat, kron(*factors).entries)
        if residual <= tol:
            return MembershipResult((Membership.LOCAL, Membership.SWAP_LOCAL)[k], factors, residual)
        best = min(best, residual)
    return MembershipResult(Membership.NOT_MEMBER, None, float(best))


def factor_as_local(u: Operator, split: BipartiteSplit, tol: float = TOL_EIGEN) -> MembershipResult:
    """Decide whether a unitary preserves the given decomposition.

    Local means u = phase * v (x) w; SwapLocal means u = phase * (v (x) w) * swap
    (only possible for d1 == d2), each only when the factors reconstruct u
    up to phase with residual <= tol.  Anything else is NotMember.
    """
    if u.dim != split.dim:
        raise ValueError(f"operator dim {u.dim} does not match split {split.d1}x{split.d2}")
    if not u.is_unitary(max(tol, TOL_ALGEBRA)):
        raise ValueError("membership test requires a unitary input")

    branches = [u.entries, _times_swap(u.entries, split.d1)] if split.d1 == split.d2 else [u.entries]
    return _try_product_form(np.array(branches), split, tol)
