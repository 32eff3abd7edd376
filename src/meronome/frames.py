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
    BipartiteSplit,
    Operator,
    StateVector,
    distance_up_to_phase,
    kron,
    permutation_operator,
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
        if self.swap:
            mat = mat @ swap_operator(self.v.dim)
        return mat


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
    left = u.copy()
    right = vh.T.copy()  # columns right[:, k] = vh[k, :], no conjugation
    for k in range(s.shape[0]):
        col = left[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if idx.size:
            # rotate the pair of columns by opposite phases; the product is unchanged
            phase = col[idx[0]] / abs(col[idx[0]])
            left[:, k] = col / phase
            right[:, k] = right[:, k] * phase
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


# How a Pauli acting on one Bell-frame subsystem looks as an ordinary
# two-qubit operator: (label, side) -> (sign, left label, right label).
_BELL_PAULI_TABLE = {
    ("X", "A"): (1.0, "I", "X"),
    ("Y", "A"): (1.0, "Z", "Y"),
    ("Z", "A"): (1.0, "Z", "Z"),
    ("X", "B"): (1.0, "Z", "I"),
    ("Y", "B"): (-1.0, "Y", "X"),
    ("Z", "B"): (1.0, "X", "X"),
}


def ab_pauli(label: str, side: str) -> Operator:
    """Pauli `label` on Bell-frame subsystem `side` ('A' or 'B'), as a two-qubit matrix.

    Subsystem A distinguishes even from odd parity, subsystem B the relative
    sign; the returned operator acts on ordinary two-qubit amplitudes and is
    the identity on the other Bell-frame subsystem.
    """
    try:
        sign, left, right = _BELL_PAULI_TABLE[(label, side)]
    except KeyError:
        raise ValueError(f"no dictionary entry for Pauli {label!r} on side {side!r}") from None
    return Operator(sign * np.kron(_SIGMA[left], _SIGMA[right]))


def spin_hamiltonian(alpha: float, beta: float) -> Operator:
    """Two-qubit coupling alpha * Z(x)Z + beta * X(x)X.

    In the Bell frame this is a sum of single-subsystem terms
    alpha * Z_A + beta * Z_B, so its eigenvectors are the Bell states and
    its spectrum is {+-alpha +- beta}.
    """
    return Operator(alpha * np.kron(_SIGMA["Z"], _SIGMA["Z"]) + beta * np.kron(_SIGMA["X"], _SIGMA["X"]))


def _realign(mat: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    # U[(i1 i2), (j1 j2)] -> R[(i1 j1), (i2 j2)]: product operators become rank one.
    d1, d2 = split.d1, split.d2
    return mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def _try_product_form(mat: np.ndarray, split: BipartiteSplit, tol: float):
    """Return (v, w) unitaries with mat ~ phase * v (x) w, or the defect if none."""
    d1, d2 = split.d1, split.d2
    p, s, qh = np.linalg.svd(_realign(mat, split))
    # For a unitary, sum(s^2) == d1*d2; rank one in the realigned picture
    # means the top singular value carries all of it.
    defect = float(max(d1 * d2 - s[0] ** 2, 0.0))
    if s[0] ** 2 < (1.0 - tol) * d1 * d2:
        return None, defect
    a_raw = p[:, 0].reshape(d1, d1)
    b_raw = qh[0, :].reshape(d2, d2)
    # Nearest unitaries via the polar decomposition of each factor.
    ua, _, vha = np.linalg.svd(a_raw)
    ub, _, vhb = np.linalg.svd(b_raw)
    v = ua @ vha
    w = ub @ vhb
    # Pin v's phase; push the compensating phase into w so v (x) w is unchanged.
    pivot = np.flatnonzero(np.abs(v) > 1e-12)[0]
    phase = v.flat[pivot] / abs(v.flat[pivot])
    return (Operator(v / phase), Operator(w * phase)), defect


def factor_as_local(u: Operator, split: BipartiteSplit, tol: float = 1e-8) -> MembershipResult:
    """Decide whether a unitary preserves the given decomposition.

    Local means u = phase * v (x) w; SwapLocal means u = phase * (v (x) w) * swap
    (only possible for d1 == d2).  Anything else is NotMember.
    """
    if u.dim != split.dim:
        raise ValueError(f"operator dim {u.dim} does not match split {split.d1}x{split.d2}")
    if not u.is_unitary(max(tol, TOL_ALGEBRA)):
        raise ValueError("membership test requires a unitary input")

    factors, defect = _try_product_form(u.entries, split, tol)
    if factors is not None:
        v, w = factors
        residual = distance_up_to_phase(u.entries, np.kron(v.entries, w.entries))
        return MembershipResult(Membership.LOCAL, (v, w), residual)

    best = np.sqrt(defect)
    if split.d1 == split.d2:
        swap = swap_operator(split.d1).entries
        factors, swap_defect = _try_product_form(u.entries @ swap, split, tol)
        if factors is not None:
            v, w = factors
            residual = distance_up_to_phase(u.entries, np.kron(v.entries, w.entries) @ swap)
            return MembershipResult(Membership.SWAP_LOCAL, (v, w), residual)
        best = min(best, np.sqrt(swap_defect))

    return MembershipResult(Membership.NOT_MEMBER, None, float(best))
