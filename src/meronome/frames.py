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
import math
from dataclasses import dataclass
from functools import lru_cache
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
    unitary_defect,
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
    """mat @ swap_operator(d) without the matrix, for one or a stack: column (a, b) of the product is column (b, a)."""
    return mat.reshape(*mat.shape[:-1], d, d).swapaxes(-1, -2).reshape(mat.shape)


def _factor_action(v: np.ndarray, w: np.ndarray, swaps: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """v Psi w^T for each (d1, d2) amplitude matrix Psi in psi, on Psi^T where `swaps` is set, with v, w and the
    boolean array swaps broadcast against psi's leading axes: the action of a stack, of one element and of the twirl."""
    psi = np.where(swaps, psi.swapaxes(-1, -2), psi) if swaps.any() else psi
    return v @ psi @ w.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class ElementStack:
    """Decomposition-preserving unitaries on one split: row i is (v[i] (x) w[i]), then the factor swap if swaps[i].

    Construction checks every factor's unitarity in one batched Gram test; from_elements does not check again, as
    a MeronomicElement was checked when it was made.  stack[i] is row i as a (checked) MeronomicElement.
    """

    v: np.ndarray
    w: np.ndarray
    swaps: np.ndarray

    def __post_init__(self):
        v, w = np.ascontiguousarray(self.v, dtype=np.complex128), np.ascontiguousarray(self.w, dtype=np.complex128)
        swaps = np.asarray(self.swaps, dtype=bool)
        if swaps.ndim != 1 or v.shape != swaps.shape + v.shape[-1:] * 2 or w.shape != swaps.shape + w.shape[-1:] * 2:
            raise ValueError(f"expected shapes (n, d1, d1), (n, d2, d2), (n,), got {v.shape}, {w.shape}, {swaps.shape}")
        square = v.shape[1:] == w.shape[1:]
        for f in (np.concatenate((v, w)),) if square else (v, w):  # one Gram product per factor size
            if not unitary_defect(f) <= TOL_ALGEBRA:
                raise ValueError("factors of a meronomic element must be unitary")
        if not square and swaps.any():
            raise ValueError("factor swap requires equal subsystem dimensions")
        self.__dict__.update(v=v, w=w, swaps=swaps)

    @classmethod
    def from_elements(cls, elements) -> "ElementStack":
        """The stack of one or more MeronomicElements on one split, not checked again."""
        if len({elem.split for elem in elements}) != 1:
            raise ValueError("a stack takes one or more elements, all on one split")
        v, w, swaps = map(np.array, zip(*((elem.v.entries, elem.w.entries, elem.swap) for elem in elements)))
        stack = object.__new__(cls)  # no __post_init__: each element was checked when it was made
        stack.__dict__.update(v=v, w=w, swaps=swaps)
        return stack

    def __getitem__(self, i: int) -> "MeronomicElement":
        return MeronomicElement(Operator(self.v[i]), Operator(self.w[i]), bool(self.swaps[i]))

    @property
    def split(self) -> BipartiteSplit:
        return BipartiteSplit(self.v.shape[1], self.w.shape[1])

    def act(self, amps: np.ndarray) -> np.ndarray:
        """Raw amplitudes of row i applied to amps[i], for amps of shape (n, ..., d1*d2), through the factors: with Psi
        a state's amplitudes as (d1, d2), the swap is Psi^T and v (x) w is v Psi w^T.  Nothing is renormalized."""
        (n, d1, _), d2 = self.v.shape, self.w.shape[1]
        if amps.ndim < 2 or amps.shape[0] != n or amps.shape[-1] != d1 * d2:
            raise ValueError(f"a stack of {n} on {self.split} acts on amplitudes ({n}, ..., {d1 * d2}), got {amps.shape}")
        psi = amps.reshape(*amps.shape[:-1], d1, d2)
        row = (slice(None),) + (None,) * (psi.ndim - 3)  # element i broadcast over the extra axes of amps[i]
        return _factor_action(self.v[row], self.w[row], self.swaps[row + (None, None)], psi).reshape(amps.shape)

    def operators(self) -> np.ndarray:
        """The full matrices (v (x) w) * swap as one (n, D, D) array, for membership tests that need them whole."""
        (n, d1, _), d2 = self.v.shape, self.w.shape[1]
        mats = (self.v[:, :, None, :, None] * self.w[:, None, :, None, :]).reshape(n, d1 * d2, d1 * d2)  # linalg.kron
        return np.where(self.swaps[:, None, None], _times_swap(mats, d1), mats) if self.swaps.any() else mats


@dataclass(frozen=True, eq=False)
class MeronomicElement:
    """One decomposition-preserving unitary: (v (x) w) then optionally the factor swap, a record checked as a count-1
    ElementStack.  to_operator is row 0 of its one-row stack; apply_element acts by the stack's kernel, stack unbuilt.

    The swap flag is only meaningful for equal factor dimensions.
    """

    v: Operator
    w: Operator
    swap: bool = False

    def __post_init__(self):
        if not (isinstance(self.v, Operator) and isinstance(self.w, Operator)):
            raise TypeError(f"factors must be Operators, got {type(self.v).__name__} and {type(self.w).__name__}")
        ElementStack(self.v.entries[None], self.w.entries[None], [self.swap])  # the stack's checks and messages

    @classmethod
    def identity(cls, split: BipartiteSplit) -> "MeronomicElement":
        return cls(Operator.identity(split.d1), Operator.identity(split.d2))

    @property
    def split(self) -> BipartiteSplit:
        return BipartiteSplit(self.v.dim, self.w.dim)

    def to_operator(self) -> Operator:
        """The full matrix (v (x) w) * swap: row 0 of the element's one-row stack."""
        return Operator(ElementStack.from_elements([self]).operators()[0])


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

    Local / SwapLocal: `residual` is the Frobenius distance up to phase of the input from what `factors` rebuild.
    NotMember: `factors` is None and `residual` > tol is the certified bound below which no product unitary, plain
    or swapped, lies; or, where that bound is within tol but the polar factors are not, those factors' distance.
    """

    verdict: Membership
    factors: Optional[tuple[Operator, Operator]]
    residual: float


def schmidt_decompose(state: StateVector, split: BipartiteSplit) -> SchmidtDecomposition:
    """Schmidt data of a pure state with respect to a bipartite split."""
    if state.dim != split.dim:
        raise ValueError(f"state dim {state.dim} does not match split {split}")
    mat = state.amps.reshape(split.d1, split.d2)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    left, phases = phase_fix(u)
    right = vh.T * phases  # columns right[:, k] = vh[k, :] times the phase taken off left[:, k]
    return SchmidtDecomposition(params=s**2, left=left, right=right)


def classify(state: StateVector, split: BipartiteSplit, tol: float = TOL_ALGEBRA) -> Entanglement:
    """Entanglement class of a pure state relative to a split.

    Product when one Schmidt parameter carries all the weight, maximally
    entangled when all min(d1, d2) parameters are equal, each within tol in
    (0, 1/4); both hold only when min(d1, d2) == 1, and then Product wins.
    """
    if not 0.0 < tol < 0.25:  # at 1/4, Schmidt parameters (3/4, 1/4) would pass both tests
        raise ValueError(f"tol must lie in (0, 1/4), got {tol}")
    params = schmidt_decompose(state, split).params
    if params[0] >= 1.0 - tol:
        return Entanglement.PRODUCT
    if np.abs(params - 1.0 / min(split.d1, split.d2)).max() <= tol:
        return Entanglement.MAXIMALLY_ENTANGLED
    return Entanglement.ENTANGLED


def apply_element(elem: MeronomicElement, state: StateVector, split: BipartiteSplit) -> StateVector:
    """Act with a decomposition-preserving element on a composite state through its factors, by a stack's kernel."""
    if elem.split != split:
        raise ValueError(f"element acts on {elem.split}, state split is {split}")
    if state.dim != split.dim:
        raise ValueError(f"state dim {state.dim} does not match split {split}")
    psi = state.amps.reshape(split.d1, split.d2)
    return StateVector(_factor_action(elem.v.entries, elem.w.entries, np.bool_(elem.swap), psi).reshape(-1))


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
    """One-parameter frame change diag(1, 1, 1, exp(-i*theta)) on two qubits, for a finite theta.

    At theta = 0 this is the identity; as theta grows the new decomposition
    disagrees with the original about which states are product.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return Operator(np.diag([1.0, 1.0, 1.0, np.exp(-1j * theta)]).astype(np.complex128))


@lru_cache(maxsize=None)
def bell_pauli_dictionary() -> tuple[dict[tuple[str, str], Operator], float]:
    """The Bell-frame Pauli dictionary as (table, defect): table maps (label, side), side A then B and each X, Y, Z,
    to U^dag (sigma (x) 1) U or U^dag (1 (x) sigma) U with U = bell_frame_unitary(), each formed once and read out as
    the exact signed two-qubit Pauli string it equals; defect is the largest entry by which a string differs from its
    product.  Built once; the entries are read-only."""
    u, eye = bell_frame_unitary().entries, _SIGMA["I"]
    strings = np.array([np.kron(left, right) for left in _SIGMA.values() for right in _SIGMA.values()])
    keys = [(label, side) for side in "AB" for label in "XYZ"]
    products = [u.conj().T @ (np.kron(_SIGMA[p], eye) if side == "A" else np.kron(eye, _SIGMA[p])) @ u for p, side in keys]
    # The 16 strings are orthogonal with squared norm 4, so tr(P^dag M) / 4 is M's coefficient on P.
    coeffs = np.einsum("kij,nij->nk", strings.conj(), products).real / 4
    best = np.abs(coeffs).argmax(axis=1)
    exact = np.round(coeffs[range(len(keys)), best])[:, None, None] * strings[best]
    exact.setflags(write=False)
    return dict(zip(keys, map(Operator, exact))), float(np.abs(exact - products).max())


def ab_pauli(label: str, side: str) -> Operator:
    """Pauli `label` on Bell-frame subsystem `side` ('A' for parity, 'B' for the relative sign) and the identity on
    the other, as a two-qubit matrix: its read-only bell_pauli_dictionary() entry."""
    if label not in ("X", "Y", "Z") or side not in ("A", "B"):
        raise ValueError(f"no dictionary entry for Pauli {label!r} on side {side!r}")
    return bell_pauli_dictionary()[0][label, side]


def spin_hamiltonian(alpha: float, beta: float) -> Operator:
    """Two-qubit coupling alpha * Z(x)Z + beta * X(x)X, for finite alpha and beta.

    In the Bell frame this is a sum of single-subsystem terms
    alpha * Z_A + beta * Z_B, so its eigenvectors are the Bell states and
    its spectrum is {+-alpha +- beta}.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha} and {beta}")
    return Operator(alpha * ab_pauli("Z", "A").entries + beta * ab_pauli("Z", "B").entries)


def _try_product_form(branches: np.ndarray, split: BipartiteSplit, tol: float):
    """Membership decided on the branch (Local, or SwapLocal) nearest the product form: NotMember with that
    branch's certified bound when it exceeds tol, else the polar factors' verdict and distance."""
    d1, d2 = split.d1, split.d2
    # U[(i1 i2), (j1 j2)] -> R[(i1 j1), (i2 j2)] per branch: product operators become rank one.
    realigned = branches.reshape(-1, d1, d2, d1, d2).transpose(0, 1, 3, 2, 4).reshape(-1, d1 * d1, d2 * d2)
    p, s, qh = np.linalg.svd(realigned)
    # |U|^2 == sum(s^2) and |<v (x) w, U>| <= s[0] sqrt(D): every phase * v (x) w lies |s - sqrt(D) e_0| or more off.
    lower = [math.hypot(math.sqrt(d1 * d2) - top, *rest) for top, *rest in s.tolist()]
    k = lower.index(min(lower))
    if lower[k] > tol:
        return MembershipResult(Membership.NOT_MEMBER, None, lower[k])
    # Nearest unitaries via the polar decomposition of each factor, one SVD each.
    v, w = (a @ b for a, _, b in map(np.linalg.svd, (p[k, :, 0].reshape(d1, d1), qh[k, 0, :].reshape(d2, d2))))
    # Pin v's phase (v read row by row as one column); w takes it back, so v (x) w is unchanged.
    flat, phases = phase_fix(v.reshape(-1, 1))
    factors = Operator(flat.reshape(d1, d1)), Operator(w * phases[0])
    residual = distance_up_to_phase(branches[k], kron(*factors).entries)
    if residual > tol:
        return MembershipResult(Membership.NOT_MEMBER, None, residual)
    return MembershipResult((Membership.LOCAL, Membership.SWAP_LOCAL)[k], factors, residual)


def factor_as_local(u: Operator, split: BipartiteSplit, tol: float = TOL_EIGEN) -> MembershipResult:
    """Decide whether a unitary preserves the given decomposition.

    Local means u = phase * v (x) w; SwapLocal means u = phase * (v (x) w) * swap (only possible for d1 == d2),
    each only when the factors reconstruct u up to phase within tol; anything else is NotMember.  The branch whose
    bound |s - sqrt(D) e_0| (s: its realigned matrix's singular values) is smaller decides; see MembershipResult.
    """
    # The swap (d^2 unit singular values) lies >= sqrt(2d^2 - 2d) >= 2 from every v (x) w: below 1, one branch at most.
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if u.dim != split.dim:
        raise ValueError(f"operator dim {u.dim} does not match split {split}")
    if not unitary_defect(u.entries) <= max(tol, TOL_ALGEBRA):
        raise ValueError("membership test requires a unitary input")

    branches = [u.entries, _times_swap(u.entries, split.d1)] if split.d1 == split.d2 else [u.entries]
    return _try_product_form(np.array(branches), split, tol)
