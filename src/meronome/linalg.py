"""Dense linear algebra for small multipartite quantum systems.

Everything here works on explicit numpy arrays: state vectors are 1-D
complex arrays indexed in row-major order with the *first* subsystem most
significant, operators are square complex matrices in the same basis.
The wrapper dataclasses exist to enforce the cheap invariants (unit norm,
hermiticity, positivity) at construction time so downstream code can rely
on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for checks that hold exactly in algebra (norms, hermiticity,
# reconstruction identities) and a looser one for anything that has been
# through an iterative eigensolver / SVD.
TOL_ALGEBRA = 1e-10
TOL_EIGEN = 1e-8


def _as_complex_vector(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D amplitude array, got shape {arr.shape}")
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def phase_fix(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each (nonzero) column of `mat` by the phase of its pivot; return (fixed, phases).

    The pivot, the first entry above 1e-12 of the column's largest modulus, comes out positive
    real, and mat == fixed * phases.
    """
    mod = np.abs(mat)
    first = (mod > 1e-12 * mod.max(axis=0)).argmax(axis=0)
    pivots = mat[first, np.arange(mat.shape[1])]
    phases = pivots / np.hypot(pivots.real, pivots.imag)  # scalar abs(); SIMD np.abs can differ in the last bit
    return mat / phases, phases


def distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius (or 2-norm) distance between a and b minimized over a global phase on b."""
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


@dataclass(frozen=True)
class BipartiteSplit:
    """A fixed factorization dim = d1 * d2 of a composite system."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.d1}x{self.d2}")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state amplitudes; unit norm is enforced to TOL_ALGEBRA."""

    amps: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amps)
        norm = np.linalg.norm(arr)
        if not math.isfinite(norm):
            raise ValueError(f"state vector norm is non-finite ({norm})")
        if abs(norm - 1.0) > TOL_ALGEBRA:
            raise ValueError(f"state vector norm is {norm!r}, expected 1 within {TOL_ALGEBRA}")
        object.__setattr__(self, "amps", arr)

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Build a state from any finite nonzero amplitudes: divide by the largest |re| or |im|, then by the norm."""
        arr = _as_complex_vector(values)
        big = np.abs(arr.view(np.float64)).max(initial=0.0)
        if not np.isfinite(big):
            raise ValueError("cannot normalize non-finite amplitudes")
        if big == 0.0:
            raise ValueError("cannot normalize a zero amplitude vector")
        mantissa, exponent = np.frexp(big)  # 2**-exponent scales exactly; 1 / big overflows when big is subnormal
        arr = np.ldexp(arr.view(np.float64), -exponent).view(np.complex128) / float(mantissa)  # 1 <= max |z| <= sqrt(2)
        return cls(arr / np.linalg.norm(arr))

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix acting on state vectors in the computational basis."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.entries @ other.entries)

    def apply(self, state: StateVector) -> StateVector:
        """Apply to a state. Intended for isometries; the result must stay normalized."""
        return StateVector(self.entries @ state.amps)

    def is_unitary(self, tol: float = TOL_ALGEBRA) -> bool:
        gram = self.entries.conj().T @ self.entries
        return bool(np.abs(gram - np.eye(self.dim)).max() <= tol)

    def is_hermitian(self, tol: float = TOL_ALGEBRA) -> bool:
        return bool(np.abs(self.entries - self.entries.conj().T).max() <= tol)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.entries)
        if not np.isfinite(arr).all():
            raise ValueError("density operator has non-finite entries")
        if np.abs(arr - arr.conj().T).max() > TOL_ALGEBRA:
            raise ValueError("density operator is not Hermitian")
        trace = arr.trace().real
        if abs(trace - 1.0) > TOL_ALGEBRA:
            raise ValueError(f"density operator trace is {trace!r}, expected 1")
        low = np.linalg.eigvalsh(arr).min()
        if low < -TOL_ALGEBRA:
            raise ValueError(f"density operator has negative eigenvalue {low!r}")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityOperator":
        return cls(np.outer(state.amps, state.amps.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of pure states, first factor most significant."""
    return StateVector(np.kron(a.amps, b.amps))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product a (x) b, matching the state index convention: a broadcast outer product, bitwise np.kron."""
    return Operator((a.entries[:, None, :, None] * b.entries[None, :, None, :]).reshape(a.dim * b.dim, -1))


def _check_permutation(dims, perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be >= 1, got {dims}")
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(dims) - 1}")
    return dims, perm


def permute_subsystems(state: StateVector, dims, perm) -> StateVector:
    """Move subsystem i of `state` to slot perm[i].

    `dims` lists the subsystem dimensions in the current order; `perm` is
    0-based.  The amplitude of |k_0 ... k_{n-1}> in the input becomes the
    amplitude of the basis vector carrying k_i at slot perm[i] in the output.
    """
    dims, perm = _check_permutation(dims, perm)
    if int(np.prod(dims)) != state.dim:
        raise ValueError(f"dims {dims} do not factor a dim-{state.dim} state")
    tensor = state.amps.reshape(dims)
    # output axis j holds the input axis that maps to j, i.e. the inverse permutation
    inverse = np.argsort(perm)
    return StateVector(np.ascontiguousarray(tensor.transpose(inverse)).reshape(-1))


def permutation_operator(dims, perm) -> Operator:
    """The unitary matrix implementing permute_subsystems(state, dims, perm): the same transpose on each column of 1."""
    dims, perm = _check_permutation(dims, perm)
    total = int(np.prod(dims))
    columns = np.eye(total, dtype=np.complex128).reshape(*dims, total)
    return Operator(columns.transpose(*np.argsort(perm), len(dims)).reshape(total, total))


def partial_trace(rho: DensityOperator, split: BipartiteSplit, keep: int) -> DensityOperator:
    """Trace out one side of a bipartite density operator.

    keep=0 keeps the first (most significant) subsystem, keep=1 the second.
    """
    if rho.dim != split.dim:
        raise ValueError(f"operator dim {rho.dim} does not match split {split.d1}x{split.d2}")
    blocks = rho.entries.reshape(split.d1, split.d2, split.d1, split.d2)
    if keep == 0:
        reduced = np.einsum("ijkj->ik", blocks)
    elif keep == 1:
        reduced = np.einsum("ijil->jl", blocks)
    else:
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    return DensityOperator(reduced)


def hermitian_eigensystem(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns.

    The input must be Hermitian within TOL_EIGEN.  Each eigenvector's phase
    is pinned by phase_fix, which keeps the output reproducible across runs.
    """
    if not op.is_hermitian(TOL_EIGEN):
        raise ValueError("matrix is not Hermitian within tolerance")
    herm = (op.entries + op.entries.conj().T) / 2.0
    values, vectors = np.linalg.eigh(herm)
    return values[::-1], phase_fix(vectors[:, ::-1])[0]  # eigh sorts ascending
