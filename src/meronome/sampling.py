"""Seeded randomness: Haar-distributed unitaries and Monte Carlo twirling.

All sampling goes through RngStream, a thin wrapper around numpy's
counter-based Philox generator.  A given seed fixes every draw bit for bit,
and streams can be split into independent child streams for worker-style
decomposition.  Output is bit-reproducible for a given (seed, workers); a
different worker count lays the draws out differently and gives other numbers.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import MeronomicElement
from .linalg import BipartiteSplit, DensityOperator, Operator, StateVector

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RngStream:
    """Deterministic random stream keyed by a 64-bit seed.

    Wraps numpy's Philox bit generator.  split(n) derives n independent
    child streams; children are reproducible functions of the parent seed
    and the order in which splits were requested.
    """

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._sequence = np.random.SeedSequence(self.seed) if _sequence is None else _sequence
        self._generator = np.random.Generator(np.random.Philox(self._sequence))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def split(self, n: int) -> list["RngStream"]:
        if n < 1:
            raise ValueError("cannot split into fewer than one stream")
        return [RngStream(self.seed, child) for child in self._sequence.spawn(n)]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def haar_unitary_batch(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Stack of `count` Haar-distributed dim x dim unitaries, shape (count, dim, dim).

    Ginibre matrix -> the Q of its QR with positive real diag(R), which is exactly
    Haar: up to dim 3 by modified Gram-Schmidt on the columns (several times
    faster), from dim 4 on by batched QR with columns rephased by diag(R).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    g = rng.generator
    z = (g.standard_normal((count, dim, dim)) + 1j * g.standard_normal((count, dim, dim))) * _INV_SQRT2
    if dim <= 3:
        for j in range(dim):
            col = z[:, :, j]
            for k in range(j):
                q = z[:, :, k]
                col -= q * (q.conj() * col).sum(axis=1, keepdims=True)
            col /= np.linalg.norm(col, axis=1, keepdims=True)
        return z
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(dim: int, rng: RngStream) -> Operator:
    """One Haar-distributed unitary."""
    return Operator(haar_unitary_batch(dim, 1, rng)[0])


def random_state(dim: int, rng: RngStream) -> StateVector:
    """Haar-distributed pure state (normalized complex Gaussian vector)."""
    g = rng.generator
    z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return StateVector.normalized(z)


def random_product_state(split: BipartiteSplit, rng: RngStream) -> StateVector:
    """Tensor product of independent Haar-distributed factor states."""
    a = random_state(split.d1, rng)
    b = random_state(split.d2, rng)
    return StateVector(np.kron(a.amps, b.amps))


def random_maxent_state(d: int, rng: RngStream) -> StateVector:
    """Haar-random maximally entangled state on a d x d split.

    Local unitaries applied to the uniform diagonal state sum_k |kk>/sqrt(d);
    every maximally entangled state arises this way.
    """
    v, w = haar_unitary_batch(d, 2, rng)
    diag = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    return StateVector((v @ diag @ w.T).reshape(-1))


_CHUNK = 4096  # group samples per batch: bounds memory, and is part of the stream layout


def sample_m_chunks(split: BipartiteSplit, n: int, rng: RngStream):
    """Yield raw arrays (v stack, w stack, swap flags) for n group samples, at most _CHUNK at a time.

    Each batch draws all v, then all w, then swap bits, and only when requested,
    so what a caller draws between batches sits between them in the stream.
    """
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        v = haar_unitary_batch(split.d1, m, rng)
        w = haar_unitary_batch(split.d2, m, rng)
        if split.d1 == split.d2:
            swaps = rng.generator.integers(0, 2, size=m).astype(bool)
        else:
            swaps = np.zeros(m, dtype=bool)
        yield v, w, swaps


def random_m_element(split: BipartiteSplit, rng: RngStream) -> MeronomicElement:
    """Haar-random decomposition-preserving element.

    Both factors are independent Haar unitaries; for square splits the swap
    is included with probability 1/2, otherwise never.
    """
    v, w, swaps = next(sample_m_chunks(split, 1, rng))
    return MeronomicElement(Operator(v[0]), Operator(w[0]), bool(swaps[0]))


def exact_twirl(split: BipartiteSplit) -> DensityOperator:
    """Average of u rho u^dag over the whole decomposition-preserving group.

    Independent Haar averages over the two factors already wash out every
    input, so the result is the maximally mixed state regardless of rho.
    """
    return DensityOperator.maximally_mixed(split.dim)


def twirl_monte_carlo(
    rho: DensityOperator,
    split: BipartiteSplit,
    n: int,
    rng: RngStream,
) -> DensityOperator:
    """Monte Carlo estimate of the group twirl of rho from n random elements.

    Each element maps the factors c_k of rho = sum_k c_k c_k^dag (eigenvalues
    above roundoff) to v C_k w^T, or v C_k^T w^T when swapped.  Samples are
    drawn and accumulated in a fixed chunked order, so the result is a
    bit-reproducible function of the seed alone.  The average is renormalized
    to unit trace and symmetrized before wrapping.
    """
    if rho.dim != split.dim:
        raise ValueError(f"operator dim {rho.dim} does not match split {split.d1}x{split.d2}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    values, vectors = np.linalg.eigh(rho.entries)
    keep = values > 1e-14 * values[-1]
    c_mats = (vectors[:, keep] * np.sqrt(values[keep])).T.reshape(-1, split.d1, split.d2)
    acc = np.zeros((split.dim, split.dim), dtype=np.complex128)
    for v, w, swaps in sample_m_chunks(split, n, rng):
        for c in c_mats:
            if swaps.any():
                c = np.where(swaps[:, None, None], c.T, c)
            x = (v @ c @ w.transpose(0, 2, 1)).reshape(len(v), split.dim)
            acc += x.T @ x.conj()
    avg = acc / n
    avg = (avg + avg.conj().T) / 2.0
    avg = avg / avg.trace().real
    return DensityOperator(avg)
