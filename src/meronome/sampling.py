"""Seeded randomness: Haar-distributed unitaries, states and group elements, and Monte Carlo twirling.

Every sampler draws from a numpy Generator made by seeded(), which fixes the
counter-based Philox bit generator.  A given seed fixes every draw bit for
bit.  Only `twirl --workers` runs over several streams: twirl_monte_carlo
spawns them with Generator.spawn and splits the samples over them, so its
output is fixed by (seed, workers), and every other experiment's by the seed
alone.  Each distribution has one stacked sampler here; the count-1 views the
package calls sit beside it, and no other module draws Gaussians or swap
bits.  A maximally entangled state costs one Haar draw.  The twirl moves
rho's d1 x d2 factors and returns a plain array; its exact value is 1/D.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import ElementStack, MeronomicElement, _factor_action
from .linalg import BipartiteSplit, DensityOperator, Operator, StateVector

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SMALL_DIM = 3  # factors up to this size take the elementwise kernels of haar_unitary_batch and twirl_monte_carlo


def seeded(seed: int) -> np.random.Generator:
    """The random stream for `seed`: Philox, which is part of the stream layout."""
    return np.random.Generator(np.random.Philox(seed))


def _check_stack(dim: int, count: int) -> None:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def haar_unitary_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar-distributed dim x dim unitaries, shape (count, dim, dim).

    Ginibre matrix -> the Q of its QR with positive real diag(R), which is exactly Haar; three kernels by dim.
    Up to _SMALL_DIM they act on planes laid out (column, row, sample) and return a view of them.  At 2 and 3
    the last column is closed form, the unit vector the Gram-Schmidt columns before it leave, rephased to
    r = |s| > 0, s = det[q0, .., z_last]: q1 = (s/|s|)(-conj b, conj a) for q0 = (a, b), or q2 = (s/|s|)
    conj(q0 x q1).  At 1, q0 = z0/|z0|.  Above _SMALL_DIM batched QR with columns rephased by diag(R).
    """
    _check_stack(dim, count)
    block = rng.standard_normal((2, count, dim, dim))
    if dim not in (2, 3):  # Q does not depend on the scale, so the closed forms skip it
        block *= _INV_SQRT2
    if dim > _SMALL_DIM:
        q, r = np.linalg.qr(block[0] + 1j * block[1])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (diag / np.abs(diag))[:, None, :]
    planes = np.empty((dim, dim, count), dtype=np.complex128)  # planes[j, i] = entry (i, j) of every sample
    planes.real, planes.imag = block[0].T, block[1].T
    if dim == 1:
        planes[0] /= np.linalg.norm(planes[0], axis=0)
        return planes.T
    q0, z1 = planes[:2]
    q0 *= 1.0 / np.linalg.norm(q0, axis=0)  # a real reciprocal: complex division costs about three times as much
    if dim == 2:
        phase = q0[0] * z1[1] - q0[1] * z1[0]
        phase *= 1.0 / np.abs(phase)
        z1[0], z1[1] = -phase * q0[1].conj(), phase * q0[0].conj()
        return planes.T
    z1 -= q0 * (q0.conj() * z1).sum(axis=0)
    z1 *= 1.0 / np.linalg.norm(z1, axis=0)
    (a0, a1, a2), (b0, b1, b2), z2 = planes
    cross = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    phase = (cross * z2).sum(axis=0)
    phase *= 1.0 / np.abs(phase)
    np.multiply(cross.conj(), phase, out=z2)
    return planes.T


def random_states(dims: tuple, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-random pure states on C^d for dims (d,), or product states on C^(d1*d2) for (d1, d2), as
    rows: normalized complex Gaussian vectors (for a product, the normalized product of two)."""
    if len(dims) not in (1, 2):
        raise ValueError(f"dims must be (d,) or (d1, d2), got {dims}")
    _check_stack(min(dims), count)
    z = rng.standard_normal((count, sum(dims))) + 1j * rng.standard_normal((count, sum(dims)))
    if len(dims) == 2:
        z = (z[:, : dims[0], None] * z[:, None, dims[0] :]).reshape(count, dims[0] * dims[1])
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state: the count-1 view of random_states."""
    return StateVector(random_states((dim,), 1, rng)[0])


def random_maxent_states(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-random maximally entangled states on a d x d split as rows: (u (x) 1)|Phi+> for Haar u,
    which is all of them, since (v (x) w)|Phi+> = (v w^T (x) 1)|Phi+> and v w^T is Haar when v is."""
    return haar_unitary_batch(d, count, rng).reshape(count, d * d) / math.sqrt(d)


def random_maxent_state(d: int, rng: np.random.Generator) -> StateVector:
    """Haar-random maximally entangled state on a d x d split: the count-1 view of random_maxent_states."""
    return StateVector(random_maxent_states(d, 1, rng)[0])


_CHUNK = 4096  # group samples per batch: bounds memory, and is part of the stream layout


def sample_m_chunks(split: BipartiteSplit, n: int, rng: np.random.Generator):
    """Yield raw arrays (v stack, w stack, swap flags) for n group samples, at most _CHUNK at a time.

    Each batch draws all v, then all w, then swap bits, and only when requested,
    so what a caller draws between batches sits between them in the stream.
    """
    _check_stack(split.d1, n)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        v = haar_unitary_batch(split.d1, m, rng)
        w = haar_unitary_batch(split.d2, m, rng)
        if split.d1 == split.d2:
            swaps = rng.integers(0, 2, size=m).astype(bool)
        else:
            swaps = np.zeros(m, dtype=bool)
        yield v, w, swaps


def random_m_elements(split: BipartiteSplit, n: int, rng: np.random.Generator) -> ElementStack:
    """n Haar-random decomposition-preserving elements as one ElementStack: independent Haar factors, and for
    square splits the swap with probability 1/2, otherwise never."""
    chunks = list(sample_m_chunks(split, n, rng))
    empty = np.empty((0, split.d1, split.d1)), np.empty((0, split.d2, split.d2)), np.empty(0, bool)
    return ElementStack(*map(np.concatenate, zip(empty, *chunks)))


def random_m_element(split: BipartiteSplit, rng: np.random.Generator) -> MeronomicElement:
    """Haar-random decomposition-preserving element: the count-1 view of random_m_elements, checked once."""
    v, w, swaps = next(sample_m_chunks(split, 1, rng))
    return MeronomicElement(Operator(v[0]), Operator(w[0]), bool(swaps[0]))


def _factor_products(v: np.ndarray, c: np.ndarray, w: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """Rows vec(v c w^T), shape (count, d1*d2), for stacks v, w and a d1 x d2 c, with c^T in place of c where
    `swaps` is set: an ElementStack's factor action above _SMALL_DIM.  Up to it one GEMM of c^T, and of c when a
    sample swaps, with v's sample planes gives v c^T planes (v c where it swaps); an einsum takes in w."""
    count, d1, d2 = len(v), v.shape[1], w.shape[1]
    flip = swaps.any() and not np.array_equal(c, c.T)  # c = c^T is its own swap image: no per-sample select
    if max(d1, d2) > _SMALL_DIM:
        return _factor_action(v, w, swaps[:, None, None] if flip else np.bool_(False), c).reshape(count, d1 * d2)
    planes = v.T.reshape(d1, d1 * count)  # v.T[i, a] = v[:, a, i]: column i of v, one sample vector per row
    y = ((np.concatenate((c, c.T)) if flip else c.T) @ planes).reshape(-1, d2, d1, count)
    y = np.where(swaps, *y) if flip else y[0]  # planes of v c^T, then of v c
    return np.einsum("jas,jbs->abs", y, w.T).reshape(d1 * d2, count).T


def twirl_monte_carlo(
    rho: StateVector | DensityOperator, split: BipartiteSplit, n: int, rng: np.random.Generator, workers: int = 1
) -> np.ndarray:
    """Monte Carlo estimate of the group twirl of rho from n random elements, as a unit-trace D x D array.

    Each element maps the factors c_k of rho = sum_k c_k c_k^dag to v c_k w^T, or v c_k^T w^T when swapped: a
    pure state's amplitude matrix is its one factor, and a DensityOperator, the only mixed input, is factored by
    eigh (eigenvalues above roundoff).  One worker draws from rng itself; workers > 1 draw from the streams
    rng.spawn(min(workers, n)), and stream i draws base + (i < extra) samples, base, extra = divmod(n, streams),
    in order and in fixed chunks, all into one accumulator, so the result is fixed by (rng, workers).  A
    chunk's rows vec(v c w^T) of D or more go in as one product; shorter ones (small shares, the last chunk) are
    gathered until they total D rows, so many tiny shares cost about one D x D product, not one each.  The sum
    is symmetrized and scaled in place; positive semidefinite by construction, it is returned unvalidated.
    """
    if rho.dim != split.dim:
        raise ValueError(f"rho dim {rho.dim} does not match split {split}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    # spawn(k) gives the first k children of spawn(workers): streams past the sample count would draw nothing
    streams = rng.spawn(min(workers, n)) if workers > 1 else [rng]
    base, extra = divmod(n, len(streams))
    if isinstance(rho, StateVector):
        c_mats = rho.amps.reshape(1, split.d1, split.d2)
    else:
        values, vectors = np.linalg.eigh(rho.entries)
        keep = values > 1e-14 * values[-1]
        c_mats = (vectors[:, keep] * np.sqrt(values[keep])).T.reshape(-1, split.d1, split.d2)
    acc = np.zeros((split.dim, split.dim), dtype=np.complex128)
    held = []  # consecutive row blocks shorter than D, taken as one product once they total D rows
    for i, stream in enumerate(streams):
        for v, w, swaps in sample_m_chunks(split, base + (i < extra), stream):
            for c in c_mats:
                x = _factor_products(v, c, w, swaps)
                if len(x) < split.dim:
                    held.append(x)
                    if sum(map(len, held)) < split.dim:
                        continue
                    x, held = np.concatenate(held), []
                acc += x.T @ x.conj()
            del v, w, swaps, x  # else the whole chunk stays alive through the next draw
    if held:
        x = np.concatenate(held)
        acc += x.T @ x.conj()
    acc += acc.conj().T  # the trace scaling below also cancels the 1/n and the 1/2 of the mean's symmetrization
    acc /= acc.trace().real
    return acc
