import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import meronome
from meronome.frames import Entanglement, MeronomicElement, classify, schmidt_decompose
from meronome.linalg import BipartiteSplit, DensityOperator, Operator, StateVector
from meronome.sampling import (
    _CHUNK,
    _SMALL_DIM,
    _factor_products,
    haar_unitary_batch,
    random_m_element,
    random_m_elements,
    random_maxent_state,
    random_maxent_states,
    random_state,
    random_states,
    sample_m_chunks,
    seeded,
    twirl_monte_carlo,
)

S22 = BipartiteSplit(2, 2)
S23 = BipartiteSplit(2, 3)


def _rho(state: StateVector) -> DensityOperator:
    return DensityOperator(np.outer(state.amps, state.amps.conj()))  # |psi><psi|


# ---------------------------------------------------------------- streams

def test_stream_same_seed_same_bits():
    a = seeded(42).standard_normal(64)
    b = seeded(42).standard_normal(64)
    assert np.array_equal(a, b)


def test_stream_different_seeds_differ():
    a = seeded(0).standard_normal(8)
    b = seeded(1).standard_normal(8)
    assert not np.allclose(a, b)


def test_split_children_reproducible_and_independent():
    kids1 = seeded(5).spawn(3)
    kids2 = seeded(5).spawn(3)
    draws1 = [k.standard_normal(16) for k in kids1]
    draws2 = [k.standard_normal(16) for k in kids2]
    for d1, d2 in zip(draws1, draws2):
        assert np.array_equal(d1, d2)
    # children pairwise distinct and distinct from the parent stream
    parent = seeded(5).standard_normal(16)
    for i in range(3):
        assert not np.allclose(draws1[i], parent)
        for j in range(i + 1, 3):
            assert not np.allclose(draws1[i], draws1[j])
    # the worker-stream layout: these are the children's first draws since the layout was fixed
    assert [k.random() for k in seeded(5).spawn(3)] == [0.7435838372455151, 0.7124746220128604, 0.7310569013624492]


def test_spawn_prefix_identity():
    # `twirl --workers` spawns only the streams of nonempty shares; that keeps the layout of all `workers` streams
    prefix = seeded(3).spawn(2)
    full = seeded(3).spawn(5)
    for short, long in zip(prefix, full[:2]):
        assert np.array_equal(short.random(8), long.random(8))
    # samples 2 over workers 5: shares [1, 1] on the first two children, as over workers 2
    rho = _rho(StateVector.basis(4, 0))
    assert np.array_equal(twirl_monte_carlo(rho, S22, 2, seeded(3), 5), twirl_monte_carlo(rho, S22, 2, seeded(3), 2))


# ---------------------------------------------------------------- Haar sampling

def test_haar_dim1_is_phase():
    u = haar_unitary_batch(1, 1, seeded(0))[0]
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    rng = seeded(8)
    for _ in range(100):
        u = haar_unitary_batch(4, 1, rng)[0]
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_haar_first_moment():
    # E |u_ij|^2 = 1/d for Haar; check the (0,0) entry at d=2
    n = 100_000
    batch = haar_unitary_batch(2, n, seeded(123))
    samples = np.abs(batch[:, 0, 0]) ** 2
    se = samples.std() / np.sqrt(n)
    assert abs(samples.mean() - 0.5) < 4 * se


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_second_moment(dim):
    # E|tr U|^4 = 2 for Haar at every d >= 2.  First moments cannot see a
    # wrong phase convention: QR without the diag(R) rephasing gives about
    # 3.0 at d=2 and 4.1 at d=3.
    rng = seeded(17)
    traces = np.concatenate([np.trace(haar_unitary_batch(dim, 50_000, rng), axis1=1, axis2=2) for _ in range(8)])
    samples = np.abs(traces) ** 4
    se = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - 2.0) < 5 * se


@pytest.mark.parametrize("dim", [2, 3])
def test_gram_schmidt_haar_is_qr_of_the_same_draws(dim):
    # 2e5 draws in batches; the oracle is LAPACK QR of the same Ginibre
    # matrices with columns rephased so that diag(R) is positive.  The closed
    # forms are unitary to 1.1e-15 at d = 2 and 5.4e-15 at d = 3 here;
    # Gram-Schmidt reached 4.6e-14 and 9.7e-14.
    rng, oracle_rng = seeded(21), seeded(21)
    for _ in range(4):
        u = haar_unitary_batch(dim, 50_000, rng)
        gram = np.einsum("nki,nkj->nij", u.conj(), u)
        assert np.abs(gram - np.eye(dim)).max() < 1e-14
        shape = (50_000, dim, dim)
        z = (oracle_rng.standard_normal(shape) + 1j * oracle_rng.standard_normal(shape)) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        assert np.abs(u - q * (diag / np.abs(diag))[:, None, :]).max() < 1e-11


def _row_major_gram_schmidt(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, dim, dim) form of the small-dimension Haar sampler: Gram-Schmidt on strided column views."""
    z = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    for j in range(dim):
        col = z[:, :, j]
        for k in range(j):
            q = z[:, :, k]
            col -= q * (q.conj() * col).sum(axis=1, keepdims=True)
        col /= np.linalg.norm(col, axis=1, keepdims=True)
    return z


def _row_major_closed_form(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, dim, dim) form of the d = 2 and 3 Haar samplers: their closed forms on strided column views."""
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q0, z1 = z[:, :, 0], z[:, :, 1]
    q0 *= 1.0 / np.linalg.norm(q0, axis=1, keepdims=True)
    if dim == 2:
        phase = q0[:, 0] * z1[:, 1] - q0[:, 1] * z1[:, 0]
        phase *= 1.0 / np.abs(phase)
        z1[:, 0], z1[:, 1] = -phase * q0[:, 1].conj(), phase * q0[:, 0].conj()
        return z
    z1 -= q0 * (q0.conj() * z1).sum(axis=1, keepdims=True)
    z1 *= 1.0 / np.linalg.norm(z1, axis=1, keepdims=True)
    (a0, a1, a2), (b0, b1, b2), z2 = q0.T, z1.T, z[:, :, 2].T
    cross = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    phase = (cross * z2).sum(axis=0)
    phase *= 1.0 / np.abs(phase)
    z2[...] = cross.conj() * phase
    return z


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("count", [0, 1, 5, 4096])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plane_gram_schmidt_is_bit_identical_to_row_major(dim, count, seed):
    # the plane layout reorders memory, not arithmetic: same draws, same sums, same stream position after
    rng, oracle_rng = seeded(seed), seeded(seed)
    oracle = _row_major_gram_schmidt(dim, count, oracle_rng) if dim == 1 else _row_major_closed_form(dim, count, oracle_rng)
    assert np.array_equal(haar_unitary_batch(dim, count, rng), oracle)
    assert rng.random() == oracle_rng.random()


# the d = 2 rows are named by their count alone, as they were when this test covered only d = 2
_CLOSED_FORM_CASES = [pytest.param(d, n, id=f"{n}" if d == 2 else f"d3-{n}") for d in (2, 3) for n in (0, 1, 5, 4096)]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dim, count", _CLOSED_FORM_CASES)
def test_closed_form_haar_is_gram_schmidt_of_the_same_draws(dim, count, seed):
    # exact arithmetic gives Gram-Schmidt's Q, so roundoff apart the draws, the unitaries and the stream position
    # after are unchanged; det Q = det Z / |det Z| checks the last column's phase on its own
    rng, oracle_rng, ginibre_rng = seeded(seed), seeded(seed), seeded(seed)
    u = haar_unitary_batch(dim, count, rng)
    assert np.abs(u - _row_major_gram_schmidt(dim, count, oracle_rng)).max(initial=0.0) < 1e-12
    assert rng.random() == oracle_rng.random()
    shape = (count, dim, dim)
    det_z = np.linalg.det(ginibre_rng.standard_normal(shape) + 1j * ginibre_rng.standard_normal(shape))
    assert np.abs(np.linalg.det(u) - det_z / np.abs(det_z)).max(initial=0.0) < 1e-12


def test_haar_batch_validation():
    with pytest.raises(ValueError):
        haar_unitary_batch(0, 1, seeded(0))
    with pytest.raises(ValueError):
        haar_unitary_batch(2, -1, seeded(0))


def test_random_state_normalized():
    rng = seeded(2)
    for dim in (2, 3, 6):
        for _ in range(10):
            state = random_state(dim, rng)
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


def test_random_product_state_is_product():
    rng = seeded(10)
    for split in (S22, S23):
        for amps in random_states((split.d1, split.d2), 25, rng):
            assert classify(StateVector(amps), split) is Entanglement.PRODUCT


def test_random_maxent_state_is_maxent():
    rng = seeded(11)
    for d in (2, 3):
        split = BipartiteSplit(d, d)
        for _ in range(25):
            state = random_maxent_state(d, rng)
            assert classify(state, split) is Entanglement.MAXIMALLY_ENTANGLED
            assert_allclose(schmidt_decompose(state, split).params, np.full(d, 1 / d), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_random_maxent_states_second_moment(d):
    # psi = (u (x) 1)|Phi+> gives <Phi+|psi> = tr(u)/d, so E|<Phi+|psi>|^4 = E|tr u|^4 / d^4 = 2/d^4 for Haar u
    rng = seeded(19)
    phi_plus = np.eye(d).reshape(-1) / np.sqrt(d)
    samples = np.concatenate([np.abs(random_maxent_states(d, 50_000, rng) @ phi_plus) ** 4 for _ in range(4)])
    se = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - 2.0 / d**4) < 5 * se


@pytest.mark.parametrize("dims, dim, count", [((0,), 0, 1), ((2, 0), 0, 1), ((3,), 3, -1), ((2, 3), 2, -1)])
def test_random_states_validation_matches_haar(dims, dim, count):
    with pytest.raises(ValueError) as haar:
        haar_unitary_batch(dim, count, seeded(0))
    with pytest.raises(ValueError, match=re.escape(str(haar.value))):
        random_states(dims, count, seeded(0))


@pytest.mark.parametrize("dims", [(2, 2, 2), ()])
def test_random_states_takes_one_or_two_dims(dims):
    with pytest.raises(ValueError, match=re.escape(f"dims must be (d,) or (d1, d2), got {dims}")):
        random_states(dims, 1, seeded(0))


@pytest.mark.parametrize(
    "draw", [lambda rng: list(sample_m_chunks(S22, -3, rng)), lambda rng: random_m_elements(S23, -3, rng)],
    ids=["m_chunks", "m_elements"],
)
def test_group_samplers_reject_a_negative_count(draw):
    with pytest.raises(ValueError, match=re.escape("count must be >= 0, got -3")):
        draw(seeded(0))


_AT_COUNT_ZERO = {
    "haar_qr": (lambda rng: haar_unitary_batch(5, 0, rng), (0, 5, 5)),
    "states": (lambda rng: random_states((3,), 0, rng), (0, 3)),
    "product_states": (lambda rng: random_states((2, 3), 0, rng), (0, 6)),
    "maxent_states": (lambda rng: random_maxent_states(3, 0, rng), (0, 9)),
    "m_elements": (lambda rng: random_m_elements(S22, 0, rng).operators(), (0, 4, 4)),
    "m_chunks": (lambda rng: np.array(list(sample_m_chunks(S23, 0, rng))), (0,)),
}


@pytest.mark.parametrize("draw, shape", _AT_COUNT_ZERO.values(), ids=_AT_COUNT_ZERO.keys())
def test_stacked_samplers_at_count_zero(draw, shape):
    rng, untouched = seeded(0), seeded(0)
    assert draw(rng).shape == shape
    assert rng.random() == untouched.random()


def _parts(elem: MeronomicElement):
    return elem.v.entries, elem.w.entries, elem.swap


def _first_row(stack):
    return stack.v[0], stack.w[0], stack.swaps[0]


_VIEWS = {
    "state": (lambda rng: (random_state(3, rng).amps,), lambda rng: random_states((3,), 1, rng)),
    "maxent": (lambda rng: (random_maxent_state(3, rng).amps,), lambda rng: random_maxent_states(3, 1, rng)),
    "m_element": (lambda rng: _parts(random_m_element(S22, rng)), lambda rng: _first_row(random_m_elements(S22, 1, rng))),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("view, stacked", _VIEWS.values(), ids=_VIEWS.keys())
def test_count1_view_is_its_stacked_sampler(view, stacked, seed):
    rng_view, rng_stacked = seeded(seed), seeded(seed)
    for _ in range(3):
        for a, b in zip(view(rng_view), stacked(rng_stacked), strict=True):
            assert np.array_equal(a, b)
    assert rng_view.random() == rng_stacked.random()


def test_only_sampling_draws_from_the_stream():
    # Gaussians, swap bits and twirl's worker streams are laid out in the stream by meronome.sampling
    # alone; the lambda loop's uniforms are the only other Generator call
    allowed = {"protocols.py": {"random"}}
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    calls = []
    for path in sorted(Path(meronome.__file__).parent.glob("*.py")):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in methods - allowed.get(path.name, set()):
                    calls.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert {"standard_normal", "integers"} <= methods
    assert calls == []


# ---------------------------------------------------------------- group sampling

def test_m_element_rectangular_never_swaps():
    rng = seeded(3)
    assert not any(random_m_element(S23, rng).swap for _ in range(200))


def test_m_element_square_swaps_half_the_time():
    rng = seeded(4)
    n = 4000
    frac = sum(random_m_element(S22, rng).swap for _ in range(n)) / n
    sigma = np.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 4 * sigma


def test_m_element_preserves_schmidt():
    from meronome.frames import apply_element

    rng = seeded(5)
    state = random_state(6, rng)
    before = schmidt_decompose(state, S23).params
    for _ in range(20):
        elem = random_m_element(S23, rng)
        after = schmidt_decompose(apply_element(elem, state, S23), S23).params
        assert np.abs(before - after).max() < 1e-10


# ---------------------------------------------------------------- twirling

def test_twirl_single_sample_matches_manual():
    rho = _rho(StateVector.basis(4, 0))
    seed = 77
    est = twirl_monte_carlo(rho, S22, 1, seeded(seed))
    elem = random_m_element(S22, seeded(seed))
    u = elem.to_operator().entries
    manual = u @ rho.entries @ u.conj().T
    assert np.abs(est - manual).max() < 1e-13


def _dense_twirl(rho: DensityOperator, split: BipartiteSplit, n: int, rng: np.random.Generator) -> np.ndarray:
    """Reference twirl: sum of u rho u^dag with each element's full matrix, same draws."""
    acc = np.zeros((split.dim, split.dim), dtype=complex)
    for v, w, swaps in sample_m_chunks(split, n, rng):
        for vi, wi, si in zip(v, w, swaps):
            u = MeronomicElement(Operator(vi), Operator(wi), bool(si)).to_operator().entries
            acc += u @ rho.entries @ u.conj().T
    avg = acc / n
    avg = (avg + avg.conj().T) / 2.0
    return avg / avg.trace().real


@pytest.mark.parametrize("split", [S23, BipartiteSplit(3, 3)], ids=["2x3", "3x3"])
@pytest.mark.parametrize("rank", [1, 2, None, "state"], ids=["pure", "rank2", "full", "state"])
def test_factored_twirl_matches_dense_oracle(split, rank):
    # "state" passes the rank-1 rho as its StateVector, whose amplitude matrix is the factor without an eigh
    k = {None: split.dim, "state": 1}.get(rank, rank)
    g = seeded(13)
    z = g.standard_normal((split.dim, k)) + 1j * g.standard_normal((split.dim, k))
    a = z @ z.conj().T
    rho = DensityOperator(a / a.trace().real)
    given = StateVector(z[:, 0] / np.linalg.norm(z)) if rank == "state" else rho
    est = twirl_monte_carlo(given, split, 300, seeded(14))
    assert np.abs(est - _dense_twirl(rho, split, 300, seeded(14))).max() < 1e-13


@pytest.mark.parametrize("split", [S23, BipartiteSplit(3, 3), BipartiteSplit(2, 4)], ids=["2x3", "3x3", "2x4"])
@pytest.mark.parametrize("workers", [1, 3], ids=["one-stream", "spawned"])
def test_twirl_pure_state_matches_its_density_operator(split, workers):
    # 2x4 takes the matmul contraction, the others the elementwise kernel: both sides of _SMALL_DIM
    psi = random_state(split.dim, seeded(split.dim))

    def estimate(rho):
        return twirl_monte_carlo(rho, split, 500, seeded(11), workers)

    assert np.abs(estimate(psi) - estimate(_rho(psi))).max() <= 1e-15


_CONTRACTION_SPLITS = {"2x2": S22, "2x3": S23, "3x3": BipartiteSplit(3, 3), "2x4": BipartiteSplit(2, 4), "4x4": BipartiteSplit(4, 4)}


def test_contraction_splits_straddle_the_threshold():
    assert {max(s.d1, s.d2) <= _SMALL_DIM for s in _CONTRACTION_SPLITS.values()} == {True, False}


@pytest.mark.parametrize("split", _CONTRACTION_SPLITS.values(), ids=_CONTRACTION_SPLITS.keys())
def test_factor_products_match_matmul(split):
    # the factors of a rank-2 rho, and a Schmidt-form (diagonal) one; swapped samples on square splits take c^T,
    # and a factor equal to its own transpose skips that select: its rows equal, bit for bit, those with no swap
    g = seeded(23)
    z = g.standard_normal((split.dim, 2)) + 1j * g.standard_normal((split.dim, 2))
    schmidt = np.zeros((split.d1, split.d2), dtype=complex)
    np.fill_diagonal(schmidt, np.linspace(1.0, 0.5, min(split.d1, split.d2)))
    c_mats = [*z.T.reshape(2, split.d1, split.d2), schmidt]
    v, w, swaps = next(sample_m_chunks(split, 500, seeded(24)))
    assert swaps.any() == (split.d1 == split.d2)
    shortcuts = 0
    for c in c_mats:
        stack = np.where(swaps[:, None, None], c.T, c) if split.d1 == split.d2 else c
        expected = (v @ stack @ w.transpose(0, 2, 1)).reshape(len(v), split.dim)
        x = _factor_products(v, c, w, swaps)
        assert np.abs(x - expected).max() < 1e-13
        if np.array_equal(c, c.T):
            assert np.array_equal(_factor_products(v, c, w, np.zeros_like(swaps)), x)
            shortcuts += 1
    assert shortcuts == (split.d1 == split.d2)


def test_twirl_reproducible():
    rho = _rho(random_state(4, seeded(1)))
    a = twirl_monte_carlo(rho, S22, 500, seeded(9))
    b = twirl_monte_carlo(rho, S22, 500, seeded(9))
    assert np.array_equal(a, b)


def test_twirl_fixes_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4)
    est = twirl_monte_carlo(rho, S22, 64, seeded(2))
    assert np.abs(est - rho.entries).max() < 1e-10


def test_twirl_converges_to_maximally_mixed():
    phi_plus = StateVector.normalized(np.array([1, 0, 0, 1], dtype=complex))
    rho = _rho(phi_plus)
    target = np.eye(4) / 4

    def dist(n, seed):
        est = twirl_monte_carlo(rho, S22, n, seeded(seed))
        return np.linalg.norm(est - target)

    coarse = np.median([dist(100, s) for s in range(10)])
    fine = np.median([dist(10_000, s) for s in range(10)])
    assert fine < coarse
    assert fine < 0.05


def _per_shard_merge(rho: DensityOperator, split: BipartiteSplit, samples: int, workers: int, seed: int) -> np.ndarray:
    """Oracle: one estimate per nonempty share on its spawned stream, merged weighted by share."""
    base, extra = divmod(samples, workers)
    acc = np.zeros((split.dim, split.dim), dtype=complex)
    for i, stream in enumerate(seeded(seed).spawn(min(workers, samples))):
        share = base + (i < extra)
        acc += share * twirl_monte_carlo(rho, split, share, stream)
    return acc / samples


@pytest.mark.parametrize("split", [S22, BipartiteSplit(3, 3)], ids=["2x2", "3x3"])
@pytest.mark.parametrize("samples, workers", [(3, 5), (7, 3), (1000, 4), (2000, 2)])
def test_twirl_over_streams_matches_per_shard_merge(split, samples, workers):
    rho = _rho(random_state(split.dim, seeded(samples)))
    est = twirl_monte_carlo(rho, split, samples, seeded(6), workers)
    assert np.abs(est - _per_shard_merge(rho, split, samples, workers, 6)).max() <= 1e-15



def _per_chunk_twirl(psi: StateVector, split: BipartiteSplit, samples: int, streams) -> np.ndarray:
    """Oracle: one accumulator product per chunk, whatever its length, in stream and chunk order."""
    base, extra = divmod(samples, len(streams))
    c = psi.amps.reshape(split.d1, split.d2)
    acc = np.zeros((split.dim, split.dim), dtype=complex)
    for i, stream in enumerate(streams):
        for v, w, swaps in sample_m_chunks(split, base + (i < extra), stream):
            x = _factor_products(v, c, w, swaps)
            acc += x.T @ x.conj()
    acc += acc.conj().T
    return acc / acc.trace().real


@pytest.mark.parametrize(
    "split, samples, workers",
    [(BipartiteSplit(3, 3), 40, 4), (BipartiteSplit(2, 4), 24, 3), (BipartiteSplit(3, 3), 4096 + 9, 1), (S23, 5000, 2)],
    ids=["3x3-shares-10", "2x4-shares-of-D", "3x3-tail-of-D", "2x3-long-shares"],
)
def test_twirl_shares_of_d_rows_are_one_product_each(split, samples, workers):
    # every chunk here has D = d1*d2 rows or more, so each stays its own product and the bits are the per-chunk ones
    psi = random_state(split.dim, seeded(samples))
    est = twirl_monte_carlo(psi, split, samples, seeded(12), workers)
    streams = seeded(12).spawn(workers) if workers > 1 else [seeded(12)]
    assert np.array_equal(est, _per_chunk_twirl(psi, split, samples, streams))


@pytest.mark.parametrize(
    "split, samples, workers",
    [(BipartiteSplit(3, 3), 30, 4), (BipartiteSplit(2, 4), 13, 13), (BipartiteSplit(4, 4), 64, 64), (S22, 3, 3)],
    ids=["3x3-shares-7-8", "2x4-one-sample-shares", "4x4-one-sample-shares", "2x2-below-D-at-the-end"],
)
@pytest.mark.parametrize("rank", [1, 2], ids=["pure", "rank2"])
def test_twirl_gathers_shares_shorter_than_d(split, samples, workers, rank):
    # shares below D rows are gathered into shared products; only the summation order moves
    g = seeded(31)
    z = g.standard_normal((split.dim, rank)) + 1j * g.standard_normal((split.dim, rank))
    a = z @ z.conj().T
    rho = DensityOperator(a / a.trace().real)
    base, extra = divmod(samples, workers)
    reference = sum(
        (base + (i < extra)) * _dense_twirl(rho, split, base + (i < extra), stream)
        for i, stream in enumerate(seeded(17).spawn(workers))
    )
    est = twirl_monte_carlo(rho, split, samples, seeded(17), workers)
    assert np.abs(est - reference / samples).max() < 1e-13


def test_twirl_factors_rho_once_over_streams(monkeypatch):
    psi = random_state(9, seeded(4))
    rho = _rho(psi)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve: calls.append((name, a.shape)) or solve(a))
    twirl_monte_carlo(rho, BipartiteSplit(3, 3), 1000, seeded(0), 4)
    assert calls == [("eigh", (9, 9))]
    calls.clear()  # a pure state's amplitude matrix is already its one factor
    twirl_monte_carlo(psi, BipartiteSplit(3, 3), 1000, seeded(0), 4)
    assert calls == []


def test_twirl_memory_is_about_one_chunk():
    # the loop drops its names for a chunk before the next is drawn, so three chunks peak near one
    split = BipartiteSplit(8, 8)
    psi = random_state(split.dim, seeded(0))
    twirl_monte_carlo(psi, split, 10, seeded(1))  # first-call allocations are not per chunk
    peaks = []
    for chunks in (1, 3):
        tracemalloc.start()
        try:
            twirl_monte_carlo(psi, split, chunks * _CHUNK, seeded(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_twirl_validation():
    rho = DensityOperator(np.eye(4) / 4)
    with pytest.raises(ValueError):
        twirl_monte_carlo(rho, S23, 10, seeded(0))
    with pytest.raises(ValueError, match="does not match split 2x3"):
        twirl_monte_carlo(StateVector.basis(4, 0), S23, 10, seeded(0))
    with pytest.raises(ValueError):
        twirl_monte_carlo(rho, S22, 0, seeded(0))
    with pytest.raises(ValueError, match="need at least one worker, got 0"):
        twirl_monte_carlo(rho, S22, 10, seeded(0), 0)
