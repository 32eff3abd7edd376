import numpy as np
import pytest
from numpy.testing import assert_allclose

from meronome.frames import Entanglement, MeronomicElement, classify, schmidt_decompose
from meronome.linalg import BipartiteSplit, DensityOperator, Operator, StateVector
from meronome.sampling import (
    RngStream,
    exact_twirl,
    haar_unitary,
    haar_unitary_batch,
    random_m_element,
    random_maxent_state,
    random_product_state,
    random_state,
    sample_m_chunks,
    twirl_monte_carlo,
)

S22 = BipartiteSplit(2, 2)
S23 = BipartiteSplit(2, 3)


# ---------------------------------------------------------------- streams

def test_stream_same_seed_same_bits():
    a = RngStream(42).generator.standard_normal(64)
    b = RngStream(42).generator.standard_normal(64)
    assert np.array_equal(a, b)


def test_stream_different_seeds_differ():
    a = RngStream(0).generator.standard_normal(8)
    b = RngStream(1).generator.standard_normal(8)
    assert not np.allclose(a, b)


def test_split_children_reproducible_and_independent():
    kids1 = RngStream(5).split(3)
    kids2 = RngStream(5).split(3)
    draws1 = [k.generator.standard_normal(16) for k in kids1]
    draws2 = [k.generator.standard_normal(16) for k in kids2]
    for d1, d2 in zip(draws1, draws2):
        assert np.array_equal(d1, d2)
    # children pairwise distinct and distinct from the parent stream
    parent = RngStream(5).generator.standard_normal(16)
    for i in range(3):
        assert not np.allclose(draws1[i], parent)
        for j in range(i + 1, 3):
            assert not np.allclose(draws1[i], draws1[j])


def test_split_rejects_zero():
    with pytest.raises(ValueError):
        RngStream(0).split(0)


# ---------------------------------------------------------------- Haar sampling

def test_haar_dim1_is_phase():
    u = haar_unitary(1, RngStream(0)).entries
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    rng = RngStream(8)
    for _ in range(100):
        u = haar_unitary(4, rng).entries
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_haar_batch_matches_single():
    batch = haar_unitary_batch(3, 1, RngStream(99))[0]
    single = haar_unitary(3, RngStream(99)).entries
    assert np.array_equal(batch, single)


def test_haar_first_moment():
    # E |u_ij|^2 = 1/d for Haar; check the (0,0) entry at d=2
    n = 100_000
    batch = haar_unitary_batch(2, n, RngStream(123))
    samples = np.abs(batch[:, 0, 0]) ** 2
    se = samples.std() / np.sqrt(n)
    assert abs(samples.mean() - 0.5) < 4 * se


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_second_moment(dim):
    # E|tr U|^4 = 2 for Haar at every d >= 2.  First moments cannot see a
    # wrong phase convention: QR without the diag(R) rephasing gives about
    # 3.0 at d=2 and 4.1 at d=3.
    rng = RngStream(17)
    traces = np.concatenate([np.trace(haar_unitary_batch(dim, 50_000, rng), axis1=1, axis2=2) for _ in range(8)])
    samples = np.abs(traces) ** 4
    se = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - 2.0) < 5 * se


@pytest.mark.parametrize("dim", [2, 3])
def test_gram_schmidt_haar_is_qr_of_the_same_draws(dim):
    # 2e5 draws in batches; the oracle is LAPACK QR of the same Ginibre
    # matrices with columns rephased so that diag(R) is positive.
    rng, oracle_rng = RngStream(21), RngStream(21)
    for _ in range(4):
        u = haar_unitary_batch(dim, 50_000, rng)
        gram = np.einsum("nki,nkj->nij", u.conj(), u)
        assert np.abs(gram - np.eye(dim)).max() < 1e-12
        g = oracle_rng.generator
        z = (g.standard_normal((50_000, dim, dim)) + 1j * g.standard_normal((50_000, dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        assert np.abs(u - q * (diag / np.abs(diag))[:, None, :]).max() < 1e-11


def test_haar_batch_validation():
    with pytest.raises(ValueError):
        haar_unitary_batch(0, 1, RngStream(0))
    with pytest.raises(ValueError):
        haar_unitary_batch(2, -1, RngStream(0))


def test_random_state_normalized():
    rng = RngStream(2)
    for dim in (2, 3, 6):
        for _ in range(10):
            state = random_state(dim, rng)
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


def test_random_product_state_is_product():
    rng = RngStream(10)
    for split in (S22, S23):
        for _ in range(25):
            assert classify(random_product_state(split, rng), split) is Entanglement.PRODUCT


def test_random_maxent_state_is_maxent():
    rng = RngStream(11)
    for d in (2, 3):
        split = BipartiteSplit(d, d)
        for _ in range(25):
            state = random_maxent_state(d, rng)
            assert classify(state, split) is Entanglement.MAXIMALLY_ENTANGLED
            assert_allclose(schmidt_decompose(state, split).params, np.full(d, 1 / d), atol=1e-10)


# ---------------------------------------------------------------- group sampling

def test_m_element_rectangular_never_swaps():
    rng = RngStream(3)
    assert not any(random_m_element(S23, rng).swap for _ in range(200))


def test_m_element_square_swaps_half_the_time():
    rng = RngStream(4)
    n = 4000
    frac = sum(random_m_element(S22, rng).swap for _ in range(n)) / n
    sigma = np.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 4 * sigma


def test_m_element_preserves_schmidt():
    from meronome.frames import apply_element

    rng = RngStream(5)
    state = random_state(6, rng)
    before = schmidt_decompose(state, S23).params
    for _ in range(20):
        elem = random_m_element(S23, rng)
        after = schmidt_decompose(apply_element(elem, state, S23), S23).params
        assert np.abs(before - after).max() < 1e-10


# ---------------------------------------------------------------- twirling

def test_exact_twirl_is_maximally_mixed():
    for split in (S22, S23):
        out = exact_twirl(split)
        assert_allclose(out.entries, np.eye(split.dim) / split.dim)
        assert abs(out.entries.trace() - 1.0) < 1e-14


def test_twirl_single_sample_matches_manual():
    rho = DensityOperator.from_state(StateVector.basis(4, 0))
    seed = 77
    est = twirl_monte_carlo(rho, S22, 1, RngStream(seed))
    elem = random_m_element(S22, RngStream(seed))
    u = elem.to_operator().entries
    manual = u @ rho.entries @ u.conj().T
    assert np.abs(est.entries - manual).max() < 1e-13


def _dense_twirl(rho: DensityOperator, split: BipartiteSplit, n: int, rng: RngStream) -> np.ndarray:
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
@pytest.mark.parametrize("rank", [1, 2, None], ids=["pure", "rank2", "full"])
def test_factored_twirl_matches_dense_oracle(split, rank):
    g = RngStream(13).generator
    z = g.standard_normal((split.dim, rank or split.dim)) + 1j * g.standard_normal((split.dim, rank or split.dim))
    a = z @ z.conj().T
    rho = DensityOperator(a / a.trace().real)
    est = twirl_monte_carlo(rho, split, 300, RngStream(14))
    assert np.abs(est.entries - _dense_twirl(rho, split, 300, RngStream(14))).max() < 1e-13


def test_twirl_reproducible():
    rho = DensityOperator.from_state(random_state(4, RngStream(1)))
    a = twirl_monte_carlo(rho, S22, 500, RngStream(9))
    b = twirl_monte_carlo(rho, S22, 500, RngStream(9))
    assert np.array_equal(a.entries, b.entries)


def test_twirl_fixes_maximally_mixed():
    rho = DensityOperator.maximally_mixed(4)
    est = twirl_monte_carlo(rho, S22, 64, RngStream(2))
    assert np.abs(est.entries - rho.entries).max() < 1e-10


def test_twirl_converges_to_maximally_mixed():
    phi_plus = StateVector.normalized(np.array([1, 0, 0, 1], dtype=complex))
    rho = DensityOperator.from_state(phi_plus)
    target = np.eye(4) / 4

    def dist(n, seed):
        est = twirl_monte_carlo(rho, S22, n, RngStream(seed))
        return np.linalg.norm(est.entries - target)

    coarse = np.median([dist(100, s) for s in range(10)])
    fine = np.median([dist(10_000, s) for s in range(10)])
    assert fine < coarse
    assert fine < 0.05


def test_twirl_validation():
    rho = DensityOperator.maximally_mixed(4)
    with pytest.raises(ValueError):
        twirl_monte_carlo(rho, S23, 10, RngStream(0))
    with pytest.raises(ValueError):
        twirl_monte_carlo(rho, S22, 0, RngStream(0))
