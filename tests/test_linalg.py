import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from meronome.linalg import (
    DensityOperator,
    Operator,
    StateVector,
    distance_up_to_phase,
    kron,
    permutation_operator,
    phase_fix,
    unitary_defect,
)
from meronome.sampling import haar_unitary_batch, random_state, seeded

ISQ2 = 1.0 / np.sqrt(2.0)

# |Upsilon> = ((|0>+i|1>)/sqrt2) (x) ((|0>-i|1>)/sqrt2)
UPSILON = 0.5 * np.array([1.0, -1.0j, 1.0j, 1.0])

PHI_PLUS = np.array([ISQ2, 0, 0, ISQ2], dtype=complex)
PHI_MINUS = np.array([ISQ2, 0, 0, -ISQ2], dtype=complex)
PSI_MINUS = np.array([0, ISQ2, -ISQ2, 0], dtype=complex)


def _state(amps) -> StateVector:
    return StateVector(np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------- states

def test_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_normalized_classmethod():
    s = StateVector.normalized([3.0, 4.0j])
    assert_allclose(s.amps, [0.6, 0.8j])
    with pytest.raises(ValueError):
        StateVector.normalized([0.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_state_normalized_huge_finite_amplitudes():
    s = StateVector.normalized([1e308, -1e308j])
    assert_allclose(s.amps, [ISQ2, -1j * ISQ2])


@pytest.mark.filterwarnings("error")
def test_state_normalized_modulus_beyond_float_range():
    # |1.5e308 + 1.5e308j| overflows although both parts are finite
    s = StateVector.normalized([1.5e308 + 1.5e308j, 0.0])
    assert_allclose(s.amps, [ISQ2 * (1 + 1j), 0.0])


def test_state_normalized_tiny_amplitudes():
    s = StateVector.normalized([1e-200, 0.0, 1e-200])
    assert_allclose(s.amps, [ISQ2, 0.0, ISQ2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "amps,expected",
    [([5e-324, 5e-324], [ISQ2, ISQ2]), ([1e-310, 1e-310j], [ISQ2, 1j * ISQ2]), ([1e-320, 0.0], [1.0, 0.0])],
)
def test_state_normalized_subnormal_amplitudes(amps, expected):
    # the largest part is subnormal, so its reciprocal overflows
    assert_allclose(StateVector.normalized(amps).amps, expected, atol=1e-15)


def test_state_normalized_is_scale_invariant():
    rng = seeded(12)
    for _ in range(5):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        reference = StateVector.normalized(z).amps
        for k in range(-300, 301):
            amps = StateVector.normalized(z * 10.0**k).amps
            assert abs(np.linalg.norm(amps) - 1.0) <= 1e-15, k
            assert np.abs(amps - reference).max() <= 1e-15, k


@pytest.mark.parametrize("amps", [[np.nan, 0, 0, 0], [np.inf, 0], [1.0, complex(0, -np.inf)]])
def test_state_rejects_non_finite(amps):
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(np.array(amps, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        StateVector.normalized(amps)


# ---------------------------------------------------------------- kron

def test_kron_identity():
    eye = Operator.identity(2)
    assert_allclose(kron(eye, eye).entries, np.eye(4))


def test_kron_bell_eigenstates():
    zz = Operator(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
    xx = Operator(np.fliplr(np.eye(4)).astype(complex))
    assert_allclose(zz.apply(_state(PHI_PLUS)).amps, PHI_PLUS)
    assert_allclose(xx.apply(_state(PHI_MINUS)).amps, -PHI_MINUS)
    # and the implementation agrees with the hand-written matrices
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert_allclose(kron(Operator(z), Operator(z)).entries, zz.entries)
    assert_allclose(kron(Operator(x), Operator(x)).entries, xx.entries)


@given(seed=st.integers(0, 2**32 - 1))
def test_kron_mixed_product_law(seed):
    g = seeded(seed)
    mats = g.standard_normal((4, 2, 2)) + 1j * g.standard_normal((4, 2, 2))
    a, b, c, d = (Operator(m) for m in mats)
    lhs = (kron(a, b) @ kron(c, d)).entries
    rhs = kron(a @ c, b @ d).entries
    assert np.abs(lhs - rhs).max() < 1e-10


# ---------------------------------------------------------------- permutations

def test_permute_identity_is_noop():
    assert np.array_equal(permutation_operator((2, 2), (0, 1)).entries, np.eye(4))


def test_permute_swap_on_basis():
    ket01 = _state(np.kron(StateVector.basis(2, 0).amps, StateVector.basis(2, 1).amps))
    out = permutation_operator((2, 2), (1, 0)).apply(ket01)
    assert_allclose(out.amps, [0, 0, 1, 0])


def test_permute_builds_invariant_four_qubit_state():
    paired = _state(np.kron(PSI_MINUS, PSI_MINUS))
    out = permutation_operator((2, 2, 2, 2), (0, 2, 1, 3)).apply(paired)
    expected = np.zeros(16, dtype=complex)
    expected[0b0011] = 0.5
    expected[0b0110] = -0.5
    expected[0b1001] = -0.5
    expected[0b1100] = 0.5
    assert_allclose(out.amps, expected, atol=1e-15)


def test_permute_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"dimensions must be >= 1, got \(2, 0\)"):
        permutation_operator((2, 0), (0, 1))
    with pytest.raises(ValueError, match=r"\(0, 0\) is not a permutation of 0..1"):
        permutation_operator((2, 2), (0, 0))
    with pytest.raises(ValueError, match=r"\(0, 1\) is not a permutation of 0..2"):
        permutation_operator((2, 3, 2), (0, 1))


def _permutation_matrix_oracle(dims, perm) -> np.ndarray:
    """Index-scatter construction: the basis vector with digit k_i at slot i goes to the one with k_i at slot perm[i]."""
    total = int(np.prod(dims))
    multi = np.array(np.unravel_index(np.arange(total), dims))
    out_multi = np.empty_like(multi)
    out_dims = [0] * len(dims)
    for i, target in enumerate(perm):
        out_multi[target] = multi[i]
        out_dims[target] = dims[i]
    mat = np.zeros((total, total), dtype=complex)
    mat[np.ravel_multi_index(tuple(out_multi), tuple(out_dims)), np.arange(total)] = 1.0
    return mat


@pytest.mark.parametrize("dims", [(2, 3, 4), (2, 2, 2, 2), (3, 1, 2)])
def test_permutation_operator_matches_index_scatter_oracle(dims):
    for perm in itertools.permutations(range(len(dims))):
        assert np.array_equal(permutation_operator(dims, perm).entries, _permutation_matrix_oracle(dims, perm)), perm


@given(perm=st.permutations(list(range(4))))
def test_permute_inverse_roundtrip(perm):
    dims = (2, 2, 3, 2)
    forward = permutation_operator(dims, perm)
    inverse = list(np.argsort(perm))
    new_dims = tuple(np.array(dims)[np.argsort(perm)])
    back = permutation_operator(new_dims, inverse)
    assert np.array_equal((back @ forward).entries, np.eye(24))


def test_phase_fix_pins_first_significant_entry_per_column():
    mat = np.array([[1e-13j, 0.0], [-2.0j, 0.0], [1.0, 3.0 - 4.0j]])
    fixed, phases = phase_fix(mat)
    assert_allclose(phases, [-1j, 0.6 - 0.8j])
    # 1e-13j lies below 1e-12 of the column's largest modulus, so -2j is the pivot
    assert_allclose(fixed[[1, 2], [0, 1]], [2.0, 5.0], rtol=0, atol=1e-15)
    assert_allclose(fixed * phases, mat, rtol=0, atol=1e-15)


# ---------------------------------------------------------------- norms and phases

def test_unitary_application_preserves_norm():
    rng = seeded(42)
    for _ in range(100):
        u = Operator(haar_unitary_batch(4, 1, rng)[0])
        state = random_state(4, rng)
        assert abs(np.linalg.norm(u.apply(state).amps) - 1.0) < 1e-10


def test_operator_apply_rejects_norm_breaking():
    squish = Operator(np.diag([1.0, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        squish.apply(_state([ISQ2, ISQ2]))


def test_unitary_defect_over_one_matrix_and_stacks():
    stack = haar_unitary_batch(3, 5, seeded(7))
    assert unitary_defect(stack) < 1e-13 and unitary_defect(stack[2]) < 1e-13
    assert unitary_defect(np.zeros((0, 3, 3), dtype=complex)) == 0.0
    stack[4] *= 1.5  # Gram entries 2.25 on the diagonal
    assert unitary_defect(stack) == pytest.approx(1.25, abs=1e-13)
    for bad in (np.nan, np.inf, 1e200):  # 1e200 overflows the Gram product
        stack[1, 0, 0] = bad
        assert unitary_defect(stack) == np.inf


def test_distance_up_to_phase_ignores_global_phase():
    state = _state(UPSILON)
    rotated = np.exp(0.37j) * state.amps
    assert distance_up_to_phase(state.amps, rotated) < 1e-12
    assert distance_up_to_phase(state.amps, PHI_PLUS) > 0.1


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_operator_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator(np.array([[bad, 0], [0, 1]], dtype=complex))
