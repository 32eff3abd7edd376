import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from meronome.linalg import (
    BipartiteSplit,
    DensityOperator,
    Operator,
    StateVector,
    distance_up_to_phase,
    hermitian_eigensystem,
    kron,
    partial_trace,
    permutation_operator,
    permute_subsystems,
    phase_fix,
    tensor_state,
)
from meronome.sampling import haar_unitary, random_state, seeded

ISQ2 = 1.0 / np.sqrt(2.0)

# |Upsilon> = ((|0>+i|1>)/sqrt2) (x) ((|0>-i|1>)/sqrt2)
UPSILON = 0.5 * np.array([1.0, -1.0j, 1.0j, 1.0])

PHI_PLUS = np.array([ISQ2, 0, 0, ISQ2], dtype=complex)
PHI_MINUS = np.array([ISQ2, 0, 0, -ISQ2], dtype=complex)
PSI_MINUS = np.array([0, ISQ2, -ISQ2, 0], dtype=complex)


def _state(amps) -> StateVector:
    return StateVector(np.asarray(amps, dtype=complex))


def _random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = z @ z.conj().T
    return DensityOperator(a / a.trace().real)


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


def test_tensor_state_basis():
    out = tensor_state(StateVector.basis(2, 0), StateVector.basis(2, 0))
    assert_allclose(out.amps, [1, 0, 0, 0])


def test_tensor_state_uniform():
    plus = _state([ISQ2, ISQ2])
    assert_allclose(tensor_state(plus, plus).amps, [0.5, 0.5, 0.5, 0.5])


def test_tensor_state_upsilon():
    a = _state([ISQ2, 1j * ISQ2])
    b = _state([ISQ2, -1j * ISQ2])
    assert_allclose(tensor_state(a, b).amps, UPSILON, atol=1e-15)


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
    state = _state(UPSILON)
    out = permute_subsystems(state, (2, 2), (0, 1))
    assert_allclose(out.amps, state.amps)


def test_permute_swap_on_basis():
    ket01 = tensor_state(StateVector.basis(2, 0), StateVector.basis(2, 1))
    out = permute_subsystems(ket01, (2, 2), (1, 0))
    assert_allclose(out.amps, [0, 0, 1, 0])


def test_permute_builds_invariant_four_qubit_state():
    paired = tensor_state(_state(PSI_MINUS), _state(PSI_MINUS))
    out = permute_subsystems(paired, (2, 2, 2, 2), (0, 2, 1, 3))
    expected = np.zeros(16, dtype=complex)
    expected[0b0011] = 0.5
    expected[0b0110] = -0.5
    expected[0b1001] = -0.5
    expected[0b1100] = 0.5
    assert_allclose(out.amps, expected, atol=1e-15)


def test_permute_rejects_bad_inputs():
    state = _state(PHI_PLUS)
    with pytest.raises(ValueError):
        permute_subsystems(state, (2, 3), (0, 1))
    with pytest.raises(ValueError):
        permute_subsystems(state, (2, 2), (0, 0))


@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(list(range(3))))
def test_permute_matches_matrix_action(seed, perm):
    dims = (2, 3, 2)
    state = random_state(12, seeded(seed))
    via_reshape = permute_subsystems(state, dims, perm)
    via_matrix = permutation_operator(dims, perm).apply(state)
    assert np.abs(via_reshape.amps - via_matrix.amps).max() < 1e-12


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


@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(list(range(4))))
def test_permute_inverse_roundtrip(seed, perm):
    dims = (2, 2, 3, 2)
    state = random_state(24, seeded(seed))
    forward = permute_subsystems(state, dims, perm)
    inverse = list(np.argsort(perm))
    new_dims = tuple(np.array(dims)[np.argsort(perm)])
    back = permute_subsystems(forward, new_dims, inverse)
    assert np.abs(back.amps - state.amps).max() < 1e-12


# ---------------------------------------------------------------- partial trace

def _trace_out_oracle(rho: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    """Explicit-loop partial trace, independent of the einsum implementation."""
    if keep == 0:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for k in range(d1):
                out[i, k] = sum(rho[i * d2 + j, k * d2 + j] for j in range(d2))
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for l in range(d2):
                out[j, l] = sum(rho[i * d2 + j, i * d2 + l] for i in range(d1))
    return out


def test_partial_trace_basis_state():
    rho = DensityOperator.from_state(tensor_state(StateVector.basis(2, 0), StateVector.basis(2, 0)))
    reduced = partial_trace(rho, BipartiteSplit(2, 2), keep=0)
    assert_allclose(reduced.entries, [[1, 0], [0, 0]])


def test_partial_trace_bell_is_maximally_mixed():
    rho = DensityOperator.from_state(_state(PHI_PLUS))
    reduced = partial_trace(rho, BipartiteSplit(2, 2), keep=0)
    assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state_is_pure():
    rho = DensityOperator.from_state(_state(UPSILON))
    reduced = partial_trace(rho, BipartiteSplit(2, 2), keep=1)
    values = np.linalg.eigvalsh(reduced.entries)
    assert_allclose(sorted(values, reverse=True), [1.0, 0.0], atol=1e-12)
    assert_allclose(reduced.entries, _trace_out_oracle(rho.entries, 2, 2, 1), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_matches_loop_oracle(seed):
    rho = _random_density(6, seeded(seed))
    split = BipartiteSplit(2, 3)
    for keep in (0, 1):
        got = partial_trace(rho, split, keep).entries
        assert np.abs(got - _trace_out_oracle(rho.entries, 2, 3, keep)).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_of_product_density(seed):
    rng = seeded(seed)
    rho1 = _random_density(2, rng)
    rho2 = _random_density(3, rng)
    joint = DensityOperator(np.kron(rho1.entries, rho2.entries))
    reduced = partial_trace(joint, BipartiteSplit(2, 3), keep=0)
    assert np.abs(reduced.entries - rho1.entries).max() < 1e-10


def test_partial_trace_rejects_bad_keep():
    rho = DensityOperator.from_state(_state(PHI_PLUS))
    with pytest.raises(ValueError):
        partial_trace(rho, BipartiteSplit(2, 2), keep=2)


# ---------------------------------------------------------------- eigensystem

def test_eigensystem_pauli_z():
    values, vectors = hermitian_eigensystem(Operator(np.diag([1.0, -1.0]).astype(complex)))
    assert_allclose(values, [1.0, -1.0])
    assert_allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)


def test_eigensystem_degenerate():
    values, _ = hermitian_eigensystem(Operator(np.eye(2, dtype=complex) / 2))
    assert_allclose(values, [0.5, 0.5])


def test_eigensystem_two_qubit_coupling():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ham = Operator(1.0 * np.kron(z, z) + 0.5 * np.kron(x, x))
    values, vectors = hermitian_eigensystem(ham)
    assert_allclose(values, [1.5, 0.5, -0.5, -1.5], atol=1e-10)
    assert_allclose(values, sorted(np.linalg.eigvalsh(ham.entries), reverse=True), atol=1e-12)
    recon = (vectors * values) @ vectors.conj().T
    assert np.abs(recon - ham.entries).max() < 1e-8


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_phase_fix_pins_first_significant_entry_per_column():
    mat = np.array([[1e-13j, 0.0], [-2.0j, 0.0], [1.0, 3.0 - 4.0j]])
    fixed, phases = phase_fix(mat)
    assert_allclose(phases, [-1j, 0.6 - 0.8j])
    # 1e-13j lies below 1e-12 of the column's largest modulus, so -2j is the pivot
    assert_allclose(fixed[[1, 2], [0, 1]], [2.0, 5.0], rtol=0, atol=1e-15)
    assert_allclose(fixed * phases, mat, rtol=0, atol=1e-15)


def test_eigenvector_phase_is_deterministic():
    ham = Operator(np.array([[1.0, 1.0j], [-1.0j, 2.0]]))
    _, vectors = hermitian_eigensystem(ham)
    for k in range(2):
        pivot = vectors[np.flatnonzero(np.abs(vectors[:, k]) > 1e-12)[0], k]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


# ---------------------------------------------------------------- norms and phases

def test_unitary_application_preserves_norm():
    rng = seeded(42)
    for _ in range(100):
        u = haar_unitary(4, rng)
        state = random_state(4, rng)
        assert abs(np.linalg.norm(u.apply(state).amps) - 1.0) < 1e-10


def test_operator_apply_rejects_norm_breaking():
    squish = Operator(np.diag([1.0, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        squish.apply(_state([ISQ2, ISQ2]))


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
