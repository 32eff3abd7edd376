"""Meronomic frames: tensor-factor decompositions of finite quantum systems.

The package centers on one question: which structures of a composite quantum
system survive when the split into subsystems is renegotiated?  linalg holds
the dense state/operator plumbing, frames the decomposition-preserving group
and worked example frames, sampling the seeded Haar machinery, protocols the
decomposition-independent tasks, theorems the batch verification suites, and
cli a seeded command-line driver for all of it.
"""

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: BLAS sees only small factors here

from .frames import (
    BipartiteSplit,
    Entanglement,
    Membership,
    MembershipResult,
    MeronomicElement,
    SchmidtDecomposition,
    ab_pauli,
    apply_element,
    bell_frame_unitary,
    classify,
    factor_as_local,
    pauli,
    schmidt_decompose,
    spin_hamiltonian,
    swap_operator,
    theta_frame_unitary,
)
from .linalg import DensityOperator, Operator, StateVector, kron, permutation_operator
from .protocols import (
    LambdaEstimate,
    OrderingVerdict,
    SuperdenseReport,
    SymSpanReport,
    lambda_effect_probability,
    lambda_state,
    measure_sym_subspace,
    ordering_discriminate,
    reference_frame_effect,
    sample_lambda_measurement,
    shift_unitary,
    superdense_round,
    sym_projector,
    sym_span_analysis,
    tau_states,
)
from .sampling import random_m_element, random_maxent_state, random_state, seeded, twirl_monte_carlo
from .theorems import (
    Verdict,
    check_lemma_antihermitian,
    check_lemma_hermitian,
    check_lemmas_suite,
    check_theorem1_suite,
    check_theorem2_suite,
    gamma_delta,
    relative_unitary,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
