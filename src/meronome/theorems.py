"""Batch verification suites for the structure of decomposition-preserving unitaries.

The characterization being exercised: a global unitary preserves a bipartite
decomposition exactly when it keeps every state's Schmidt parameters, and
(on two qubits) exactly when it maps maximally entangled states to maximally
entangled states.  Supporting lemmas relate superpositions of maximally
entangled states to the Hermitian/anti-Hermitian character of the unitary
connecting them.  The checks sample these statements and return Verdicts
with reproducible witnesses instead of raising, so they can run as suites.
The theorem suites draw each split's elements, probes and Haar candidates
in stacks, every non-member check its PROBES probes up front; this stream
layout replaced one draw per object, so seeds give other draws than before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .frames import (
    Entanglement,
    Membership,
    MeronomicElement,
    classify,
    factor_as_local,
)
from .linalg import TOL_ALGEBRA, TOL_EIGEN, BipartiteSplit, Operator, StateVector, phase_fix
from .sampling import haar_unitary, haar_unitary_batch, random_maxent_state, sample_m_chunks

_SQRT2 = np.sqrt(2.0)
_S22 = BipartiteSplit(2, 2)

# Verdicts on classes, (anti-)Hermiticity and membership residuals use TOL_EIGEN (1e-8); true ones hold to ~1e-15.
TOL_DRIFT = 1e-9  # Schmidt parameters are squared singular values of a unit-norm matrix: a decade below TOL_EIGEN
PROBES = 20  # probes per non-member check: one random probe already exposes a Haar non-member almost surely
_STACK = 64  # trials per stacked draw: amortizes numpy's per-call cost; larger stacks raise peak memory


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification check; a failing one carries the exhibit."""

    passed: bool
    detail: str
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly when the check failed")


def relative_unitary(psi: StateVector, phi: StateVector) -> Operator:
    """The 2x2 unitary u with (1 (x) u) psi = phi, for maximally entangled two-qubit states.

    Built from the first-qubit-conditioned expansions psi = (|0, p0> + |1, p1>)/sqrt(2)
    as u = |q0><p0| + |q1><p1|; the conditioned vectors of a maximally
    entangled state are orthonormal, which makes u unitary and unique.
    """
    for name, state in (("psi", psi), ("phi", phi)):
        if state.dim != 4:
            raise ValueError(f"{name} must be a two-qubit state, got dim {state.dim}")
        if classify(state, _S22, TOL_EIGEN) is not Entanglement.MAXIMALLY_ENTANGLED:
            raise ValueError(f"{name} is not maximally entangled within {TOL_EIGEN}")
    p = psi.amps.reshape(2, 2) * _SQRT2
    q = phi.amps.reshape(2, 2) * _SQRT2
    return Operator(q.T @ p.conj())


def _superposition_entanglement(psi: StateVector, phi: StateVector):
    """Classification of (psi + phi)/sqrt(2), or None when it is not even normalized."""
    s = (psi.amps + phi.amps) / _SQRT2
    norm = np.linalg.norm(s)
    if abs(norm - 1.0) > TOL_EIGEN:
        return None, s
    return classify(StateVector(s / norm), _S22, TOL_EIGEN), s


def check_lemma_antihermitian(psi: StateVector, phi: StateVector) -> Verdict:
    """Equal superposition is maximally entangled iff the relative unitary is anti-Hermitian.

    Tests the biconditional in both directions on one pair of maximally
    entangled two-qubit states.
    """
    u = relative_unitary(psi, phi).entries
    anti = bool(np.abs(u + u.conj().T).max() <= TOL_EIGEN)
    cls, s = _superposition_entanglement(psi, phi)
    superposed_maxent = cls is Entanglement.MAXIMALLY_ENTANGLED
    if anti == superposed_maxent:
        return Verdict(True, f"biconditional holds (anti-Hermitian={anti})")
    return Verdict(
        False,
        f"anti-Hermitian={anti} but superposition maximally entangled={superposed_maxent}",
        witness=s,
    )


def check_lemma_hermitian(psi: StateVector, phi: StateVector) -> Verdict:
    """Orthogonal pair with Hermitian relative unitary must superpose to a product state."""
    u = relative_unitary(psi, phi).entries
    if abs(psi.overlap(phi)) > TOL_EIGEN:
        raise ValueError("states must be mutually orthogonal")
    if np.abs(u - u.conj().T).max() > TOL_EIGEN:
        raise ValueError(f"relative unitary must be Hermitian within {TOL_EIGEN}")
    cls, s = _superposition_entanglement(psi, phi)
    if cls is Entanglement.PRODUCT:
        return Verdict(True, "superposition is a product state")
    return Verdict(False, f"superposition classified as {cls}", witness=s)


def _orthogonal_complement(state: StateVector) -> StateVector:
    a, b = state.amps
    return StateVector(phase_fix(np.array([[-np.conj(b)], [np.conj(a)]]))[0][:, 0])


def gamma_delta(psi_local: StateVector, phi_local: StateVector) -> tuple[StateVector, StateVector]:
    """Two maximally entangled states whose equal superposition is |psi, phi>.

    Gamma = (|psi,phi> + |psi_perp,phi_perp>)/sqrt(2) and
    Delta = (|psi,phi> - |psi_perp,phi_perp>)/sqrt(2), with the orthogonal
    complements fixed deterministically.
    """
    if psi_local.dim != 2 or phi_local.dim != 2:
        raise ValueError("inputs must be single-qubit states")
    product = np.kron(psi_local.amps, phi_local.amps)
    flipped = np.kron(_orthogonal_complement(psi_local).amps, _orthogonal_complement(phi_local).amps)
    gamma = StateVector((product + flipped) / _SQRT2)
    delta = StateVector((product - flipped) / _SQRT2)
    return gamma, delta


def _random_amps(rng: np.random.Generator, dims: tuple, count: int) -> np.ndarray:
    """`count` Haar-random pure states on C^d for dims (d,), or product states on C^(d1*d2) for (d1, d2), as
    rows: normalized complex Gaussian vectors (for a product, the normalized product of two)."""
    z = rng.standard_normal((count, sum(dims))) + 1j * rng.standard_normal((count, sum(dims)))
    if len(dims) == 2:
        z = (z[:, : dims[0], None] * z[:, None, dims[0] :]).reshape(count, -1)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _maxent_amps(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` Haar-random maximally entangled two-qubit states as rows: (u (x) 1)|Phi+> for Haar u."""
    return haar_unitary_batch(2, count, rng).reshape(count, 4) / _SQRT2


def schmidt_preservation_check(elem: MeronomicElement, state: StateVector, split: BipartiteSplit) -> Verdict:
    """Does the element keep the (sorted) Schmidt parameters of this state?"""
    pair = np.array([state.amps, elem.act(state.amps)]).reshape(2, split.d1, split.d2)
    before, after = np.linalg.svd(pair, compute_uv=False) ** 2  # the image's parameters, up to its squared norm
    if after.sum() < 1e-24:
        return Verdict(False, "element annihilated the probe state", witness=state.amps)
    drift = float(np.abs(before - after / after.sum()).max())
    if drift <= TOL_DRIFT:
        return Verdict(True, f"Schmidt parameters preserved (max drift {drift:.2e})")
    return Verdict(False, f"Schmidt parameters drifted by {drift:.2e} > {TOL_DRIFT}", witness=state.amps)


def member_recognition_check(elem: MeronomicElement) -> Verdict:
    """Is a constructed group element recognized by the membership test?"""
    mat = elem.to_operator()
    expected = Membership.SWAP_LOCAL if elem.swap else Membership.LOCAL
    try:
        result = factor_as_local(mat, elem.split, TOL_EIGEN)
    except ValueError as exc:
        return Verdict(False, f"membership test rejected the element: {exc}", witness=mat.entries)
    if result.verdict is expected and result.residual <= TOL_EIGEN:
        return Verdict(True, f"recognized as {result.verdict.value} (residual {result.residual:.2e})")
    return Verdict(
        False,
        f"expected {expected.value}, got {result.verdict.value} with residual {result.residual:.2e}",
        witness=mat.entries,
    )


def _escaping_probe(probes: np.ndarray, act, split: BipartiteSplit, cls: Entanglement, tol: float):
    """The first of `probes` whose image under act is zero or, renormalized, not of class `cls` at tol; else None."""
    for probe in probes:
        image = act(probe)
        norm = np.linalg.norm(image)
        if norm < 1e-12 or classify(StateVector(image / norm), split, tol) is not cls:
            return probe
    return None


def nonmember_product_check(u: Operator, split: BipartiteSplit, rng: np.random.Generator) -> Verdict:
    """A rejected unitary must send one of PROBES product states, drawn up front, to an entangled one."""
    probes = _random_amps(rng, (split.d1, split.d2), PROBES)
    if _escaping_probe(probes, u.entries.dot, split, Entanglement.PRODUCT, TOL_EIGEN) is not None:
        return Verdict(True, "found a product state mapped to an entangled state")
    return Verdict(False, f"all {PROBES} product probes stayed product", witness=u.entries)


def nonmember_maxent_check(u: Operator, rng: np.random.Generator) -> Verdict:
    """A rejected two-qubit unitary must break maximal entanglement on one of PROBES probes drawn up front."""
    probes = _maxent_amps(rng, PROBES)
    if _escaping_probe(probes, u.entries.dot, _S22, Entanglement.MAXIMALLY_ENTANGLED, TOL_EIGEN) is not None:
        return Verdict(True, "found a maximally entangled state mapped off the maximal set")
    return Verdict(False, f"all {PROBES} maximally entangled probes stayed maximal", witness=u.entries)


def _stacked_draws(split: BipartiteSplit, trials: int, elements, draw_probes, rng: np.random.Generator):
    """Yield (element, probes, candidate) per trial on `split`, drawn in stacks of _STACK trials: the group
    elements through sample_m_chunks (or the next of `elements`, cycled over `trials`, that are on `split`),
    then draw_probes(n) as one array, then the Haar candidates."""
    own = [e for e in (elements[t % len(elements)] for t in range(trials)) if e.split == split] if elements else None
    count = trials if own is None else len(own)
    for start in range(0, count, _STACK):
        n = min(_STACK, count - start)
        if own is None:
            v, w, swaps = next(sample_m_chunks(split, n, rng))
            elems = map(MeronomicElement, map(Operator, v), map(Operator, w), map(bool, swaps))
        else:
            elems = own[start : start + n]
        probes = draw_probes(n)
        yield from zip(elems, probes, map(Operator, haar_unitary_batch(split.dim, n, rng)))


def check_theorem1_suite(
    trials: int, rng: np.random.Generator, elements: Optional[Sequence[MeronomicElement]] = None
) -> Verdict:
    """Sampled check that decomposition preservation, Schmidt preservation and
    product-form factorization single out the same unitaries.

    Per trial and split: a group element must preserve Schmidt parameters and
    be recognized by the membership test, while a Haar-random global unitary
    that the test rejects must move at least one product state off the
    product set.  `elements` overrides the sampled group elements (cycled,
    each trial running on that element's own split), which is how deliberate
    faults are injected.  The verdict names the first failing trial, split
    (2x2 before 2x3) and check (Schmidt, membership, non-member), in that order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    splits = dict.fromkeys(e.split for e in elements) if elements else (_S22, BipartiteSplit(2, 3))
    # One lazy stream per split, so trials still run in order, and 2x2 before 2x3 within one.
    draws = {s: _stacked_draws(s, trials, elements, partial(_random_amps, rng, (s.dim,)), rng) for s in splits}
    for t in range(trials):
        for split in (elements[t % len(elements)].split,) if elements else splits:
            elem, probe, candidate = next(draws[split])
            verdict = schmidt_preservation_check(elem, StateVector(probe), split)
            verdict = member_recognition_check(elem) if verdict.passed else verdict
            if verdict.passed and factor_as_local(candidate, split).verdict is Membership.NOT_MEMBER:
                verdict = nonmember_product_check(candidate, split, rng)
            if not verdict.passed:
                return Verdict(False, f"trial {t} on {split.d1}x{split.d2}: {verdict.detail}", verdict.witness)
    return Verdict(True, f"{trials} trials on splits 2x2 and 2x3 passed")


def check_theorem2_suite(
    trials: int, rng: np.random.Generator, elements: Optional[Sequence[MeronomicElement]] = None
) -> Verdict:
    """Sampled check that, on two qubits, exactly the decomposition-preserving
    unitaries preserve maximal entanglement.

    Group elements (or injected overrides) must map PROBES random maximally
    entangled states to maximally entangled ones, judged at TOL_ALGEBRA;
    rejected Haar unitaries must break maximality on one of PROBES probes.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if elements and any(e.split != _S22 for e in elements):
        raise ValueError("the two-qubit suite only takes 2x2 elements")
    draw_probes = lambda n: _maxent_amps(rng, n * PROBES).reshape(n, PROBES, 4)
    for t, (elem, probes, candidate) in enumerate(_stacked_draws(_S22, trials, elements, draw_probes, rng)):
        probe = _escaping_probe(probes, elem.act, _S22, Entanglement.MAXIMALLY_ENTANGLED, TOL_ALGEBRA)
        if probe is not None:
            return Verdict(False, f"trial {t}: element moved a maximally entangled state off the maximal set", probe)
        if factor_as_local(candidate, _S22).verdict is Membership.NOT_MEMBER:
            verdict = nonmember_maxent_check(candidate, rng)
            if not verdict.passed:
                return Verdict(False, f"trial {t}: {verdict.detail}", verdict.witness)
    return Verdict(True, f"{trials} trials on the 2x2 split passed")


def _traceless_hermitian_unitary(rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(2, rng).entries
    return v @ np.diag([1.0, -1.0]).astype(np.complex128) @ v.conj().T


def _apply_second(u: np.ndarray, state: StateVector) -> StateVector:
    return StateVector((state.amps.reshape(2, 2) @ u.T).reshape(-1))


def check_lemmas_suite(trials: int, rng: np.random.Generator) -> Verdict:
    """Run both superposition lemmas on constructed and random instances.

    Per trial: an anti-Hermitian relative unitary (superposition must stay
    maximally entangled), a traceless Hermitian one (superposition must be a
    product state), and an unconstrained random pair (the biconditional must
    still hold, typically with both sides false).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for t in range(trials):
        base = random_maxent_state(2, rng)
        h = _traceless_hermitian_unitary(rng)
        cases = (
            ("anti-Hermitian construction", check_lemma_antihermitian(base, _apply_second(1j * h, base))),
            ("Hermitian construction", check_lemma_hermitian(base, _apply_second(h, base))),
            ("random pair", check_lemma_antihermitian(base, random_maxent_state(2, rng))),
        )
        for label, verdict in cases:
            if not verdict.passed:
                return Verdict(False, f"trial {t}, {label}: {verdict.detail}", verdict.witness)
    return Verdict(True, f"{trials} trials of both lemmas passed")
