"""Batch verification suites for the structure of decomposition-preserving unitaries.

The characterization being exercised: a global unitary preserves a bipartite
decomposition exactly when it keeps every state's Schmidt parameters, and
(on two qubits) exactly when it maps maximally entangled states to maximally
entangled states.  Supporting lemmas relate superpositions of maximally
entangled states to the Hermitian/anti-Hermitian character of the unitary
connecting them.  The checks sample these statements and return Verdicts
with reproducible witnesses instead of raising, so they can run as suites.
The theorem suites draw each split's elements, probes and Haar candidates
in stacks, and every non-member check its PROBES probes up front, all
through the stacked samplers of meronome.sampling.  The group elements are
checked as that ElementStack: the Schmidt and membership checks take a stack
and return one Verdict per row, which the suites read in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .frames import (
    ElementStack,
    Entanglement,
    Membership,
    MeronomicElement,
    classify,
    factor_as_local,
)
from .linalg import TOL_ALGEBRA, TOL_EIGEN, BipartiteSplit, Operator, StateVector, phase_fix
from .sampling import haar_unitary_batch, random_m_elements, random_maxent_state, random_maxent_states, random_states

_SQRT2 = np.sqrt(2.0)
_S22 = BipartiteSplit(2, 2)

# Verdicts on classes, (anti-)Hermiticity and membership residuals use TOL_EIGEN (1e-8); true ones hold to ~1e-15.
TOL_DRIFT = 1e-9  # Schmidt parameters are squared singular values of a unit-norm matrix: a decade below TOL_EIGEN
PROBES = 20  # probes per non-member check: one random probe already exposes a Haar non-member almost surely
_STACK = 64  # trials per stacked draw: amortizes numpy's per-call cost; larger stacks raise peak memory


@dataclass(frozen=True, eq=False)
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


def _schmidt_drifts(elems: ElementStack, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the largest change of states[i]'s sorted Schmidt parameters under element i (read up to the image's
    squared norm) and whether the image was annihilated; from one SVD over all probes and images."""
    for row in np.flatnonzero(~(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= TOL_ALGEBRA)):
        StateVector(states[row])  # raises the per-state message for a probe that is not a unit vector
    pairs = np.concatenate((states, elems.act(states))).reshape(2 * len(states), elems.split.d1, elems.split.d2)
    before, after = np.split(np.linalg.svd(pairs, compute_uv=False) ** 2, 2)
    norms = after.sum(axis=1)
    gone = norms < 1e-24
    return np.abs(before - after / np.where(gone, 1.0, norms)[:, None]).max(axis=1), gone


def schmidt_preservation_check(elems: ElementStack, states: np.ndarray) -> list[Verdict]:
    """Does each element keep the (sorted) Schmidt parameters of its probe, row i of `states`?  One verdict per row."""
    drifts, gone = _schmidt_drifts(elems, states)
    return [
        Verdict(False, "element annihilated the probe state", witness=state) if dead
        else Verdict(True, f"Schmidt parameters preserved (max drift {drift:.2e})") if drift <= TOL_DRIFT
        else Verdict(False, f"Schmidt parameters drifted by {drift:.2e} > {TOL_DRIFT}", witness=state)
        for state, drift, dead in zip(states, drifts.tolist(), gone.tolist())
    ]


def member_recognition_check(elems: ElementStack) -> list[Verdict]:
    """Is each constructed group element recognized by the membership test?  One verdict per row, from one
    build of the operator stack and one factor_as_local call per row."""
    verdicts, split = [], elems.split
    for mat, swap in zip(elems.operators(), elems.swaps.tolist()):
        expected = Membership.SWAP_LOCAL if swap else Membership.LOCAL
        try:
            result = factor_as_local(Operator(mat), split, TOL_EIGEN)
        except ValueError as exc:
            verdicts.append(Verdict(False, f"membership test rejected the element: {exc}", witness=mat))
            continue
        if result.verdict is expected and result.residual <= TOL_EIGEN:
            verdicts.append(Verdict(True, f"recognized as {result.verdict.value} (residual {result.residual:.2e})"))
        else:
            detail = f"expected {expected.value}, got {result.verdict.value} with residual {result.residual:.2e}"
            verdicts.append(Verdict(False, detail, witness=mat))
    return verdicts


def _escaping_probe(probes: np.ndarray, images, split: BipartiteSplit, cls: Entanglement, tol: float):
    """The first of `probes` whose image (from `images`) is zero or, renormalized, not of class `cls` at tol."""
    for probe, image in zip(probes, images):
        norm = np.linalg.norm(image)
        if norm < 1e-12 or classify(StateVector(image / norm), split, tol) is not cls:
            return probe
    return None


def nonmember_product_check(u: Operator, split: BipartiteSplit, rng: np.random.Generator) -> Verdict:
    """A rejected unitary must send one of PROBES product states, drawn up front, to an entangled one."""
    probes = random_states((split.d1, split.d2), PROBES, rng)
    if _escaping_probe(probes, map(u.entries.dot, probes), split, Entanglement.PRODUCT, TOL_EIGEN) is not None:
        return Verdict(True, "found a product state mapped to an entangled state")
    return Verdict(False, f"all {PROBES} product probes stayed product", witness=u.entries)


def nonmember_maxent_check(u: Operator, rng: np.random.Generator) -> Verdict:
    """A rejected two-qubit unitary must break maximal entanglement on one of PROBES probes drawn up front."""
    probes = random_maxent_states(2, PROBES, rng)
    images = map(u.entries.dot, probes)
    if _escaping_probe(probes, images, _S22, Entanglement.MAXIMALLY_ENTANGLED, TOL_EIGEN) is not None:
        return Verdict(True, "found a maximally entangled state mapped off the maximal set")
    return Verdict(False, f"all {PROBES} maximally entangled probes stayed maximal", witness=u.entries)


def _stacked_draws(split: BipartiteSplit, trials: int, elements, draw_probes, check, rng: np.random.Generator):
    """Yield (check's row, probes, candidate) per trial on `split`, drawn in stacks of _STACK trials: the group
    elements as one ElementStack from random_m_elements (or of the next of `elements`, cycled over `trials`, that
    are on `split`), then draw_probes(n, split), then the Haar candidates; check(stack, probes) draws nothing."""
    own = [e for e in (elements[t % len(elements)] for t in range(trials)) if e.split == split] if elements else None
    count = trials if own is None else len(own)
    for start in range(0, count, _STACK):
        n = min(_STACK, count - start)
        elems = random_m_elements(split, n, rng) if own is None else ElementStack.from_elements(own[start : start + n])
        probes = draw_probes(n, split)
        candidates = haar_unitary_batch(split.dim, n, rng)
        yield from zip(check(elems, probes), probes, map(Operator, candidates))


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
    splits = dict.fromkeys(e.split for e in elements[:trials]) if elements else (_S22, BipartiteSplit(2, 3))
    # One lazy stream per split, so trials still run in order, and 2x2 before 2x3 within one.
    probes = lambda n, split: random_states((split.dim,), n, rng)
    check = lambda elems, states: [  # per row: the Schmidt verdict where it failed, else the membership verdict
        second if first.passed else first
        for first, second in zip(schmidt_preservation_check(elems, states), member_recognition_check(elems))
    ]
    draws = {s: _stacked_draws(s, trials, elements, probes, check, rng) for s in splits}
    for t in range(trials):
        for split in (elements[t % len(elements)].split,) if elements else splits:
            verdict, _, candidate = next(draws[split])
            if verdict.passed and factor_as_local(candidate, split).verdict is Membership.NOT_MEMBER:
                verdict = nonmember_product_check(candidate, split, rng)
            if not verdict.passed:
                return Verdict(False, f"trial {t} on {split.d1}x{split.d2}: {verdict.detail}", verdict.witness)
    names = " and ".join(f"{s.d1}x{s.d2}" for s in splits)
    return Verdict(True, f"{trials} trials on split{'s' * (len(splits) > 1)} {names} passed")


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
    draw = lambda n, _: random_maxent_states(2, n * PROBES, rng).reshape(n, PROBES, 4)
    for t, (moved, probes, candidate) in enumerate(_stacked_draws(_S22, trials, elements, draw, ElementStack.act, rng)):
        probe = _escaping_probe(probes, moved, _S22, Entanglement.MAXIMALLY_ENTANGLED, TOL_ALGEBRA)
        if probe is not None:
            return Verdict(False, f"trial {t}: element moved a maximally entangled state off the maximal set", probe)
        if factor_as_local(candidate, _S22).verdict is Membership.NOT_MEMBER:
            verdict = nonmember_maxent_check(candidate, rng)
            if not verdict.passed:
                return Verdict(False, f"trial {t}: {verdict.detail}", verdict.witness)
    return Verdict(True, f"{trials} trials on the 2x2 split passed")


def _traceless_hermitian_unitary(rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary_batch(2, 1, rng)[0]
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
