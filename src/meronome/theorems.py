"""Batch verification suites for the structure of decomposition-preserving unitaries.

The characterization being exercised: a global unitary preserves a bipartite
decomposition exactly when it keeps every state's Schmidt parameters, and
(on two qubits) exactly when it maps maximally entangled states to maximally
entangled states.  Supporting lemmas relate superpositions of maximally
entangled states to the Hermitian/anti-Hermitian character of the unitary
connecting them.  The checks sample these statements and return Verdicts
with reproducible witnesses instead of raising, so they can run as suites.
Both theorem suites run through one driver, which draws each split's group
elements (one ElementStack from random_m_elements, which tests replace to
inject faults), probes and Haar candidates in stacks; a non-member check
draws its PROBES probes up front.  One check, schmidt_preservation_check,
judges both suites' group elements at TOL_ALGEBRA by the Schmidt drift of their
probes (one per row, or PROBES maximally entangled ones for theorem 2, where
drift is the classify test up to roundoff), from one SVD over a whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import ElementStack, Entanglement, Membership, classify, factor_as_local
from .linalg import TOL_ALGEBRA, TOL_EIGEN, BipartiteSplit, Operator, StateVector, phase_fix
from .sampling import haar_unitary_batch, random_m_elements, random_maxent_state, random_maxent_states, random_states

_SQRT2 = np.sqrt(2.0)
_S22 = BipartiteSplit(2, 2)

# Verdicts on classes, (anti-)Hermiticity and membership residuals use TOL_EIGEN (1e-8); true ones hold to ~1e-15.
# A group element's Schmidt drift is judged at TOL_ALGEBRA (1e-10): at most 1.7e-15 in 20 seeds x 1000 trials per suite.
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


def _schmidt_drifts(states: np.ndarray, images: np.ndarray, split: BipartiteSplit) -> tuple[np.ndarray, np.ndarray]:
    """Per probe, the largest change of the sorted Schmidt parameters of states[...] in images[...] (read up to the
    image's squared norm) and whether the image is zero; from one SVD over all probes and images, of shape (..., D)."""
    for state in states[~(np.abs(np.linalg.norm(states, axis=-1) - 1.0) <= TOL_ALGEBRA)]:
        StateVector(state)  # raises the per-state message for a probe that is not a unit vector
    pairs = np.stack((states, images)).reshape(2, *states.shape[:-1], split.d1, split.d2)
    before, after = np.linalg.svd(pairs, compute_uv=False) ** 2
    norms = after.sum(axis=-1)
    gone = norms < 1e-24
    return np.abs(before - after / np.where(gone, 1.0, norms)[..., None]).max(axis=-1), gone


def schmidt_preservation_check(elems: ElementStack, states: np.ndarray) -> list[Verdict]:
    """Does each element keep the sorted Schmidt parameters of its probes, row i of `states` ((n, D) or (n, k, D))?
    One verdict per row, on its largest drift; its witness is the first annihilated probe, else the first drifted."""
    drifts, gone = _schmidt_drifts(states, elems.act(states), elems.split)
    if states.ndim == 2:  # one probe per row, as a row of one
        states, drifts, gone = states[:, None], drifts[:, None], gone[:, None]
    first = (2 * gone + ~(drifts <= TOL_ALGEBRA)).argmax(axis=1)  # annihilated outranks drifted outranks kept
    witnesses = states[np.arange(len(states)), first]
    return [
        Verdict(False, "element annihilated the probe state", witness=state) if dead
        else Verdict(True, f"Schmidt parameters preserved (max drift {drift:.2e})") if drift <= TOL_ALGEBRA
        else Verdict(False, f"Schmidt parameters drifted by {drift:.2e} > {TOL_ALGEBRA}", witness=state)
        for state, drift, dead in zip(witnesses, drifts.max(axis=1).tolist(), gone.any(axis=1).tolist())
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


def nonmember_product_check(u: Operator, split: BipartiteSplit, rng: np.random.Generator) -> Verdict:
    """A rejected unitary must send one of PROBES product states, drawn up front, to an entangled one.  The images are
    classified one at a time, as perfbench's traced verify run expects classify calls here (ROADMAP items 1 and 3b)."""
    for image in map(u.entries.dot, random_states((split.d1, split.d2), PROBES, rng)):
        norm = np.linalg.norm(image)
        if norm < 1e-12 or classify(StateVector(image / norm), split, TOL_EIGEN) is not Entanglement.PRODUCT:
            return Verdict(True, "found a product state mapped to an entangled state")
    return Verdict(False, f"all {PROBES} product probes stayed product", witness=u.entries)


def nonmember_maxent_check(u: Operator, split: BipartiteSplit, rng: np.random.Generator) -> Verdict:
    """A rejected unitary on a d x d split must break maximal entanglement on one of PROBES probes drawn up front: its
    image is zero or, renormalized, has Schmidt parameters off 1/d by more than TOL_EIGEN.  One SVD judges them all."""
    probes = random_maxent_states(split.d1, PROBES, rng)
    drifts, gone = _schmidt_drifts(probes, probes @ u.entries.T, split)
    if (gone | ~(drifts <= TOL_EIGEN)).any():
        return Verdict(True, "found a maximally entangled state mapped off the maximal set")
    return Verdict(False, f"all {PROBES} maximally entangled probes stayed maximal", witness=u.entries)


def _run_suite(trials, rng, splits, draw_probes, check, nonmember) -> Optional[Verdict]:
    """A theorem suite's first failure as "trial t on d1xd2: ...", or None.  Each split draws lazily, in stacks of
    _STACK trials: group elements (random_m_elements), then draw_probes(n, split), then Haar candidates.  Every trial
    runs on every split, in `splits` order: check(stack, probes) judges each row; a candidate factor_as_local rejects
    must pass nonmember(u, split, rng).  Tests inject faults by replacing random_m_elements."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def rows(split):
        for start in range(0, trials, _STACK):
            n = min(_STACK, trials - start)
            elems = random_m_elements(split, n, rng)
            probes = draw_probes(n, split)
            candidates = haar_unitary_batch(split.dim, n, rng)
            yield from zip(check(elems, probes), map(Operator, candidates))

    draws = {split: rows(split) for split in splits}
    for t in range(trials):
        for split in splits:
            verdict, candidate = next(draws[split])
            if verdict.passed and factor_as_local(candidate, split).verdict is Membership.NOT_MEMBER:
                verdict = nonmember(candidate, split, rng)
            if not verdict.passed:
                return Verdict(False, f"trial {t} on {split}: {verdict.detail}", verdict.witness)
    return None


def check_theorem1_suite(trials: int, rng: np.random.Generator) -> Verdict:
    """Sampled check that decomposition preservation, Schmidt preservation and
    product-form factorization single out the same unitaries.

    Per trial and split: a group element from random_m_elements (tests replace
    it to inject faults) must keep Schmidt parameters and pass the membership
    test, while a Haar-random unitary that the test rejects must move a
    product state off the product set.  The first failure names its trial,
    split (2x2 before 2x3) and check (Schmidt, membership, non-member).
    """
    check = lambda elems, states: [  # per row: the Schmidt verdict where it failed, else the membership verdict
        second if first.passed else first
        for first, second in zip(schmidt_preservation_check(elems, states), member_recognition_check(elems))
    ]
    draw = lambda n, split: random_states((split.dim,), n, rng)
    failure = _run_suite(trials, rng, (_S22, BipartiteSplit(2, 3)), draw, check, nonmember_product_check)
    return failure or Verdict(True, f"{trials} trials on splits 2x2 and 2x3 passed")


def check_theorem2_suite(trials: int, rng: np.random.Generator) -> Verdict:
    """Sampled check that, on two qubits, exactly the decomposition-preserving
    unitaries preserve maximal entanglement.

    Group elements must keep the Schmidt parameters of PROBES random
    maximally entangled states (schmidt_preservation_check, as in theorem 1);
    rejected Haar unitaries must break maximality on one of PROBES probes,
    judged at TOL_EIGEN.  Each stack's probes are judged by one SVD.
    """
    draw = lambda n, split: random_maxent_states(split.d1, n * PROBES, rng).reshape(n, PROBES, split.dim)
    failure = _run_suite(trials, rng, (_S22,), draw, schmidt_preservation_check, nonmember_maxent_check)
    return failure or Verdict(True, f"{trials} trials on the 2x2 split passed")


def _traceless_hermitian_unitary(rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary_batch(2, 1, rng)[0]
    return v @ np.diag([1.0, -1.0]).astype(np.complex128) @ v.conj().T


def _apply_second(u: np.ndarray, state: StateVector) -> StateVector:
    return StateVector((state.amps.reshape(2, 2) @ u.T).reshape(-1))


def check_lemmas_suite(trials: int, rng: np.random.Generator) -> Verdict:
    """Run both superposition lemmas on constructed and random instances.

    Per trial: an anti-Hermitian relative unitary (superposition must stay
    maximally entangled), a traceless Hermitian one (superposition must be a
    product state), and a random pair rephased to a unit superposition (the
    biconditional must still hold, typically with both sides false).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for t in range(trials):
        base = random_maxent_state(2, rng)
        h = _traceless_hermitian_unitary(rng)
        pair = random_maxent_state(2, rng)  # rephased so that <base|pair> is imaginary: a unit superposition
        pair = StateVector(1j * np.exp(-1j * np.angle(base.overlap(pair))) * pair.amps)
        cases = (
            ("anti-Hermitian construction", check_lemma_antihermitian(base, _apply_second(1j * h, base))),
            ("Hermitian construction", check_lemma_hermitian(base, _apply_second(h, base))),
            ("random pair", check_lemma_antihermitian(base, pair)),
        )
        for label, verdict in cases:
            if not verdict.passed:
                return Verdict(False, f"trial {t}, {label}: {verdict.detail}", verdict.witness)
    return Verdict(True, f"{trials} trials of both lemmas passed")
