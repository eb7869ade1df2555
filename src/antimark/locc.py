"""Local exclusion protocols: structure, generation, and verification.

A protocol is a shallow tree of local measurements flattened into global
product elements for checking: one simultaneous round of per-party POVMs, a
two-round sequence where one party's outcome picks the other party's
measurement, or a shared-randomness mixture of such protocols.  An exclusion
map assigns each flattened outcome the state labels it claims to rule out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .ensembles import Ensemble
from .qcore import (DEFAULT_TOL, DataError, PartyLayout, density, fires, kron,
                    mat_to_pairs, measurement_checks, outcome_table)

KINDS = ("one_round_product", "two_round_sequential", "randomized_mixture")


def _mat(m, dim: int, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"{what}: expected shape {(dim, dim)}, got {m.shape}")
    return m


# ---------------------------------------------------------------------------
# protocol container


@dataclass
class LoccProtocol:
    kind: str
    layout: PartyLayout
    party_povms: list[list[np.ndarray]] | None = None
    first_povm: list[np.ndarray] | None = None
    responses: list[list[np.ndarray]] | None = None
    exclusion_map: dict[tuple[int, ...], tuple[str, ...]] | None = None
    mixture: list[tuple[float, "LoccProtocol"]] | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        dims = self.layout.dims
        if self.kind == "one_round_product":
            if self.party_povms is None or len(self.party_povms) != len(dims):
                raise ValueError("one-round protocol needs one POVM per party")
            self.party_povms = [[_mat(m, d, f"party {p} element") for m in povm]
                                for p, (povm, d) in enumerate(zip(self.party_povms, dims))]
        elif self.kind == "two_round_sequential":
            if len(dims) != 2:   # a joint response of several parties is not local
                raise ValueError("two-round protocol needs exactly two parties")
            if self.first_povm is None or self.responses is None:
                raise ValueError("two-round protocol needs first_povm and responses")
            self.first_povm = [_mat(m, dims[0], "first-party element")
                               for m in self.first_povm]
            if len(self.responses) != len(self.first_povm):
                raise ValueError("one response POVM per first-party outcome required")
            self.responses = [[_mat(m, dims[1], f"response {i} element") for m in povm]
                              for i, povm in enumerate(self.responses)]
        else:
            if not self.mixture:
                raise ValueError("mixture protocol needs components")
            total = 0.0
            comps = []
            for w, comp in self.mixture:
                w = float(w)
                if w <= 0:
                    raise ValueError("mixture weights must be positive")
                if not isinstance(comp, LoccProtocol) or comp.kind == "randomized_mixture":
                    raise ValueError("mixture components must be plain protocols")
                if comp.layout.dims != dims:
                    raise ValueError("mixture components must share the layout")
                total += w
                comps.append((w, comp))
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"mixture weights sum to {total!r}, not 1")
            self.mixture = comps
        if self.exclusion_map is not None:
            clean = {}
            for key, labs in self.exclusion_map.items():
                clean[tuple(int(i) for i in key)] = tuple(str(x) for x in labs)
            self.exclusion_map = clean


@dataclass
class FlatOutcome:
    outcome: tuple[int, ...]
    element: np.ndarray
    claims: tuple[str, ...] | None  # None when the outcome is unmapped


class FlatOutcomes(list):
    """Outcomes in order; outcome i's element is row i of the stack ``elements``."""
    elements: np.ndarray


def flatten_protocol(p: LoccProtocol) -> FlatOutcomes:
    """Global product elements of a protocol, with any mapped claims attached.

    The elements are the rows of one (n, d, d) stack: one broadcast product
    per party, or one for all branches of a two-round protocol; a mixture
    scales its components' stacks by their weights and concatenates them."""
    dims = p.layout.dims
    if p.kind == "randomized_mixture":
        subs = [flatten_protocol(comp) for _, comp in p.mixture]
        keys = [(ci,) + f.outcome for ci, sub in enumerate(subs) for f in sub]
        claims = [f.claims for sub in subs for f in sub]
        els = np.concatenate([w * sub.elements for (w, _), sub in zip(p.mixture, subs)])
    else:
        if p.kind == "one_round_product":
            stacks = [np.asarray(povm).reshape(-1, d, d) for povm, d in zip(p.party_povms, dims)]
            els = stacks[0]
            for s in stacks[1:]:
                els = kron(els[:, None], s)
                els = els.reshape((-1,) + els.shape[2:])
            keys = list(product(*(range(len(s)) for s in stacks)))
        else:
            keys = [(i, j) for i, resp in enumerate(p.responses) for j in range(len(resp))]
            firsts = np.asarray(p.first_povm).reshape(-1, dims[0], dims[0])
            resps = np.asarray([m for r in p.responses for m in r]).reshape(-1, dims[1], dims[1])
            els = kron(firsts[[i for i, _ in keys]], resps)
        claims = [(p.exclusion_map or {}).get(k) for k in keys]
    flat = FlatOutcomes(map(FlatOutcome, keys, els, claims))
    flat.elements = els
    return flat


def _mapped_outcomes(p: LoccProtocol) -> set[tuple[int, ...]]:
    if p.kind == "randomized_mixture":
        keys: set[tuple[int, ...]] = set()
        for ci, (_, comp) in enumerate(p.mixture):
            keys.update((ci,) + k for k in _mapped_outcomes(comp))
        return keys
    return set() if p.exclusion_map is None else set(p.exclusion_map)


def _validate_pieces(p: LoccProtocol, tol: float) -> None:
    """ValueError naming the first local POVM, in protocol order, that fails
    the measurement check; the POVMs are checked in one group per dimension."""
    pieces = []
    for c in [c for _, c in p.mixture] if p.kind == "randomized_mixture" else [p]:
        if c.kind == "one_round_product":
            pieces += [(f"party {q} POVM", povm) for q, povm in enumerate(c.party_povms)]
        else:
            pieces += [("first-party POVM", c.first_povm)]
            pieces += [(f"response POVM {i}", povm) for i, povm in enumerate(c.responses)]
    dims = [len(povm[0]) if povm else 0 for _, povm in pieces]
    groups = [[k for k, dk in enumerate(dims) if dk == d] for d in set(dims)]
    failed = [(k, failures[0]) for group in groups for k, (failures, _, _)
              in zip(group, measurement_checks([pieces[k][1] for k in group], tol)) if failures]
    if failed:
        k, failure = min(failed)
        raise ValueError(f"{pieces[k][0]}: {failure}")


# ---------------------------------------------------------------------------
# protocol verification


@dataclass
class ProtocolOutcomeReport:
    outcome: tuple[int, ...]
    probability: float  # under the uniform mixture
    reachable: bool
    claims: tuple[str, ...] | None
    worst_residual: float


@dataclass
class LocalProtocolReport:
    passed: bool
    sound: bool
    rows: list[ProtocolOutcomeReport]
    excluded_labels: tuple[str, ...]
    missing_labels: tuple[str, ...]
    unreachable_mapped: list[tuple[int, ...]]
    completeness_residual: float
    failures: list[str]
    tol: float


def verify_local_protocol(e: Ensemble, p: LoccProtocol,
                          tol: float = DEFAULT_TOL) -> LocalProtocolReport:
    """Check a mapped protocol against an ensemble.

    Sound: every claimed exclusion has probability at most tol on its state.
    Strong pass additionally needs every ensemble label claimed by some
    reachable outcome and every mapped outcome reachable, where reachable
    means firing by ``qcore.fires``, as in verify_strong.  Structural defects
    raise ValueError: mismatched layout, invalid component POVMs, a reachable
    outcome missing from the map, map keys that match no outcome, claims
    naming unknown labels, or no map at all.
    """
    if p.layout.dims != e.layout.dims:
        raise ValueError("protocol layout does not match the ensemble layout")
    mapped = _mapped_outcomes(p)
    if not mapped:
        raise ValueError("protocol carries no exclusion map")
    _validate_pieces(p, tol)

    flat = flatten_protocol(p)
    stale = mapped - {f.outcome for f in flat}
    if stale:
        raise ValueError(f"exclusion map names outcomes that never occur: {sorted(stale)}")

    table = outcome_table(flat.elements, e.states)
    column = {lab: j for j, lab in enumerate(e.labels)}
    rows: list[ProtocolOutcomeReport] = []
    failures: list[str] = []
    unreachable_mapped: list[tuple[int, ...]] = []
    excluded: set[str] = set()
    sound = True
    probabilities = (table.sum(axis=1) / e.n_states).tolist()
    for f, probs, probability, reachable in zip(flat, table.tolist(), probabilities,
                                                fires(table, tol).tolist()):
        worst = 0.0
        if f.claims is None:
            if reachable:
                raise ValueError(f"reachable outcome {f.outcome} is not in the exclusion map")
        else:
            bad = [lab for lab in f.claims if lab not in column]
            if bad:
                raise ValueError(f"outcome {f.outcome} claims unknown labels {bad}")
            if not reachable:
                unreachable_mapped.append(f.outcome)
            for lab in f.claims:
                p_lab = probs[column[lab]]
                worst = max(worst, p_lab)
                if p_lab > tol:
                    sound = False
                    failures.append(f"outcome {f.outcome} claims {lab!r} but sees "
                                    f"probability {p_lab:.3e}")
            if reachable:
                excluded.update(f.claims)
        rows.append(ProtocolOutcomeReport(f.outcome, probability, reachable, f.claims, worst))

    # the components passed the measurement check; only the flattened sum is reported
    comp = float(np.max(np.abs(flat.elements.sum(axis=0) - np.eye(e.layout.dim))))
    missing = tuple(lab for lab in e.labels if lab not in excluded)
    if missing:
        failures.append(f"never excluded by a reachable outcome: {list(missing)}")
    if unreachable_mapped:
        failures.append(f"mapped but unreachable outcomes: {unreachable_mapped}")
    passed = sound and not missing and not unreachable_mapped
    return LocalProtocolReport(passed, sound, rows, tuple(sorted(excluded)), missing,
                               unreachable_mapped, comp, failures, tol)


@dataclass
class IdentificationOutcome:
    outcome: tuple[int, ...]
    probability: float
    support: tuple[str, ...]
    identifies: str | None


@dataclass
class IdentificationReport:
    passed: bool
    rows: list[IdentificationOutcome]
    identified: tuple[str, ...]
    missing: tuple[str, ...]
    tol: float


def verify_conclusive_identification(e: Ensemble, party_povms,
                                     tol: float = DEFAULT_TOL) -> IdentificationReport:
    """Check one simultaneous round of local POVMs for conclusive identification.

    A joint outcome that fires by ``qcore.fires`` identifies a state when that
    state is the only one with probability above tol there; the check passes
    when every state is identified by at least one outcome.
    """
    if len(party_povms) != e.layout.n_parties:
        raise ValueError("need one POVM per party")
    proto = LoccProtocol("one_round_product", e.layout,
                         party_povms=[list(povm) for povm in party_povms])
    _validate_pieces(proto, tol)
    flat = flatten_protocol(proto)
    table = outcome_table(flat.elements, e.states)
    rows: list[IdentificationOutcome] = []
    hit: set[str] = set()
    for f, probs, fired in zip(flat, table, fires(table, tol)):
        if not fired:
            continue
        support = tuple(lab for lab, p in zip(e.labels, probs) if p > tol)
        ident = support[0] if len(support) == 1 else None
        if ident is not None:
            hit.add(ident)
        rows.append(IdentificationOutcome(f.outcome, float(probs.sum()) / e.n_states,
                                          support, ident))
    missing = tuple(lab for lab in e.labels if lab not in hit)
    return IdentificationReport(not missing, rows, tuple(sorted(hit)), missing, tol)


# ---------------------------------------------------------------------------
# zero-diagonal rotation


def _rotation_phase(b: complex, c: complex) -> float:
    """Root in [0, pi) of Im(b e^{-i phi} + c e^{i phi}), which is the
    sinusoid A cos(phi) + B sin(phi); phi = 0 when A already vanishes."""
    big_a, big_b = b.imag + c.imag, c.real - b.real
    if abs(big_a) < 1e-18:
        return 0.0
    return math.atan2(big_a, -big_b) % math.pi


def _rotate_pair(au: np.ndarray, i: int, j: int, target: complex) -> None:
    """Rotate the pair (i, j) of a = au[:, :n], and the rows of u = au[:, n:]
    with it, so that a[i, i] lands on the point of the segment
    [a[i, i], a[j, j]] nearest to target.

    With w = a_ii - a_jj, the phase phi makes the off-diagonal combination r
    real, and the angle t then moves a_ii to the mean plus
    (w / |w|) (|w| cos 2t + r sin 2t) / 2; the root solves that for the
    target's offset s along the segment, and at s = 0 it is the rotation to
    the mean.
    """
    a = au[:, :len(au)]
    w = a[i, i] - a[j, j]
    phase = w / abs(w)
    b, c = a[i, j] / phase, a[j, i] / phase
    turn = np.exp(1j * _rotation_phase(b, c))
    r = float((b * turn.conjugate() + c * turn).real)
    two_s = 2.0 * ((target - (a[i, i] + a[j, j]) / 2.0) / phase).real
    rho = math.hypot(abs(w), r)
    t = 0.5 * (math.atan2(r, abs(w)) - math.acos(max(-1.0, min(1.0, two_s / rho))))
    cs, sn = math.cos(t), turn * math.sin(t)
    snc = sn.conjugate()
    au[i], au[j] = cs * au[i] + sn * au[j], cs * au[j] - snc * au[i]
    a[:, i], a[:, j] = cs * a[:, i] + snc * a[:, j], cs * a[:, j] - sn * a[:, i]


def _hull_exit(diag: np.ndarray, i: int, others: list[int],
               tiny: float) -> tuple[int, int | None, complex]:
    """Where the ray from diag[i] through 0 leaves the hull of diag[others]:
    the edge (j, k) it crosses there and the crossing point; k is None when
    the crossing is the entry j itself.  Entries within tiny of the ray count
    as on it."""
    z = diag[others] * (-abs(diag[i]) / diag[i])   # the ray is the positive real axis
    x, y = z.real, np.where(np.abs(z.imag) <= tiny, 0.0, z.imag)
    nearest = others[int(np.argmin(np.abs(z.imag)))]
    best_x, best = -math.inf, (nearest, None, diag[nearest])
    for s, js in enumerate(others):
        if y[s] == 0.0 and x[s] > best_x:
            best_x, best = x[s], (js, None, diag[js])
        if y[s] >= 0.0:
            continue
        for t, kt in enumerate(others):
            if y[t] > 0.0:
                mu = y[t] / (y[t] - y[s])
                cross = mu * x[s] + (1.0 - mu) * x[t]
                if cross > best_x:
                    best_x, best = cross, (js, kt, mu * diag[js] + (1.0 - mu) * diag[kt])
    return best


def zero_diagonal_unitary(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary U making diag(U A U^dag) vanish for a traceless square A.

    A finite construction of at most 2n - 3 two-by-two rotations (Fillmore,
    Amer. Math. Monthly 76, 167, 1969).  The diagonal of a traceless matrix
    has 0 in its convex hull.  At each stage the largest entry d_i is taken;
    the ray from d_i through 0 leaves the hull of the other entries on an
    edge [d_j, d_k].  One rotation of (j, k) puts that crossing point at j, a
    second of (i, j) puts 0 at i, and i is dropped from the traceless rest;
    a two-by-two rest is rotated to its mean.  Each rotation takes its phase
    and angle in closed form.
    """
    a = np.array(mat, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if abs(np.trace(a)) > 1e-8 * scale:
        raise ValueError("matrix must be traceless")
    au = np.concatenate((a, np.eye(n)), axis=1)
    a, u = au[:, :n], au[:, n:]
    target = max(tol * 1e-2, 5e-14 * scale)
    tiny = 1e-15 * scale
    rest = list(range(n))
    while len(rest) >= 2:
        diag = np.diag(a)
        i = rest[int(np.argmax(np.abs(diag[rest])))]
        if abs(diag[i]) <= target:
            break
        others = [k for k in rest if k != i]
        if len(others) == 1:
            j = others[0]
            if abs(diag[i] - diag[j]) > tiny:
                _rotate_pair(au, i, j, (diag[i] + diag[j]) / 2.0)
            break
        j, k, cross = _hull_exit(diag, i, others, tiny)
        if k is not None and abs(diag[j] - diag[k]) > tiny:
            _rotate_pair(au, j, k, cross)
        if abs(a[i, i] - a[j, j]) > tiny:
            _rotate_pair(au, i, j, 0.0)
        rest.remove(i)
    final = float(np.max(np.abs(np.diag(a))))
    if final > tol:
        raise RuntimeError(f"diagonal reduction stalled at {final:.3e}")
    return u.copy()


# ---------------------------------------------------------------------------
# conditional two-round decomposition of an orthogonal pair


@dataclass
class WalgateDecomposition:
    """First-party basis splitting an orthogonal pair into per-branch residues.

    Measuring the basis kets leaves, in branch i, the unnormalized responder
    residues eta[i] (first state) and eta_perp[i] (second state), which are
    mutually orthogonal within `residual` in every branch.
    """

    basis: list[np.ndarray]
    eta: list[np.ndarray]
    eta_perp: list[np.ndarray]
    unitary: np.ndarray
    residual: float


def walgate_basis(psi, phi, layout: PartyLayout,
                  tol: float = DEFAULT_TOL) -> WalgateDecomposition:
    """Conditional decomposition of two orthogonal multipartite states.

    The first party measures a basis chosen so that, whatever the outcome, the
    remaining parties hold orthogonal residues of the two states; one further
    measurement then excludes either state exactly.
    """
    if layout.n_parties < 2:
        raise ValueError("need at least two parties")
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    if psi.size != layout.dim or phi.size != layout.dim:
        raise ValueError("states do not match the layout")
    if abs(np.vdot(psi, phi)) > 1e-10:
        raise ValueError("states must be orthogonal")
    d0 = layout.dims[0]
    rest = layout.dim // d0
    mpsi = psi.reshape(d0, rest)
    mphi = phi.reshape(d0, rest)
    k = mpsi.conj() @ mphi.T  # traceless by orthogonality
    u = zero_diagonal_unitary(k, tol=min(tol, 1e-11))
    eta = u.conj() @ mpsi
    eta_perp = u.conj() @ mphi
    residual = float(np.max(np.abs(np.sum(eta.conj() * eta_perp, axis=1))))
    return WalgateDecomposition(list(u.copy()), list(eta), list(eta_perp), u, residual)


# ---------------------------------------------------------------------------
# pairwise protocol generation

_BRANCH_CUTOFF = 1e-7


def _pair_protocol(e: Ensemble, p: int, q: int, tol: float) -> LoccProtocol:
    """Walgate's two rounds for the pair (p, q), with every branch built at once."""
    dec = walgate_basis(e.states[p], e.states[q], e.layout, tol=tol)
    rest = e.layout.dim // e.layout.dims[0]
    res = np.asarray([dec.eta, dec.eta_perp])
    norms = np.linalg.norm(res, axis=2)
    has = norms > _BRANCH_CUTOFF
    unit = res / np.where(has, norms, 1.0)[:, :, None]
    w, v = unit
    v -= w * np.where(has[0], np.sum(w.conj() * v, axis=1), 0.0)[:, None]
    v /= np.where(has.all(axis=0), np.linalg.norm(v, axis=1), 1.0)[:, None]
    proj = unit[..., :, None] * unit.conj()[..., None, :]
    leftover = np.eye(rest) - (proj * has[:, :, None, None]).sum(axis=0)
    keep = np.max(np.abs(leftover), axis=(1, 2)) > 1e-9
    responses, exclusion = [], {}
    for i, (a, b, c) in enumerate(zip(*has.tolist(), keep.tolist())):
        branch = ([(proj[0, i], (e.labels[q],))] * a + [(proj[1, i], (e.labels[p],))] * b
                  + [(leftover[i], ())] * c)
        responses.append([el for el, _ in branch])
        exclusion.update(((i, j), cl) for j, (_, cl) in enumerate(branch))
    return LoccProtocol("two_round_sequential", e.layout,
                        first_povm=list(dec.unitary[:, :, None] * dec.unitary.conj()[:, None, :]),
                        responses=responses, exclusion_map=exclusion,
                        name=f"pair({e.labels[p]},{e.labels[q]})")


def _prune_unreachable(p: LoccProtocol, e: Ensemble, tol: float) -> None:
    """Drop exclusion-map entries whose outcomes never fire under e."""
    flat = flatten_protocol(p)
    table = outcome_table(flat.elements, e.states)
    for f, fired in zip(flat, fires(table, tol)):
        if f.claims is not None and not fired:
            if p.kind == "randomized_mixture":
                p.mixture[f.outcome[0]][1].exclusion_map.pop(f.outcome[1:], None)
            else:
                p.exclusion_map.pop(f.outcome, None)


def build_pairwise_lad_protocol(e: Ensemble, tol: float = DEFAULT_TOL) -> LoccProtocol:
    """Local exclusion protocol for pairwise orthogonal states of two parties
    (ValueError otherwise: three or more need more rounds than two).

    The states are grouped into pairs (wrapping the first state in again when
    their number is odd); each pair gets a two-round protocol that excludes
    one of its states in every run, and shared randomness mixes the pair
    protocols uniformly.  The result passes verify_local_protocol strongly.
    """
    k = e.n_states
    if e.layout.n_parties != 2:
        raise ValueError("the pairwise protocol needs exactly two parties")
    if not e.is_orthogonal:
        raise ValueError("states are not pairwise orthogonal")
    pairs = [(2 * i, 2 * i + 1) for i in range(k // 2)]
    if k % 2:
        pairs.append((0, k - 1))
    comps = [_pair_protocol(e, p, q, tol) for p, q in pairs]
    if len(comps) == 1:
        proto = comps[0]
    else:
        w = 1.0 / len(comps)
        proto = LoccProtocol("randomized_mixture", e.layout,
                             mixture=[(w, c) for c in comps],
                             name=f"pairwise mixture over {e.name}")
    _prune_unreachable(proto, e, tol)
    return proto


# ---------------------------------------------------------------------------
# worked protocols for the catalog ensembles


def bell_exclusion_protocol() -> LoccProtocol:
    """Both parties measure the computational basis; each joint outcome rules
    out one maximally entangled state."""
    basis = [density([1, 0]), density([0, 1])]
    table = {(0, 0): ("Psi+",), (0, 1): ("Phi+",),
             (1, 0): ("Phi-",), (1, 1): ("Psi-",)}
    return LoccProtocol("one_round_product", PartyLayout((2, 2)),
                        party_povms=[basis, [m.copy() for m in basis]],
                        exclusion_map=table, name="computational pair readout")


def bennett_exclusion_protocol() -> LoccProtocol:
    """Per-party three-outcome bases whose nine joint outcomes each rule out
    one of the nine orthogonal product states on two qutrits."""
    s = 1.0 / math.sqrt(2.0)
    alice = [density([s, s, 0]), density([s, -s, 0]), density([0, 0, 1])]
    bob = [density([1, 0, 0]), density([0, s, s]), density([0, s, -s])]
    table = {
        (0, 0): ("b8",), (0, 1): ("b4",), (0, 2): ("b5",),
        (1, 0): ("b9",), (1, 1): ("b7",), (1, 2): ("b6",),
        (2, 0): ("b1",), (2, 1): ("b2",), (2, 2): ("b3",),
    }
    return LoccProtocol("one_round_product", PartyLayout((3, 3)),
                        party_povms=[alice, bob], exclusion_map=table,
                        name="two-qutrit product readout")


def double_sic_exclusion_protocol() -> LoccProtocol:
    """Alice alone measures the scaled antipodes of the four symmetric kets;
    her outcome rules out the matching antiparallel pair."""
    from .ensembles import qubit_perp, sic_kets
    alice = [0.5 * density(qubit_perp(v)) for v in sic_kets()]
    table = {(i, 0): (f"g{i + 1}",) for i in range(4)}
    return LoccProtocol("one_round_product", PartyLayout((2, 2)),
                        party_povms=[alice, [np.eye(2, dtype=np.complex128)]],
                        exclusion_map=table, name="single-shot antipode readout")


def nl1_identification_povms() -> list[list[np.ndarray]]:
    """Per-party four-outcome POVM that conclusively identifies each member of
    the three-state nonlocal product ensemble."""
    from .ensembles import IMINUS, KET1, MINUS
    third = [density(KET1) / 3.0, density(MINUS) / 3.0, density(IMINUS) / 3.0]
    rest = np.eye(2) - sum(third)
    povm = third + [rest]
    return [povm, [m.copy() for m in povm]]


def nl2_identification_povms(theta: float) -> list[list[np.ndarray]]:
    """Three-party POVMs conclusively identifying the tilted triple: two
    computational readouts and one tilted basis readout."""
    from .ensembles import angle_ket, qubit_perp
    comp = [density([1, 0]), density([0, 1])]
    tilted = [density(angle_ket(theta)), density(qubit_perp(angle_ket(theta)))]
    return [comp, [m.copy() for m in comp], tilted]


# ---------------------------------------------------------------------------
# protocol files


def _parse_mat(raw, dim: int, what: str) -> np.ndarray:
    try:
        m = np.array([[complex(float(re), float(im)) for re, im in row] for row in raw],
                     dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: matrix entries must be [re, im] pairs") from exc
    if m.shape != (dim, dim):
        raise DataError(f"{what}: expected a {dim}x{dim} matrix, got {m.shape}")
    return m


def _parse_map(raw) -> dict[tuple[int, ...], tuple[str, ...]]:
    if not isinstance(raw, dict):
        raise DataError("exclusion_map must be an object")
    out = {}
    for key, labs in raw.items():
        try:
            tup = tuple(int(x) for x in str(key).split(","))
        except ValueError as exc:
            raise DataError(f"bad exclusion_map key {key!r}") from exc
        if not isinstance(labs, list):
            raise DataError(f"exclusion_map[{key!r}] must be a list of labels")
        out[tup] = tuple(str(x) for x in labs)
    return out


def _protocol_from_doc(doc, layout: PartyLayout) -> LoccProtocol:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DataError("protocol document needs a 'kind'")
    kind = doc["kind"]
    if kind not in KINDS:
        raise DataError(f"unknown protocol kind {kind!r}")
    emap = _parse_map(doc["exclusion_map"]) if "exclusion_map" in doc else None
    try:
        if kind == "one_round_product":
            parties = doc.get("parties")
            if not isinstance(parties, list) or len(parties) != layout.n_parties:
                raise DataError("need one 'parties' entry per party")
            povms = [[_parse_mat(m, d, f"party {i}") for m in entry["povm"]]
                     for i, (entry, d) in enumerate(zip(parties, layout.dims))]
            return LoccProtocol(kind, layout, party_povms=povms, exclusion_map=emap,
                                name=str(doc.get("name", "")))
        if kind == "two_round_sequential":
            parties = doc.get("parties")
            if not isinstance(parties, list) or len(parties) != 1:
                raise DataError("two-round protocols carry exactly one 'parties' entry")
            rest = layout.dim // layout.dims[0]
            first = [_parse_mat(m, layout.dims[0], "first party")
                     for m in parties[0]["povm"]]
            responses = [[_parse_mat(m, rest, f"response {i}") for m in povm]
                         for i, povm in enumerate(doc.get("responses", []))]
            return LoccProtocol(kind, layout, first_povm=first, responses=responses,
                                exclusion_map=emap, name=str(doc.get("name", "")))
        comps = []
        for entry in doc.get("mixture", []):
            comps.append((float(entry["weight"]),
                          _protocol_from_doc(entry["protocol"], layout)))
        return LoccProtocol(kind, layout, mixture=comps, name=str(doc.get("name", "")))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed protocol document: {exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def parse_protocol(text: str, layout: PartyLayout) -> LoccProtocol:
    """Parse the protocol file format (JSON) against a known layout."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"protocol file is not valid JSON: {exc}") from exc
    return _protocol_from_doc(doc, layout)


def _protocol_doc(p: LoccProtocol) -> dict:
    doc: dict = {"kind": p.kind}
    if p.name:
        doc["name"] = p.name
    if p.kind == "one_round_product":
        doc["parties"] = [{"povm": [mat_to_pairs(m) for m in povm]}
                          for povm in p.party_povms]
    elif p.kind == "two_round_sequential":
        doc["parties"] = [{"povm": [mat_to_pairs(m) for m in p.first_povm]}]
        doc["responses"] = [[mat_to_pairs(m) for m in povm] for povm in p.responses]
    else:
        doc["mixture"] = [{"weight": w, "protocol": _protocol_doc(c)}
                          for w, c in p.mixture]
    if p.exclusion_map is not None:
        doc["exclusion_map"] = {",".join(str(i) for i in k): list(v)
                                for k, v in sorted(p.exclusion_map.items())}
    return doc


def serialize_protocol(p: LoccProtocol) -> str:
    """Protocol file text (JSON) for a protocol object."""
    return json.dumps(_protocol_doc(p), indent=1)
