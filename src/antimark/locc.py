"""Local exclusion protocols: structure, generation, and verification.

A protocol is a shallow tree of local measurements flattened into global
product elements for checking: one simultaneous round of per-party POVMs, a
two-round sequence where the first party's outcome picks the responders'
measurement, or a shared-randomness mixture of such protocols.  An exclusion
map assigns each flattened outcome the state labels it claims to rule out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ensembles import Ensemble
from .qcore import (DEFAULT_TOL, DataError, PartyLayout, density, kron, mat_to_pairs,
                    outcome_table, povm_residuals)

KINDS = ("one_round_product", "two_round_sequential", "randomized_mixture")


def _mat(m, dim: int, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"{what}: expected shape {(dim, dim)}, got {m.shape}")
    return m


def _povm_sane(els: list[np.ndarray], tol: float, what: str) -> None:
    if not els:
        raise ValueError(f"{what}: no elements")
    herm, comp, mineig = povm_residuals(els)
    if np.any(herm > tol):
        raise ValueError(f"{what}: element {int(np.argmax(herm > tol))} is not Hermitian")
    if mineig < -tol:
        raise ValueError(f"{what}: an element is not positive (eigenvalue {mineig:.3e})")
    if comp > tol:
        raise ValueError(f"{what}: elements do not sum to the identity")


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
            if len(dims) < 2:
                raise ValueError("two-round protocol needs at least two parties")
            if self.first_povm is None or self.responses is None:
                raise ValueError("two-round protocol needs first_povm and responses")
            rest = int(np.prod(dims[1:]))
            self.first_povm = [_mat(m, dims[0], "first-party element")
                               for m in self.first_povm]
            if len(self.responses) != len(self.first_povm):
                raise ValueError("one response POVM per first-party outcome required")
            self.responses = [[_mat(m, rest, f"response {i} element") for m in povm]
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


def flatten_protocol(p: LoccProtocol) -> list[FlatOutcome]:
    """Global product elements of a protocol, with any mapped claims attached."""
    out: list[FlatOutcome] = []
    if p.kind == "one_round_product":
        for idx in product(*(range(len(povm)) for povm in p.party_povms)):
            el = p.party_povms[0][idx[0]]
            for q, i in enumerate(idx[1:], start=1):
                el = kron(el, p.party_povms[q][i])
            claims = None if p.exclusion_map is None else p.exclusion_map.get(idx)
            out.append(FlatOutcome(idx, el, claims))
    elif p.kind == "two_round_sequential":
        for i, first in enumerate(p.first_povm):
            for j, resp in enumerate(p.responses[i]):
                idx = (i, j)
                claims = None if p.exclusion_map is None else p.exclusion_map.get(idx)
                out.append(FlatOutcome(idx, kron(first, resp), claims))
    else:
        for ci, (w, comp) in enumerate(p.mixture):
            for sub in flatten_protocol(comp):
                out.append(FlatOutcome((ci,) + sub.outcome, w * sub.element, sub.claims))
    return out


def _mapped_outcomes(p: LoccProtocol) -> set[tuple[int, ...]]:
    if p.kind == "randomized_mixture":
        keys: set[tuple[int, ...]] = set()
        for ci, (_, comp) in enumerate(p.mixture):
            keys.update((ci,) + k for k in _mapped_outcomes(comp))
        return keys
    return set() if p.exclusion_map is None else set(p.exclusion_map)


def _validate_pieces(p: LoccProtocol, tol: float) -> None:
    if p.kind == "one_round_product":
        for q, povm in enumerate(p.party_povms):
            _povm_sane(povm, tol, f"party {q} POVM")
    elif p.kind == "two_round_sequential":
        _povm_sane(p.first_povm, tol, "first-party POVM")
        for i, povm in enumerate(p.responses):
            _povm_sane(povm, tol, f"response POVM {i}")
    else:
        for _, comp in p.mixture:
            _validate_pieces(comp, tol)


# ---------------------------------------------------------------------------
# protocol verification


@dataclass
class ProtocolOutcomeReport:
    outcome: tuple[int, ...]
    probability: float
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
    reachable outcome and every mapped outcome reachable under the uniform
    mixture.  Structural defects raise ValueError: mismatched layout, invalid
    component POVMs, a reachable outcome missing from the map, map keys that
    match no outcome, claims naming unknown labels, or no map at all.
    """
    if p.layout.dims != e.layout.dims:
        raise ValueError("protocol layout does not match the ensemble layout")
    if not _mapped_outcomes(p):
        raise ValueError("protocol carries no exclusion map")
    _validate_pieces(p, tol)

    flat = flatten_protocol(p)
    seen = {f.outcome for f in flat}
    stale = _mapped_outcomes(p) - seen
    if stale:
        raise ValueError(f"exclusion map names outcomes that never occur: {sorted(stale)}")

    els = np.asarray([f.element for f in flat])
    table = outcome_table(els, e.states)
    column = {lab: j for j, lab in enumerate(e.labels)}
    rows: list[ProtocolOutcomeReport] = []
    failures: list[str] = []
    unreachable_mapped: list[tuple[int, ...]] = []
    excluded: set[str] = set()
    sound = True
    for f, probs in zip(flat, table):
        prob = float(probs.sum()) / e.n_states
        reachable = prob > tol
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
                p_lab = float(probs[column[lab]])
                worst = max(worst, p_lab)
                if p_lab > tol:
                    sound = False
                    failures.append(f"outcome {f.outcome} claims {lab!r} but sees "
                                    f"probability {p_lab:.3e}")
            if reachable:
                excluded.update(f.claims)
        rows.append(ProtocolOutcomeReport(f.outcome, prob, f.claims, worst))

    # the components already passed povm_residuals; only the flattened sum is reported
    comp = float(np.max(np.abs(els.sum(axis=0) - np.eye(e.layout.dim))))
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

    An occurring joint outcome identifies a state when that state is the only
    one with nonzero probability there; the check passes when every state is
    identified by at least one outcome.
    """
    if len(party_povms) != e.layout.n_parties:
        raise ValueError("need one POVM per party")
    proto = LoccProtocol("one_round_product", e.layout,
                         party_povms=[list(povm) for povm in party_povms])
    _validate_pieces(proto, tol)
    flat = flatten_protocol(proto)
    table = outcome_table([f.element for f in flat], e.states)
    rows: list[IdentificationOutcome] = []
    hit: set[str] = set()
    for f, probs in zip(flat, table):
        prob = float(probs.sum()) / e.n_states
        if prob <= tol:
            continue
        support = tuple(lab for lab, p in zip(e.labels, probs) if p > tol)
        ident = support[0] if len(support) == 1 else None
        if ident is not None:
            hit.add(ident)
        rows.append(IdentificationOutcome(f.outcome, prob, support, ident))
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


def zero_diagonal_unitary(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary U making diag(U A U^dag) vanish for a traceless square A.

    Repeatedly rotates the pair holding the largest diagonal entry so both
    entries become their mean; with a traceless matrix the diagonal contracts
    geometrically to zero.  Each two-by-two rotation, and the phase that
    aligns its off-diagonal combination with the diagonal gap, come from
    closed forms.
    """
    a = np.array(mat, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if abs(np.trace(a)) > 1e-8 * scale:
        raise ValueError("matrix must be traceless")
    u = np.eye(n, dtype=np.complex128)
    target = max(tol * 1e-2, 5e-14 * scale)
    for _ in range(120 * n * n):
        diag = np.diag(a)
        i = int(np.argmax(np.abs(diag)))
        if abs(diag[i]) <= target:
            break
        j = int(np.argmax(np.abs(diag - diag[i]) + np.where(np.arange(n) == i, -np.inf, 0.0)))
        w = diag[i] - diag[j]
        if abs(w) < 1e-15 * scale:
            break
        phase = w / abs(w)
        b, c = a[i, j] / phase, a[j, i] / phase
        phi = _rotation_phase(b, c)
        r = float((b * np.exp(-1j * phi) + c * np.exp(1j * phi)).real)
        t = 0.5 * math.atan2(-abs(w), r)
        v = np.array([[math.cos(t), np.exp(1j * phi) * math.sin(t)],
                      [-np.exp(-1j * phi) * math.sin(t), math.cos(t)]],
                     dtype=np.complex128)
        idx = [i, j]
        a[idx, :] = v @ a[idx, :]
        a[:, idx] = a[:, idx] @ v.conj().T
        u[idx, :] = v @ u[idx, :]
    final = float(np.max(np.abs(np.diag(a))))
    if final > tol:
        raise RuntimeError(f"diagonal reduction stalled at {final:.3e}")
    return u


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
    residual = float(max(abs(np.vdot(eta[i], eta_perp[i])) for i in range(d0)))
    return WalgateDecomposition([u[i, :].copy() for i in range(d0)],
                                [eta[i, :].copy() for i in range(d0)],
                                [eta_perp[i, :].copy() for i in range(d0)],
                                u, residual)


# ---------------------------------------------------------------------------
# pairwise protocol generation

_BRANCH_CUTOFF = 1e-7


def _pair_protocol(e: Ensemble, p: int, q: int, tol: float) -> LoccProtocol:
    dec = walgate_basis(e.states[p], e.states[q], e.layout, tol=tol)
    rest = e.layout.dim // e.layout.dims[0]
    first = [np.outer(u, u.conj()) for u in dec.basis]
    responses: list[list[np.ndarray]] = []
    exclusion: dict[tuple[int, ...], tuple[str, ...]] = {}
    for i, (eta, etp) in enumerate(zip(dec.eta, dec.eta_perp)):
        els: list[np.ndarray] = []
        claims: list[tuple[str, ...]] = []
        w1 = None
        if np.linalg.norm(eta) > _BRANCH_CUTOFF:
            w1 = eta / np.linalg.norm(eta)
            els.append(np.outer(w1, w1.conj()))
            claims.append((e.labels[q],))
        if np.linalg.norm(etp) > _BRANCH_CUTOFF:
            v = etp / np.linalg.norm(etp)
            if w1 is not None:
                v = v - w1 * np.vdot(w1, v)
                v = v / np.linalg.norm(v)
            els.append(np.outer(v, v.conj()))
            claims.append((e.labels[p],))
        leftover = np.eye(rest) - sum(els) if els else np.eye(rest)
        if float(np.max(np.abs(leftover))) > 1e-9:
            els.append(leftover)
            claims.append(())
        responses.append(els)
        for j, cl in enumerate(claims):
            exclusion[(i, j)] = cl
    return LoccProtocol("two_round_sequential", e.layout, first_povm=first,
                        responses=responses, exclusion_map=exclusion,
                        name=f"pair({e.labels[p]},{e.labels[q]})")


def _prune_unreachable(p: LoccProtocol, e: Ensemble, tol: float) -> None:
    """Drop exclusion-map entries whose outcomes never occur under e."""
    flat = flatten_protocol(p)
    table = outcome_table([f.element for f in flat], e.states)
    for f, probs in zip(flat, table):
        if f.claims is not None and probs.sum() / e.n_states <= tol:
            if p.kind == "randomized_mixture":
                p.mixture[f.outcome[0]][1].exclusion_map.pop(f.outcome[1:], None)
            else:
                p.exclusion_map.pop(f.outcome, None)


def build_pairwise_lad_protocol(e: Ensemble, tol: float = DEFAULT_TOL) -> LoccProtocol:
    """Local exclusion protocol for pairwise orthogonal states.

    The states are grouped into pairs (wrapping the first state in again when
    their number is odd); each pair gets a two-round protocol that excludes
    one of its states in every run, and shared randomness mixes the pair
    protocols uniformly.  The result passes verify_local_protocol strongly.
    """
    k = e.n_states
    if e.layout.n_parties < 2:
        raise ValueError("local protocols need at least two parties")
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
