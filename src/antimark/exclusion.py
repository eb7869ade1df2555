"""Strong exclusion measurements: certificates, exact criteria, search, decision.

The decision routine prefers exact criteria (the three-state overlap test and
the single-qubit weight program), then tries to cover the ensemble with
certified three-state measurements, then runs a direct feasibility search.  A
NO only ever comes from an exact criterion; a failed search leaves UNKNOWN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .ensembles import Ensemble, restrict
from .qcore import (DEFAULT_TOL, PartyLayout, density, mat_to_pairs, outcome_table,
                    povm_residuals, same_up_to_phase)
from .simplex import simplex_maximize

BOUNDARY_TOL = 1e-9


def _ket(s) -> np.ndarray:
    return np.asarray(s, dtype=np.complex128).reshape(-1)


# ---------------------------------------------------------------------------
# measurements


@dataclass
class Povm:
    """A labeled measurement: positive elements summing to the identity.

    ``labels[i]`` names the state element ``i`` is dedicated to excluding, or
    is None for bystander outcomes.
    """

    layout: PartyLayout
    elements: list[np.ndarray]
    labels: list[str | None] | None = None
    name: str = ""

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        d = self.layout.dim
        mats = []
        for i, m in enumerate(self.elements):
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (d, d):
                raise ValueError(f"element {i}: expected shape {(d, d)}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"element {i} has non-finite entries")
            mats.append(m)
        self.elements = mats
        if self.labels is None:
            self.labels = [None] * len(mats)
        else:
            self.labels = list(self.labels)
        if len(self.labels) != len(mats):
            raise ValueError("labels and elements must have equal length")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dims": list(self.layout.dims),
            "labels": list(self.labels),
            "elements": [mat_to_pairs(m) for m in self.elements],
        }


# ---------------------------------------------------------------------------
# strong-exclusion certificate checking


@dataclass
class OutcomeReport:
    index: int
    label: str | None
    firing: float
    exclusion_residual: float | None
    excluded: tuple[str, ...]
    zero: bool
    redundant: bool


@dataclass
class StrongReport:
    passed: bool
    povm_ok: bool
    condition1_ok: bool
    condition2_ok: bool
    completeness_residual: float
    min_eigenvalue: float
    outcomes: list[OutcomeReport]
    failures: list[str]
    tol: float


def verify_strong(e: Ensemble, m: Povm, tol: float = DEFAULT_TOL) -> StrongReport:
    """Check that a labeled POVM strongly excludes every state of the ensemble.

    Requirements: valid POVM (PSD within tol, sums to identity within tol),
    every labeled element annihilates its state (condition 1), and for every
    state some element dedicated to it fires under the uniform mixture
    (condition 2).  Unlabeled elements may ride along; numerically zero ones
    are flagged redundant, nonzero ones must fire.

    Structural defects raise ValueError: mismatched layouts, labels naming no
    state, states with no dedicated element, non-Hermitian elements.
    """
    if m.layout.dims != e.layout.dims:
        raise ValueError("POVM layout does not match the ensemble layout")
    known = set(e.labels)
    for lab in m.labels:
        if lab is not None and lab not in known:
            raise ValueError(f"POVM label {lab!r} names no ensemble state")
    carried = {lab for lab in m.labels if lab is not None}
    missing = [lab for lab in e.labels if lab not in carried]
    if missing:
        raise ValueError(f"no element is dedicated to excluding: {missing}")
    els = np.asarray(m.elements)
    herm, comp, mineig = povm_residuals(els)
    if np.any(herm > tol):
        raise ValueError(f"element {int(np.argmax(herm > tol))} is not Hermitian")

    failures: list[str] = []
    povm_ok = comp <= tol and mineig >= -tol
    if comp > tol:
        failures.append(f"completeness residual {comp:.3e} exceeds tol")
    if mineig < -tol:
        failures.append(f"minimum eigenvalue {mineig:.3e} below -tol")

    table = outcome_table(els, e.states)
    firings = table.sum(axis=1)
    zeros = np.max(np.abs(els), axis=(1, 2)) <= tol
    column = {lab: j for j, lab in enumerate(e.labels)}
    rows: list[OutcomeReport] = []
    fired = {lab: False for lab in e.labels}
    cond1 = True
    for i, lab in enumerate(m.labels):
        zero, firing = bool(zeros[i]), float(firings[i])
        excluded = tuple(x for x, p in zip(e.labels, table[i]) if p <= tol)
        resid = float(table[i, column[lab]]) if lab is not None else None
        if lab is not None and resid > tol:
            cond1 = False
            failures.append(f"element {i} does not exclude {lab!r}: residual {resid:.3e}")
        if lab is not None and firing > tol:
            fired[lab] = True
        redundant = zero or (lab is None and len(excluded) == 0)
        rows.append(OutcomeReport(i, lab, firing, resid, excluded, zero, redundant))

    cond2 = True
    for lab in e.labels:
        if not fired[lab]:
            cond2 = False
            failures.append(f"no firing element is dedicated to {lab!r}")
    for row in rows:
        if row.label is None and not row.zero and row.firing <= tol:
            cond2 = False
            failures.append(f"unlabeled element {row.index} never fires")

    passed = povm_ok and cond1 and cond2
    return StrongReport(passed, povm_ok, cond1, cond2, comp, mineig, rows, failures, tol)


# ---------------------------------------------------------------------------
# three-state overlap criterion


@dataclass
class CavesReport:
    x12: float
    x13: float
    x23: float
    total: float
    quartic_lhs: float
    quartic_rhs: float
    sum_ok: bool
    quartic_ok: bool
    boundary_tol: float

    @property
    def passed(self) -> bool:
        return self.sum_ok and self.quartic_ok

    def to_dict(self) -> dict:
        return {
            "x12": self.x12, "x13": self.x13, "x23": self.x23,
            "total": self.total,
            "quartic_lhs": self.quartic_lhs, "quartic_rhs": self.quartic_rhs,
            "sum_ok": self.sum_ok, "quartic_ok": self.quartic_ok,
            "passed": self.passed, "boundary_tol": self.boundary_tol,
        }


def caves_criterion(states, boundary_tol: float = BOUNDARY_TOL) -> CavesReport:
    """Exact antidistinguishability test for exactly three pure states.

    With x_ij the squared overlaps, the triple passes iff x12+x13+x23 < 1 and
    (1 - sum)^2 >= 4 x12 x13 x23.  The boundary tolerance widens the quartic
    inequality (equality instances pass) and tightens the strict sum.
    """
    vecs = [_ket(s) for s in states]
    if len(vecs) != 3:
        raise ValueError(f"the three-state criterion needs exactly 3 states, got {len(vecs)}")
    if len({v.size for v in vecs}) != 1:
        raise ValueError("states must share a dimension")
    x12 = abs(np.vdot(vecs[0], vecs[1])) ** 2
    x13 = abs(np.vdot(vecs[0], vecs[2])) ** 2
    x23 = abs(np.vdot(vecs[1], vecs[2])) ** 2
    total = x12 + x13 + x23
    lhs = (1.0 - total) ** 2
    rhs = 4.0 * x12 * x13 * x23
    sum_ok = bool(total < 1.0 - boundary_tol)
    quartic_ok = bool(lhs >= rhs - boundary_tol)
    return CavesReport(float(x12), float(x13), float(x23), float(total),
                       float(lhs), float(rhs), sum_ok, quartic_ok, boundary_tol)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    decision: str  # "YES" | "NO" | "UNKNOWN"
    method: str
    margins: list[float] = field(default_factory=list)
    certificate: Povm | None = None
    alphas: list[float] | None = None
    triples: list[tuple[str, str, str]] | None = None
    caves: CavesReport | None = None
    parts: dict[str, "Verdict"] | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        def num(x):
            return float(x) if x is not None and math.isfinite(x) else None
        return {
            "decision": self.decision,
            "method": self.method,
            "margins": [num(x) for x in self.margins],
            "alphas": None if self.alphas is None else [num(a) for a in self.alphas],
            "triples": None if self.triples is None else [list(t) for t in self.triples],
            "caves": None if self.caves is None else self.caves.to_dict(),
            "parts": None if self.parts is None else
                     {k: v.to_dict() for k, v in self.parts.items()},
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# single-qubit weight program


def _vec4(h: np.ndarray) -> np.ndarray:
    # Hermitian 2x2 -> R^4 coordinates
    return np.array([h[0, 0].real, h[1, 1].real, h[0, 1].real, h[0, 1].imag])


def _min_weight_completion(projs: list[np.ndarray]):
    """Maximize the smallest weight t with sum_i (s_i + t) P_i = I, s_i >= 0.

    Returns (status, weights, t) where weights are s_i + t; status is
    "optimal" or "infeasible".
    """
    r = len(projs)
    A = np.zeros((4, r + 2))
    for i, p in enumerate(projs):
        A[:, i] = _vec4(p)
    total = _vec4(sum(projs))
    A[:, r] = total
    A[:, r + 1] = -total
    b = np.array([1.0, 1.0, 0.0, 0.0])
    c = np.zeros(r + 2)
    c[r] = 1.0
    c[r + 1] = -1.0
    res = simplex_maximize(c, A, b)
    if res.status == "infeasible":
        return "infeasible", None, None
    if res.status != "optimal":
        raise RuntimeError(f"weight program ended with status {res.status!r}")
    t = float(res.value)
    weights = [float(res.x[i]) + t for i in range(r)]
    return "optimal", weights, t


def qubit_antidist_lp(states, labels=None, tol: float = DEFAULT_TOL) -> Verdict:
    """Exact decision for any number of single-qubit pure states.

    Looks for weights alpha_i > 0 with sum_i alpha_i |psi_i><psi_i| = I by
    maximizing the smallest weight.  YES iff the optimum exceeds tol; the
    witness measurement sends each state to its antipodal projector scaled by
    its weight.  States equal up to phase are merged before solving and the
    merged weight is split evenly across them.
    """
    vecs = [_ket(s) for s in states]
    if len(vecs) < 2:
        raise ValueError("need at least two states")
    if any(v.size != 2 for v in vecs):
        raise ValueError("the weight program applies to single-qubit states only")
    if labels is None:
        labels = [f"s{i}" for i in range(len(vecs))]
    labels = list(labels)
    if len(labels) != len(vecs):
        raise ValueError("labels and states must have equal length")

    reps: list[int] = []
    owner: list[int] = []
    for i, v in enumerate(vecs):
        for r, j in enumerate(reps):
            if same_up_to_phase(v, vecs[j]):
                owner.append(r)
                break
        else:
            owner.append(len(reps))
            reps.append(i)
    mult = [owner.count(r) for r in range(len(reps))]
    projs = [density(vecs[j]) for j in reps]

    status, weights, t = _min_weight_completion(projs)
    if status == "infeasible":
        return Verdict("NO", "qubit_lp", margins=[],
                       detail="identity is outside the cone of the state projectors")
    alphas = [weights[owner[i]] / mult[owner[i]] for i in range(len(vecs))]
    if t <= tol:
        return Verdict("NO", "qubit_lp", margins=[t], alphas=alphas,
                       detail=f"best smallest weight {t:.3e} is not positive")

    elements = [a * (np.eye(2) - density(v)) for a, v in zip(alphas, vecs)]
    povm = Povm(PartyLayout((2,)), elements, labels, name="antipode witness")
    check = Ensemble("qubit set", PartyLayout((2,)), labels, vecs)
    rep = verify_strong(check, povm, tol=max(tol, 1e-10))
    if not rep.passed:
        raise RuntimeError(f"witness verification failed: {rep.failures[:2]}")
    return Verdict("YES", "qubit_lp", margins=[t], alphas=alphas, certificate=povm,
                   detail=f"smallest completion weight {t:.6g}")


# ---------------------------------------------------------------------------
# union composition


def compose_union(e: Ensemble, parts, tol: float = DEFAULT_TOL) -> Povm:
    """Merge per-subset exclusion measurements into one for the whole ensemble.

    ``parts`` is a list of (labels, Povm) pairs whose label sets must jointly
    cover every state.  Each sub-measurement is re-verified on its restricted
    ensemble, scaled by 1/len(parts), and concatenated with labels kept, so
    the result passes verify_strong on the full ensemble by construction.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one subset")
    covered: set[str] = set()
    for labs, _ in parts:
        covered.update(labs)
    missing = [lab for lab in e.labels if lab not in covered]
    if missing:
        raise ValueError(f"subsets do not cover: {missing}")
    k = len(parts)
    elements: list[np.ndarray] = []
    labels: list[str | None] = []
    for labs, sub in parts:
        sub_e = restrict(e, labs)
        rep = verify_strong(sub_e, sub, tol=tol)
        if not rep.passed:
            raise ValueError(f"subset {list(labs)} fails verification: {rep.failures[:1]}")
        for mat, lab in zip(sub.elements, sub.labels):
            elements.append(mat / k)
            labels.append(lab)
    return Povm(e.layout, elements, labels, name=f"union of {k} subsets")


# ---------------------------------------------------------------------------
# feasibility core


def _orthocomplement(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """Columns form an orthonormal basis of the joint orthocomplement."""
    m = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vectors])
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return u[:, rank:]


def _support_feasible(groups: list[list[np.ndarray]], dim: int, tol: float,
                      restarts: int = 3, iters: int = 4000, seed: int = 0
                      ) -> list[np.ndarray] | None:
    """POVM whose j-th element is supported on the orthocomplement of the
    j-th ket group, so the group exclusions hold exactly by construction.

    The package's one feasibility solver.  Works in the reduced coordinates
    of one Hermitian block per support and runs Douglas-Rachford between the
    per-block PSD cones and the affine completeness constraint.  Each step is
    batched: one stack per block size (``_psd_project``) and one precomputed
    affine projection.  A group spanning the whole space leaves a size-0
    block, whose element is zero.  Because exclusion is structural, tangency
    of the exclusion equalities with the PSD cone cannot slow the iteration;
    a stall here means the completeness target is out of reach.  Stops once
    the largest completeness deviation (real and imaginary parts) drops below
    tol, which callers set to a tenth of the tolerance they verify at.
    Returns the full-dimension elements, or None when no restart closes it.
    """
    bases = [_orthocomplement(g, dim) for g in groups]
    sizes = [b.shape[1] for b in bases]
    stacks = _block_stacks(sizes)
    cols = np.zeros((dim * dim, sum(s * s for s in sizes)), dtype=np.complex128)
    for pos, idx, basis in stacks:
        b = np.stack([bases[j] for j in pos])
        full = b[:, None] @ basis @ b.conj().transpose(0, 2, 1)[:, None]  # b g b^dag
        cols[:, idx.ravel()] = full.reshape(idx.size, dim * dim).T
    lin = np.concatenate([cols.real, cols.imag])
    target = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    pinv = np.linalg.pinv(lin, rcond=1e-12)
    proj, shift = pinv @ lin, pinv @ target
    cuts = np.cumsum([s * s for s in sizes])[:-1]

    for r in range(restarts):
        rng = np.random.default_rng(seed + 7919 * r)
        x = rng.normal(size=lin.shape[1])
        best = np.inf
        since_best = 0
        for _ in range(iters):
            y = _psd_project(x, stacks)
            res = float(np.max(np.abs(lin @ y - target)))
            if res < tol:
                return [(c @ p).reshape(dim, dim) for c, p in
                        zip(np.split(cols, cuts, axis=1), np.split(y, cuts))]
            if res < best * 0.99:
                best = res
                since_best = 0
            else:
                since_best += 1
                if since_best > 400:
                    break
            refl = 2.0 * y - x
            x = x + refl - (proj @ refl - shift) - y
    return None


def _block_stacks(sizes: list[int]) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The blocks grouped by size s > 0: their positions, their parameter
    indices (one row of s*s per block, blocks laid out in order) and the
    stacked Hermitian basis (s*s, s, s)."""
    offsets = np.cumsum([0] + [s * s for s in sizes])
    stacks = []
    for s in sorted(set(sizes) - {0}):
        pos = [j for j, t in enumerate(sizes) if t == s]
        stacks.append((pos, offsets[pos][:, None] + np.arange(s * s),
                       _hermitian_basis(s)))
    return stacks


def _psd_project(x: np.ndarray, stacks) -> np.ndarray:
    """Coordinates of the nearest point of the product of block PSD cones:
    one einsum, one batched eigh and one einsum per block size."""
    y = np.empty_like(x)
    for _, idx, basis in stacks:
        w, v = np.linalg.eigh(np.einsum("nk,kab->nab", x[idx], basis))
        m = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        y[idx] = np.einsum("kab,nab->nk", basis.conj(), m).real
    return y


def _hermitian_basis(d: int) -> np.ndarray:
    """Basis (d*d, d, d) of the d x d Hermitian matrices, orthonormal under
    Re Tr(A^dag B): the diagonal units, then for each pair a < b the real
    symmetric and the imaginary antisymmetric unit."""
    out = np.zeros((d * d, d, d), dtype=np.complex128)
    out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    rt, k = 1.0 / math.sqrt(2.0), d
    for a in range(d):
        for b in range(a + 1, d):
            out[k, a, b] = out[k, b, a] = rt
            out[k + 1, a, b], out[k + 1, b, a] = -1j * rt, 1j * rt
            k += 2
    return out


def search_exclusion_povm(e: Ensemble, restarts: int = 3, iters: int = 4000,
                          seed: int = 0, verify_tol: float = 1e-8) -> Povm | None:
    """Numerical search for a strong exclusion measurement on the ensemble.

    One call of the feasibility core: each element is parameterized inside
    the orthogonal complement of its target state, so the exclusions hold by
    construction and only completeness is searched for, with ``restarts``
    deterministic restarts of at most ``iters`` iterations each.  The
    candidate counts only if verify_strong passes at verify_tol; returns
    None when the core finds nothing or the check fails.
    """
    found = _support_feasible([[s] for s in e.states], e.layout.dim,
                              tol=verify_tol / 10, restarts=restarts,
                              iters=iters, seed=seed)
    if found is None:
        return None
    povm = Povm(e.layout, found, list(e.labels), name="search certificate")
    return povm if verify_strong(e, povm, tol=verify_tol).passed else None


# ---------------------------------------------------------------------------
# certified measurement for a passing triple


def povm_from_caves_triple(states, labels=None, layout: PartyLayout | None = None,
                           tol: float = DEFAULT_TOL, seed: int = 0) -> Povm:
    """Certified three-outcome exclusion measurement for a triple that passes
    the three-state criterion.

    The problem is solved inside the span of the states: a two-dimensional
    span reduces to the single-qubit weight program, a three-dimensional one
    to one call of the feasibility core with each element confined to its
    state's orthogonal complement.  The orthogonal complement of the span is
    split evenly across the elements; the result must pass verify_strong at
    max(tol, 1e-10), and a RuntimeError reports a core that finds nothing or
    a certificate that fails.
    """
    vecs = [_ket(s) for s in states]
    rep = caves_criterion(vecs)
    if not rep.passed:
        raise ValueError("the triple fails the three-state criterion")
    if labels is None:
        labels = [f"s{i}" for i in range(3)]
    labels = list(labels)
    d = vecs[0].size
    if layout is None:
        layout = PartyLayout((d,))
    check_tol = max(tol, 1e-10)

    stack = np.stack(vecs)
    _, svals, vh = np.linalg.svd(stack)
    r = int(np.sum(svals > 1e-9))
    basis = vh[:r].T  # d x r, orthonormal columns
    ys = [basis.conj().T @ v for v in vecs]
    ys = [y / np.linalg.norm(y) for y in ys]

    small: list[np.ndarray] | None = None
    if r == 2:
        status, weights, _ = _min_weight_completion([density(y) for y in ys])
        if status == "optimal" and min(weights) > -tol:
            small = [max(w, 0.0) * (np.eye(2) - density(y))
                     for w, y in zip(weights, ys)]
    else:
        small = _support_feasible([[y] for y in ys], r, tol=check_tol / 10,
                                  seed=seed)
    if small is None:
        raise RuntimeError("no exclusion measurement found inside the span")

    rest = (np.eye(d) - basis @ basis.conj().T) / 3.0
    elements = [basis @ f @ basis.conj().T + rest for f in small]
    povm = Povm(layout, elements, labels, name="triple exclusion")
    check = Ensemble("triple", layout, labels, vecs)
    report = verify_strong(check, povm, tol=check_tol)
    if not report.passed:
        raise RuntimeError(f"triple certificate failed verification: {report.failures[:2]}")
    return povm


# ---------------------------------------------------------------------------
# per-outcome exclusion bookkeeping


@dataclass
class OutcomeExclusions:
    index: int
    label: str | None
    firing: float
    excluded: tuple[str, ...]


@dataclass
class ExclusionCounts:
    outcomes: list[OutcomeExclusions]
    min_exclusions: int
    tol: float


def exclusion_counts(e: Ensemble, m: Povm, tol: float = DEFAULT_TOL) -> ExclusionCounts:
    """Which states each firing outcome excludes, and the worst-case count.

    An outcome fires when its total probability under the uniform mixture
    exceeds tol; the summary value is the smallest exclusion set over firing
    outcomes.  Raises on an invalid POVM or if nothing fires.
    """
    if m.layout.dims != e.layout.dims:
        raise ValueError("POVM layout does not match the ensemble layout")
    herm, comp, mineig = povm_residuals(m.elements)
    if np.max(herm) > 1e-8:
        raise ValueError("POVM elements must be Hermitian")
    if comp > 1e-8 or mineig < -1e-8:
        raise ValueError("not a POVM: completeness or positivity fails")
    table = outcome_table(m.elements, e.states)
    rows: list[OutcomeExclusions] = []
    for i, (per, lab) in enumerate(zip(table, m.labels)):
        firing = float(per.sum())
        if firing <= tol:
            continue
        excluded = tuple(x for x, p in zip(e.labels, per) if p <= tol)
        rows.append(OutcomeExclusions(i, lab, firing, excluded))
    if not rows:
        raise ValueError("no outcome fires under the uniform mixture")
    return ExclusionCounts(rows, min(len(r.excluded) for r in rows), tol)


# ---------------------------------------------------------------------------
# decision routine


def _cover_search(n: int, triples: list[tuple[int, int, int]]):
    """Yield covers of range(n) by the given triples, depth first.

    Each step extends with a triple containing the smallest uncovered index,
    largest fresh coverage first.  Overlaps are allowed.
    """

    def rec(covered: frozenset, chosen: tuple):
        if len(covered) == n:
            yield list(chosen)
            return
        u = min(i for i in range(n) if i not in covered)
        options = [t for t in triples if u in t and t not in chosen]
        options.sort(key=lambda t: -len(set(t) - covered))
        for t in options:
            yield from rec(covered | set(t), chosen + (t,))

    yield from rec(frozenset(), ())


def _as_ensemble(obj) -> Ensemble:
    if isinstance(obj, Ensemble):
        return obj
    vecs = [_ket(s) for s in obj]
    if len(vecs) < 2:
        raise ValueError("need at least two states")
    return Ensemble("states", PartyLayout((vecs[0].size,)),
                    [f"s{i}" for i in range(len(vecs))], vecs)


def decide_antidist(ensemble, tol: float = DEFAULT_TOL, seed: int = 0,
                    restarts: int = 3, iters: int = 4000,
                    max_covers: int = 32) -> Verdict:
    """Decide strong antidistinguishability of an ensemble of pure states.

    Route order: (1) exactly three states, the exact overlap criterion with a
    certified measurement on YES; (2) single-qubit states, the exact weight
    program; (3) four or more states, covers by passing triples composed into
    a union certificate; (4) direct feasibility search; (5) UNKNOWN.  Only
    the exact routes ever answer NO.
    """
    e = _as_ensemble(ensemble)
    k = e.n_states

    if k == 3:
        rep = caves_criterion(e.states, boundary_tol=tol)
        margins = [1.0 - rep.total, rep.quartic_lhs - rep.quartic_rhs]
        if not rep.passed:
            which = "overlap sum" if not rep.sum_ok else "quartic inequality"
            return Verdict("NO", "caves", margins=margins, caves=rep,
                           detail=f"{which} fails")
        cert = povm_from_caves_triple(e.states, e.labels, layout=e.layout,
                                      tol=tol, seed=seed)
        return Verdict("YES", "caves", margins=margins, caves=rep, certificate=cert)

    if e.layout.dim == 2:
        return qubit_antidist_lp(e.states, e.labels, tol=tol)

    if k >= 4:
        yes_triples = []
        reports = {}
        for t in combinations(range(k), 3):
            rep = caves_criterion([e.states[i] for i in t], boundary_tol=tol)
            if rep.passed:
                yes_triples.append(t)
                reports[t] = rep
        cache: dict[tuple[int, int, int], Povm | None] = {}

        def build(t):
            if t not in cache:
                try:
                    cache[t] = povm_from_caves_triple(
                        [e.states[i] for i in t], [e.labels[i] for i in t],
                        layout=e.layout, tol=tol, seed=seed)
                except (ValueError, RuntimeError):
                    cache[t] = None
            return cache[t]

        count = 0
        for cover in _cover_search(k, yes_triples):
            count += 1
            if count > max_covers:
                break
            parts = []
            for t in cover:
                sub = build(t)
                if sub is None:
                    break
                parts.append(([e.labels[i] for i in t], sub))
            else:
                union = compose_union(e, parts, tol=max(tol, 1e-9))
                margins = [min(1.0 - reports[t].total for t in cover),
                           min(reports[t].quartic_lhs - reports[t].quartic_rhs
                               for t in cover)]
                return Verdict("YES", "triple_cover", margins=margins,
                               certificate=union,
                               triples=[tuple(e.labels[i] for i in t) for t in cover],
                               detail=f"{len(cover)} certified triples")

    found = search_exclusion_povm(e, restarts=restarts, iters=iters, seed=seed,
                                  verify_tol=max(tol, 1e-8))
    if found is not None:
        return Verdict("YES", "search", margins=[], certificate=found,
                       detail="feasibility search certificate")

    return Verdict("UNKNOWN", "exhausted", margins=[],
                   detail="exact criteria do not apply and the search budget "
                          "found no certificate")
