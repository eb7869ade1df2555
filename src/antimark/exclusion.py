"""Strong exclusion measurements: certificates, exact criteria, search, decision.

The decision routine prefers exact criteria (the three-state overlap test,
and the single-qubit weight program for any ensemble whose span has rank at
most 2, pairs included, solved on qubits as given or on span coordinates
lifted back), then tries to cover the ensemble with certified three-state
measurements, each written down in closed form, then runs the feasibility
core, which ends at a measurement or at a dual witness.  A NO comes from an
exact criterion or carries a witness that verify_no_witness checks; a core
that runs out its budget either way leaves UNKNOWN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, combinations

import numpy as np

from .ensembles import Ensemble, check_norm, restrict
from .qcore import (DEFAULT_TOL, PartyLayout, density, fires, mat_to_pairs,
                    measurement_failures, outcome_table, real_if_exact,
                    same_up_to_phase)
from .simplex import simplex_maximize

BOUNDARY_TOL = 1e-9
SPAN_TOL = 1e-9      # singular values above it count toward the rank of a span
SEARCH_TOL = 1e-8    # the least tolerance a search certificate is verified at
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _ket(s) -> np.ndarray:
    return np.asarray(s, dtype=np.complex128).reshape(-1)


# ---------------------------------------------------------------------------
# measurements


@dataclass
class Povm:
    """A labeled measurement: positive elements summing to the identity.

    ``elements`` may be given as a list of d x d matrices or as one stack,
    and is kept as one (n, d, d) complex128 stack, shared with the caller
    when it already is one; its shape and finiteness are checked once, for
    the whole stack.  ``labels[i]`` names the state element ``i`` is
    dedicated to excluding, or is None for bystander outcomes.
    """

    layout: PartyLayout
    elements: np.ndarray
    labels: list[str | None] | None = None
    name: str = ""

    def __post_init__(self):
        els = self.elements
        if not isinstance(els, np.ndarray):
            els = list(els)
        if len(els) == 0:
            raise ValueError("a POVM needs at least one element")
        d = self.layout.dim
        try:
            stack = np.asarray(els, dtype=np.complex128)
        except ValueError:   # ragged: the elements differ in shape
            stack = None
        if stack is None or stack.shape[1:] != (d, d):
            for i, m in enumerate(els):   # the first bad element, in element order
                m = np.asarray(m, dtype=np.complex128)
                if m.shape != (d, d):
                    raise ValueError(f"element {i}: expected shape {(d, d)}, got {m.shape}")
                if not np.isfinite(m).all():
                    raise ValueError(f"element {i} has non-finite entries")
        bad = ~np.isfinite(stack).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"element {int(np.argmax(bad))} has non-finite entries")
        self.elements = stack
        if self.labels is None:
            self.labels = [None] * len(stack)
        else:
            self.labels = list(self.labels)
        if len(self.labels) != len(stack):
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
    fires: bool
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


def _outcome_rows(e: Ensemble, els: np.ndarray, labels, tol: float):
    """One OutcomeReport per element: its total probability over the states,
    whether it fires, the states it excludes, and the residual on the state
    its label names (None for a label naming no state)."""
    table = outcome_table(els, e.states)
    firings = table.sum(axis=1)
    fired = fires(table, tol)
    zeros = np.max(np.abs(els), axis=(1, 2)) <= tol
    column = {lab: j for j, lab in enumerate(e.labels)}
    for i, lab in enumerate(labels):
        zero = bool(zeros[i])
        excluded = tuple(x for x, p in zip(e.labels, table[i]) if p <= tol)
        resid = float(table[i, column[lab]]) if lab in column else None
        redundant = zero or (lab is None and len(excluded) == 0)
        yield OutcomeReport(i, lab, float(firings[i]), bool(fired[i]), resid, excluded,
                            zero, redundant)


def verify_strong(e: Ensemble, m: Povm, tol: float = DEFAULT_TOL) -> StrongReport:
    """Check that a labeled POVM strongly excludes every state of the ensemble.

    Requirements: valid POVM (PSD within tol, sums to identity within tol),
    every labeled element annihilates its state (condition 1), and for every
    state some element dedicated to it fires by ``qcore.fires`` (condition 2).
    Unlabeled elements may ride along; numerically zero ones are flagged
    redundant, nonzero ones must fire too.

    Structural defects raise ValueError: mismatched layouts, labels naming no
    state, states with no dedicated element, non-Hermitian elements.  Whether
    the elements are real is decided once (``qcore.real_if_exact``), and the
    measurement check and the outcome table both run on that one stack.
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
    els = real_if_exact(m.elements)
    failures, comp, mineig = measurement_failures(els, tol)
    povm_ok = not failures

    rows = list(_outcome_rows(e, els, m.labels, tol))
    fired = {row.label for row in rows if row.fires}
    cond1 = True
    for row in rows:
        if row.label is not None and row.exclusion_residual > tol:
            cond1 = False
            failures.append(f"element {row.index} does not exclude {row.label!r}: "
                            f"residual {row.exclusion_residual:.3e}")

    dead = ([f"no firing element is dedicated to {lab!r}" for lab in e.labels
             if lab not in fired]
            + [f"unlabeled element {row.index} never fires" for row in rows
               if row.label is None and not row.zero and not row.fires])
    cond2 = not dead
    failures += dead

    passed = povm_ok and cond1 and cond2
    return StrongReport(passed, povm_ok, cond1, cond2, comp, mineig, rows, failures, tol)


def _accepted(e: Ensemble, elements, name: str, tol: float) -> Povm:
    """A built certificate as the labelled measurement on e, once it passes
    verify_strong at max(tol, 1e-10); RuntimeError when it does not."""
    povm = Povm(e.layout, elements, list(e.labels), name=name)
    rep = verify_strong(e, povm, tol=max(tol, 1e-10))
    if not rep.passed:
        raise RuntimeError(f"{name} failed verification: {rep.failures[:2]}")
    return povm


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


def _caves_inequalities(x12, x13, x23, boundary_tol: float):
    """The criterion on squared overlaps, scalars or arrays alike: the overlap
    sum, both sides of the quartic inequality, and whether the strict sum and
    the widened quartic hold."""
    total = x12 + x13 + x23
    lhs = (1.0 - total) ** 2
    rhs = 4.0 * x12 * x13 * x23
    return total, lhs, rhs, total < 1.0 - boundary_tol, lhs >= rhs - boundary_tol


def caves_criterion(states, boundary_tol: float = BOUNDARY_TOL) -> CavesReport:
    """Exact antidistinguishability test for exactly three pure states.

    With x_ij the squared overlaps, the triple passes iff x12+x13+x23 < 1 and
    (1 - sum)^2 >= 4 x12 x13 x23.  The boundary tolerance widens the quartic
    inequality (equality instances pass) and tightens the strict sum.  The
    kets must be normalized within 1e-9 (ValueError otherwise), since the
    criterion reads overlaps as probabilities.
    """
    vecs = [_ket(s) for s in states]
    if len(vecs) != 3:
        raise ValueError(f"the three-state criterion needs exactly 3 states, got {len(vecs)}")
    if len({v.size for v in vecs}) != 1:
        raise ValueError("states must share a dimension")
    for i, v in enumerate(vecs):
        check_norm(i, math.sqrt(np.vdot(v, v).real))
    x12, x13, x23 = (float(abs(np.vdot(vecs[i], vecs[j]))) ** 2
                     for i, j in ((0, 1), (0, 2), (1, 2)))
    total, lhs, rhs, sum_ok, quartic_ok = _caves_inequalities(x12, x13, x23, boundary_tol)
    return CavesReport(x12, x13, x23, total, lhs, rhs, sum_ok, quartic_ok, boundary_tol)


def _triple_screen(states, boundary_tol: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every index triple of the states, in ``combinations`` order, as a
    (C(k,3), 3) array, which of them pass the criterion, and their margins
    (1 - overlap sum, quartic lhs - rhs) as a (C(k,3), 2) array: one Gram
    matrix of squared overlaps and ``_caves_inequalities`` on its entries,
    the formula ``caves_criterion`` applies to each triple's three overlaps."""
    s = np.stack([_ket(v) for v in states])
    x = np.abs(s.conj() @ s.T) ** 2
    k = len(s)
    idx = np.fromiter(chain.from_iterable(combinations(range(k), 3)),
                      dtype=np.intp).reshape(-1, 3)
    a, b, c = idx.T
    total, lhs, rhs, sum_ok, quartic_ok = _caves_inequalities(x[a, b], x[a, c], x[b, c],
                                                              boundary_tol)
    return idx, sum_ok & quartic_ok, np.column_stack([1.0 - total, lhs - rhs])


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
    witness: np.ndarray | None = None
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
            "witness": None if self.witness is None else mat_to_pairs(self.witness),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# span coordinates and the single-qubit weight program


def _span_rank(kets: np.ndarray) -> int:
    """The rank of the span of the kets (the rows of a stack): the singular
    values above SPAN_TOL, with no singular vectors computed."""
    return int(np.sum(np.linalg.svd(kets, compute_uv=False) > SPAN_TOL))


def _lift(b: np.ndarray, small: np.ndarray, k: int) -> np.ndarray:
    """Span-coordinate elements S (..., r, r) as B S B^dag + (I - B B^dag) / k,
    B = b^T for span basis rows b (..., r, d): the span's complement is split
    evenly across the k elements, which keep their exclusions.  Computed as
    B (S - I/k) B^dag on contiguous operands, with I/k then added to the
    diagonal of the result in place."""
    r, d = b.shape[-2:]
    out = np.ascontiguousarray(np.swapaxes(b, -1, -2)) @ (small - np.eye(r) / k) @ b.conj()
    out.reshape(*out.shape[:-2], d * d)[..., ::d + 1] += 1.0 / k
    return out


def _min_weight_completion(projs: np.ndarray):
    """Maximize the smallest weight t with sum_i (s_i + t) P_i = I, s_i >= 0,
    for a (r, 2, 2) stack of projectors read in R^4: the weights s_i + t and
    t, or (None, None) when the program is infeasible."""
    r = len(projs)
    cols = np.array([projs[:, 0, 0].real, projs[:, 1, 1].real,
                     projs[:, 0, 1].real, projs[:, 0, 1].imag])
    total = cols.sum(axis=1, keepdims=True)
    res = simplex_maximize(np.r_[np.zeros(r), 1.0, -1.0], np.hstack([cols, total, -total]),
                           np.array([1.0, 1.0, 0.0, 0.0]))
    if res.status == "infeasible":
        return None, None
    if res.status != "optimal":
        raise RuntimeError(f"weight program ended with status {res.status!r}")
    t = float(res.value)
    return [float(x) + t for x in res.x[:r]], t


def _qubit_elements(vecs: np.ndarray):
    """The weight program on kets in C^2 (rows; equal ones up to phase merged,
    their weight split evenly): its optimum t, the weights alpha_j and the
    antipode elements max(alpha_j, 0) (I - |psi_j><psi_j|), or three Nones
    when infeasible.  Both qubit_antidist_lp and _triple_elements build here."""
    reps, owner = [], []
    for v in vecs:
        owner.append(next((r for r, w in enumerate(reps) if same_up_to_phase(v, w)), len(reps)))
        if owner[-1] == len(reps):
            reps.append(v)
    weights, t = _min_weight_completion(np.array([density(v) for v in reps]))
    if t is None:
        return None, None, None
    alphas = [weights[r] / owner.count(r) for r in owner]
    return t, alphas, np.array([max(a, 0.0) * (np.eye(2) - density(v))
                                for a, v in zip(alphas, vecs)])


def _bloch_witness(vecs: np.ndarray) -> np.ndarray | None:
    """Y <= rho_j for kets in C^2 (rows) whose Bloch hull misses the origin:
    with p its least-norm point (None at the origin), u = p / |p| and
    c = min_j u.n_j > 0, Y = (1 - sqrt(1 - c^2)) I / 2 + c u.sigma / 2, since
    |c u - n_j|^2 <= 1 - c^2 bounds the eigenvalues of Y - rho_j by 0.  p is
    solved in closed form on every vertex, edge and triangle, all at once."""
    n = np.einsum("ja,sab,jb->js", vecs.conj(), PAULI, vecs).real
    points = [n]
    for m in range(2, min(len(n), 3) + 1):
        idx = np.array(list(combinations(range(len(n)), m)), dtype=np.intp)
        a = n[idx[:, 0], :, None]
        edges = np.swapaxes(n[idx[:, 1:]], -1, -2) - a   # (C(k, m), 3, m - 1)
        x = -np.linalg.pinv(edges) @ a
        inside = (x >= 0.0).all(axis=(1, 2)) & (x.sum(axis=(1, 2)) <= 1.0)
        points.append((a + edges @ x)[inside, :, 0])
    points = np.concatenate(points)
    p = points[np.argmin(np.einsum("ij,ij->i", points, points))]
    if not p.any():
        return None
    u = p / np.linalg.norm(p)
    c = float(np.min(n @ u))
    half_trace = c * c / (2.0 * (1.0 + math.sqrt(max(1.0 - c * c, 0.0))))  # no cancellation
    return half_trace * np.eye(2) + (c / 2.0) * np.einsum("s,sab->ab", u, PAULI)


def qubit_antidist_lp(states, labels=None, tol: float = DEFAULT_TOL) -> Verdict:
    """Exact decision for any number of single-qubit pure states.

    Looks for weights alpha_i > 0 with sum_i alpha_i |psi_i><psi_i| = I by
    maximizing the smallest weight.  YES iff the optimum exceeds tol; the
    certificate sends each state to its antipodal projector scaled by its
    weight.  A NO whose optimum is below -tol, or whose program is
    infeasible, has a Bloch hull that misses the origin and carries the
    witness of ``_bloch_witness``, its margin as margins[0]; any other NO is
    a boundary NO (the hull reaches the origin), with the optimum and no
    witness.  The states and labels must make a single-qubit Ensemble
    (ValueError otherwise).
    """
    vecs = np.stack([_ket(s) for s in states])
    labels = [f"s{i}" for i in range(len(vecs))] if labels is None else list(labels)
    e = Ensemble("qubit set", PartyLayout((2,)), labels, list(vecs))
    t, alphas, els = _qubit_elements(vecs)
    if t is not None and t > tol:
        povm = _accepted(e, els, "antipode witness", tol)
        return Verdict("YES", "qubit_lp", margins=[t], alphas=alphas, certificate=povm,
                       detail=f"smallest completion weight {t:.6g}")
    y = _bloch_witness(vecs) if t is None or t < -tol else None
    if y is not None and (margin := verify_no_witness(e, y)) > 0.0:
        return Verdict("NO", "qubit_lp", margins=[margin], alphas=alphas, witness=y,
                       detail="the hull of the Bloch vectors misses the origin")
    return Verdict("NO", "qubit_lp", margins=[] if t is None else [t], alphas=alphas,
                   detail="boundary: the hull of the Bloch vectors reaches the origin")


# ---------------------------------------------------------------------------
# union composition


def compose_union(e: Ensemble, parts, tol: float = DEFAULT_TOL) -> Povm:
    """Merge per-subset exclusion measurements into one for the whole ensemble.

    ``parts`` is a list of (labels, Povm) pairs whose label sets must jointly
    cover every state.  Each sub-measurement is re-verified on its restricted
    ensemble, then ``_union`` concatenates them and scales them by
    1/len(parts) with labels kept, so the result passes verify_strong on the
    full ensemble by construction.  ``decide_antidist``'s triple cover assembles
    its union with ``_union`` too, and checks that union once, as a whole.
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
    for labs, sub in parts:
        rep = verify_strong(restrict(e, labs), sub, tol=tol)
        if not rep.passed:
            raise ValueError(f"subset {list(labs)} fails verification: {rep.failures[:1]}")
    return _union(e, [sub.labels for _, sub in parts], [sub.elements for _, sub in parts])


def _union(e: Ensemble, labels, stacks) -> Povm:
    """The sub-measurements ``stacks``, a sequence of (m, d, d) element
    stacks (or one (parts, m, d, d) array) labeled by the lists in
    ``labels``, each scaled by 1/len(stacks), as one labeled measurement on
    the ensemble's layout: one concatenation, scaled in place."""
    k = len(stacks)
    elements = np.concatenate(stacks)
    elements /= k
    return Povm(e.layout, elements, [lab for labs in labels for lab in labs],
                name=f"union of {k} subsets")


# ---------------------------------------------------------------------------
# feasibility core


def _orthocomplement(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """Columns form an orthonormal basis of the joint orthocomplement."""
    m = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vectors])
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return u[:, rank:]


WITNESS_EVERY = 10   # core steps between two looks at the displacement
STALL_STEPS = 50     # steps without a 1 % gain after which a restart is polished
POLISH_AT = 1e-3     # residual below which a restart's first idle look polishes
GIVE_UP_STEPS = 400  # steps without a 1 % gain after which a restart ends


def _core_answers(groups: list[list[np.ndarray]], dim: int, tol: float,
                  restarts: int, iters: int, seed: int):
    """POVM whose j-th element is supported on the orthocomplement of the
    j-th ket group, so the group exclusions hold exactly by construction, or
    witnesses that no such POVM exists, as they are found.

    The package's one feasibility solver.  Works in the reduced coordinates
    of one Hermitian block per support and runs Douglas-Rachford between the
    per-block PSD cones and the affine completeness constraint.  Each step is
    batched: one stack per block size (``_psd_project``) and one precomputed
    affine projection.  A group spanning the whole space leaves a size-0
    block, whose element is zero.  Because exclusion is structural, tangency
    of the exclusion equalities with the PSD cone cannot slow the iteration,
    but it can still crawl next to a feasible point whose blocks lose rank.
    Stops once the largest completeness deviation (real and imaginary parts)
    drops below tol, which callers set to a tenth of the tolerance they
    verify at.  Next to a feasible point whose blocks lose rank the residual
    falls only linearly, so the first witness look of a restart that finds
    no witness while the residual is below POLISH_AT runs ``_polish`` on the
    current iterate with every factor cut at the iterate's rank: the
    eigenvalues above that residual.  A restart that goes STALL_STEPS steps
    without a 1 % gain stalls and is polished once more, keeping every
    column.  A polish's elements are yielded when they complete within tol
    and every element on a non-empty support fires.  Otherwise the restart
    runs on from its untouched iterate, so that the witness of an
    infeasible problem whose residual flattens first is still found, and it
    ends after GIVE_UP_STEPS steps without a 1 % gain; then the next
    restart runs.

    On an infeasible problem the difference of two consecutive iterates
    tends to a fixed nonzero vector (Banjac, Goulart, Stellato and Boyd,
    JOTA 183, 2019), which maps to a Farkas certificate.  Every
    WITNESS_EVERY steps that difference is taken to a Hermitian dim x dim
    matrix Y of unit trace (``_displacement_witness``); Y is yielded when
    its compressions onto the supports satisfy
    1 - dim * max_j lambda_max(B_j^dag Y B_j)_+ > tol, which rules out every
    such POVM.  An early look can find a Y whose margin is too thin for the
    caller's own check; the iteration then goes on when the caller asks for
    the next answer.  Yields witnesses (arrays) and at most one list of
    full-dimension elements, after which it ends.
    """
    bases = [_orthocomplement(g, dim) for g in groups]
    sizes = [b.shape[1] for b in bases]
    stacks = _block_stacks(sizes)
    cols = np.zeros((dim * dim, sum(s * s for s in sizes)), dtype=np.complex128)
    supports, adjoints = [], []
    for pos, idx, basis, _ in stacks:
        b = np.stack([bases[j] for j in pos])
        bh = b.conj().transpose(0, 2, 1)
        full = b[:, None] @ basis @ bh[:, None]  # b g b^dag
        cols[:, idx.ravel()] = full.reshape(idx.size, dim * dim).T
        supports.append(b)
        adjoints.append(bh)
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
        early = True
        for it in range(1, iters + 1):
            y = _psd_project(x, stacks)
            res = float(np.max(np.abs(lin @ y - target)))
            if res < tol:
                yield [(c @ p).reshape(dim, dim) for c, p in
                       zip(np.split(cols, cuts, axis=1), np.split(y, cuts))]
                return
            if res < best * 0.99:
                best = res
                since_best = 0
            else:
                since_best += 1
                if since_best == STALL_STEPS:
                    polished = _polish(y, stacks, supports, groups, dim, tol, 0.0)
                    if polished is not None:
                        yield polished
                        return
                elif since_best > GIVE_UP_STEPS:
                    break
            refl = 2.0 * y - x
            prev, x = x, x + refl - (proj @ refl - shift) - y
            if it % WITNESS_EVERY == 0:
                w = _displacement_witness(x - prev, pinv, supports, adjoints, dim, tol)
                if w is not None:
                    yield w
                elif early and res < POLISH_AT:
                    early = False
                    polished = _polish(y, stacks, supports, groups, dim, tol, res)
                    if polished is not None:
                        yield polished
                        return


def _displacement_witness(step: np.ndarray, pinv: np.ndarray, supports, adjoints,
                          dim: int, tol: float) -> np.ndarray | None:
    """The core's displacement as a unit-trace Hermitian matrix Y, returned
    when 1 - dim * max_j lambda_max(B_j^dag Y B_j)_+ exceeds tol, else None.

    ``pinv.T`` maps the block coordinates to the matrix whose compressions
    they are; a positive value certifies that no PSD elements supported on
    the B_j sum to the identity, since Tr Y = sum_j Tr(E_j Y) would be at most
    dim * max_j lambda_max.  ``supports`` holds the (n, dim, s) stacks of
    orthonormal support bases, one per block size, and ``adjoints`` their
    conjugate transposes, built once per core call."""
    n = dim * dim
    v = pinv.T @ step
    y = (v[:n] + 1j * v[n:]).reshape(dim, dim)
    y = (y + y.conj().T) / 2.0
    trace = float(np.trace(y).real)
    if not trace:
        return None
    y = y / trace
    top = max((float(np.linalg.eigvalsh(bh @ y @ b)[:, -1].max())
               for b, bh in zip(supports, adjoints)), default=0.0)
    return y if 1.0 - dim * max(top, 0.0) > tol else None


POLISH_FLOOR = 1e-6    # least eigenvalue a polished block keeps in its factor
POLISH_STEPS = 20      # Gauss-Newton steps of one polish
POLISH_HALVINGS = 20   # step halvings before a polish gives up


def _polish(y: np.ndarray, stacks, supports, groups, dim: int, tol: float,
            cut: float) -> list[np.ndarray] | None:
    """Damped Gauss-Newton on factored elements from a core iterate: the
    full-dimension elements, or None.

    Each block M_j of y is factored as W_j = V_j sqrt(max(lambda, floor))
    from its eigendecomposition, so E_j = B_j W_j W_j^dag B_j^dag excludes
    its group and is positive by construction (Burer and Monteiro, Math.
    Program. 95, 329, 2003); the floor keeps every column of W_j in play, as
    a zero column has a zero Jacobian.  A positive ``cut`` first keeps, in
    each block-size stack, the top r eigenvectors, with r the most
    eigenvalues above ``cut`` of any block in the stack (at least 1): near a
    rank-deficient point the factor then has the point's rank, and the
    steps converge fast.  A cut of 0 keeps every column.  Minimum-norm
    Gauss-Newton steps with a halving line search then solve sum_j E_j = I.
    The elements count only when the completeness deviation is below tol, by
    the core's measure, and every element with a non-empty support fires on
    the group kets by ``qcore.fires`` at 10 tol, the tolerance callers
    verify at."""
    ws = []
    for _, idx, basis, _ in stacks:
        lam, v = np.linalg.eigh(np.einsum("nk,kab->nab", y[idx], basis))
        if cut:
            r = max(int((lam > cut).sum(axis=1).max()), 1)
            lam, v = lam[:, -r:], v[:, :, -r:]
        ws.append(v * np.sqrt(np.maximum(lam, POLISH_FLOOR))[:, None, :])
    fs, res = _factored_residual(supports, ws, dim)
    for _ in range(POLISH_STEPS):
        if np.max(np.abs(res)) < tol:
            break
        step = np.linalg.lstsq(_factored_jacobian(supports, fs), -res, rcond=None)[0]
        dws, at = [], 0
        for w in ws:
            m = w.size
            dws.append((step[at:at + m] + 1j * step[at + m:at + 2 * m]).reshape(w.shape))
            at += 2 * m
        t = 1.0
        for _ in range(POLISH_HALVINGS):
            trial = [w + t * dw for w, dw in zip(ws, dws)]
            trial_fs, trial_res = _factored_residual(supports, trial, dim)
            if trial_res @ trial_res < res @ res:
                ws, fs, res = trial, trial_fs, trial_res
                break
            t /= 2.0
        else:
            return None
    if np.max(np.abs(res)) >= tol:
        return None
    els = np.zeros((len(groups), dim, dim), dtype=np.complex128)
    live = np.zeros(len(groups), dtype=bool)
    for (pos, *_), f in zip(stacks, fs):
        els[pos] = f @ f.conj().transpose(0, 2, 1)
        live[pos] = True
    table = outcome_table(els, [v for g in groups for v in g])
    return list(els) if fires(table, 10.0 * tol)[live].all() else None


def _factored_residual(supports, ws, dim: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The factors F_j = B_j W_j, one (n, dim, s) stack per block size, and
    the completeness deviation sum_j F_j F_j^dag - I as its real and
    imaginary parts, laid out as the core's affine map lays them out."""
    fs = [b @ w for b, w in zip(supports, ws)]
    dev = sum(np.einsum("nic,njc->ij", f, f.conj()) for f in fs) - np.eye(dim)
    return fs, np.concatenate([dev.real.ravel(), dev.imag.ravel()])


def _factored_jacobian(supports, fs) -> np.ndarray:
    """Jacobian of ``_factored_residual`` in the real and imaginary parts
    of the W_j, per block size the n*s*s real parts then the n*s*s
    imaginary parts, each in (block, row, column) order.  Moving W_j[a, c]
    by 1 (or i) moves the sum by b_a F_c^dag + h.c. (or i b_a F_c^dag + h.c.),
    with b_a the a-th support vector and F_c the c-th column of F_j."""
    cols = []
    for b, f in zip(supports, fs):
        g = np.einsum("nia,njc->nacij", b, f.conj())
        gh = g.conj().swapaxes(-1, -2)
        cols += [(g + gh).reshape(-1, g.shape[-1] ** 2),
                 (1j * (g - gh)).reshape(-1, g.shape[-1] ** 2)]
    c = np.concatenate(cols).T
    return np.concatenate([c.real, c.imag])


def _block_stacks(sizes: list[int]
                  ) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks grouped by size s > 0: their positions, their parameter
    indices (one row of s*s per block, blocks laid out in order), the
    stacked Hermitian basis (s*s, s, s) and its complex conjugate."""
    offsets = np.cumsum([0] + [s * s for s in sizes])
    stacks = []
    for s in sorted(set(sizes) - {0}):
        pos = [j for j, t in enumerate(sizes) if t == s]
        basis = _hermitian_basis(s)
        stacks.append((pos, offsets[pos][:, None] + np.arange(s * s), basis, basis.conj()))
    return stacks


def _psd_project(x: np.ndarray, stacks) -> np.ndarray:
    """Coordinates of the nearest point of the product of block PSD cones:
    one einsum, one batched eigh and one einsum per block size."""
    y = np.empty_like(x)
    for _, idx, basis, basis_conj in stacks:
        w, v = np.linalg.eigh(np.einsum("nk,kab->nab", x[idx], basis))
        m = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        y[idx] = np.einsum("kab,nab->nk", basis_conj, m).real
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
                          seed: int = 0) -> Povm | None:
    """Numerical search for a strong exclusion measurement on the ensemble.

    One call of the feasibility core: each element is parameterized inside
    the orthogonal complement of its target state, so the exclusions hold by
    construction and only completeness is searched for, with ``restarts``
    deterministic restarts of at most ``iters`` iterations each.  The
    candidate counts only if verify_strong passes at SEARCH_TOL; returns
    None when the core finds nothing, stops at a witness, or the check fails.
    """
    found = _search(e, restarts, iters, seed, SEARCH_TOL)
    return found if isinstance(found, Povm) else None


def _search(e: Ensemble, restarts: int, iters: int, seed: int,
            check_tol: float) -> Povm | np.ndarray | None:
    """The core on the ensemble's single-state supports: a measurement that
    passes verify_strong at check_tol, the first witness of the core that
    ``_states_witness`` takes to a verify_no_witness margin above check_tol,
    or None.  The core runs on past a witness whose margin falls short,
    since an early look can see a displacement that has not settled; once
    two such margins in a row agree within 1 %, the displacement has
    settled below check_tol and the search ends."""
    last = None
    for found in _core_answers([[s] for s in e.states], e.layout.dim,
                               check_tol / 10, restarts, iters, seed):
        if isinstance(found, list):
            povm = Povm(e.layout, found, list(e.labels), name="search certificate")
            return povm if verify_strong(e, povm, tol=check_tol).passed else None
        y = _states_witness(e, found)
        margin = verify_no_witness(e, y)
        if margin > check_tol:
            return y
        if last is not None and abs(margin - last) <= 0.01 * abs(last):
            return None
        last = margin
    return None


# ---------------------------------------------------------------------------
# NO certificates


def verify_no_witness(ensemble, y) -> float:
    """Margin of a dual witness Y: Tr Y - dim * max_j lambda_max(Y - rho_j)_+.

    A positive margin proves that no measurement excludes every state: for
    PSD elements E_j with Tr(E_j rho_j) = 0 that sum to the identity,
    Tr Y = sum_j Tr(E_j (Y - rho_j)) <= dim * max_j lambda_max(Y - rho_j)_+.
    The Hermitian part of Y is checked, with eigvalsh only.
    """
    e = _as_ensemble(ensemble)
    d = e.layout.dim
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (d, d):
        raise ValueError(f"witness: expected shape {(d, d)}, got {y.shape}")
    y = (y + y.conj().T) / 2.0
    top = max(float(np.linalg.eigvalsh(y - density(s))[-1]) for s in e.states)
    return float(np.trace(y).real) - d * max(top, 0.0)


def _states_witness(e: Ensemble, y: np.ndarray) -> np.ndarray:
    """The core's witness, whose compressions onto the states'
    orthocomplements B_j have lambda_max at most delta with
    m = Tr Y - dim * delta > 0, rescaled to Y <= rho_j for every j.

    Shifting by (delta + m / (2 dim)) I makes every compression negative
    definite and leaves trace m / 2.  In the basis [psi_j, B_j] the shifted Y
    is [[a_j, b_j^dag], [b_j, C_j]] with C_j < 0, and Y / t <= rho_j exactly
    when t >= a_j - b_j^dag C_j^-1 b_j (a Schur complement), which is positive
    since the trace is; t is the largest of these."""
    d = e.layout.dim
    frames = [np.column_stack([s, _orthocomplement([s], d)]) for s in e.states]
    delta = max(max(float(np.linalg.eigvalsh(u[:, 1:].conj().T @ y @ u[:, 1:])[-1])
                    for u in frames), 0.0)
    m = float(np.trace(y).real) - d * delta
    y = y - (delta + m / (2.0 * d)) * np.eye(d)
    t = 0.0
    for u in frames:
        block = u.conj().T @ y @ u
        a, b, c = block[0, 0].real, block[1:, 0], block[1:, 1:]
        t = max(t, a - float(np.vdot(b, np.linalg.solve(c, b)).real))
    return y / t


# ---------------------------------------------------------------------------
# certified measurement for a passing triple


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear cross product on C^3 over the last axis, broadcast over the
    others: conj(a x b) is orthogonal to a and b, and has unit norm when a
    and b are orthonormal."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _qubit_from_bloch(n: np.ndarray) -> np.ndarray:
    """Unit kets a in C^2 with a a^dag = (I + n . sigma) / 2, one per unit
    Bloch vector on the last axis of n, each from whichever of the two
    equivalent forms is away from its pole."""
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    a = np.where((z >= 0.0)[..., None], np.stack([1.0 + z, x + 1j * y], axis=-1),
                 np.stack([x - 1j * y, 1.0 - z], axis=-1))
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _triple_basis(ys: np.ndarray) -> np.ndarray:
    """Orthonormal bases f1, f2, f3 of C^3 (the rows) with f_j orthogonal to
    y_j, for unit kets y1, y2, y3 in C^3 (the rows of ys) that pass the
    criterion; ys may be a (..., 3, 3) stack of triples, solved all at once.

    With f1 orthogonal to y1, f2 = conj(f1 x y2) / norm and f3 = conj(f1 x f2)
    are orthonormal, f2 is orthogonal to y2, and f3 is orthogonal to y3
    exactly when q(f1) = <f1 x y2 | y3 x f1> = f1^dag A f1 vanishes, with
    A = -[y2]x^dag [y3]x, where [v]x x = v x x.  On f1 = P a, P an
    orthonormal basis of y1's complement, q = m0 + m . n is affine in the
    Bloch vector n of a, so its real and imaginary parts are two planes in
    n: f1 lies where their line (or, for parallel planes, their common
    plane) meets the unit sphere.  On the quartic boundary the line only
    touches the sphere, and rounding can leave it just outside; then the
    unit n with the least residual on the two planes is taken, with the
    Lagrange multiplier of the secular equation
    sum_i (s_i^2 c_i / (s_i^2 + lam))^2 = 1 found by Newton steps (s_i, c_i
    the singular values and coordinates of the line's nearest point), which
    shrinks the coordinate of the weaker plane first; each triple takes its
    own steps and stops at its own root.  Of the two points the one with the
    larger |f1 x y2| is kept: when y2 is orthogonal to y1 the other is
    f1 = y2, where f2 is undefined."""
    ys = np.asarray(ys)
    y1, y2, y3 = ys[..., 0, :], ys[..., 1, :], ys[..., 2, :]
    p = np.linalg.svd(y1[..., :, None])[0][..., :, 1:]   # (..., 3, 2): y1's complement
    pt = np.swapaxes(p, -1, -2)
    m = -_cross(y2[..., None, :], pt).conj() @ np.swapaxes(_cross(y3[..., None, :], pt), -1, -2)
    m0 = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    mv = np.stack([(m[..., 0, 1] + m[..., 1, 0]) / 2.0, 0.5j * (m[..., 0, 1] - m[..., 1, 0]),
                   (m[..., 0, 0] - m[..., 1, 1]) / 2.0], axis=-1)
    u, s, vt = np.linalg.svd(np.stack([mv.real, mv.imag], axis=-2))
    kept = s > 1e-12 * np.maximum(s[..., :1], 1.0)   # the planes' rank, as a mask
    w = np.where(kept, s * s, 1.0)
    rhs = np.einsum("...ij,...i->...j", u, -np.stack([m0.real, m0.imag], axis=-1))
    coef = np.where(kept, rhs / np.where(kept, s, 1.0), 0.0)
    x, lam = coef, np.zeros(s.shape[:-1])
    for _ in range(8):
        sq = np.sum(x * x, axis=-1)
        outside = sq > 1.0
        if not outside.any():
            break
        slope = 2.0 * np.sum(x * x / (w + lam[..., None]), axis=-1)
        lam = np.where(outside, lam + (sq - 1.0) / np.where(outside, slope, 1.0), lam)
        x = np.where(outside[..., None], w * coef / (w + lam[..., None]), x)
    centre = np.einsum("...r,...rk->...k", x, vt[..., :2, :])
    reach = np.sqrt(np.maximum(1.0 - np.sum(centre * centre, axis=-1), 0.0))
    ns = centre[..., None, :] + np.array([[1.0], [-1.0]]) * (reach[..., None, None]
                                                             * vt[..., None, 2, :])
    roots = _qubit_from_bloch(ns / np.linalg.norm(ns, axis=-1, keepdims=True)) @ pt
    along = np.linalg.norm(_cross(roots, y2[..., None, :]), axis=-1)
    f1 = np.where((along[..., 1] > along[..., 0])[..., None], roots[..., 1, :], roots[..., 0, :])
    g = _cross(f1, y2).conj()
    f2 = g / np.linalg.norm(g, axis=-1, keepdims=True)
    return np.stack([f1, f2, _cross(f1, f2).conj()], axis=-2)


def _triple_elements(kets: np.ndarray, triples: np.ndarray, tol: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The exclusion measurements of the index triples ``triples`` (n, 3) of
    the unit kets ``kets`` (k, d), all built in one pass, for triples that
    pass the criterion at boundary tolerance tol: an (n, 3, d, d) stack
    whose j-th element of a triple excludes its j-th ket, and which triples
    were built.

    Each triple is solved inside the span of its kets, read from one
    stacked SVD (rank: singular values above SPAN_TOL; basis: rows of vh): a
    three-dimensional span takes the projectors onto the closed-form bases
    of one ``_triple_basis`` call over the whole stack (Caves, Fuchs and
    Schack, PRA 66, 062111, 2002), a two-dimensional one the antipode
    elements of ``_qubit_elements``, and is not built when that program
    finds no completion; ``_lift`` with k = 3 carries both back.  A triple
    whose elements come out non-finite is not built either.  Nothing is
    verified here: the callers check what they return."""
    stack = kets[triples]
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    rank = np.sum(svals > SPAN_TOL, axis=-1)
    ys = stack @ np.swapaxes(vh.conj(), -1, -2)   # the kets in span coordinates
    ys /= np.linalg.norm(ys, axis=-1, keepdims=True)
    small = np.zeros((len(stack), 3, 3, 3), dtype=np.complex128)
    built = np.ones(len(stack), dtype=bool)
    if (rank == 3).any():
        f = _triple_basis(ys[rank == 3])
        small[rank == 3] = f[..., :, None] * f.conj()[..., None, :]
    for t in np.flatnonzero(rank < 3):
        try:
            best, _, qels = _qubit_elements(ys[t, :, :2])
        except RuntimeError:   # a program that ends neither optimal nor infeasible
            best = None
        built[t] = best is not None and best > -tol
        if built[t]:
            small[t, :, :2, :2] = qels
            small[t, :, 2, 2] = 1.0 / 3.0   # the third basis row lies outside the span
    r = vh.shape[-2]   # 3, or 2 for qubit kets
    els = _lift(vh[:, None], small[..., :r, :r], 3)
    return els, built & np.isfinite(els).all(axis=(1, 2, 3))


def povm_from_caves_triple(states, labels=None, layout: PartyLayout | None = None,
                           tol: float = DEFAULT_TOL) -> Povm:
    """Certified three-outcome exclusion measurement for a triple that passes
    the three-state criterion at boundary tolerance tol.

    The one-triple case of ``_triple_elements``, the builder the triple
    cover of ``decide_antidist`` runs on all its triples at once: the
    projectors onto a closed-form basis, each orthogonal to its state, on a
    three-dimensional span, and the single-qubit program's antipode elements
    on a two-dimensional one.  The result must pass verify_strong at
    max(tol, 1e-10), and a RuntimeError reports a weight program that finds
    no completion or a certificate that fails.  A triple that fails the
    criterion, or holds a ket whose norm is not 1 within 1e-9, raises
    ValueError.
    """
    vecs = [_ket(s) for s in states]
    rep = caves_criterion(vecs, boundary_tol=tol)
    if not rep.passed:
        raise ValueError("the triple fails the three-state criterion")
    labels = [f"s{i}" for i in range(3)] if labels is None else list(labels)
    if layout is None:
        layout = PartyLayout((vecs[0].size,))
    els, built = _triple_elements(np.stack(vecs), np.array([[0, 1, 2]]), tol)
    if not built[0]:
        raise RuntimeError("no exclusion measurement found inside the span")
    return _accepted(Ensemble("triple", layout, labels, vecs), els[0],
                     "triple exclusion", tol)


# ---------------------------------------------------------------------------
# per-outcome exclusion bookkeeping


@dataclass
class ExclusionCounts:
    outcomes: list[OutcomeReport]
    min_exclusions: int
    tol: float


def exclusion_counts(e: Ensemble, m: Povm, tol: float = DEFAULT_TOL) -> ExclusionCounts:
    """Which states each firing outcome excludes, and the worst-case count.

    The rows are verify_strong's per-outcome reports, kept for the outcomes
    that fire by ``qcore.fires``; the summary value is the smallest exclusion
    set over them.  Labels are carried but never checked.  Raises ValueError
    when the elements are not a measurement within tol or if nothing fires.
    """
    if m.layout.dims != e.layout.dims:
        raise ValueError("POVM layout does not match the ensemble layout")
    els = real_if_exact(m.elements)
    failures, _, _ = measurement_failures(els, tol)
    if failures:
        raise ValueError(f"not a POVM: {'; '.join(failures)}")
    rows = [r for r in _outcome_rows(e, els, m.labels, tol) if r.fires]
    if not rows:
        raise ValueError("no outcome fires")
    return ExclusionCounts(rows, min(len(r.excluded) for r in rows), tol)


# ---------------------------------------------------------------------------
# decision routine


def _as_ensemble(obj) -> Ensemble:
    if isinstance(obj, Ensemble):
        return obj
    vecs = [_ket(s) for s in obj]
    if len(vecs) < 2:
        raise ValueError("need at least two states")
    return Ensemble("states", PartyLayout((vecs[0].size,)),
                    [f"s{i}" for i in range(len(vecs))], vecs)


def _cover_plan(member: np.ndarray, alive: np.ndarray) -> list[int] | None:
    """The greedy choice of route (4) of ``decide_antidist``, on triple
    indices only: while a state is uncovered, the smallest uncovered state
    takes, of the live triples that hold it, the one covering most uncovered
    states (ties in enumeration order).  None when the live triples do not
    reach every state."""
    if not member[alive].any(axis=0).all():
        return None
    covered = np.zeros(member.shape[1], dtype=bool)
    plan = []
    while not covered.all():
        u = int(np.argmin(covered))
        fresh = member[:, ~covered].sum(axis=1)
        t = int(np.argmax(np.where(alive & member[:, u], fresh, -1)))
        plan.append(t)
        covered |= member[t]
    return plan


def _triple_cover(e: Ensemble, tol: float
                  ) -> tuple[list[tuple[int, int, int]], Povm, list[float]] | None:
    """Greedy cover of the ensemble by passing triples: the chosen index
    triples, their union measurement and the smallest of their criterion
    margins (overlap sum, quartic), or None.

    Plan, build, accept: ``_cover_plan`` chooses the triples, on indices
    only, so nothing is built when the live triples cannot reach every
    state; ``_triple_elements`` builds all the chosen ones in one pass; the
    union, each triple scaled by 1/n with labels kept, is accepted once it
    passes verify_strong on the whole ensemble at max(tol, 1e-10).  A triple
    that is not built is dropped and the plan is redone.  A union that fails
    has each of its triples checked on its own triple; the failing ones are
    dropped and the plan is redone, and when none fails alone there is no
    cover.  The chosen triples are thus those of a cover that builds and
    checks one triple at a time whenever every triple passes its own check;
    a triple that would fail alone is kept when the union passes."""
    idx, alive, margins = _triple_screen(e.states, tol)
    member = np.zeros((len(idx), e.n_states), dtype=bool)
    member[np.arange(len(idx))[:, None], idx] = True
    kets = np.stack(e.states)
    check_tol = max(tol, 1e-10)
    while (plan := _cover_plan(member, alive)) is not None:
        els, built = _triple_elements(kets, idx[plan], tol)
        if not built.all():
            alive[np.asarray(plan)[~built]] = False
            continue
        labels = [[e.labels[i] for i in idx[t]] for t in plan]
        union = _union(e, labels, els)
        if verify_strong(e, union, tol=check_tol).passed:
            return ([tuple(idx[t].tolist()) for t in plan], union,
                    margins[plan].min(axis=0).tolist())
        failing = [t for t, labs, sub in zip(plan, labels, els)
                   if not verify_strong(restrict(e, labs), Povm(e.layout, sub, labs),
                                        tol=check_tol).passed]
        if not failing:
            return None
        alive[failing] = False
    return None


def _lifted(e: Ensemble, v: Verdict, b: np.ndarray, tol: float) -> Verdict:
    """A verdict on the span coordinates kets @ b^dag, checked again in the
    ensemble's space: its certificate, lifted by ``_lift``, must pass
    verify_strong, and its witness, lifted to B Y B^dag, needs a positive margin."""
    if v.certificate is not None:
        els = _lift(b, v.certificate.elements, e.n_states)
        v.certificate = _accepted(e, els, v.certificate.name, tol)
    if v.witness is not None:
        y = b.T @ v.witness @ b.conj()
        margin = verify_no_witness(e, y)
        v.witness, v.margins = (y, [margin]) if margin > 0.0 else (None, [])
    return v


def decide_antidist(ensemble, tol: float = DEFAULT_TOL, seed: int = 0,
                    restarts: int = 3, iters: int = 4000) -> Verdict:
    """Decide strong antidistinguishability of an ensemble of pure states.

    Routes: (1) exactly three states, the exact overlap criterion, with a
    certified measurement on YES; (2) a span of rank at most 2:
    ``qubit_antidist_lp``, on the states themselves in C^2, else on the span
    coordinates B^dag psi_j (the rank from singular values alone, ``_span_rank``,
    and B from an SVD taken only then), B padded to two columns at rank 1,
    exact as antidistinguishability depends only on the Gram matrix, its
    answer lifted and checked again (``_lifted``); (3) four
    or more states, the triple cover of ``_triple_cover``, its union
    accepted by one verify_strong call; (4) the feasibility core
    (``_search``), ending at a measurement that verify_strong accepts (YES,
    "search") or at a dual witness Y <= rho_j whose margin exceeds the
    search's tolerance (NO, "witness"); (5) UNKNOWN.  Routes (1) and (3)
    apply the criterion at boundary tolerance tol, and never run the core,
    nor does (2).  Every NO comes from an exact criterion or carries
    ``witness``, as every qubit_lp NO but a boundary one does.
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
        cert = povm_from_caves_triple(e.states, e.labels, layout=e.layout, tol=tol)
        return Verdict("YES", "caves", margins=margins, caves=rep, certificate=cert)

    if e.layout.dim == 2:
        v = qubit_antidist_lp(e.states, e.labels, tol=tol)
        if v.certificate is not None:  # the same elements, on e's layout
            v.certificate = replace(v.certificate, layout=e.layout)
        return v

    kets = np.stack(e.states)
    if _span_rank(kets) <= 2:
        b = np.linalg.svd(kets, full_matrices=False)[2][:2]
        return _lifted(e, qubit_antidist_lp(kets @ b.conj().T, e.labels, tol=tol), b, tol)

    if k >= 4:
        cover = _triple_cover(e, tol)
        if cover is not None:
            triples, union, margins = cover
            return Verdict("YES", "triple_cover", margins=margins, certificate=union,
                           triples=[tuple(e.labels[i] for i in t) for t in triples],
                           detail=f"{len(triples)} certified triples")

    check_tol = max(tol, SEARCH_TOL)
    found = _search(e, restarts, iters, seed, check_tol)
    if isinstance(found, Povm):
        return Verdict("YES", "search", margins=[], certificate=found,
                       detail="feasibility search certificate")
    if found is not None:
        return Verdict("NO", "witness", margins=[verify_no_witness(e, found)],
                       witness=found, detail="dual witness from the feasibility core")

    return Verdict("UNKNOWN", "exhausted", margins=[],
                   detail="exact criteria do not apply and the search budget "
                          "found no certificate")
