"""Sequence antimarking: task verdicts, the draw-count scaling law, worked
sequence measurements, and parameter-region sweeps for the tilted families.

A task draws a non-repetitive length-n sequence from a parent ensemble and
asks the parties to name m index sequences that did not occur.  check_lsam
decides m = 1, and its single draw is the local antidistinguishability
question of ``check-antidist --mode local``; larger m is handled only by
verifying explicit measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .ensembles import (NL2_PATTERN, Ensemble, _party_major, sequence_ensemble,
                        sequence_local_part, theta4)
from .exclusion import (BOUNDARY_TOL, Povm, Verdict, _caves_inequalities, _core_answers,
                        decide_antidist, exclusion_counts)
from .locc import (LoccProtocol, _mapped_outcomes, build_pairwise_lad_protocol,
                   flatten_protocol, verify_local_protocol)
from .qcore import DEFAULT_TOL, PartyLayout, kron

THETA_WINDOW = math.sqrt(2.0) - 1.0  # positivity bound on cos(2 theta)

PAIR_MAP = (("++", "+-"), ("++", "-+"), ("+-", "--"),
            ("-+", "--"), ("+-", "-+"), ("++", "--"))


@dataclass
class LsamTask:
    """A length-n sequence draw from a parent ensemble with an m-claim goal."""

    parent: Ensemble
    n: int
    m: int = 1

    def __post_init__(self):
        big = self.parent.n_states
        if not 1 <= self.n <= big:
            raise ValueError(f"sequence length must be in 1..{big}")
        cap = math.perm(big, self.n) - 1
        if not 1 <= self.m <= cap:
            raise ValueError(f"claim count must be in 1..{cap}")

    def sequences(self) -> Ensemble:
        """The sequence ensemble; a single draw is the parent itself."""
        if self.n == 1:
            return self.parent
        return sequence_ensemble(self.parent, self.n)


def lsam_scaling(big_n: int, n: int, m: int, n_prime: int) -> int:
    """Claim count after extending verified length-n eliminations to length
    n_prime: m * (N-n)! / (N-n_prime)!, exactly."""
    if not 1 <= n <= n_prime <= big_n:
        raise ValueError("need 1 <= n <= n_prime <= N")
    if m < 1:
        raise ValueError("need m >= 1")
    return m * math.perm(big_n - n, n_prime - n)


def check_lsam(task, n: int | None = None, m: int | None = None,
               tol: float = DEFAULT_TOL, seed: int = 0) -> Verdict:
    """Single-claim (m = 1) verdict of an LsamTask or (ensemble, n, m) triple;
    at n = 1 with two or more parties (a single draw), the local verdict.
    Routes, in order: (1) a two-party single draw of pairwise orthogonal
    states: build_pairwise_lad_protocol, checked by verify_local_protocol
    (RuntimeError if it fails), YES "pairwise_walgate"; (2) a product parent,
    "local_part_criterion": each party's local part (sequence_local_part; the
    sequence size limit raises ValueError) through decide_antidist.  Any YES
    gives YES; all NO gives NO, an unproven rule: a one-round product protocol
    that passes verify_local_protocol refutes it at duan4, n = 1 (the NO
    stands for now); else UNKNOWN; (3) any other single draw: the NO of
    decide_antidist, as a local protocol is one global measurement (witness
    kept, "global NO: " detail), else UNKNOWN "exhausted"; (4) ValueError.
    """
    if isinstance(task, Ensemble):
        task = LsamTask(task, 1 if n is None else n, 1 if m is None else m)
    elif n is not None or m is not None:
        raise ValueError("pass n and m only alongside a bare ensemble")
    if task.m != 1:
        raise ValueError("no criterion for m > 1; verify an explicit protocol "
                         "with verify_sequence_elimination instead")
    e = task.parent
    single_draw = task.n == 1 and e.layout.n_parties >= 2
    if single_draw and e.layout.n_parties == 2 and e.is_orthogonal:
        rep = verify_local_protocol(e, build_pairwise_lad_protocol(e, tol=tol), tol=tol)
        if not rep.passed:
            raise RuntimeError("pairwise protocol failed verification: "
                               + "; ".join(rep.failures))
        return Verdict("YES", "pairwise_walgate",
                       detail="orthogonal states: generated protocol verified")
    if not e.is_product:
        if not single_draw:
            raise ValueError("the local-part criterion needs a product parent")
        v = decide_antidist(e, tol=tol, seed=seed)
        if v.decision == "NO":
            v.detail = f"global NO: {v.detail}"
            return v
        return Verdict("UNKNOWN", "exhausted",
                       detail="no local criterion for states not given as products "
                              f"(global decision {v.decision})")
    parts = {name: decide_antidist(sequence_local_part(e, task.n, p), tol=tol, seed=seed)
             for p, name in enumerate(e.layout.names)}
    for name, v in parts.items():
        if v.decision == "YES":
            return Verdict("YES", "local_part_criterion", margins=list(v.margins),
                           parts=parts,
                           detail=f"party {name} antidistinguishes its local part")
    if all(v.decision == "NO" for v in parts.values()):
        return Verdict("NO", "local_part_criterion", parts=parts,
                       detail="no party's local part is antidistinguishable")
    open_parties = [name for name, v in parts.items() if v.decision == "UNKNOWN"]
    return Verdict("UNKNOWN", "local_part_criterion", parts=parts,
                   detail=f"undecided local parts: {', '.join(open_parties)}")


def verify_sequence_elimination(task: LsamTask, protocol,
                                tol: float = DEFAULT_TOL) -> int:
    """Guaranteed eliminations of a measurement on the sequence ensemble.

    Returns the minimum over reachable outcomes (those that fire by
    ``qcore.fires``) of how many sequences the outcome rules out; the task
    passes iff the result reaches task.m.  A bare Povm (or a protocol without
    an exclusion map) is counted numerically from its elements by
    exclusion_counts.  A protocol with an exclusion map goes through
    verify_local_protocol, whose structural checks raise ValueError (invalid
    component POVMs, a reachable outcome missing from the map, map keys that
    match no outcome, unknown labels); an unsound claim raises ValueError with
    the first failure, and each reachable outcome counts its distinct claims.
    """
    seq = task.sequences()
    if isinstance(protocol, Povm):
        if protocol.layout.dim != seq.layout.dim:
            raise ValueError("measurement does not act on the sequence space")
        return exclusion_counts(seq, protocol, tol=tol).min_exclusions
    if not isinstance(protocol, LoccProtocol):
        raise ValueError("expected a Povm or a LoccProtocol")
    if protocol.layout.dims != seq.layout.dims:
        raise ValueError("protocol layout does not match the sequence layout")
    if not _mapped_outcomes(protocol):
        povm = Povm(seq.layout, flatten_protocol(protocol).elements)
        return exclusion_counts(seq, povm, tol=tol).min_exclusions
    rep = verify_local_protocol(seq, protocol, tol=tol)
    if not rep.sound:
        raise ValueError(rep.failures[0])
    return min(len(set(r.claims)) for r in rep.rows if r.reachable)


def lift_first_slot(op, layout: PartyLayout, n_prime: int) -> np.ndarray:
    """Extend a one-draw operator to n_prime draws, acting on the first draw.

    The identity fills the remaining draws slot-by-slot; axes are then
    repartitioned so each party's slots sit together, matching the sequence
    ensemble's ordering.
    """
    op = np.asarray(op, dtype=np.complex128)
    d = layout.dim
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d}x{d}")
    if n_prime < 1:
        raise ValueError("need n_prime >= 1")
    full = kron(op, np.eye(d ** (n_prime - 1), dtype=np.complex128))
    dims = list(layout.dims) * n_prime
    perm = _party_major(layout.n_parties, n_prime)
    t = full.reshape(dims + dims).transpose(perm + [len(dims) + q for q in perm])
    return np.ascontiguousarray(t.reshape(d ** n_prime, d ** n_prime))


# ---------------------------------------------------------------------------
# worked sequence measurements


def pbr_sequence_measurement() -> Povm:
    """Entangled four-outcome basis a party applies to its two draw slots."""
    h = 1.0 / math.sqrt(2.0)
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    plus, minus = np.array([h, h]), np.array([h, -h])
    kets = [
        (kron(zero, one) + kron(one, zero)) * h,
        (kron(zero, minus) + kron(one, plus)) * h,
        (kron(plus, one) + kron(minus, zero)) * h,
        (kron(plus, minus) + kron(minus, plus)) * h,
    ]
    els = [np.outer(v, v.conj()) for v in kets]
    return Povm(PartyLayout((2, 2)), els, name="entangled pair readout")


@dataclass
class ThetaMeasurement:
    """Six-outcome global measurement on two tilted qubits, each outcome
    ruling out the two sign patterns in its pair-map entry."""

    theta: float
    povm: Povm
    pair_map: tuple[tuple[str, str], ...]
    synthesized: bool
    reflected: bool


def _theta_closed_form(t: float) -> list[np.ndarray]:
    """The printed six-element family at tilt t (requires cos 2t in [0, window]):
    four scaled product exclusions, then two elements mixing v = e1 +- e2 and
    w = s^2 e0 +- c^2 e3, both unnormalised."""
    c, s = math.cos(t), math.sin(t)
    gamma = (1.0 - (s / c) ** 4) / (4.0 * s * s)
    beta = 1.0 / (2.0 * c ** 4)
    alpha = 0.5 - gamma * c * c
    zero = np.array([1.0, 0.0])
    up_perp = np.array([s, -c])    # orthogonal to cos t|0> + sin t|1>
    down_perp = np.array([s, c])   # orthogonal to cos t|0> - sin t|1>
    fixed = [gamma * np.outer(v, v.conj()) for v in (
        kron(up_perp, zero), kron(zero, up_perp),
        kron(zero, down_perp), kron(down_perp, zero))]
    e = np.eye(4, dtype=np.complex128)
    vs = (e[1] + e[2], e[1] - e[2])
    ws = (s * s * e[0] + c * c * e[3], s * s * e[0] - c * c * e[3])
    return fixed + [alpha * np.outer(v, v.conj()) + beta * np.outer(w, w.conj())
                    for v, w in zip(vs, ws)]


def _theta_family_ok(povm: Povm, ensemble: Ensemble, tol: float) -> bool:
    """Whether exclusion_counts accepts the six-outcome measurement and each
    firing outcome excludes both sign patterns of its pair-map entry."""
    try:
        rows = exclusion_counts(ensemble, povm, tol=tol).outcomes
    except ValueError:
        return False
    return all(set(PAIR_MAP[r.index]) <= set(r.excluded) for r in rows)


def theta_global_measurement(theta: float, seed: int = 0,
                             synthesize: bool = False) -> ThetaMeasurement:
    """Six-outcome pair-exclusion measurement for the four tilted products.

    Valid for cos 2 theta <= sqrt(2) - 1.  Within the closed-form positivity
    window the printed coefficient family is built once (tilts past pi/4 take
    the mirrored tilt's family conjugated by X on both qubits) and checked on
    the actual states by exclusion_counts against the pair map; where that
    check fails the measurement is synthesized numerically against the same
    pair map and flagged.  synthesize=True skips the closed form and goes
    straight to the numerical construction.
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must lie in (0, pi/2)")
    if math.cos(2.0 * theta) > THETA_WINDOW + 1e-12:
        raise ValueError("outside the validity region cos 2theta <= sqrt(2) - 1")
    ensemble = theta4(theta)
    layout = ensemble.layout

    reflected = theta > math.pi / 4.0
    t_eff = math.pi / 2.0 - theta if reflected else theta
    if not synthesize and math.cos(2.0 * t_eff) <= THETA_WINDOW + 1e-12:
        els = _theta_closed_form(t_eff)
        if reflected:
            xx = kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
            els = [xx @ m @ xx for m in els]
        povm = Povm(layout, els, name=f"tilted pair exclusion (theta={theta:g})")
        if _theta_family_ok(povm, ensemble, 1e-10):
            return ThetaMeasurement(theta, povm, PAIR_MAP, False, reflected)
    groups = [[ensemble.state_of(pat) for pat in pair] for pair in PAIR_MAP]
    found = next(_core_answers(groups, 4, 1e-10, 3, 4000, seed), None)
    if isinstance(found, list):
        povm = Povm(layout, found, name=f"synthesized pair exclusion (theta={theta:g})")
        if _theta_family_ok(povm, ensemble, 1e-9):
            return ThetaMeasurement(theta, povm, PAIR_MAP, True, False)
    raise RuntimeError("no pair-exclusion measurement found for this tilt")


def theta_sequence_protocol(theta: float, seed: int = 0,
                            synthesize: bool = False) -> LoccProtocol:
    """Both parties apply the six-outcome tilted measurement to their two draw
    slots; each joint outcome claims every sequence whose sign pattern, on
    either side, matches the corresponding pair-map entry."""
    meas = theta_global_measurement(theta, seed=seed, synthesize=synthesize)
    parent = theta4(theta)
    seq = sequence_ensemble(parent, 2)
    patterns = []
    for i, j in seq.index_tuples:
        li, lj = parent.labels[i], parent.labels[j]
        patterns.append((li[0] + lj[0], li[1] + lj[1]))
    emap = {}
    for a in range(6):
        for b in range(6):
            killed = tuple(seq.labels[t] for t, (pa, pb) in enumerate(patterns)
                           if pa in meas.pair_map[a] or pb in meas.pair_map[b])
            emap[(a, b)] = killed
    els = [m.copy() for m in meas.povm.elements]
    return LoccProtocol("one_round_product", seq.layout,
                        party_povms=[els, [m.copy() for m in els]],
                        exclusion_map=emap,
                        name=f"two-sided tilted exclusion (theta={theta:g})")


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass
class SweepPoint:
    theta: float
    flags: dict[str, bool]


@dataclass
class SweepResult:
    family: str
    grid: list[float]
    points: list[SweepPoint]
    boundaries: list[float]
    regions: list[tuple[float, float]]  # where the family's gap flag holds


def _nl2_flag(thetas: np.ndarray, key: str) -> np.ndarray:
    """One flag of nl2 at every tilt: its three-state verdict ("global"), or
    whether some party's local part of the two-draw task passes it ("local").

    Both read squared overlaps only, so they come from the per-party Gram
    matrices of nl2's factors, |0> and the normalised angle_ket, laid out by
    NL2_PATTERN.  A global overlap is the product of the party entries; the
    sequences (i, j) and (k, l) overlap in a party by G[i,k] G[j,l].  A local
    part keeps the first of any sequence kets whose squared overlap is within
    DEFAULT_TOL of 1, as local_part keeps the first label, and a part left
    with fewer than three kets is not local.  Every verdict is
    _caves_inequalities on the stacked overlaps.
    """
    t = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    base = np.ones((len(thetas), 2, 2))
    base[:, 0, 1] = base[:, 1, 0] = t[:, 0]
    pat = np.array([[c == "t" for c in lab] for lab in NL2_PATTERN], dtype=np.intp).T
    gram = base[:, pat[:, :, None], pat[:, None, :]]  # (tilt, party, state, state)
    if key == "global":
        x = np.prod(gram, axis=1) ** 2
        *_, sum_ok, quartic_ok = _caves_inequalities(x[:, 0, 1], x[:, 0, 2], x[:, 1, 2],
                                                     BOUNDARY_TOL)
        return sum_ok & quartic_ok
    i, j = np.array(list(permutations(range(3), 2))).T
    x = (gram[..., i[:, None], i] * gram[..., j[:, None], j]) ** 2
    dup = np.any(np.tril(x >= 1.0 - DEFAULT_TOL, k=-1), axis=-1)
    a, b, c = np.moveaxis(np.argsort(dup, axis=-1, kind="stable")[..., :3], -1, 0)
    tilt, party = np.ogrid[:len(thetas), :3]
    *_, sum_ok, quartic_ok = _caves_inequalities(x[tilt, party, a, b], x[tilt, party, a, c],
                                                 x[tilt, party, b, c], BOUNDARY_TOL)
    return np.any(sum_ok & quartic_ok & (np.sum(~dup, axis=-1) == 3), axis=-1)


def _theta4_flag(thetas: np.ndarray, key: str) -> np.ndarray:
    return np.abs(np.cos(2.0 * thetas)) <= THETA_WINDOW


_FAMILIES = {"nl2": (_nl2_flag, ("global", "local"), 0.0, math.pi,
                     lambda f: f["global"] & ~f["local"]),
             "theta4": (_theta4_flag, ("closed_form",), 0.0, math.pi / 2.0,
                        lambda f: f["closed_form"])}


def sweep_theta(family: str, grid) -> SweepResult:
    """Evaluate a tilt family on a sorted grid and refine decision boundaries.

    nl2 tracks the global three-state verdict and the local-part verdict of
    the two-draw task, both read from the Gram matrices of nl2's party
    factors; a local part that collapses below three distinct kets (near
    tilt 0 or pi) reads as local NO.  theta4 tracks the closed-form
    positivity window.  Each flag is evaluated for a whole array of tilts in
    one call per key: once on the grid, once per halving while every
    boundary between differing neighbours of that key is bisected in
    lockstep to width 1e-6, and once on the cell midpoints to report the
    regions where the family's gap flag holds (nl2: global YES with local
    NO) between refined boundaries.  Flags are plain bools, boundaries and
    regions plain floats.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    flag_fn, keys, lo, hi, gap = _FAMILIES[family]
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[0] <= lo or grid[-1] >= hi:
        raise ValueError(f"grid must stay inside ({lo:g}, {hi:g})")

    thetas = np.array(grid)
    flags = {key: flag_fn(thetas, key) for key in keys}
    points = [SweepPoint(t, {key: bool(flags[key][n]) for key in keys})
              for n, t in enumerate(grid)]
    boundaries = []
    for key, f in flags.items():
        edge = np.flatnonzero(f[1:] != f[:-1])
        a, b, va = thetas[edge], thetas[edge + 1], f[edge]
        wide = np.flatnonzero(b - a > 1e-6)
        while wide.size:
            mid = (a[wide] + b[wide]) / 2.0
            same = flag_fn(mid, key) == va[wide]
            a[wide[same]] = mid[same]
            b[wide[~same]] = mid[~same]
            wide = np.flatnonzero(b - a > 1e-6)
        boundaries += ((a + b) / 2.0).tolist()
    boundaries.sort()

    cells = [(a, b) for a, b in zip([grid[0]] + boundaries, boundaries + [grid[-1]])
             if b - a >= 1e-9]
    mids = np.array([(a + b) / 2.0 for a, b in cells])
    in_gap = gap({key: flag_fn(mids, key) for key in keys})
    regions = []
    for (a, b), inside in zip(cells, in_gap):
        if inside:
            if regions and abs(regions[-1][1] - a) < 1e-9:
                regions[-1] = (regions[-1][0], b)
            else:
                regions.append((a, b))
    return SweepResult(family, grid, points, boundaries, regions)
