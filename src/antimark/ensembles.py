"""Ensemble containers, the built-in catalog, sequence ensembles, and the
ensemble file format.

An :class:`Ensemble` is an ordered, labeled list of normalized pure states on
a common party layout.  A product ensemble is given by its per-party factor
kets alone: the constructor builds each state once, as the Kronecker product
of its factors, and giving both states and factors is an error.  The factors
are what local parts and the sequences of a product parent are built from.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .qcore import DEFAULT_TOL, DataError, PartyLayout, canonical_phase, kron

# ---------------------------------------------------------------------------
# single-qubit kets used by the catalog

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)
PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)
IPLUS = np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0)
IMINUS = np.array([1.0, -1.0j], dtype=np.complex128) / np.sqrt(2.0)


def qubit_perp(v: np.ndarray) -> np.ndarray:
    """The state orthogonal to a qubit ket (phase convention: (b*, -a*))."""
    v = np.asarray(v, dtype=np.complex128)
    return np.array([v[1].conj(), -v[0].conj()])


def angle_ket(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)], dtype=np.complex128)


def qutrit_sum(p: int, q: int, sign: int = 1) -> np.ndarray:
    """(|p> + sign |q>)/sqrt(2) on a qutrit."""
    v = np.zeros(3, dtype=np.complex128)
    v[p] = 1.0
    v[q] = float(sign)
    return v / np.sqrt(2.0)


def _kron_all(kets) -> np.ndarray:
    return functools.reduce(kron, kets)


def check_norm(lab, nrm: float) -> float:
    """``nrm``, the norm of state ``lab``; ValueError unless it is 1 within 1e-9."""
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"state {lab} not normalized (|v| = {nrm!r})")
    return nrm


# ---------------------------------------------------------------------------
# containers


@dataclass
class Ensemble:
    """Labeled pure-state ensemble on a fixed party layout, given by its
    states or, for a product ensemble, by its factors alone."""

    name: str
    layout: PartyLayout
    labels: list[str]
    states: list[np.ndarray] | None = None
    factors: dict[str, tuple[np.ndarray, ...]] | None = None

    def __post_init__(self):
        if (self.states is None) == (self.factors is None):
            raise ValueError("give either the states or, for a product ensemble, "
                             "its factors")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")
        if self.factors is not None:
            if set(self.factors) != set(self.labels):
                raise ValueError("a product ensemble needs factors for exactly its labels")
            self.factors = {lab: tuple(np.asarray(f, dtype=np.complex128).reshape(-1)
                                       for f in self.factors[lab]) for lab in self.labels}
            for lab, fs in self.factors.items():
                if tuple(f.size for f in fs) != self.layout.dims:
                    raise ValueError(f"state {lab}: factor sizes != dims {self.layout.dims}")
            self.states = [_kron_all(fs) for fs in self.factors.values()]
        if len(self.labels) != len(self.states):
            raise ValueError("one label per state required")
        if len(self.states) < 2:
            raise ValueError("an ensemble needs at least two states")
        clean = []
        for lab, v in zip(self.labels, self.states):
            v = np.asarray(v, dtype=np.complex128).reshape(-1)
            if v.size != self.layout.dim:
                raise ValueError(f"state {lab}: size {v.size} != layout dim {self.layout.dim}")
            clean.append(v / check_norm(lab, float(np.linalg.norm(v))))
        self.states = clean

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def is_product(self) -> bool:
        return self.factors is not None

    @property
    def is_orthogonal(self) -> bool:
        """Every pair of distinct states overlaps by at most 1e-10 in modulus."""
        vecs = np.array(self.states)
        gram = np.abs(vecs.conj() @ vecs.T)
        return bool(np.all(gram[~np.eye(self.n_states, dtype=bool)] <= 1e-10))

    def state_of(self, label: str) -> np.ndarray:
        return self.states[self.labels.index(label)]


def product_ensemble(name, layout, labels, factor_rows) -> Ensemble:
    """Build a product ensemble from per-state tuples of party factors."""
    return Ensemble(name, layout, list(labels), factors={
        lab: tuple(np.asarray(f, dtype=np.complex128) / np.linalg.norm(f) for f in row)
        for lab, row in zip(labels, factor_rows)})


@dataclass
class SequenceEnsemble(Ensemble):
    """All non-repetitive length-n index sequences of a parent ensemble,
    repartitioned so each party holds its n local factors contiguously."""

    parent: Ensemble | None = None
    n: int = 1
    index_tuples: list[tuple[int, ...]] = field(default_factory=list)


def _party_major(k: int, n: int) -> list[int]:
    """Axis order taking n draws of a k-party layout, held draw by draw, to
    party-major order: each party's n slots together, in draw order."""
    return [s * k + p for p in range(k) for s in range(n)]


def _repartition(parent: Ensemble, tup: tuple[int, ...]) -> np.ndarray:
    """Tensor the chosen parent states draw by draw, then regroup legs party-major."""
    full = _kron_all([parent.states[i] for i in tup])
    return full.reshape(list(parent.layout.dims) * len(tup)).transpose(
        _party_major(parent.layout.n_parties, len(tup))).reshape(-1)


def _sequence_tuples(parent: Ensemble, n: int) -> list[tuple[int, ...]]:
    """The index tuples of the length-n sequence task, after its length and
    size limits."""
    if not 1 <= n <= parent.n_states:
        raise ValueError(f"sequence length must be in 1..{parent.n_states}")
    dim = max(parent.layout.dims) ** n
    if parent.layout.dim ** n > 4096 or dim > 4096:
        raise ValueError("sequence ensemble too large to materialize")
    return list(permutations(range(parent.n_states), n))


def _sequence_label(parent: Ensemble, tup: tuple[int, ...]) -> str:
    return "(" + ",".join(parent.labels[i] for i in tup) + ")"


def _slot_factors(parent: Ensemble, tup: tuple[int, ...], p: int) -> np.ndarray:
    """Party p's factor of a sequence: its n parent factors, tensored in draw order."""
    return _kron_all([parent.factors[parent.labels[i]][p] for i in tup])


def sequence_ensemble(parent: Ensemble, n: int) -> SequenceEnsemble:
    """The ensemble of all N!/(N-n)! non-repetitive index sequences of length n."""
    tuples = _sequence_tuples(parent, n)
    labels = [_sequence_label(parent, tup) for tup in tuples]
    layout = PartyLayout(tuple(d ** n for d in parent.layout.dims), parent.layout.names)
    states = factors = None
    if parent.is_product:
        factors = {lab: tuple(_slot_factors(parent, tup, p)
                              for p in range(parent.layout.n_parties))
                   for lab, tup in zip(labels, tuples)}
    else:
        states = [_repartition(parent, tup) for tup in tuples]
    return SequenceEnsemble(f"{parent.name}^[{n}]", layout, labels, states, factors,
                            parent=parent, n=n, index_tuples=tuples)


def _local_ensemble(name: str, party: str, dim: int, labels, kets) -> Ensemble:
    """One party's local ensemble from its factor kets, in order: each ket in
    its canonical phase, dropping any within DEFAULT_TOL (entrywise) of a kept
    one -- the test of ``same_up_to_phase`` -- so the first label is kept."""
    kept_labels, kept = [], []
    for lab, f in zip(labels, kets):
        v = canonical_phase(f)
        if kept and np.min(np.max(np.abs(np.array(kept) - v), axis=1)) <= DEFAULT_TOL:
            continue
        kept_labels.append(lab)
        kept.append(v)
    if len(kept) < 2:
        raise ValueError(f"local part of party {party} has fewer than 2 distinct states")
    return Ensemble(f"{name}|{party}", PartyLayout((dim,), (party,)), kept_labels, kept)


def _party_index(e: Ensemble, party) -> int:
    return party if isinstance(party, int) else e.layout.index_of(party)


def local_part(e: Ensemble, party) -> Ensemble:
    """The named party's local ensemble of a product ensemble.

    States equal up to a global phase (tolerance 1e-9) are merged; the first
    contributing label is kept.
    """
    if not e.is_product:
        raise ValueError("local_part requires a product ensemble")
    p = _party_index(e, party)
    return _local_ensemble(e.name, e.layout.names[p], e.layout.dims[p], e.labels,
                           (e.factors[lab][p] for lab in e.labels))


def sequence_local_part(parent: Ensemble, n: int, party) -> Ensemble:
    """The named party's local part of the length-n sequence task, built from
    the parent's factors alone.

    Equal to ``local_part(sequence_ensemble(parent, n), party)`` -- labels,
    name, layout and kets -- without materialising the sequence ensemble; the
    same length and size limits raise the same ValueError.  A single draw is
    the parent itself, as in ``LsamTask.sequences``.
    """
    if n == 1:
        return local_part(parent, party)
    tuples = _sequence_tuples(parent, n)
    if not parent.is_product:
        raise ValueError("local_part requires a product ensemble")
    p = _party_index(parent, party)
    return _local_ensemble(f"{parent.name}^[{n}]", parent.layout.names[p],
                           parent.layout.dims[p] ** n,
                           [_sequence_label(parent, tup) for tup in tuples],
                           (_slot_factors(parent, tup, p) for tup in tuples))


def restrict(e: Ensemble, labels) -> Ensemble:
    """Sub-ensemble holding only the given labels, in the given order."""
    labels = list(labels)
    unknown = [lab for lab in labels if lab not in e.labels]
    if unknown:
        raise ValueError(f"labels not in ensemble: {unknown}")
    if len(set(labels)) != len(labels):
        raise ValueError("restriction labels must be distinct")
    name = f"{e.name}|{{{','.join(labels)}}}"
    if e.is_product:
        return Ensemble(name, e.layout, labels, factors={lab: e.factors[lab] for lab in labels})
    return Ensemble(name, e.layout, labels, [e.state_of(lab) for lab in labels])


# ---------------------------------------------------------------------------
# catalog


def weak3() -> Ensemble:
    lay = PartyLayout((2,))
    return product_ensemble("weak3", lay, ["0", "1", "+"], [(KET0,), (KET1,), (PLUS,)])


def trine3() -> Ensemble:
    lay = PartyLayout((2,))
    rows = [(angle_ket(2.0 * math.pi * k / 3.0),) for k in range(3)]
    return product_ensemble("trine3", lay, ["T1", "T2", "T3"], rows)


def bell4() -> Ensemble:
    lay = PartyLayout((2, 2))
    s = 1.0 / np.sqrt(2.0)
    states = {
        "Phi+": np.array([s, 0, 0, s]),
        "Phi-": np.array([s, 0, 0, -s]),
        "Psi+": np.array([0, s, s, 0]),
        "Psi-": np.array([0, s, -s, 0]),
    }
    return Ensemble("bell4", lay, list(states), list(states.values()))


def bennett9() -> Ensemble:
    lay = PartyLayout((3, 3))
    e = [np.eye(3, dtype=np.complex128)[i] for i in range(3)]
    rows = [
        (e[1], e[1]),                      # b1
        (e[0], qutrit_sum(0, 1, +1)),      # b2
        (e[0], qutrit_sum(0, 1, -1)),      # b3
        (e[2], qutrit_sum(1, 2, +1)),      # b4
        (e[2], qutrit_sum(1, 2, -1)),      # b5
        (qutrit_sum(1, 2, +1), e[0]),      # b6
        (qutrit_sum(1, 2, -1), e[0]),      # b7
        (qutrit_sum(0, 1, +1), e[2]),      # b8
        (qutrit_sum(0, 1, -1), e[2]),      # b9
    ]
    return product_ensemble("bennett9", lay, [f"b{i}" for i in range(1, 10)], rows)


def duan4() -> Ensemble:
    lay = PartyLayout((2, 2))
    rows = [(KET0, KET0), (KET1, KET1), (PLUS, PLUS), (IPLUS, IMINUS)]
    return product_ensemble("duan4", lay, ["D1", "D2", "D3", "D4"], rows)


def nl1() -> Ensemble:
    lay = PartyLayout((2, 2))
    rows = [(KET0, PLUS), (PLUS, KET0), (IPLUS, IPLUS)]
    return product_ensemble("nl1", lay, ["0+", "+0", "i+i+"], rows)


def sic_kets() -> list[np.ndarray]:
    kets = [KET0.copy()]
    for j in range(3):
        w = np.exp(2j * np.pi * j / 3.0)
        kets.append(np.array([1.0, np.sqrt(2.0) * w]) / np.sqrt(3.0))
    return kets


def sic4() -> Ensemble:
    lay = PartyLayout((2,))
    return product_ensemble("sic4", lay, [f"s{i}" for i in range(1, 5)],
                            [(v,) for v in sic_kets()])


def double_sic_antiparallel() -> Ensemble:
    lay = PartyLayout((2, 2))
    rows = [(v, qubit_perp(v)) for v in sic_kets()]
    return product_ensemble("double_sic_antiparallel", lay,
                            [f"g{i}" for i in range(1, 5)], rows)


def pbr4() -> Ensemble:
    lay = PartyLayout((2, 2))
    rows = [(KET0, KET0), (KET0, PLUS), (PLUS, KET0), (PLUS, PLUS)]
    return product_ensemble("pbr4", lay, ["00", "0+", "+0", "++"], rows)


def theta4(theta: float) -> Ensemble:
    """Four two-qubit products of cos(t)|0> +- sin(t)|1>, t strictly inside (0, pi/2)."""
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta4 requires 0 < theta < pi/2")
    up = np.array([math.cos(theta), math.sin(theta)], dtype=np.complex128)
    dn = np.array([math.cos(theta), -math.sin(theta)], dtype=np.complex128)
    lay = PartyLayout((2, 2))
    rows = [(up, up), (up, dn), (dn, up), (dn, dn)]
    return product_ensemble("theta4", lay, ["++", "+-", "-+", "--"], rows)


# nl2's states, labelled by their party factors: "0" is |0>, "t" the tilted ket.
NL2_PATTERN = ("000", "0tt", "t0t")


def nl2(theta: float) -> Ensemble:
    """Three tripartite products of |0> and cos(t)|0> + sin(t)|1>."""
    if not 0.0 < theta < math.pi:
        raise ValueError("nl2 requires 0 < theta < pi")
    kets = {"0": KET0, "t": angle_ket(theta)}
    rows = [tuple(kets[c] for c in lab) for lab in NL2_PATTERN]
    return product_ensemble("nl2", PartyLayout((2, 2, 2)), NL2_PATTERN, rows)


def su3() -> Ensemble:
    lay = PartyLayout((2, 2))
    rows = [(KET0, KET0), (KET0, PLUS), (PLUS, KET0)]
    return product_ensemble("su3", lay, ["00", "0+", "+0"], rows)


CATALOG: dict[str, dict] = {
    "weak3": {"build": lambda **kw: weak3(), "dims": (2,), "params": (),
              "blurb": "|0>,|1>,|+>: every two excludable, no strong measurement"},
    "trine3": {"build": lambda **kw: trine3(), "dims": (2,), "params": (),
               "blurb": "equiangular qubit trine, strongly antidistinguishable"},
    "bell4": {"build": lambda **kw: bell4(), "dims": (2, 2), "params": (),
              "blurb": "the four Bell states"},
    "bennett9": {"build": lambda **kw: bennett9(), "dims": (3, 3), "params": (),
                 "blurb": "nine orthogonal two-qutrit product states"},
    "duan4": {"build": lambda **kw: duan4(), "dims": (2, 2), "params": (),
              "blurb": "globally antidistinguishable, locally not"},
    "nl1": {"build": lambda **kw: nl1(), "dims": (2, 2), "params": (),
            "blurb": "three products: global yes, local no, conclusively discriminable"},
    "sic4": {"build": lambda **kw: sic4(), "dims": (2,), "params": (),
             "blurb": "qubit SIC quadruple"},
    "double_sic_antiparallel": {"build": lambda **kw: double_sic_antiparallel(),
                                "dims": (2, 2), "params": (),
                                "blurb": "SIC states paired with their antipodes"},
    "pbr4": {"build": lambda **kw: pbr4(), "dims": (2, 2), "params": (),
             "blurb": "products of |0>,|+>: global yes, local no; two draws local yes"},
    "theta4": {"build": lambda theta, **kw: theta4(theta), "dims": (2, 2),
               "params": ("theta",),
               "blurb": "products of cos(t)|0> +- sin(t)|1>"},
    "nl2": {"build": lambda theta, **kw: nl2(theta), "dims": (2, 2, 2),
            "params": ("theta",),
            "blurb": "tripartite family with a global-yes/local-no window"},
    "su3": {"build": lambda **kw: su3(), "dims": (2, 2), "params": (),
            "blurb": "|00>,|0+>,|+0>: antimarking activated by two copies"},
}


def catalog() -> dict[str, dict]:
    return CATALOG


def build_catalog(name: str, **params) -> Ensemble:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog ensemble {name!r}")
    entry = CATALOG[name]
    missing = [p for p in entry["params"] if p not in params]
    if missing:
        raise ValueError(f"{name} requires parameter(s): {', '.join(missing)}")
    return entry["build"](**params)


# ---------------------------------------------------------------------------
# ensemble file format


def _parse_complex_list(raw, what: str) -> np.ndarray:
    try:
        vals = [complex(float(re), float(im)) for re, im in raw]
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: entries must be [re, im] pairs") from exc
    return np.array(vals, dtype=np.complex128)


def _normalized(v: np.ndarray, what: str) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-6:
        raise DataError(f"{what}: norm {nrm!r} deviates from 1 by more than 1e-6")
    return v / nrm


def parse_ensemble(text: str) -> Ensemble:
    """Parse the ensemble file format (JSON).

    Expected shape::

        {"name": str, "dims": [int, ...],
         "states": [{"label": str, "amplitudes": [[re, im], ...]}
                    | {"label": str, "factors": [[[re, im], ...], ...]}, ...]}
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"ensemble file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("ensemble file must be a JSON object")
    for key in ("name", "dims", "states"):
        if key not in doc:
            raise DataError(f"ensemble file missing key {key!r}")
    try:
        layout = PartyLayout(tuple(int(d) for d in doc["dims"]))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad dims: {exc}") from exc
    if not isinstance(doc["states"], list) or len(doc["states"]) < 2:
        raise DataError("states must be a list of at least two entries")

    labels, amplitudes, factors = [], {}, {}
    for i, entry in enumerate(doc["states"]):
        if not isinstance(entry, dict) or "label" not in entry:
            raise DataError(f"state #{i}: missing label")
        lab = str(entry["label"])
        if "amplitudes" in entry:
            v = _parse_complex_list(entry["amplitudes"], f"state {lab}")
            if v.size != layout.dim:
                raise DataError(f"state {lab}: expected {layout.dim} amplitudes, got {v.size}")
            amplitudes[lab] = _normalized(v, f"state {lab}")
        elif "factors" in entry:
            raw = entry["factors"]
            if not isinstance(raw, list) or len(raw) != layout.n_parties:
                raise DataError(f"state {lab}: expected {layout.n_parties} factors")
            fs = []
            for p, fraw in enumerate(raw):
                f = _parse_complex_list(fraw, f"state {lab} factor {p}")
                if f.size != layout.dims[p]:
                    raise DataError(f"state {lab} factor {p}: wrong dimension")
                fs.append(_normalized(f, f"state {lab} factor {p}"))
            factors[lab] = tuple(fs)
        else:
            raise DataError(f"state {lab}: needs either amplitudes or factors")
        labels.append(lab)
    if len(set(labels)) != len(labels):
        raise DataError("state labels must be distinct")
    try:
        if not amplitudes:
            return Ensemble(str(doc["name"]), layout, labels, factors=factors)
        return Ensemble(str(doc["name"]), layout, labels,
                        [amplitudes[lab] if lab in amplitudes else _kron_all(factors[lab])
                         for lab in labels])
    except ValueError as exc:
        raise DataError(str(exc)) from exc
