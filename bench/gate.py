"""Correctness gate: every output is compared with the committed reference
table and every certificate is checked twice, by the package's own checker
and by the plain-numpy checks below, which share no code with the package.

An UNKNOWN in the reference may become YES (its certificate must verify) or
NO (from an exact criterion, or with a witness that passes ``witness_margin``).
Any other change of decision or method is a failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
from itertools import product

import numpy as np

from antimark import ensembles, exclusion

CHECK_TOL = 1e-8          # the search's own verification tolerance
BOUNDARY_TOL = 1e-6       # sweep boundaries are bisected to this width
EXACT_NO = ("caves", "qubit_lp")
NL2_BOUNDARIES = (math.pi / 4.0, math.acos(1.0 / math.sqrt(3.0)),
                  math.pi - math.acos(1.0 / math.sqrt(3.0)), 3.0 * math.pi / 4.0)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@functools.lru_cache(maxsize=1)
def reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# plain-numpy checks


def probabilities(elements, states) -> np.ndarray:
    """P[j, s] = <psi_s| E_j |psi_s> for Hermitian parts of the elements."""
    e = np.asarray(elements, dtype=np.complex128)
    h = (e + np.conj(np.swapaxes(e, 1, 2))) / 2
    psi = np.asarray(states, dtype=np.complex128)
    return np.einsum("sa,jab,sb->js", psi.conj(), h, psi).real


def povm_problems(elements, tol: float = CHECK_TOL) -> list[str]:
    e = np.asarray(elements, dtype=np.complex128)
    if e.ndim != 3 or e.shape[1] != e.shape[2]:
        return [f"elements have shape {e.shape}"]
    problems = []
    herm = float(np.max(np.abs(e - np.conj(np.swapaxes(e, 1, 2)))))
    if herm > tol:
        problems.append(f"hermiticity residual {herm:.3e}")
    h = (e + np.conj(np.swapaxes(e, 1, 2))) / 2
    mineig = float(np.min(np.linalg.eigvalsh(h)))
    if mineig < -tol:
        problems.append(f"minimum eigenvalue {mineig:.3e}")
    comp = float(np.max(np.abs(h.sum(axis=0) - np.eye(e.shape[1]))))
    if comp > tol:
        problems.append(f"completeness residual {comp:.3e}")
    return problems


def exclusion_problems(states, labels, elements, element_labels,
                       tol: float = CHECK_TOL) -> list[str]:
    """A labelled POVM strongly excludes every state: it is a POVM, each
    labelled element annihilates its state, and each state has a dedicated
    element that fires."""
    problems = povm_problems(elements, tol)
    if problems:
        return problems
    p = probabilities(elements, states)
    index = {lab: s for s, lab in enumerate(labels)}
    for j, lab in enumerate(element_labels):
        if lab is None:
            continue
        if lab not in index:
            problems.append(f"element {j} names unknown state {lab!r}")
        elif p[j, index[lab]] > tol:
            problems.append(f"element {j} fires on {lab!r}: {p[j, index[lab]]:.3e}")
    for lab in labels:
        mine = [j for j, x in enumerate(element_labels) if x == lab]
        if not any(p[j].sum() > tol for j in mine):
            problems.append(f"no firing element excludes {lab!r}")
    return problems


def witness_margin(states, y) -> float:
    """Tr Y - dim * max_j lambda_max(Y - rho_j)_+; positive certifies that no
    POVM excludes every state (the dual of conclusive exclusion)."""
    y = np.asarray(y, dtype=np.complex128)
    y = (y + y.conj().T) / 2
    delta = 0.0
    for s in states:
        s = np.asarray(s, dtype=np.complex128)
        delta = max(delta, float(np.linalg.eigvalsh(y - np.outer(s, s.conj()))[-1]))
    return float(np.trace(y).real) - y.shape[0] * delta


def flatten(proto) -> list[tuple[tuple[int, ...], np.ndarray, tuple | None]]:
    """Global elements of a local protocol with their claims."""
    emap = proto.exclusion_map
    if proto.kind == "one_round_product":
        out = []
        for idx in product(*(range(len(p)) for p in proto.party_povms)):
            el = functools.reduce(np.kron, [proto.party_povms[q][i] for q, i in enumerate(idx)])
            out.append((idx, el, None if emap is None else emap.get(idx)))
        return out
    if proto.kind == "two_round_sequential":
        return [((i, j), np.kron(first, resp),
                 None if emap is None else emap.get((i, j)))
                for i, first in enumerate(proto.first_povm)
                for j, resp in enumerate(proto.responses[i])]
    return [((c,) + idx, w * el, claims)
            for c, (w, comp) in enumerate(proto.mixture)
            for idx, el, claims in flatten(comp)]


def protocol_problems(e, proto, tol: float = CHECK_TOL) -> list[str]:
    flat = flatten(proto)
    problems = povm_problems([el for _, el, _ in flat], tol)
    if problems:
        return problems
    p = probabilities([el for _, el, _ in flat], e.states)
    index = {lab: s for s, lab in enumerate(e.labels)}
    excluded = set()
    for (idx, _, claims), row in zip(flat, p):
        reachable = row.mean() > tol
        if claims is None:
            if reachable:
                problems.append(f"reachable outcome {idx} has no claims")
            continue
        for lab in claims:
            if lab not in index or row[index[lab]] > tol:
                problems.append(f"outcome {idx} wrongly claims {lab!r}")
        if reachable:
            excluded.update(claims)
    missing = [lab for lab in e.labels if lab not in excluded]
    if missing:
        problems.append(f"never excluded: {missing}")
    return problems


def guaranteed_eliminations(seq, proto, tol: float = CHECK_TOL) -> int:
    """Minimum over reachable outcomes of the sequences each rules out."""
    flat = flatten(proto)
    p = probabilities([el for _, el, _ in flat], seq.states)
    index = {lab: s for s, lab in enumerate(seq.labels)}
    counts = []
    for (_, _, claims), row in zip(flat, p):
        if row.sum() <= tol:
            continue
        if claims is None:
            counts.append(int(np.sum(row <= tol)))
        elif all(row[index[lab]] <= tol for lab in claims):
            counts.append(len(set(claims)))
        else:
            return -1
    return min(counts) if counts else -1


def identified(e, party_povms, tol: float = CHECK_TOL) -> list[str]:
    """States that some reachable joint outcome leaves as the only candidate."""
    els = [functools.reduce(np.kron, [party_povms[q][i] for q, i in enumerate(idx)])
           for idx in product(*(range(len(p)) for p in party_povms))]
    p = probabilities(els, e.states)
    hit = set()
    for row in p:
        support = np.flatnonzero(row > tol)
        if row.mean() > tol and support.size == 1:
            hit.add(e.labels[support[0]])
    return sorted(hit)


# ---------------------------------------------------------------------------
# the gate


def _certificate_problems(e, cert) -> list[str]:
    if cert is None:
        return ["YES without a certificate"]
    try:
        passed = exclusion.verify_strong(e, cert, tol=CHECK_TOL).passed
    except ValueError as exc:
        return [f"verify_strong: {exc}"]
    if not passed:
        return ["verify_strong rejects the certificate"]
    return exclusion_problems(e.states, e.labels, cert.elements, cert.labels)


def check_verdict(ref: dict, v, e) -> tuple[list[str], bool]:
    """Problems with a decide_antidist verdict, and whether it is decided."""
    if v.decision == ref["decision"] and v.method == ref["method"]:
        if v.decision == "YES":
            return _certificate_problems(e, v.certificate), True
        return [], v.decision == "NO"
    if ref["decision"] == "UNKNOWN" and v.decision == "YES":
        return _certificate_problems(e, v.certificate), True
    if ref["decision"] == "UNKNOWN" and v.decision == "NO":
        if v.method in EXACT_NO:
            return [], True
        y = getattr(v, "witness", None)
        if y is not None and witness_margin(e.states, y) > CHECK_TOL:
            return [], True
        return [f"NO by {v.method} without a passing witness"], False
    return [f"{v.decision}/{v.method}, reference {ref['decision']}/{ref['method']}"], False


def _check_lsam(ref: dict, v, seq) -> tuple[list[str], bool]:
    if (v.decision, v.method) != (ref["decision"], ref["method"]):
        return [f"{v.decision}/{v.method}, reference {ref['decision']}/{ref['method']}"], False
    got = {name: sub.decision for name, sub in (v.parts or {}).items()}
    if got != ref["parts"]:
        return [f"party verdicts {got}, reference {ref['parts']}"], False
    problems = []
    for p, name in enumerate(seq.layout.names):
        if got[name] == "YES":
            problems += _certificate_problems(ensembles.local_part(seq, p),
                                              v.parts[name].certificate)
    return problems, v.decision in ("YES", "NO")


def _check_sweep(ref: dict, boundaries, regions) -> list[str]:
    problems = []
    for what, got in (("boundaries", boundaries), ("regions", regions)):
        got = np.asarray(got, dtype=float)
        want = np.asarray(ref[what], dtype=float)
        if got.shape != want.shape or np.max(np.abs(got - want), initial=0.0) > BOUNDARY_TOL:
            problems.append(f"{what} {got.tolist()} differ from the reference")
    for b in NL2_BOUNDARIES:
        if min((abs(x - b) for x in boundaries), default=math.inf) > BOUNDARY_TOL:
            problems.append(f"no boundary within {BOUNDARY_TOL} of {b!r}")
    return problems


def check(workload: str, inst, out) -> tuple[list[str], bool]:
    """Problems with one instance's output (empty when it passes), and
    whether it counts as a certified answer."""
    ref = reference()[workload][inst.key]
    if inst.kind == "decide":
        return check_verdict(ref, out, inst.subject)
    if inst.kind == "lsam":
        return _check_lsam(ref, out, inst.subject)
    if inst.kind == "sweep":
        return _check_sweep(ref, out.boundaries, out.regions), True
    if inst.kind == "protocol":
        proto, report = out
        problems = [] if report.passed else ["verify_local_protocol rejects the protocol"]
        return problems + protocol_problems(inst.subject, proto), True
    if inst.kind == "elimination":
        proto, count = out
        problems = []
        if count != ref["count"]:
            problems.append(f"the package counts {count}, reference {ref['count']}")
        mine = guaranteed_eliminations(inst.subject, proto)
        if mine != ref["count"]:
            problems.append(f"independent count {mine}, reference {ref['count']}")
        return problems + povm_problems([el for _, el, _ in flatten(proto)]), True
    if inst.kind == "identify":
        povms, report = out
        problems = [] if report.passed else ["verify_conclusive_identification fails"]
        if identified(inst.subject, povms) != ref["identified"]:
            problems.append("independent identification differs from the reference")
        return problems, True
    raise ValueError(f"unknown instance kind {inst.kind!r}")


def check_cli(workload: str, key: str, subject, code: int, stdout: str) -> list[str]:
    """Problems with the CLI's JSON report of the workload's command."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"CLI printed no JSON (exit {code})"]
    ref = reference()[workload][key]
    if doc.get("command") == "sweep":
        return (_check_sweep(ref, doc["boundaries"], doc["regions"])
                + ([] if code == 0 else [f"exit {code}"]))
    v = doc["verdict"]
    expected_code = {"YES": 0, "NO": 1}.get(ref["decision"], 2)
    if (v["decision"], v["method"], code) != (ref["decision"], ref["method"], expected_code):
        return [f"CLI says {v['decision']}/{v['method']} (exit {code})"]
    if v["decision"] != "YES":
        return []
    cert = v["certificate"]
    els = [[[complex(re, im) for re, im in row] for row in m] for m in cert["elements"]]
    return exclusion_problems(subject.states, subject.labels, els, cert["labels"])

