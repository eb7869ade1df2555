"""Sequence tasks: scaling, verdicts, lifted operators, tilted measurements."""

import dataclasses
import json
import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from antimark import lsam
from antimark.ensembles import (Ensemble, bell4, bennett9, duan4, local_part, nl1, nl2,
                                pbr4, product_ensemble, sequence_ensemble, su3, theta4)
from antimark.exclusion import (Povm, Verdict, caves_criterion, decide_antidist,
                                exclusion_counts, verify_no_witness, verify_strong)
from antimark.locc import LoccProtocol, flatten_protocol
from antimark.lsam import (LsamTask, check_lsam, lift_first_slot, lsam_scaling,
                           pbr_sequence_measurement, sweep_theta,
                           theta_global_measurement, theta_sequence_protocol,
                           verify_sequence_elimination)
from antimark.qcore import PartyLayout

THETA_LO = 0.5 * math.acos(math.sqrt(2.0) - 1.0)
THETA_HI = math.pi / 2.0 - THETA_LO


# ---------------------------------------------------------------------------
# task plumbing and the counting formula


def test_task_validation():
    e = su3()
    with pytest.raises(ValueError):
        LsamTask(e, 0)
    with pytest.raises(ValueError):
        LsamTask(e, 4)
    with pytest.raises(ValueError):
        LsamTask(e, 2, 0)
    with pytest.raises(ValueError):
        LsamTask(e, 2, 6)  # at most perm(3,2) - 1 = 5 claims
    assert LsamTask(e, 1).sequences() is e


def test_lsam_scaling_formula():
    assert lsam_scaling(3, 1, 1, 2) == 2
    assert lsam_scaling(4, 1, 1, 2) == 3
    assert lsam_scaling(9, 1, 3, 2) == 24
    assert lsam_scaling(5, 2, 4, 2) == 4  # n == n_prime is the identity
    with pytest.raises(ValueError):
        lsam_scaling(3, 2, 1, 1)
    with pytest.raises(ValueError):
        lsam_scaling(3, 1, 0, 2)


def test_lsam_scaling_matches_brute_force_counting():
    """m * (N-n)!/(N-n') counts the longer sequences with a fixed prefix."""
    for big_n, n, n_prime in ((3, 1, 2), (4, 1, 2), (4, 2, 3), (5, 1, 3)):
        seqs = list(permutations(range(big_n), n_prime))
        prefix = tuple(range(n))
        extended = sum(1 for s in seqs if s[:n] == prefix)
        assert lsam_scaling(big_n, n, 1, n_prime) == extended


# ---------------------------------------------------------------------------
# single-claim verdicts through the local parts


def test_check_lsam_verdicts():
    assert check_lsam(su3(), 2, 1).decision == "NO"
    assert check_lsam(nl1(), 2, 1).decision == "YES"
    assert check_lsam(duan4(), 2, 1).decision == "YES"
    assert check_lsam(pbr4(), 1, 1).decision == "NO"


def test_check_lsam_reports_parts_by_party():
    v = check_lsam(su3(), 2, 1)
    assert set(v.parts) == {"A", "B"}
    assert all(sub.decision == "NO" for sub in v.parts.values())
    doc = v.to_dict()
    assert set(doc["parts"]) == {"A", "B"}


def test_check_lsam_rejects_unsupported_tasks():
    with pytest.raises(ValueError):
        check_lsam(su3(), 2, 2)  # no criterion for m > 1
    with pytest.raises(ValueError):
        check_lsam(bell4(), 2, 1)  # not a product parent
    with pytest.raises(ValueError):
        check_lsam(LsamTask(su3(), 2, 1), 2, 1)  # n alongside a task


def entangled_pair() -> Ensemble:
    """|00> and (|00> + |11>)/sqrt 2: entangled and not orthogonal."""
    s = 2.0 ** -0.5
    return Ensemble("pair", PartyLayout((2, 2)), ["a", "b"],
                    [np.array([1, 0, 0, 0]), np.array([s, 0, 0, s])])


def test_a_single_draw_of_orthogonal_states_gets_a_verified_pairwise_protocol():
    for e in (bell4(), bennett9()):
        v = check_lsam(e, 1, 1)
        assert (v.decision, v.method, v.parts) == ("YES", "pairwise_walgate", None)


def test_three_party_orthogonal_states_take_the_other_routes():
    """The pairwise protocol is two-party: three-party orthogonal product
    states go to their local parts, whose YES is sound on its own."""
    zero, one = np.eye(2)
    e = product_ensemble("p3", PartyLayout((2, 2, 2)), ["a", "b", "c"],
                         [(zero, zero, zero), (one, one, one), (zero, one, zero)])
    assert e.is_orthogonal
    v = check_lsam(e, 1, 1)
    assert (v.decision, v.method) == ("YES", "local_part_criterion")
    assert v.parts["A"].decision == "YES"


def test_a_failing_pairwise_protocol_raises(monkeypatch):
    class Failed:
        passed = False
        failures = ["outcome (0, 0) claims 'Phi+' but sees probability 5.000e-01"]

    monkeypatch.setattr(lsam, "verify_local_protocol", lambda e, p, tol: Failed())
    with pytest.raises(RuntimeError, match="pairwise protocol failed verification"):
        check_lsam(bell4(), 1, 1)


def test_a_single_draw_of_entangled_states_keeps_only_a_global_no(monkeypatch):
    """A local protocol is one global measurement, so the global NO, with
    its witness, is the local NO; a global YES says nothing locally."""
    e = entangled_pair()
    v = check_lsam(e, 1, 1)
    assert (v.decision, v.method) == ("NO", "qubit_lp")
    assert v.detail.startswith("global NO: ")
    assert v.margins == [verify_no_witness(e, v.witness)] and v.margins[0] > 0
    monkeypatch.setattr(lsam, "decide_antidist",
                        lambda e, tol, seed: Verdict("YES", "qubit_lp"))
    v = check_lsam(e, 1, 1)
    assert (v.decision, v.method, v.parts) == ("UNKNOWN", "exhausted", None)
    assert v.detail.endswith("(global decision YES)")


def test_check_lsam_is_unknown_when_a_part_is_open_and_none_is_yes(monkeypatch):
    answers = iter([Verdict("NO", "caves"), Verdict("UNKNOWN", "exhausted")])
    monkeypatch.setattr(lsam, "decide_antidist", lambda e, tol, seed: next(answers))
    v = check_lsam(su3(), 2, 1)
    assert (v.decision, v.method) == ("UNKNOWN", "local_part_criterion")
    assert {k: sub.decision for k, sub in v.parts.items()} == {"A": "NO", "B": "UNKNOWN"}
    assert v.detail == "undecided local parts: B"


LSAM_PARENTS = {"su3": su3, "pbr4": pbr4, "duan4": duan4, "nl1": nl1,
                "nl2(1.0)": lambda: nl2(1.0), "theta4(0.9)": lambda: theta4(0.9)}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(LSAM_PARENTS))
def test_check_lsam_agrees_with_the_materialised_local_parts(name, n):
    parent = LSAM_PARENTS[name]()
    seq = LsamTask(parent, n).sequences()
    want = {seq.layout.names[p]: decide_antidist(local_part(seq, p))
            for p in range(seq.layout.n_parties)}
    v = check_lsam(parent, n, 1)
    assert v.method == "local_part_criterion"
    decisions = [sub.decision for sub in want.values()]
    expected = ("YES" if "YES" in decisions
                else "NO" if all(d == "NO" for d in decisions) else "UNKNOWN")
    assert v.decision == expected
    assert {k: (sub.decision, sub.method) for k, sub in v.parts.items()} == \
        {k: (sub.decision, sub.method) for k, sub in want.items()}
    for p, party in enumerate(seq.layout.names):
        if v.parts[party].decision == "YES":
            assert verify_strong(local_part(seq, p), v.parts[party].certificate).passed


def test_check_lsam_keeps_the_sequence_size_limit():
    with pytest.raises(ValueError, match="too large to materialize"):
        check_lsam(bennett9(), 4, 1)


# ---------------------------------------------------------------------------
# explicit elimination counting


def test_verify_sequence_elimination_counts_claims_and_numerics():
    proto = theta_sequence_protocol(0.9)
    task = LsamTask(theta4(0.9), 2, 8)
    assert verify_sequence_elimination(task, proto) == 8
    unmapped = dataclasses.replace(proto, exclusion_map=None)
    assert verify_sequence_elimination(task, unmapped) == 8


def test_verify_sequence_elimination_counts_a_bare_povm():
    """A global certificate passed as a Povm is counted from its elements,
    as exclusion_counts counts it; a Povm on another space, or an object
    that is neither a Povm nor a protocol, raises ValueError."""
    task = LsamTask(pbr4(), 2)
    seq = task.sequences()
    cert = decide_antidist(seq).certificate
    assert verify_sequence_elimination(task, cert) == exclusion_counts(seq, cert).min_exclusions
    with pytest.raises(ValueError, match="does not act on the sequence space"):
        verify_sequence_elimination(task, pbr_sequence_measurement())
    with pytest.raises(ValueError, match="expected a Povm or a LoccProtocol"):
        verify_sequence_elimination(task, list(cert.elements))


def test_verify_sequence_elimination_rejects_false_claims():
    proto = theta_sequence_protocol(0.9)
    task = LsamTask(theta4(0.9), 2, 8)
    seq = task.sequences()
    lying = {k: (seq.labels[0],) for k in proto.exclusion_map}
    bad = dataclasses.replace(proto, exclusion_map=lying)
    with pytest.raises(ValueError):
        verify_sequence_elimination(task, bad)


def test_verify_sequence_elimination_rejects_incomplete_and_stale_maps():
    """A reachable outcome missing from the map, or a map key naming no
    outcome, is a malformed protocol rather than a count."""
    proto = theta_sequence_protocol(0.9)
    task = LsamTask(theta4(0.9), 2, 8)
    missing = dict(proto.exclusion_map)
    del missing[(0, 0)]
    stale = dict(proto.exclusion_map)
    stale[(6, 6)] = ()
    for emap in (missing, stale):
        with pytest.raises(ValueError):
            verify_sequence_elimination(task, dataclasses.replace(proto, exclusion_map=emap))


def test_verify_sequence_elimination_checks_the_measurement_at_tol():
    """Party elements scaled by 1 + 2e-9 miss completeness at tol = 1e-10,
    with the exclusion map and without it."""
    proto = theta_sequence_protocol(0.9)
    task = LsamTask(theta4(0.9), 2, 8)
    scaled = dataclasses.replace(
        proto, party_povms=[[(1 + 2e-9) * m for m in povm] for povm in proto.party_povms])
    for bad in (scaled, dataclasses.replace(scaled, exclusion_map=None)):
        with pytest.raises(ValueError):
            verify_sequence_elimination(task, bad, tol=1e-10)


def test_verify_sequence_elimination_rejects_non_measurements():
    """Claims count only on a real measurement: keeping one outcome per party
    (which would count 9) or doubling every element is refused."""
    proto = theta_sequence_protocol(0.9)
    task = LsamTask(theta4(0.9), 2, 8)
    first = proto.party_povms[0][0]
    truncated = dataclasses.replace(
        proto, party_povms=[[first], [first.copy()]],
        exclusion_map={(0, 0): proto.exclusion_map[(0, 0)]})
    doubled = dataclasses.replace(
        proto, party_povms=[[2 * m for m in povm] for povm in proto.party_povms])
    for bad in (truncated, doubled):
        with pytest.raises(ValueError):
            verify_sequence_elimination(task, bad)


def test_verify_sequence_elimination_checks_layout():
    task = LsamTask(su3(), 2, 1)
    with pytest.raises(ValueError):
        verify_sequence_elimination(task, pbr_sequence_measurement())


# ---------------------------------------------------------------------------
# lifting one-draw operators


def test_lift_first_slot_identity_and_shapes():
    e = su3()
    lifted = lift_first_slot(np.eye(4), e.layout, 2)
    np.testing.assert_allclose(lifted, np.eye(16), atol=1e-12)
    with pytest.raises(ValueError):
        lift_first_slot(np.eye(3), e.layout, 2)
    with pytest.raises(ValueError):
        lift_first_slot(np.eye(4), e.layout, 0)


def test_lift_first_slot_acts_on_first_draw():
    e = su3()
    seq = sequence_ensemble(e, 2)
    proj = np.outer(e.states[0], e.states[0].conj())
    lifted = lift_first_slot(proj, e.layout, 2)
    for lab, tup in zip(seq.labels, seq.index_tuples):
        s = seq.state_of(lab)
        got = float(np.vdot(s, lifted @ s).real)
        want = abs(np.vdot(e.states[0], e.states[tup[0]])) ** 2
        assert got == pytest.approx(want, abs=1e-12)


def lifted_kill_count(e, proj):
    lifted = lift_first_slot(proj, e.layout, 2)
    seq = sequence_ensemble(e, 2)
    povm = Povm(seq.layout, [lifted, np.eye(seq.layout.dim) - lifted])
    rows = exclusion_counts(seq, povm).outcomes
    return len(next(r for r in rows if r.index == 0).excluded)


def test_lifted_excluders_match_the_scaling_lemma():
    e = nl1()
    v = e.states[1] - e.states[0] * np.vdot(e.states[0], e.states[1])
    v /= np.linalg.norm(v)
    assert lifted_kill_count(e, np.outer(v, v.conj())) == lsam_scaling(3, 1, 1, 2)

    e = pbr4()
    xi1 = np.zeros(4, dtype=np.complex128)
    xi1[1] = xi1[2] = 1.0 / math.sqrt(2.0)
    assert lifted_kill_count(e, np.outer(xi1, xi1.conj())) == lsam_scaling(4, 1, 1, 2)


# ---------------------------------------------------------------------------
# the entangled pair readout


def test_pbr_measurement_is_an_orthonormal_basis():
    meas = pbr_sequence_measurement()
    vecs = []
    for el in meas.elements:
        w, v = np.linalg.eigh(el)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        vecs.append(v[:, -1])
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_pbr_two_sided_eliminations():
    seq = sequence_ensemble(pbr4(), 2)
    meas = pbr_sequence_measurement()
    proto = LoccProtocol("one_round_product", seq.layout,
                         party_povms=[list(meas.elements),
                                      [m.copy() for m in meas.elements]])
    task = LsamTask(pbr4(), 2, 3)
    assert verify_sequence_elimination(task, proto) >= 3
    flat = flatten_protocol(proto)
    povm = Povm(seq.layout, [f.element for f in flat])
    rows = exclusion_counts(seq, povm).outcomes
    dist = Counter(len(r.excluded) for r in rows)
    assert dist == {4: 4, 5: 8, 7: 4}


# ---------------------------------------------------------------------------
# the tilted six-outcome family


def pair_exclusion_residual(meas, theta):
    e = theta4(theta)
    states = dict(zip(e.labels, e.states))
    worst = 0.0
    for el, pair in zip(meas.povm.elements, meas.pair_map):
        for pat in pair:
            s = states[pat]
            worst = max(worst, abs(float(np.vdot(s, el @ s).real)))
    return worst


@pytest.mark.parametrize("theta", [0.8, 0.9, math.pi / 4, 0.98,
                                   THETA_LO + 1e-6, THETA_HI - 1e-6])
def test_theta_closed_forms_inside_the_window(theta):
    meas = theta_global_measurement(theta)
    assert not meas.synthesized
    comp = np.max(np.abs(sum(meas.povm.elements) - np.eye(4)))
    assert comp <= 1e-8
    assert pair_exclusion_residual(meas, theta) <= 1e-9
    mineig = min(np.linalg.eigvalsh(el).min() for el in meas.povm.elements)
    assert mineig >= -1e-10


def test_theta_measurement_rejects_out_of_range_tilts():
    with pytest.raises(ValueError):
        theta_global_measurement(0.2)  # cos 2t too large
    with pytest.raises(ValueError):
        theta_global_measurement(0.0)
    with pytest.raises(ValueError):
        theta_global_measurement(math.pi / 2)


def test_theta_synthesized_fallback_carries_flag():
    meas = theta_global_measurement(0.9, synthesize=True)
    assert meas.synthesized
    comp = np.max(np.abs(sum(meas.povm.elements) - np.eye(4)))
    assert comp <= 1e-8
    assert pair_exclusion_residual(meas, 0.9) <= 1e-9


def test_theta_sequence_protocol_reaches_eight():
    for synthesize in (False, True):
        proto = theta_sequence_protocol(0.9, synthesize=synthesize)
        task = LsamTask(theta4(0.9), 2, 8)
        assert verify_sequence_elimination(task, proto) == 8


def test_theta_beyond_positivity_window_fails_honestly():
    """Past the positivity window no pair-map measurement exists at all."""
    with pytest.raises(RuntimeError):
        theta_global_measurement(1.0)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_theta4_boundaries_match_closed_form():
    grid = [0.45 + 0.05 * k for k in range(13)]
    res = sweep_theta("theta4", grid)
    assert len(res.boundaries) == 2
    assert abs(res.boundaries[0] - THETA_LO) <= 1e-6
    assert abs(res.boundaries[1] - THETA_HI) <= 1e-6
    assert len(res.regions) == 1


def reference_nl2_flags(theta, keys):
    """Reference: both flags at every call, read off the materialised
    two-draw sequence ensemble."""
    e = nl2(theta)
    flags = {"global": caves_criterion(e.states).passed}
    seq = sequence_ensemble(e, 2)
    local = False
    for p in range(3):
        part = local_part(seq, p)
        if part.n_states == 3 and caves_criterion(part.states).passed:
            local = True
            break
    flags["local"] = local
    return flags


def reference_nl2_flag(thetas, key):
    """The reference at each tilt, in the array signature of the sweep's flags."""
    return np.array([reference_nl2_flags(t, (key,))[key] for t in thetas], dtype=bool)


@pytest.mark.parametrize("grid", [
    [float(t) for t in np.linspace(0.1, 3.0, 60)],
    [k * math.pi / 400.0 for k in range(1, 400)],
], ids=["benchmark", "criterion-10"])
def test_sweep_nl2_matches_the_full_flag_evaluation(grid, monkeypatch):
    fast = sweep_theta("nl2", grid)
    entry = lsam._FAMILIES["nl2"]
    monkeypatch.setitem(lsam._FAMILIES, "nl2", (reference_nl2_flag,) + entry[1:])
    slow = sweep_theta("nl2", grid)
    assert [(p.theta, p.flags) for p in fast.points] == \
        [(p.theta, p.flags) for p in slow.points]
    assert fast.boundaries == slow.boundaries
    assert fast.regions == slow.regions


def test_nl2_array_flags_match_the_reference_tilt_by_tilt():
    thetas = np.linspace(1e-6, math.pi - 1e-6, 2001)
    slow = [reference_nl2_flags(t, ("global", "local")) for t in thetas]
    for key in ("global", "local"):
        fast = lsam._nl2_flag(thetas, key)
        assert fast.tolist() == [f[key] for f in slow], key


def test_theta4_array_flag_matches_the_window_tilt_by_tilt():
    thetas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, 2001)
    fast = lsam._theta4_flag(thetas, "closed_form")
    assert fast.tolist() == [abs(math.cos(2.0 * t)) <= lsam.THETA_WINDOW for t in thetas]


@pytest.mark.parametrize("grid", [[1e-12, 0.5], [0.5, math.pi - 1e-12]],
                         ids=["near-zero", "near-pi"])
def test_sweep_nl2_reads_a_collapsed_local_part_as_no(grid):
    """At a tilt within 1e-9 of 0 or pi every sequence ket of a party is
    the same up to phase, so the local part is not local (nor is the triple
    globally antidistinguishable); the sweep still runs."""
    res = sweep_theta("nl2", grid)
    assert [p.flags for p in res.points] == [{"global": False, "local": False}] * 2
    assert res.boundaries == []
    assert res.regions == []


@pytest.mark.parametrize("family, grid", [
    ("nl2", [float(t) for t in np.linspace(0.1, 3.0, 60)]),
    ("theta4", [0.45 + 0.05 * k for k in range(13)]),
])
def test_sweep_result_holds_plain_python_values(family, grid):
    res = sweep_theta(family, grid)
    assert res.boundaries and res.regions
    assert all(type(v) is bool for p in res.points for v in p.flags.values())
    assert all(type(p.theta) is float for p in res.points)
    assert all(type(b) is float for b in res.boundaries)
    assert all(type(x) is float for r in res.regions for x in r)
    json.dumps(dataclasses.asdict(res))


def test_sweep_validates_input():
    with pytest.raises(ValueError):
        sweep_theta("nope", [0.5, 0.6])
    with pytest.raises(ValueError):
        sweep_theta("theta4", [])
    with pytest.raises(ValueError):
        sweep_theta("theta4", [0.6, 0.5])
    with pytest.raises(ValueError):
        sweep_theta("theta4", [0.5, math.pi])  # outside the open domain
