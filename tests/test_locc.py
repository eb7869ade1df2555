"""Local protocols: Walgate splitting, worked tables, generation, files."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimark.ensembles import (Ensemble, bell4, bennett9,
                                double_sic_antiparallel, duan4, nl1, nl2,
                                product_ensemble, sequence_ensemble)
from antimark import locc
from antimark.locc import (LoccProtocol, _rotation_phase,
                           bell_exclusion_protocol, bennett_exclusion_protocol,
                           build_pairwise_lad_protocol,
                           double_sic_exclusion_protocol, flatten_protocol,
                           nl1_identification_povms, nl2_identification_povms,
                           parse_protocol, serialize_protocol,
                           verify_conclusive_identification,
                           verify_local_protocol, walgate_basis,
                           zero_diagonal_unitary)
from antimark.qcore import PartyLayout, density, kron


def haar(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_orthogonal_pair(dim, rng):
    a = haar(dim, rng)
    b = haar(dim, rng)
    b = b - a * np.vdot(a, b)
    return a, b / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# zero-diagonal rotation and the Walgate decomposition


def traceless(rng, n, kind="complex"):
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if kind != "real" else 0.0)
    if kind == "real":
        a = a + a.T
    elif kind == "hermitian":
        a = a + a.conj().T
    return a - np.trace(a) / n * np.eye(n)


def assert_zero_diagonal(a, u, atol=1e-12):
    n = a.shape[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), rtol=0, atol=atol)
    assert np.max(np.abs(np.diag(u @ a @ u.conj().T))) <= atol


def counting_rotations(monkeypatch):
    """Count the two-by-two rotations: each takes its phase from _rotation_phase."""
    calls = []

    def counted(b, c):
        calls.append(1)
        return _rotation_phase(b, c)
    monkeypatch.setattr(locc, "_rotation_phase", counted)
    return calls


def test_zero_diagonal_unitary_on_seeded_traceless_matrices(monkeypatch):
    """At most 2n - 3 rotations, and a diagonal within 1e-12 (Fillmore)."""
    rng = np.random.default_rng(2)
    calls = counting_rotations(monkeypatch)
    for dim in range(2, 9):
        for kind in ("complex",) * 8 + ("real", "hermitian"):
            a = traceless(rng, dim, kind)
            calls.clear()
            assert_zero_diagonal(a, zero_diagonal_unitary(a))
            assert len(calls) <= 2 * dim - 3


def bisection_phase(b, c):
    """Reference: the 80-step bisection for the root in [0, pi] of
    Im(b e^{-i phi} + c e^{i phi}), which flips sign between 0 and pi."""
    def imbalance(phi):
        return float((b * np.exp(-1j * phi) + c * np.exp(1j * phi)).imag)

    lo, hi = 0.0, math.pi
    flo = imbalance(lo)
    if abs(flo) < 1e-18:
        return lo
    for _ in range(80):
        mid = (lo + hi) / 2
        if (imbalance(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("dim", [3, 4])
def test_closed_form_rotation_phase_matches_bisection(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(10):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a -= np.trace(a) / dim * np.eye(dim)
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                w = a[i, i] - a[j, j]
                b, c = a[i, j] * abs(w) / w, a[j, i] * abs(w) / w
                gap = (_rotation_phase(b, c) - bisection_phase(b, c)) % math.pi
                assert min(gap, math.pi - gap) < 1e-12


def test_zero_diagonal_unitary_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        zero_diagonal_unitary(np.eye(2))


def geometric_zero_diagonal(mat, tol=1e-9):
    """Reference: the geometric loop the finite construction replaced.  It
    rotates the pair of the largest diagonal entry and the entry farthest from
    it to their mean until the diagonal is below tolerance."""
    a = np.array(mat, dtype=np.complex128)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
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
                      [-np.exp(-1j * phi) * math.sin(t), math.cos(t)]])
        idx = [i, j]
        a[idx, :] = v @ a[idx, :]
        a[:, idx] = a[:, idx] @ v.conj().T
        u[idx, :] = v @ u[idx, :]
    return u


def test_zero_diagonal_unitary_two_by_two_matches_the_geometric_loop():
    rng = np.random.default_rng(7)
    for kind in ("complex", "real", "hermitian") * 5:
        a = traceless(rng, 2, kind)
        np.testing.assert_allclose(zero_diagonal_unitary(a), geometric_zero_diagonal(a),
                                   rtol=0, atol=1e-15)


def test_zero_diagonal_unitary_on_degenerate_diagonals(monkeypatch):
    rng = np.random.default_rng(11)
    calls = counting_rotations(monkeypatch)
    zero = np.zeros((3, 3))
    np.testing.assert_array_equal(zero_diagonal_unitary(zero), np.eye(3))
    assert not calls
    line = np.exp(0.6j) * np.diag([3.0, -1.0, -2.0])   # collinear with 0
    off = traceless(rng, 3)
    off -= np.diag(np.diag(off))
    cases = [np.diag([1.0, -1.0, 0.0]), np.diag([2.0, -1.0, -1.0]), line, line + off,
             np.diag([1.0, -1.0, 0.0, 0.0]) + 0.5 * np.eye(4, k=1) + 0.5 * np.eye(4, k=-1),
             traceless(rng, 3, "real"), traceless(rng, 4, "hermitian")]
    for a in cases:
        calls.clear()
        assert_zero_diagonal(a, zero_diagonal_unitary(a))
        assert len(calls) <= 2 * a.shape[0] - 3
    # a trace within the accepted slack leaves the ray off the other entries:
    # the residual is the unavoidable |Tr A| / n
    slack = np.diag([1.0, -0.5 + 1e-9j, -0.5 + 1e-9j])
    u = zero_diagonal_unitary(slack, tol=1e-8)
    assert np.max(np.abs(np.diag(u @ slack @ u.conj().T))) <= 1e-9
    # orthogonal pairs of the nine product states: most diagonals are already
    # zero and take no rotation; the pairs sharing a second factor take some
    e = bennett9()
    for p in range(9):
        for q in range(p + 1, 9):
            k = e.states[p].reshape(3, 3).conj() @ e.states[q].reshape(3, 3).T
            calls.clear()
            u = zero_diagonal_unitary(k)
            if np.max(np.abs(np.diag(k))) <= 1e-15:
                np.testing.assert_array_equal(u, np.eye(3))
                assert not calls
            assert_zero_diagonal(k, u)
            assert len(calls) <= 3


def test_zero_diagonal_unitary_needs_a_square_matrix_and_reports_a_stall():
    with pytest.raises(ValueError):
        zero_diagonal_unitary(np.zeros((2, 3)))
    with pytest.raises(RuntimeError):
        zero_diagonal_unitary(np.diag([1e-9, 0.0]), tol=1e-12)


def test_walgate_basis_random_orthogonal_pairs():
    rng = np.random.default_rng(9)
    for dims in ((2, 2), (3, 3), (2, 3), (3, 2), (4, 4)):
        lay = PartyLayout(dims)
        for _ in range(8):
            psi, phi = random_orthogonal_pair(lay.dim, rng)
            dec = walgate_basis(psi, phi, lay)
            assert dec.residual <= 1e-10
            # branch residues reassemble the original states
            d0 = dims[0]
            rebuilt = sum(np.kron(dec.basis[i], dec.eta[i]) for i in range(d0))
            np.testing.assert_allclose(rebuilt, psi, atol=1e-10)
            rebuilt2 = sum(np.kron(dec.basis[i], dec.eta_perp[i]) for i in range(d0))
            np.testing.assert_allclose(rebuilt2, phi, atol=1e-10)


def test_walgate_basis_requires_orthogonality_and_parties():
    lay = PartyLayout((2, 2))
    v = np.zeros(4)
    v[0] = 1.0
    with pytest.raises(ValueError):
        walgate_basis(v, v, lay)
    with pytest.raises(ValueError):
        walgate_basis(np.array([1, 0]), np.array([0, 1]), PartyLayout((2,)))


# ---------------------------------------------------------------------------
# worked protocols


def test_bell_protocol_each_outcome_claims_its_state():
    e = bell4()
    proto = bell_exclusion_protocol()
    rep = verify_local_protocol(e, proto)
    assert rep.passed and rep.sound
    assert rep.completeness_residual <= 1e-12
    claimed = {r.outcome: r.claims for r in rep.rows}
    assert claimed[(0, 0)] == ("Psi+",)
    assert claimed[(1, 1)] == ("Psi-",)
    assert all(len(c) == 1 for c in claimed.values())


def haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_bell_protocol_is_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
    e, proto = bell4(), bell_exclusion_protocol()
    moved = Ensemble("moved bell4", e.layout, e.labels,
                     [np.kron(ua, ub) @ s for s in e.states])
    povms = [[u @ m @ u.conj().T for m in povm]
             for u, povm in zip((ua, ub), proto.party_povms)]
    moved_proto = LoccProtocol("one_round_product", proto.layout, party_povms=povms,
                               exclusion_map=proto.exclusion_map)
    before = verify_local_protocol(e, proto)
    after = verify_local_protocol(moved, moved_proto)
    assert (after.passed, after.sound) == (before.passed, before.sound)
    assert after.excluded_labels == before.excluded_labels
    assert after.missing_labels == before.missing_labels
    for a, b in zip(after.rows, before.rows):
        assert (a.outcome, a.claims) == (b.outcome, b.claims)
        assert a.probability == pytest.approx(b.probability, abs=1e-9)
        assert a.worst_residual == pytest.approx(b.worst_residual, abs=1e-9)


def test_bennett_protocol_covers_all_nine():
    e = bennett9()
    proto = bennett_exclusion_protocol()
    rep = verify_local_protocol(e, proto)
    assert rep.passed
    assert len(rep.rows) == 9
    assert all(r.probability > 1e-9 for r in rep.rows)
    assert set(rep.excluded_labels) == set(e.labels)


def test_double_sic_protocol_single_sided():
    e = double_sic_antiparallel()
    proto = double_sic_exclusion_protocol()
    rep = verify_local_protocol(e, proto)
    assert rep.passed
    assert rep.completeness_residual <= 1e-10


def duan4_product_readout() -> LoccProtocol:
    """One round, no communication, for duan4 = |00>, |11>, |++>, |+i,-i>:
    Alice reads Z, Bob reads X or Y at random.  Alice's 0 claims D2 and her 1
    claims D1; Bob's - also claims D3, and +i after Alice's 1 also claims D4."""
    h = 1.0 / math.sqrt(2.0)
    alice = [density([1, 0]), density([0, 1])]
    bob = [density(v) / 2.0 for v in ([h, -h], [h, h], [h, 1j * h], [h, -1j * h])]
    table = {(a, b): ("D2",) if a == 0 else ("D1",) for a in range(2) for b in range(4)}
    table[(0, 0)] += ("D3",)
    table[(1, 0)] += ("D3",)
    table[(1, 2)] += ("D4",)
    return LoccProtocol("one_round_product", PartyLayout((2, 2)),
                        party_povms=[alice, bob], exclusion_map=table,
                        name="duan4 product readout")


def test_a_product_readout_excludes_every_duan4_state():
    """duan4 is locally antidistinguishable at n = 1, although both of its
    local parts are (boundary) NOs: this protocol refutes check_lsam's rule
    that all NO local parts give a local NO."""
    rep = verify_local_protocol(duan4(), duan4_product_readout())
    assert rep.passed and rep.sound
    assert rep.excluded_labels == ("D1", "D2", "D3", "D4")
    assert max(r.worst_residual for r in rep.rows) == 0.0


def test_nl1_identification():
    e = nl1()
    rep = verify_conclusive_identification(e, nl1_identification_povms())
    assert rep.passed
    assert set(rep.identified) == set(e.labels)


def test_nl2_identification_at_unit_tilt():
    e = nl2(1.0)
    rep = verify_conclusive_identification(e, nl2_identification_povms(1.0))
    assert rep.passed


def test_bell_computational_readout_cannot_identify():
    e = bell4()
    comp = [np.diag([1.0, 0.0]).astype(np.complex128),
            np.diag([0.0, 1.0]).astype(np.complex128)]
    rep = verify_conclusive_identification(e, [comp, [m.copy() for m in comp]])
    assert not rep.passed
    assert len(rep.missing) == 4  # every outcome supports two Bell states


# ---------------------------------------------------------------------------
# pairwise generation


def test_pairwise_generator_on_worked_ensembles():
    for e in (bell4(), bennett9()):
        proto = build_pairwise_lad_protocol(e)
        rep = verify_local_protocol(e, proto)
        assert rep.passed, rep.failures


def test_pairwise_generator_on_random_orthogonal_ensembles():
    rng = np.random.default_rng(31)
    for trial in range(10):
        dims = (2, 2) if trial % 2 == 0 else (3, 3)
        lay = PartyLayout(dims)
        n = int(rng.integers(2, 5))
        mat = rng.normal(size=(lay.dim, lay.dim)) + 1j * rng.normal(size=(lay.dim, lay.dim))
        q = np.linalg.qr(mat)[0]
        e = Ensemble(f"rand{trial}", lay, [f"s{i}" for i in range(n)],
                     [q[:, i] for i in range(n)])
        proto = build_pairwise_lad_protocol(e)
        rep = verify_local_protocol(e, proto)
        assert rep.passed, rep.failures


def test_pairwise_generator_needs_orthogonality():
    lay = PartyLayout((2, 2))
    e = product_ensemble("p", lay, ["u", "v"],
                         [(np.array([1, 0]), np.array([1, 0])),
                          (np.array([1, 1]), np.array([1, 0]))])
    with pytest.raises(ValueError):
        build_pairwise_lad_protocol(e)


# ---------------------------------------------------------------------------
# protocol structures and files


def test_protocol_kind_validation():
    lay = PartyLayout((2, 2))
    with pytest.raises(ValueError):
        LoccProtocol("one_round", lay, party_povms=[[np.eye(2)], [np.eye(2)]])
    with pytest.raises(ValueError):
        LoccProtocol("one_round_product", lay, party_povms=[[np.eye(2)]])
    with pytest.raises(ValueError):
        LoccProtocol("two_round_sequential", lay, first_povm=[np.eye(2)])
    with pytest.raises(ValueError):
        LoccProtocol("randomized_mixture", lay, mixture=[])


def ghz_pair() -> Ensemble:
    """(|000> + |111>)/sqrt 2 and (|000> - |111>)/sqrt 2 on three qubits."""
    s = 2.0 ** -0.5
    return Ensemble("ghz", PartyLayout((2, 2, 2)), ["GHZ+", "GHZ-"],
                    [s * (np.eye(8)[0] + np.eye(8)[7]), s * (np.eye(8)[0] - np.eye(8)[7])])


def test_a_two_round_protocol_is_two_party():
    """On the GHZ pair a Walgate response would act on B and C jointly (its
    elements have operator-Schmidt rank 4 across B|C), which no two-round
    exchange of local measurements does.  The two-round kind takes exactly
    two parties, in memory and in protocol files, the pairwise builder
    refuses three, and check_lsam answers no pairwise_walgate YES."""
    from antimark.lsam import check_lsam
    from antimark.qcore import DataError, mat_to_pairs
    e = ghz_pair()
    with pytest.raises(ValueError, match="exactly two parties"):
        LoccProtocol("two_round_sequential", e.layout, first_povm=[np.eye(2)],
                     responses=[[np.eye(4)]])
    with pytest.raises(ValueError, match="exactly two parties"):
        build_pairwise_lad_protocol(e)
    doc = {"kind": "two_round_sequential", "parties": [{"povm": [mat_to_pairs(np.eye(2))]}],
           "responses": [[mat_to_pairs(np.eye(4))]]}
    with pytest.raises(DataError, match="exactly two parties"):
        parse_protocol(json.dumps(doc), e.layout)
    v = check_lsam(e, 1, 1)
    assert (v.decision, v.method) == ("UNKNOWN", "exhausted")
    assert "not given as products" in v.detail


def test_mixture_weights_must_sum_to_one():
    lay = PartyLayout((2, 2))
    comp = bell_exclusion_protocol()
    with pytest.raises(ValueError):
        LoccProtocol("randomized_mixture", lay, mixture=[(0.5, comp)])
    mixed = LoccProtocol("randomized_mixture", lay,
                         mixture=[(0.5, comp), (0.5, comp)])
    flat = flatten_protocol(mixed)
    assert len(flat) == 8
    total = sum(f.element for f in flat)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_two_round_flattening():
    lay = PartyLayout((2, 2))
    basis = [np.diag([1.0, 0.0]).astype(np.complex128),
             np.diag([0.0, 1.0]).astype(np.complex128)]
    proto = LoccProtocol("two_round_sequential", lay, first_povm=basis,
                         responses=[basis, [np.eye(2, dtype=np.complex128)]])
    flat = flatten_protocol(proto)
    assert [f.outcome for f in flat] == [(0, 0), (0, 1), (1, 0)]
    total = sum(f.element for f in flat)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def reference_flatten(p):
    """flatten_protocol as a loop over outcomes, one qcore.kron per factor:
    (outcome, element, claims) triples."""
    emap = p.exclusion_map or {}
    if p.kind == "one_round_product":
        out = []
        for idx in itertools.product(*(range(len(povm)) for povm in p.party_povms)):
            el = p.party_povms[0][idx[0]]
            for q, i in enumerate(idx[1:], start=1):
                el = kron(el, p.party_povms[q][i])
            out.append((idx, el, emap.get(idx)))
        return out
    if p.kind == "two_round_sequential":
        return [((i, j), kron(first, resp), emap.get((i, j)))
                for i, first in enumerate(p.first_povm)
                for j, resp in enumerate(p.responses[i])]
    return [((ci,) + idx, w * el, claims) for ci, (w, comp) in enumerate(p.mixture)
            for idx, el, claims in reference_flatten(comp)]


def test_flattening_matches_the_per_outcome_loop():
    """The stacked flattening gives the loop's outcomes, claims and elements
    exactly, on a three-party one-round protocol, a two-round protocol and a
    pairwise mixture; each element is a row of the one stack it returns."""
    rng = np.random.default_rng(17)
    lay = PartyLayout((3, 3))
    q = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))[0]
    five = Ensemble("five", lay, [f"s{j}" for j in range(5)], [q[:, j] for j in range(5)])
    two = Ensemble("two", lay, ["s0", "s1"], [q[:, 0], q[:, 1]])
    protos = [LoccProtocol("one_round_product", nl2(1.0).layout,
                           party_povms=nl2_identification_povms(1.0)),
              build_pairwise_lad_protocol(two), build_pairwise_lad_protocol(five)]
    assert [p.kind for p in protos] == list(locc.KINDS)
    assert len(protos[2].mixture) == 3
    for proto in protos:
        flat = flatten_protocol(proto)
        want = reference_flatten(proto)
        assert [(f.outcome, f.claims) for f in flat] == [(k, c) for k, _, c in want]
        assert flat.elements.shape == (len(want), proto.layout.dim, proto.layout.dim)
        for row, f, (_, el, _) in zip(flat.elements, flat, want):
            assert np.array_equal(f.element, el) and np.array_equal(row, el)
            assert np.shares_memory(f.element, flat.elements)


def test_serialize_parse_roundtrip():
    proto = bennett_exclusion_protocol()
    text = serialize_protocol(proto)
    back = parse_protocol(text, proto.layout)
    assert back.kind == proto.kind
    assert back.exclusion_map == proto.exclusion_map
    for a, b in zip(flatten_protocol(proto), flatten_protocol(back)):
        np.testing.assert_allclose(a.element, b.element, atol=1e-12)
    rep = verify_local_protocol(bennett9(), back)
    assert rep.passed


def test_parse_protocol_rejects_malformed_documents():
    lay = PartyLayout((2, 2))
    from antimark.qcore import DataError
    with pytest.raises(DataError):
        parse_protocol("not json", lay)
    with pytest.raises(DataError):
        parse_protocol("{}", lay)


def test_verify_rejects_unmapped_reachable_outcome():
    e = bell4()
    proto = bell_exclusion_protocol()
    broken = LoccProtocol(proto.kind, proto.layout, party_povms=proto.party_povms,
                          exclusion_map={(0, 0): ("Psi+",)})
    with pytest.raises(ValueError):
        verify_local_protocol(e, broken)


def test_verify_flags_false_claim_as_unsound():
    e = bell4()
    proto = bell_exclusion_protocol()
    lying = {k: ("Phi+",) for k in proto.exclusion_map}
    bad = LoccProtocol(proto.kind, proto.layout, party_povms=proto.party_povms,
                       exclusion_map=lying)
    rep = verify_local_protocol(e, bad)
    assert not rep.sound
    assert not rep.passed


def test_verify_requires_an_exclusion_map():
    from antimark.ensembles import su3
    seq = sequence_ensemble(su3(), 2)
    povm = [np.eye(4, dtype=np.complex128)]
    bare = LoccProtocol("one_round_product", seq.layout, party_povms=[povm, povm])
    with pytest.raises(ValueError):
        verify_local_protocol(seq, bare)
