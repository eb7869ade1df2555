"""Local protocols: Walgate splitting, worked tables, generation, files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimark.ensembles import (Ensemble, bell4, bennett9,
                                double_sic_antiparallel, nl1, nl2,
                                product_ensemble, sequence_ensemble)
from antimark.locc import (LoccProtocol, _rotation_phase,
                           bell_exclusion_protocol, bennett_exclusion_protocol,
                           build_pairwise_lad_protocol,
                           double_sic_exclusion_protocol, flatten_protocol,
                           nl1_identification_povms, nl2_identification_povms,
                           parse_protocol, serialize_protocol,
                           verify_conclusive_identification,
                           verify_local_protocol, walgate_basis,
                           zero_diagonal_unitary)
from antimark.qcore import PartyLayout


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


def test_zero_diagonal_unitary_on_seeded_traceless_matrices():
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        for _ in range(10):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a -= np.trace(a) / dim * np.eye(dim)
            u = zero_diagonal_unitary(a)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
            rotated = u @ a @ u.conj().T
            assert np.max(np.abs(np.diag(rotated))) < 1e-10


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


def test_walgate_basis_random_orthogonal_pairs():
    rng = np.random.default_rng(9)
    for dims in ((2, 2), (3, 3), (2, 3)):
        lay = PartyLayout(dims)
        for _ in range(8):
            psi, phi = random_orthogonal_pair(lay.dim, rng)
            dec = walgate_basis(psi, phi, lay)
            assert dec.residual < 1e-9
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


@settings(max_examples=30, deadline=None)
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
