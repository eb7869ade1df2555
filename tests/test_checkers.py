"""One checker per claim: every checker reads the same firing rule and
rejects a bad measurement the same way."""

import copy

import numpy as np
import pytest

from antimark.ensembles import (Ensemble, bell4, bennett9, pbr4, sequence_ensemble,
                                theta4, trine3)
from antimark.exclusion import Povm, decide_antidist, exclusion_counts, verify_strong
from antimark.locc import (LoccProtocol, bell_exclusion_protocol,
                           bennett_exclusion_protocol, build_pairwise_lad_protocol,
                           verify_conclusive_identification, verify_local_protocol)
from antimark.lsam import _theta_family_ok, theta_global_measurement
from antimark.qcore import (PartyLayout, fires, measurement_checks, measurement_failures,
                            outcome_table)


def test_every_checker_fires_the_same_outcomes():
    """trine3's certificate scaled by 1 - 1.5e-9 plus two bystanders of
    weight 1.5e-9: each bystander's probability summed over the three states
    (2.25e-9) exceeds tol = 1e-9, while its mean (7.5e-10) does not.  Every
    checker keeps both bystanders."""
    e = trine3()
    cert = decide_antidist(e).certificate
    eps = 1.5e-9
    els = ([(1.0 - eps) * m for m in cert.elements]
           + [np.diag([eps, 0.0]), np.diag([0.0, eps])])
    assert list(fires(outcome_table(els, e.states), 1e-9)) == [True] * 5

    povm = Povm(e.layout, els, list(cert.labels) + [None, None])
    assert verify_strong(e, povm).passed
    assert [r.index for r in exclusion_counts(e, povm).outcomes] == [0, 1, 2, 3, 4]

    emap = {(i,): (lab,) for i, lab in enumerate(cert.labels)}
    emap.update({(3,): (), (4,): ()})
    proto = LoccProtocol("one_round_product", e.layout, party_povms=[els],
                         exclusion_map=emap)
    rep = verify_local_protocol(e, proto)
    assert rep.passed, rep.failures
    assert rep.unreachable_mapped == []
    assert [r.reachable for r in rep.rows] == [True] * 5
    # the reported probability stays the one under the uniform mixture
    assert rep.rows[3].probability == pytest.approx(eps / 2.0, rel=1e-6)

    ident = verify_conclusive_identification(e, [els])
    assert [r.outcome for r in ident.rows] == [(0,), (1,), (2,), (3,), (4,)]


def _spoil(els, defect):
    """A copy of a measurement with one defect: a non-Hermitian element,
    elements summing to 0.9 I, or an element with eigenvalue -0.1 (the sum
    still the identity)."""
    els = [np.array(m, dtype=np.complex128) for m in els]
    if defect == "non-hermitian":
        els[0][0, 1] += 1e-3
    elif defect == "incomplete":
        els = [0.9 * m for m in els]
    else:
        w, v = np.linalg.eigh(els[0])
        shift = (w[0] + 0.1) * np.outer(v[:, 0], v[:, 0].conj())
        els[0] -= shift
        els[1] += shift
    return els


DEFECTS = ["non-hermitian", "incomplete", "negative"]


@pytest.mark.parametrize("defect", DEFECTS)
def test_every_checker_rejects_a_bad_measurement(defect):
    e = trine3()
    cert = decide_antidist(e).certificate
    els = _spoil(cert.elements, defect)
    povm = Povm(e.layout, els, list(cert.labels))

    if defect == "non-hermitian":
        with pytest.raises(ValueError, match="not Hermitian"):
            verify_strong(e, povm)
    else:
        rep = verify_strong(e, povm)
        assert not rep.passed and not rep.povm_ok
    with pytest.raises(ValueError):
        exclusion_counts(e, povm)

    emap = {(i,): (lab,) for i, lab in enumerate(cert.labels)}
    proto = LoccProtocol("one_round_product", e.layout, party_povms=[els],
                         exclusion_map=emap)
    with pytest.raises(ValueError, match="party 0 POVM"):
        verify_local_protocol(e, proto)
    with pytest.raises(ValueError, match="party 0 POVM"):
        verify_conclusive_identification(e, [els])

    tilted = theta4(0.9)
    good = theta_global_measurement(0.9).povm
    assert _theta_family_ok(good, tilted, 1e-10)
    bad = Povm(tilted.layout, _spoil(good.elements, defect))
    assert not _theta_family_ok(bad, tilted, 1e-10)


def test_the_real_and_the_complex_route_check_alike(monkeypatch):
    """pbr4^[2]'s union is real, so its check runs in real arithmetic; the
    same union and states conjugated by a diagonal phase unitary U are
    complex and take the complex route.  Both give the same completeness
    residual, smallest eigenvalue and exclusion residuals, and both reject
    each of the three defects of ``_spoil``."""
    e = sequence_ensemble(pbr4(), 2)
    cert = decide_antidist(e).certificate
    assert not cert.elements.imag.any()
    u = np.exp(1j * np.linspace(0.3, 2.9, e.layout.dim))
    turned = Ensemble("phased", e.layout, list(e.labels), [u * s for s in e.states])

    def conjugated(els):
        return [u[:, None] * m * u.conj()[None, :] for m in els]

    solved = []
    solver = np.linalg.eigvalsh

    def recording(mat):
        solved.append(mat.dtype)
        return solver(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    real = verify_strong(e, cert)
    cplx = verify_strong(turned, Povm(e.layout, conjugated(cert.elements), cert.labels))
    assert solved == [np.float64, np.complex128]
    assert real.passed and cplx.passed
    assert cplx.completeness_residual == pytest.approx(real.completeness_residual, abs=1e-12)
    assert cplx.min_eigenvalue == pytest.approx(real.min_eigenvalue, abs=1e-12)
    for a, b in zip(real.outcomes, cplx.outcomes):
        assert b.exclusion_residual == pytest.approx(a.exclusion_residual, abs=1e-12)
        assert b.firing == pytest.approx(a.firing, abs=1e-12)

    for defect in DEFECTS:
        for ens, els in ((e, _spoil(cert.elements, defect)),
                         (turned, conjugated(_spoil(cert.elements, defect)))):
            povm = Povm(e.layout, els, cert.labels)
            if defect == "non-hermitian":
                with pytest.raises(ValueError, match="not Hermitian"):
                    verify_strong(ens, povm)
            else:
                rep = verify_strong(ens, povm)
                assert not rep.passed and not rep.povm_ok
            with pytest.raises(ValueError):
                exclusion_counts(ens, povm)


def orthogonal_set(dims, n, seed):
    """n orthonormal states on a two-party layout: columns of a seeded
    random unitary."""
    lay = PartyLayout(dims)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(lay.dim, lay.dim))
                     + 1j * rng.normal(size=(lay.dim, lay.dim)))[0]
    return Ensemble(f"ortho{n}", lay, [f"s{j}" for j in range(n)],
                    [q[:, j] for j in range(n)])


def local_povms(p):
    """Every local POVM of a protocol as (name, element list), in protocol
    order: the parties of a one-round protocol, the first party and then
    each response of a two-round one, component after component."""
    out = []
    for c in [c for _, c in p.mixture] if p.kind == "randomized_mixture" else [p]:
        if c.kind == "one_round_product":
            out += [(f"party {q} POVM", povm) for q, povm in enumerate(c.party_povms)]
        else:
            out += [("first-party POVM", c.first_povm)]
            out += [(f"response POVM {i}", povm) for i, povm in enumerate(c.responses)]
    return out


def alone(els, tol=1e-9):
    """The first failure the measurement check gives for one POVM alone."""
    try:
        failures, _, _ = measurement_failures(els, tol)
    except ValueError as exc:
        return str(exc)
    return failures[0]


def spoiled(p, defects):
    """A copy of a protocol with local POVM k spoiled by defects[k]."""
    bad = copy.deepcopy(p)
    for k, (_, povm) in enumerate(local_povms(bad)):
        if k in defects:
            povm[:] = _spoil(povm, defects[k])
    return bad


def worked_protocols():
    mixture = build_pairwise_lad_protocol(orthogonal_set((3, 3), 5, 11))
    assert mixture.kind == "randomized_mixture" and len(mixture.mixture) == 3
    return [(orthogonal_set((3, 3), 5, 11), mixture),
            (bell4(), bell_exclusion_protocol()),
            (bennett9(), bennett_exclusion_protocol())]


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_spoiled_piece_is_named_with_its_own_first_failure(defect):
    """Each local POVM spoiled alone: verify_local_protocol names that piece
    with the first failure the measurement check gives for it alone, though
    every piece of one dimension is checked in one group."""
    for e, proto in worked_protocols():
        assert verify_local_protocol(e, proto).passed
        pieces = local_povms(proto)
        assert all(len(povm) >= 2 for _, povm in pieces)
        for k, (name, povm) in enumerate(pieces):
            with pytest.raises(ValueError) as info:
                verify_local_protocol(e, spoiled(proto, {k: defect}))
            assert str(info.value) == f"{name}: {alone(_spoil(povm, defect))}"


def test_of_two_spoiled_pieces_the_earlier_is_named():
    """Two pieces spoiled with different defects, in either dimension group
    on a 2 x 3 layout: the piece that comes first in protocol order is the
    one named."""
    for e in (orthogonal_set((3, 3), 5, 11), orthogonal_set((2, 3), 5, 12)):
        proto = build_pairwise_lad_protocol(e)
        pieces = local_povms(proto)
        last = len(pieces) - 1
        for k, m in ((0, last), (1, last), (last - 1, last), (2, 3)):
            for first_defect, later_defect in zip(DEFECTS, DEFECTS[1:] + DEFECTS[:1]):
                bad = spoiled(proto, {k: first_defect, m: later_defect})
                with pytest.raises(ValueError) as info:
                    verify_local_protocol(e, bad)
                name, povm = pieces[k]
                assert str(info.value) == f"{name}: {alone(_spoil(povm, first_defect))}"


def test_one_eigenvalue_solve_per_party_dimension(monkeypatch):
    """verify_local_protocol checks every local POVM of a pairwise mixture
    with one eigenvalue solve per distinct dimension among them: one on
    3 x 3, where the first party and the responses share a dimension, and
    two on 2 x 3."""
    solved = []
    solver = np.linalg.eigvalsh

    def recording(mat):
        solved.append(mat.shape)
        return solver(mat)

    for dims, solves in (((3, 3), 1), ((2, 3), 2)):
        e = orthogonal_set(dims, 5, 13)
        proto = build_pairwise_lad_protocol(e)
        assert len(proto.mixture) >= 3
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        solved.clear()
        assert verify_local_protocol(e, proto).passed
        monkeypatch.setattr(np.linalg, "eigvalsh", solver)
        assert len(solved) == solves
        assert sorted(shape[1] for shape in solved) == sorted(set(dims))


def test_a_non_finite_element_fails_the_measurement_check():
    """NaN compares False, so a check by comparisons alone passes it.  The
    one check names the first non-finite element, as Povm does, and keeps
    the rest of its group unspoiled."""
    e = bell4()
    proto = bell_exclusion_protocol()
    bob = proto.party_povms[1] + [np.full((2, 2), np.nan, dtype=np.complex128)]
    bad = LoccProtocol(proto.kind, proto.layout, party_povms=[proto.party_povms[0], bob],
                       exclusion_map=proto.exclusion_map)
    with pytest.raises(ValueError) as info:
        verify_local_protocol(e, bad)
    assert str(info.value) == "party 1 POVM: element 2 has non-finite entries"
    with pytest.raises(ValueError, match="party 1 POVM: element 2 has non-finite"):
        verify_conclusive_identification(e, bad.party_povms)
    with pytest.raises(ValueError, match="^element 2 has non-finite entries$"):
        measurement_failures(bob, 1e-9)

    good = proto.party_povms[0]
    tilted = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
    checks = measurement_checks([good, bob, tilted, []], 1e-9)
    assert checks[0] == measurement_failures(good, 1e-9)
    assert checks[1][0] == ["element 2 has non-finite entries"]
    assert checks[2] == measurement_failures(tilted, 1e-9)
    assert checks[3][0] == ["no elements"]
