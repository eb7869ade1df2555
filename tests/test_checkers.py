"""One checker per claim: every checker reads the same firing rule and
rejects a bad measurement the same way."""

import numpy as np
import pytest

from antimark.ensembles import theta4, trine3
from antimark.exclusion import Povm, decide_antidist, exclusion_counts, verify_strong
from antimark.locc import (LoccProtocol, verify_conclusive_identification,
                           verify_local_protocol)
from antimark.lsam import _theta_family_ok, theta_global_measurement
from antimark.qcore import fires, outcome_table


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
