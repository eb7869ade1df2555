"""Ensemble construction, catalog integrity, sequences, and parsing."""

import functools
import json
import math

import numpy as np
import pytest

from antimark.ensembles import (KET0, KET1, PLUS, Ensemble, _repartition, angle_ket, bell4,
                                bennett9, build_catalog, catalog, duan4,
                                local_part, nl1,
                                nl2, parse_ensemble, pbr4, product_ensemble,
                                qubit_perp, qutrit_sum, restrict,
                                sequence_ensemble, sequence_local_part,
                                sic_kets, su3, theta4, trine3, weak3)
from antimark.qcore import DataError, PartyLayout, canonical_phase, kron, same_up_to_phase


def test_catalog_entries_build_and_are_normalized():
    for name, entry in catalog().items():
        params = {q: 1.0 for q in entry["params"]}
        e = build_catalog(name, **params)
        assert e.n_states >= 2
        assert len(set(e.labels)) == e.n_states
        for v in e.states:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        if e.is_product:
            for lab in e.labels:
                full = e.factors[lab][0]
                for f in e.factors[lab][1:]:
                    full = np.kron(full, f)
                np.testing.assert_allclose(full, e.state_of(lab), atol=1e-10)


def test_build_catalog_rejects_unknown_and_missing_params():
    with pytest.raises(KeyError):
        build_catalog("nope")
    with pytest.raises(ValueError):
        build_catalog("theta4")  # requires theta


def test_ensemble_validation():
    lay = PartyLayout((2,))
    with pytest.raises(ValueError):
        Ensemble("e", lay, ["a"], [np.array([1.0, 0.0])])  # too few states
    with pytest.raises(ValueError):
        Ensemble("e", lay, ["a", "a"], [np.eye(2)[0], np.eye(2)[1]])
    with pytest.raises(ValueError):
        Ensemble("e", lay, ["a", "b"], [np.eye(2)[0], np.array([1.0, 1.0])])
    with pytest.raises(ValueError, match="not normalized"):
        Ensemble("e", lay, ["a", "b"], [np.eye(2)[0], np.array([np.nan, 0.0])])
    with pytest.raises(ValueError):
        Ensemble("e", lay, ["a", "b"], [np.eye(3)[0], np.eye(3)[1]])


def test_product_factor_consistency_enforced():
    lay = PartyLayout((2, 2))
    good = product_ensemble("p", lay, ["u", "v"],
                            [(np.array([1, 0]), np.array([1, 0])),
                             (np.array([0, 1]), np.array([1, 1]))])
    assert good.is_product
    with pytest.raises(ValueError):
        Ensemble("p", lay, ["u", "v"],
                 [np.kron([1, 0], [1, 0]), np.kron([0, 1], [0, 1])],
                 factors={"u": (np.array([1, 0]), np.array([1, 0]))})
    with pytest.raises(ValueError, match="factors for exactly its labels"):
        Ensemble("p", lay, ["u", "v"], factors={"u": good.factors["u"]})
    with pytest.raises(ValueError, match="factor sizes"):
        Ensemble("p", lay, ["u", "v"], factors={"u": good.factors["u"],
                                                 "v": (KET0, np.eye(3)[0])})
    with pytest.raises(ValueError, match="factor sizes"):
        Ensemble("p", lay, ["u", "v"], factors={"u": good.factors["u"], "v": (KET0,)})
    with pytest.raises(ValueError, match="not normalized"):
        Ensemble("p", lay, ["u", "v"], factors={"u": good.factors["u"],
                                                 "v": (KET0, 2 * KET1)})


def test_a_product_ensemble_is_given_by_its_factors_alone():
    lay = PartyLayout((2, 2))
    factors = {"u": (KET0, KET0), "v": (KET1, PLUS)}
    with pytest.raises(ValueError, match="either the states"):
        Ensemble("p", lay, ["u", "v"], [kron(KET0, KET0), kron(KET1, PLUS)], factors)
    with pytest.raises(ValueError, match="either the states"):
        Ensemble("p", lay, ["u", "v"])
    e = Ensemble("p", lay, ["u", "v"], factors=factors)
    assert e.is_product
    for lab, fs in factors.items():
        assert all(np.array_equal(got, want) for got, want in zip(e.factors[lab], fs))


def test_helper_kets():
    np.testing.assert_allclose(angle_ket(0.0), [1.0, 0.0])
    t = 0.7
    np.testing.assert_allclose(angle_ket(t), [math.cos(t), math.sin(t)])
    v = np.array([0.6, 0.8j])
    assert np.vdot(v, qubit_perp(v)) == pytest.approx(0.0, abs=1e-15)
    w = qutrit_sum(0, 2, -1)
    np.testing.assert_allclose(w, [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)])
    g = np.array([[np.vdot(a, b) for b in sic_kets()] for a in sic_kets()])
    # equiangular: |<s_i|s_j>|^2 = 1/3 off the diagonal
    off = np.abs(g[~np.eye(4, dtype=bool)]) ** 2
    np.testing.assert_allclose(off, 1.0 / 3.0, atol=1e-12)


def test_named_ensembles_shapes():
    assert weak3().layout.dims == (2,)
    assert trine3().n_states == 3
    assert bell4().layout.dims == (2, 2) and not bell4().is_product
    assert bennett9().n_states == 9 and bennett9().is_product
    assert duan4().is_product
    assert nl1().n_states == 3
    assert pbr4().labels == ["00", "0+", "+0", "++"]
    assert su3().labels == ["00", "0+", "+0"]
    assert nl2(0.9).layout.dims == (2, 2, 2)


def test_theta4_states_match_definition():
    t = 0.8
    e = theta4(t)
    c, s = math.cos(t), math.sin(t)
    up = np.array([c, s])
    dn = np.array([c, -s])
    want = {"++": np.kron(up, up), "+-": np.kron(up, dn),
            "-+": np.kron(dn, up), "--": np.kron(dn, dn)}
    for lab, v in want.items():
        np.testing.assert_allclose(e.state_of(lab), v, atol=1e-12)


def test_bennett9_states_are_orthogonal():
    e = bennett9()
    g = np.array([[np.vdot(a, b) for b in e.states] for a in e.states])
    np.testing.assert_allclose(g, np.eye(9), atol=1e-12)


def test_sequence_ensemble_counts_and_labels():
    e = su3()
    seq = sequence_ensemble(e, 2)
    assert seq.n_states == 6  # 3 * 2 ordered draws
    assert seq.layout.dims == (4, 4)
    assert seq.labels[0] == "(00,0+)"
    assert seq.parent is e
    assert seq.index_tuples[0] == (0, 1)
    with pytest.raises(ValueError):
        sequence_ensemble(e, 4)
    with pytest.raises(ValueError):
        sequence_ensemble(bennett9(), 4)  # 3^8 legs would be materialized


def test_sequence_repartition_is_party_major():
    """Party A must hold both first-qubit factors of the two draws."""
    e = su3()
    seq = sequence_ensemble(e, 2)
    for lab, tup in zip(seq.labels, seq.index_tuples):
        a = np.kron(e.factors[e.labels[tup[0]]][0], e.factors[e.labels[tup[1]]][0])
        b = np.kron(e.factors[e.labels[tup[0]]][1], e.factors[e.labels[tup[1]]][1])
        np.testing.assert_allclose(seq.state_of(lab), np.kron(a, b), atol=1e-12)
        np.testing.assert_allclose(seq.factors[lab][0], a, atol=1e-12)


def test_sequences_of_an_entangled_parent_are_the_repartitioned_kron():
    """bell4 has no factors, so its sequence kets are the two draws tensored
    in order, (A1, B1, A2, B2), with the legs regrouped to (A1, A2, B1, B2):
    12 mutually orthogonal states on dims (4, 4)."""
    e = bell4()
    seq = sequence_ensemble(e, 2)
    assert not seq.is_product
    assert (seq.n_states, seq.layout.dims) == (12, (4, 4))
    for lab, (i, j) in zip(seq.labels, seq.index_tuples):
        want = np.kron(e.states[i], e.states[j]).reshape(2, 2, 2, 2)
        np.testing.assert_allclose(seq.state_of(lab), want.transpose(0, 2, 1, 3).reshape(16),
                                   atol=1e-12)
    kets = np.array(seq.states)
    np.testing.assert_allclose(kets.conj() @ kets.T, np.eye(12), atol=1e-12)


def test_sequence_of_length_one_matches_parent_states():
    e = su3()
    seq = sequence_ensemble(e, 1)
    assert seq.n_states == e.n_states
    for tup, lab in zip(seq.index_tuples, seq.labels):
        np.testing.assert_allclose(seq.state_of(lab), e.states[tup[0]])


def test_local_part_deduplicates():
    e = su3()  # party A sees |0>,|0>,|+> over the three states
    part = local_part(e, 0)
    assert part.n_states == 2
    assert part.layout.dims == (2,)
    with pytest.raises(ValueError):
        local_part(bell4(), 0)  # not a product ensemble


def product_catalog():
    """Every product catalog ensemble, the tilted ones at tilt 1.0."""
    out = []
    for name, entry in catalog().items():
        e = build_catalog(name, **{q: 1.0 for q in entry["params"]})
        if e.is_product:
            out.append(e)
    return out


@pytest.mark.parametrize("e", product_catalog() + [sequence_ensemble(pbr4(), 2)],
                         ids=lambda e: e.name)
def test_product_states_are_the_kron_of_their_stored_factors(e):
    for lab in e.labels:
        full = functools.reduce(kron, e.factors[lab])
        assert np.max(np.abs(e.state_of(lab) - full)) <= 1e-15


@pytest.mark.parametrize("parent, n", [(pbr4(), 2), (su3(), 2), (duan4(), 2),
                                       (theta4(0.9), 2), (nl2(1.0), 2), (pbr4(), 3)],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_sequences_of_a_product_parent_match_the_repartitioned_parent_states(parent, n):
    seq = sequence_ensemble(parent, n)
    for lab, tup in zip(seq.labels, seq.index_tuples):
        assert np.max(np.abs(seq.state_of(lab) - _repartition(parent, tup))) <= 1e-15


def built_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_ensemble(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.name == want.name
    assert got.labels == want.labels
    assert got.layout == want.layout
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("parent", product_catalog(), ids=lambda e: e.name)
def test_sequence_local_part_matches_the_materialised_local_part(parent):
    for n in (1, 2, 3):
        if n > parent.n_states:
            continue
        for p in range(parent.layout.n_parties):
            got = built_or_error(lambda: sequence_local_part(parent, n, p))
            if n == 1:
                want = built_or_error(lambda: local_part(parent, p))
            else:
                want = built_or_error(lambda: local_part(sequence_ensemble(parent, n), p))
            assert_same_ensemble(got, want)


def test_sequence_local_part_keeps_the_size_limit_and_party_names():
    with pytest.raises(ValueError, match="too large to materialize"):
        sequence_local_part(bennett9(), 4, 0)
    with pytest.raises(ValueError, match="sequence length"):
        sequence_local_part(su3(), 4, 0)
    with pytest.raises(ValueError, match="product"):
        sequence_local_part(bell4(), 2, 0)
    assert_same_ensemble(sequence_local_part(pbr4(), 2, "B"),
                         local_part(sequence_ensemble(pbr4(), 2), 1))


def pairwise_dedupe_labels(e, p):
    """Reference: the labels kept by comparing each factor with every kept
    one through same_up_to_phase."""
    labels, kets = [], []
    for lab in e.labels:
        f = e.factors[lab][p]
        if not any(same_up_to_phase(f, g) for g in kets):
            labels.append(lab)
            kets.append(f)
    return labels, [canonical_phase(v) for v in kets]


def near_duplicates():
    """Party A holds |0>, a phase times |0>, a ket 1e-6 away from |0> and
    |1>: only the phase copy merges."""
    lay = PartyLayout((2, 2))
    rows = [(KET0, KET0), (np.exp(0.7j) * KET0, PLUS), (angle_ket(1e-6), KET1),
            (KET1, PLUS)]
    return product_ensemble("near", lay, ["a", "b", "c", "d"], rows)


@pytest.mark.parametrize("parent", product_catalog() + [near_duplicates()],
                         ids=lambda e: e.name)
def test_local_part_dedupe_matches_the_pairwise_test(parent):
    for e in (parent, sequence_ensemble(parent, 2)):
        for p in range(e.layout.n_parties):
            labels, kets = pairwise_dedupe_labels(e, p)
            if len(kets) < 2:
                with pytest.raises(ValueError):
                    local_part(e, p)
                continue
            part = local_part(e, p)
            assert part.labels == labels
            for a, b in zip(part.states, kets):
                assert np.array_equal(a, b / np.linalg.norm(b))


def test_restrict_orders_and_validates():
    e = duan4()
    sub = restrict(e, ["D3", "D1"])
    assert sub.labels == ["D3", "D1"]
    np.testing.assert_allclose(sub.states[0], e.state_of("D3"))
    assert sub.is_product
    with pytest.raises(ValueError):
        restrict(e, ["D1", "NOPE"])
    with pytest.raises(ValueError):
        restrict(e, ["D1", "D1"])


def test_restrict_keeps_the_states_of_an_entangled_ensemble():
    e = bell4()
    sub = restrict(e, ["Psi-", "Phi+"])
    assert not sub.is_product and sub.layout == e.layout
    assert sub.labels == ["Psi-", "Phi+"]
    for lab, v in zip(sub.labels, sub.states):
        np.testing.assert_array_equal(v, e.state_of(lab))
    with pytest.raises(ValueError):
        restrict(e, ["Phi+", "NOPE"])


def test_parse_ensemble_roundtrip_amplitudes():
    doc = {"name": "pair", "dims": [2],
           "states": [
               {"label": "a", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
               {"label": "b", "amplitudes": [[0.0, 0.0], [0.0, 1.0]]},
           ]}
    e = parse_ensemble(json.dumps(doc))
    assert e.name == "pair"
    assert not e.is_product
    np.testing.assert_allclose(e.state_of("b"), [0.0, 1.0j])


def test_parse_ensemble_factors_build_products():
    h = 1.0 / math.sqrt(2.0)
    doc = {"name": "prod", "dims": [2, 2],
           "states": [
               {"label": "u", "factors": [[[1.0, 0.0], [0.0, 0.0]],
                                          [[h, 0.0], [h, 0.0]]]},
               {"label": "v", "factors": [[[0.0, 0.0], [1.0, 0.0]],
                                          [[1.0, 0.0], [0.0, 0.0]]]},
           ]}
    e = parse_ensemble(json.dumps(doc))
    assert e.is_product
    np.testing.assert_allclose(e.state_of("u"), [h, h, 0, 0], atol=1e-12)


def test_parse_ensemble_rejects_malformed_input():
    with pytest.raises(DataError):
        parse_ensemble("not json")
    with pytest.raises(DataError):
        parse_ensemble(json.dumps(["list"]))
    with pytest.raises(DataError):
        parse_ensemble(json.dumps({"name": "x", "dims": [2]}))
    bad_norm = {"name": "x", "dims": [2],
                "states": [{"label": "a", "amplitudes": [[2.0, 0.0], [0.0, 0.0]]},
                           {"label": "b", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}]}
    with pytest.raises(DataError):
        parse_ensemble(json.dumps(bad_norm))
