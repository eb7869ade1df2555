"""Antidistinguishability criteria, certificates, and the decision routine."""

import math
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimark import exclusion, qcore
from antimark.ensembles import (Ensemble, bell4, bennett9, duan4, nl1, pbr4,
                                restrict, sequence_ensemble, sequence_local_part,
                                sic4, su3, theta4, trine3, weak3)
from antimark.exclusion import (Povm, _block_stacks, _core_answers, _cover_plan,
                                _factored_jacobian, _factored_residual,
                                _hermitian_basis, _lift,
                                _orthocomplement, _psd_project,
                                _triple_basis, _triple_cover, _triple_elements,
                                _triple_screen,
                                caves_criterion,
                                compose_union, decide_antidist,
                                exclusion_counts, povm_from_caves_triple,
                                qubit_antidist_lp, search_exclusion_povm,
                                verify_no_witness, verify_strong)
from antimark.qcore import PartyLayout, density


def haar(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# three-state criterion


def test_caves_weak3_exact_overlaps():
    rep = caves_criterion(weak3().states)
    assert rep.x12 == pytest.approx(0.0, abs=1e-12)
    assert rep.x13 == pytest.approx(0.5, abs=1e-12)
    assert rep.x23 == pytest.approx(0.5, abs=1e-12)
    assert rep.total == pytest.approx(1.0, abs=1e-12)
    assert not rep.passed
    assert not rep.sum_ok


def test_caves_trine_quartic_equality():
    rep = caves_criterion(trine3().states)
    assert rep.passed
    assert rep.total == pytest.approx(0.75, abs=1e-12)
    assert abs(rep.quartic_lhs - rep.quartic_rhs) <= 1e-12


def test_caves_rejects_wrong_count():
    with pytest.raises(ValueError):
        caves_criterion(weak3().states[:2])


def test_caves_orthogonal_triple_passes():
    eye = np.eye(3, dtype=np.complex128)
    rep = caves_criterion([eye[0], eye[1], eye[2]])
    assert rep.passed
    assert rep.total == 0.0


def su3_like_triple():
    eye = np.eye(3, dtype=np.complex128)
    return [eye[0], (eye[0] + eye[1]) / math.sqrt(2.0), (eye[0] + eye[2]) / math.sqrt(2.0)]


@pytest.mark.parametrize("states", [
    [0.5 * v for v in su3_like_triple()],             # overlap sum 0.078: would pass
    su3_like_triple()[:2] + [np.zeros(3)],            # a zero ket: would pass
], ids=["scaled", "zero-ket"])
def test_caves_rejects_unnormalized_kets(states):
    assert not caves_criterion(su3_like_triple()).passed
    with pytest.raises(ValueError, match="not normalized"):
        caves_criterion(states)
    with pytest.raises(ValueError, match="not normalized"):
        povm_from_caves_triple(states)


# ---------------------------------------------------------------------------
# single-qubit weight program


def test_qubit_lp_sic_quadruple():
    e = sic4()
    v = qubit_antidist_lp(e.states, labels=e.labels)
    assert v.decision == "YES"
    np.testing.assert_allclose(v.alphas, [0.5] * 4, atol=1e-9)
    povm = v.certificate
    assert povm is not None
    rep = verify_strong(e, povm, tol=1e-9)
    assert rep.passed


def test_qubit_lp_weak3_is_no_with_zero_optimum():
    v = qubit_antidist_lp(weak3().states)
    assert v.decision == "NO"
    assert v.margins and v.margins[0] <= 1e-9


def test_qubit_lp_merges_phase_duplicates():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    v = qubit_antidist_lp([zero, one, 1j * zero, -one])
    assert v.decision == "YES"
    assert v.alphas is not None
    assert sum(v.alphas) == pytest.approx(2.0, abs=1e-9)


def test_qubit_lp_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        qubit_antidist_lp([np.eye(3)[0], np.eye(3)[1]])


def test_qubit_lp_rejects_repeated_labels_on_either_answer():
    """The labels are checked on entry, not only on the YES path."""
    assert qubit_antidist_lp(weak3().states).decision == "NO"
    assert qubit_antidist_lp(trine3().states).decision == "YES"
    for e in (weak3(), trine3()):
        with pytest.raises(ValueError, match="labels must be distinct"):
            qubit_antidist_lp(e.states, ["a", "a", "b"])
        with pytest.raises(ValueError):
            qubit_antidist_lp(e.states, ["a", "b"])


def test_qubit_lp_rejects_unnormalized_kets():
    """Checked before the weight program, whose NO path reads no norm."""
    states = weak3().states
    assert qubit_antidist_lp(states).decision == "NO"
    for bad in ([0.5 * v for v in states], states[:2] + [np.zeros(2)]):
        with pytest.raises(ValueError, match="not normalized"):
            qubit_antidist_lp(bad)


# ---------------------------------------------------------------------------
# strong verification


def test_verify_strong_accepts_trine_antipodes():
    e = trine3()
    els = [(2.0 / 3.0) * np.outer(p, p.conj())
           for p in (np.array([math.sin(2 * math.pi * k / 3),
                               -math.cos(2 * math.pi * k / 3)]) for k in range(3))]
    povm = Povm(e.layout, els, list(e.labels))
    rep = verify_strong(e, povm, tol=1e-10)
    assert rep.passed
    assert all(r.exclusion_residual <= 1e-10 for r in rep.outcomes
               if r.exclusion_residual is not None)


def test_verify_strong_flags_bad_povm_and_bad_exclusion():
    e = trine3()
    half = [0.5 * np.eye(2) for _ in range(2)]
    with pytest.raises(ValueError):
        # labels must cover every state
        verify_strong(e, Povm(e.layout, half, ["T1", "T2"]), tol=1e-9)
    els = [np.eye(2) / 3.0] * 3
    rep = verify_strong(e, Povm(e.layout, els, list(e.labels)), tol=1e-9)
    assert not rep.passed  # outcomes do not annihilate their states


def test_verify_strong_flags_incomplete_sum():
    e = trine3()
    els = [(0.5 / 3.0) * np.eye(2)] * 3
    rep = verify_strong(e, Povm(e.layout, els, list(e.labels)), tol=1e-9)
    assert not rep.passed
    assert rep.completeness_residual > 0.4


def test_verify_strong_flags_a_dead_dedicated_element():
    """Condition 2 fails on weak3's weak-feasible point: '+' is excluded
    only by the zero element."""
    e = weak3()
    els = [np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2))]
    rep = verify_strong(e, Povm(e.layout, els, ["0", "1", "+"]), tol=1e-9)
    assert rep.povm_ok and rep.condition1_ok and not rep.condition2_ok
    assert not rep.passed
    assert rep.failures == ["no firing element is dedicated to '+'"]


def test_verify_strong_flags_an_unlabeled_element_that_never_fires():
    """trine3 embedded in C^3: its certificate plus |2><2| completes the
    measurement, but the bystander |2><2| never fires."""
    e, cert = catalog_certificate("trine3")
    lay = PartyLayout((3,))
    embedded = Ensemble("trine3 in C3", lay, e.labels, [np.append(v, 0.0) for v in e.states])
    els = [np.pad(m, ((0, 1), (0, 1))) for m in cert.elements] + [np.diag([0.0, 0.0, 1.0])]
    rep = verify_strong(embedded, Povm(lay, els, cert.labels + [None]), tol=1e-9)
    assert rep.povm_ok and rep.condition1_ok and not rep.condition2_ok
    assert not rep.passed
    assert rep.failures == ["unlabeled element 3 never fires"]


def test_a_povm_keeps_one_complex_stack_from_a_list_or_a_stack():
    """Real matrices given as a list and as a stack are kept as the same
    (n, d, d) complex128 stack; a complex128 stack is kept as given."""
    mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    lay = PartyLayout((3,))
    from_list = Povm(lay, mats).elements
    from_stack = Povm(lay, np.array(mats)).elements
    for els in (from_list, from_stack):
        assert isinstance(els, np.ndarray)
        assert els.dtype == np.complex128 and els.shape == (3, 3, 3)
    assert np.array_equal(from_list, from_stack)
    assert Povm(lay, from_list).elements is from_list


@pytest.mark.parametrize("elements, message", [
    ([], "a POVM needs at least one element"),
    ([np.eye(3), np.eye(2), np.eye(3)], r"element 1: expected shape \(3, 3\), got \(2, 2\)"),
    ([np.eye(3), np.ones(3)], r"element 1: expected shape \(3, 3\), got \(3,\)"),
    ([1.0, 2.0], r"element 0: expected shape \(3, 3\), got \(\)"),
    ([np.eye(3), np.eye(3), np.full((3, 3), np.nan)], "element 2 has non-finite entries"),
    ([np.eye(3), np.diag([np.inf, 0.0, 0.0])], "element 1 has non-finite entries"),
    ([np.full((3, 3), np.nan), np.eye(4)], "element 0 has non-finite entries"),
    ([np.eye(4), np.full((3, 3), np.nan)], r"element 0: expected shape \(3, 3\), got \(4, 4\)"),
    (np.zeros((2, 3, 4)), r"element 0: expected shape \(3, 3\), got \(3, 4\)"),
])
def test_a_povm_names_its_first_bad_element(elements, message):
    """Shape and finiteness are checked for the whole stack at once, and the
    error names the first bad element, in element order, as a per-element
    loop would: a non-finite element before a misshapen one is reported."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Povm(PartyLayout((3,)), elements)


def test_the_pbr4_three_draw_certificate_passes_a_plain_numpy_check():
    """The triple cover of pbr4 with three draws, 24 states in C^64, checked
    with numpy alone, element by element: Hermitian, positive by eigvalsh,
    complete, each element annihilating the state its label names, and for
    every state a dedicated element that fires."""
    e = sequence_ensemble(pbr4(), 3)
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("YES", "triple_cover")
    els = np.array(v.certificate.elements)
    kets = np.array(e.states)
    assert els.shape == (24, 64, 64)
    assert np.max(np.abs(els.sum(axis=0) - np.eye(64))) <= 1e-10
    fired = set()
    for el, lab in zip(els, v.certificate.labels):
        assert np.max(np.abs(el - el.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh((el + el.conj().T) / 2).min() >= -1e-10
        psi = kets[e.labels.index(lab)]
        assert abs(np.vdot(psi, el @ psi)) <= 1e-10
        if sum(np.vdot(phi, el @ phi).real for phi in kets) > 1e-9:
            fired.add(lab)
    assert fired == set(e.labels)


def _old_lift(b, small, k):
    r, d = b.shape[-2:]
    return np.swapaxes(b, -1, -2) @ (small - np.eye(r) / k) @ b.conj() + np.eye(d) / k


@pytest.mark.parametrize("r", [2, 3])
def test_lift_matches_the_broadcast_formula(r):
    """``_lift``, which adds I/k to the diagonal in place, equals
    B^T (S - I/k) conj(B) + I/k on random complex stacks: one basis per
    stack of elements, the (n, 1, r, d) broadcast of ``_triple_elements``
    and the single basis of the qubit route."""
    rng = np.random.default_rng(20 + r)
    d, n, k = 7, 5, 3

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    bases = np.swapaxes(np.linalg.qr(cplx(n, d, r))[0], -1, -2)   # (n, r, d), orthonormal rows
    for b, small, parts in ((bases, cplx(n, r, r), k),
                            (bases[:, None], cplx(n, k, r, r), k),
                            (bases[0], cplx(6, r, r), 6)):
        got = _lift(b, small, parts)
        np.testing.assert_allclose(got, _old_lift(b, small, parts), rtol=0, atol=1e-14)


@lru_cache(maxsize=None)
def catalog_certificate(name):
    """A catalog ensemble with its decide_antidist certificate; "duan4-rotated"
    shifts the certificate's labels by one, so every exclusion fails."""
    builders = {"trine3": trine3, "sic4": sic4, "bell4": bell4,
                "bennett9": bennett9, "duan4": duan4, "pbr4": pbr4}
    e = builders[name.split("-")[0]]()
    cert = decide_antidist(e).certificate
    if name.endswith("-rotated"):
        cert = Povm(cert.layout, cert.elements, cert.labels[1:] + cert.labels[:1])
    return e, cert


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["trine3", "sic4", "bell4", "bennett9", "duan4", "pbr4",
                             "duan4-rotated"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_verify_strong_is_invariant_under_unitaries_phases_and_relabelling(name, seed):
    e, cert = catalog_certificate(name)
    rng = np.random.default_rng(seed)
    d, n = e.layout.dim, e.n_states
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.exp(2j * math.pi * rng.uniform(size=n))
    order = rng.permutation(n)
    rename = {lab: f"r{k}" for k, lab in zip(rng.permutation(n), e.labels)}
    moved = Ensemble("moved", e.layout, [rename[e.labels[i]] for i in order],
                     [phases[i] * (u @ e.states[i]) for i in order])
    moved_cert = Povm(cert.layout, [u @ m @ u.conj().T for m in cert.elements],
                      [rename[lab] for lab in cert.labels])
    before = verify_strong(e, cert, tol=1e-8)
    after = verify_strong(moved, moved_cert, tol=1e-8)
    assert after.passed == before.passed
    assert (after.condition1_ok, after.condition2_ok) == (before.condition1_ok,
                                                          before.condition2_ok)
    for a, b in zip(after.outcomes, before.outcomes):
        assert set(a.excluded) == {rename[lab] for lab in b.excluded}
        assert a.firing == pytest.approx(b.firing, abs=1e-9)


# ---------------------------------------------------------------------------
# certified triples and unions


def test_triple_certificate_for_trine():
    e = trine3()
    povm = povm_from_caves_triple(e.states, e.labels, layout=e.layout)
    rep = verify_strong(e, povm, tol=1e-9)
    assert rep.passed


def test_triple_certificate_random_passing_triples():
    rng = np.random.default_rng(5)
    built = 0
    for _ in range(40):
        states = [haar(3, rng) for _ in range(3)]
        if not caves_criterion(states).passed:
            continue
        povm = povm_from_caves_triple(states)
        lay = PartyLayout((3,))
        e = Ensemble("t", lay, ["s0", "s1", "s2"], states)
        assert verify_strong(e, povm, tol=1e-8).passed
        built += 1
    assert built >= 10


def boundary_gram_triple(x12, x13, phi):
    """Columns of G^(1/2) for the Gram matrix with squared overlaps x12, x13
    and the smaller x23 that puts the triple on the quartic equality."""
    a, p = 1.0 - x12 - x13, x12 * x13
    x23 = a + 2.0 * p - 2.0 * math.sqrt(p * (a + p))
    g = np.array([[1.0, math.sqrt(x12), math.sqrt(x13)],
                  [math.sqrt(x12), 1.0, math.sqrt(x23) * np.exp(1j * phi)],
                  [math.sqrt(x13), math.sqrt(x23) * np.exp(-1j * phi), 1.0]])
    w, v = np.linalg.eigh(g)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return [root[:, j] for j in range(3)]


@pytest.mark.parametrize("states", [
    # overlap phases just short of pi: the smallest Gram eigenvalue is ~1e-6
    boundary_gram_triple(0.39367781186581313, 0.5409037808457999, 3.1333575993144986),
    # real symmetric triple with every overlap 1/2
    boundary_gram_triple(0.25, 0.25, 0.0),
], ids=["near-degenerate", "symmetric"])
def test_rank_three_triples_on_the_quartic_boundary(states):
    assert np.linalg.matrix_rank(np.column_stack(states), tol=1e-9) == 3
    rep = caves_criterion(states)
    assert rep.passed
    assert abs(rep.quartic_lhs - rep.quartic_rhs) <= 1e-12
    e = Ensemble("boundary", PartyLayout((3,)), ["s0", "s1", "s2"], states)
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("YES", "caves")
    assert verify_strong(e, v.certificate, tol=1e-9).passed


@lru_cache(maxsize=None)
def passing_haar_triples():
    """The first 600 passing qutrit triples of a seeded Haar stream; the
    145th, 256th and 515th pass the quartic inequality by only 1e-4 to 1e-3,
    close enough to its boundary to stall an iterative solver."""
    rng = np.random.default_rng(0)
    out = []
    while len(out) < 600:
        states = [haar(3, rng) for _ in range(3)]
        if caves_criterion(states).passed:
            out.append(states)
    return out


def test_passing_haar_triples_all_end_yes():
    for passing, states in enumerate(passing_haar_triples(), start=1):
        e = Ensemble("t", PartyLayout((3,)), ["s0", "s1", "s2"], states)
        v = decide_antidist(e)
        assert (v.decision, v.method) == ("YES", "caves"), passing
        assert verify_strong(e, v.certificate, tol=1e-10).passed, passing


def test_triple_passing_only_at_a_wider_tolerance_ends_yes():
    """Every squared overlap 0.25 + 2e-7: the quartic fails by 4.5e-7, so the
    triple passes at tol 1e-6 and fails at the default."""
    c = math.sqrt(0.25 + 2e-7)
    w, v = np.linalg.eigh((1.0 - c) * np.eye(3) + c * np.ones((3, 3)))
    root = (v * np.sqrt(w)) @ v.T
    e = Ensemble("symmetric", PartyLayout((3,)), ["s0", "s1", "s2"],
                 [root[:, j] for j in range(3)])
    assert not caves_criterion(e.states).passed
    assert caves_criterion(e.states, boundary_tol=1e-6).passed
    verdict = decide_antidist(e, tol=1e-6)
    assert (verdict.decision, verdict.method) == ("YES", "caves")
    assert verify_strong(e, verdict.certificate, tol=1e-6).passed
    assert decide_antidist(e).decision == "NO"


def span_coordinates(states):
    """The kets in the coordinates of a 3-dimensional subspace holding them."""
    _, _, vh = np.linalg.svd(np.stack(states))
    return [vh[:3].conj() @ s for s in states]


def assert_exclusion_basis(ys):
    f = _triple_basis(ys)
    np.testing.assert_allclose(f.conj() @ f.T, np.eye(3), rtol=0, atol=1e-12)
    assert max(abs(np.vdot(fj, y)) for fj, y in zip(f, ys)) <= 1e-12


def orthogonal_pair_triples():
    """Passing triples with an orthogonal pair in each of the three places,
    and the computational basis."""
    rng = np.random.default_rng(11)
    out = [list(np.eye(3, dtype=np.complex128))]
    for pair in ((0, 1), (0, 2), (1, 2)):
        while True:
            a, b, c = haar(3, rng), haar(3, rng), haar(3, rng)
            b = b - np.vdot(a, b) * a
            b /= np.linalg.norm(b)
            third = 3 - sum(pair)
            triple = [None] * 3
            triple[pair[0]], triple[pair[1]], triple[third] = a, b, c
            if caves_criterion(triple).passed:
                out.append(triple)
                break
    return out


def exclusion_basis_cases():
    trine = [np.concatenate([v, np.zeros(3)]) for v in trine3().states]
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    su3_pair = sequence_ensemble(su3(), 2)
    su3_boundary = restrict(su3_pair, ["(00,0+)", "(00,+0)", "(0+,00)"]).states
    return ([pytest.param([v[:3] for v in trine], id="trine3"),
             pytest.param(span_coordinates([u @ v for v in trine]), id="trine3-in-C5"),
             pytest.param(boundary_gram_triple(0.39367781186581313, 0.5409037808457999,
                                               3.1333575993144986),
                          id="boundary-near-degenerate"),
             pytest.param(boundary_gram_triple(0.25, 0.25, 0.0), id="boundary-symmetric"),
             pytest.param(span_coordinates(su3_boundary), id="su3-boundary")]
            + [pytest.param(t, id=f"orthogonal-pair-{i}")
               for i, t in enumerate(orthogonal_pair_triples())])


@pytest.mark.parametrize("ys", exclusion_basis_cases())
def test_exclusion_basis_is_orthonormal_and_excludes(ys):
    assert caves_criterion(ys).passed
    assert_exclusion_basis(ys)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_exclusion_basis_under_unitaries_phases_and_relabelling(seed):
    rng = np.random.default_rng(seed)
    while True:
        ys = [haar(3, rng) for _ in range(3)]
        if caves_criterion(ys).passed:
            break
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    phases = np.exp(2j * math.pi * rng.uniform(size=3))
    assert_exclusion_basis(ys)
    assert_exclusion_basis([phases[k] * (u @ ys[k]) for k in rng.permutation(3)])


def test_batched_triple_elements_match_the_one_triple_path():
    """One mixed batch: the Haar stream, the quartic-boundary triples, the
    orthogonal pairs and a rank-2 span (trine3 in C^3), each triple taking
    its own number of secular Newton steps; every triple's elements are the
    ones ``povm_from_caves_triple`` builds for it alone."""
    triples = (passing_haar_triples()
               + [boundary_gram_triple(0.39367781186581313, 0.5409037808457999,
                                       3.1333575993144986),
                  boundary_gram_triple(0.25, 0.25, 0.0)]
               + orthogonal_pair_triples()
               + [[np.append(v, 0.0) for v in trine3().states]])
    kets = np.array([v for t in triples for v in t], dtype=np.complex128)
    els, built = _triple_elements(kets, np.arange(len(kets)).reshape(-1, 3), 1e-9)
    assert built.all()
    for i, states in enumerate(triples):
        alone = povm_from_caves_triple(states).elements
        np.testing.assert_allclose(els[i], alone, rtol=0, atol=1e-12, err_msg=str(i))


def test_triple_routes_never_run_the_feasibility_core(monkeypatch):
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return core(*args, **kw)

    core = exclusion._core_answers
    monkeypatch.setattr("antimark.exclusion._core_answers", counting)
    for e in (trine3(), duan4(), sequence_ensemble(su3(), 2),
              sequence_ensemble(pbr4(), 2), sequence_ensemble(pbr4(), 3)):
        assert decide_antidist(e).decision == "YES", e.name
    assert calls == []


def test_triple_certificate_rejects_failing_triple():
    with pytest.raises(ValueError):
        povm_from_caves_triple(weak3().states)


def test_compose_union_covers_all_states():
    e = duan4()
    v = decide_antidist(e)
    assert v.decision == "YES" and v.method == "triple_cover"
    assert v.certificate is not None
    rep = verify_strong(e, v.certificate, tol=1e-8)
    assert rep.passed
    assert v.triples and all(len(t) == 3 for t in v.triples)


def test_triple_cover_drops_a_triple_that_cannot_be_certified(monkeypatch):
    """A triple whose measurement is not built is dropped and the cover goes
    on with the next option for the same state."""
    e = duan4()

    def flaky(kets, triples, tol):
        els, built = real(kets, triples, tol)
        return els, built & ~(triples == [0, 1, 2]).all(axis=1)

    real = exclusion._triple_elements
    monkeypatch.setattr("antimark.exclusion._triple_elements", flaky)
    v = decide_antidist(e)
    assert v.decision == "YES" and v.method == "triple_cover"
    assert ("D1", "D2", "D3") not in v.triples
    assert {lab for t in v.triples for lab in t} == set(e.labels)
    assert verify_strong(e, v.certificate, tol=1e-8).passed


def test_compose_union_validates_membership():
    e = duan4()
    sub = povm_from_caves_triple([e.states[0], e.states[1], e.states[2]],
                                 ["D1", "D2", "D3"], layout=e.layout)
    with pytest.raises(ValueError):
        compose_union(e, [(["D1", "D2", "NOPE"], sub)])


def test_compose_union_reverifies_parts_and_assembles_like_the_decision():
    e = duan4()
    v = decide_antidist(e)
    parts = [(list(t), povm_from_caves_triple([e.states[e.labels.index(x)] for x in t],
                                              list(t), layout=e.layout))
             for t in v.triples]
    union = compose_union(e, parts, tol=1e-9)
    assert union.labels == v.certificate.labels
    np.testing.assert_allclose(union.elements, v.certificate.elements, rtol=0, atol=1e-12)
    labs, sub = parts[0]
    swapped = Povm(sub.layout, sub.elements, sub.labels[1:] + sub.labels[:1])
    with pytest.raises(ValueError, match="fails verification"):
        compose_union(e, [(labs, swapped)] + parts[1:])


# ---------------------------------------------------------------------------
# the triple screen and the greedy cover against the loop they replaced


def loop_triple_cover(e, tol, build):
    """Reference cover: ``caves_criterion`` on every triple into a dict, the
    reached states and the sorted options rebuilt at every step; ``build``
    stands for ``povm_from_caves_triple``.  The chosen index triples, or None."""
    k = e.n_states
    passing = {t: True for t in combinations(range(k), 3)
               if caves_criterion([e.states[i] for i in t], boundary_tol=tol).passed}
    cover, covered = [], set()
    while len(covered) < k and len({i for t in passing for i in t}) == k:
        u = min(set(range(k)) - covered)
        options = sorted((t for t in passing if u in t),
                         key=lambda t: -len(set(t) - covered))
        for t in options:
            try:
                build([e.states[i] for i in t], [e.labels[i] for i in t],
                      layout=e.layout, tol=tol)
            except (ValueError, RuntimeError):
                del passing[t]
                continue
            cover.append(t)
            covered.update(t)
            break
    return cover if len(covered) == k else None


def refusing_builder(states, labels=None, **kw):
    """Stand-in for ``povm_from_caves_triple`` that refuses every triple whose
    label indices sum to a multiple of 4, so triples die on the way."""
    if sum(int(lab[1:]) for lab in labels) % 4 == 0:
        raise RuntimeError("refused")
    return None


def refusing_batch(kets, triples, tol):
    """``refusing_builder`` as a stand-in for the batched ``_triple_elements``,
    for ensembles labelled s0, s1, ...: the refused triples are not built."""
    els, built = _triple_elements(kets, triples, tol)
    return els, built & (triples.sum(axis=1) % 4 != 0)


def assert_screen_and_cover_match(e, tol, build, batch, monkeypatch):
    """``build`` stands for ``povm_from_caves_triple`` in the reference loop,
    ``batch`` for ``_triple_elements`` in the cover."""
    idx, passed, _ = _triple_screen(e.states, tol)
    assert [tuple(t) for t in idx.tolist()] == list(combinations(range(e.n_states), 3))
    expected = [caves_criterion([e.states[i] for i in t], boundary_tol=tol).passed
                for t in idx.tolist()]
    assert passed.tolist() == expected, e.name
    monkeypatch.setattr("antimark.exclusion._triple_elements", batch)
    found = _triple_cover(e, tol)
    old = loop_triple_cover(e, tol, build)
    assert (None if found is None else found[0]) == old, e.name


def seeded_ensembles():
    """Haar ensembles for k = 4..12 in dims 3..8, some with a duplicated
    state (up to phase), orthogonal states, or a trine on the quartic
    boundary."""
    rng = np.random.default_rng(2024)
    out = []
    for k in range(4, 13):
        for d in range(3, 9):
            states = [haar(d, rng) for _ in range(k)]
            kind = (k + d) % 4
            if kind == 1:
                states[k - 1] = 1j * states[0]
            elif kind == 2:
                eye = np.eye(d, dtype=np.complex128)
                states[:min(k, d)] = list(eye[:min(k, d)])
            elif kind == 3:
                for j, v in enumerate(trine3().states):
                    states[j] = np.concatenate([v, np.zeros(d - 2)])
            out.append(Ensemble(f"k{k}d{d}", PartyLayout((d,)),
                                [f"s{j}" for j in range(k)], states))
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_screen_and_cover_match_the_loop_on_seeded_ensembles(tol, monkeypatch):
    for e in seeded_ensembles():
        assert_screen_and_cover_match(e, tol, refusing_builder, refusing_batch, monkeypatch)


def test_screen_and_cover_match_the_loop_with_certified_triples(monkeypatch):
    ensembles = [e for e in seeded_ensembles() if e.n_states <= 6]
    ensembles += [sequence_ensemble(pbr4(), 2), sequence_ensemble(su3(), 2),
                  sequence_ensemble(duan4(), 2), sequence_ensemble(theta4(0.9), 2),
                  sequence_ensemble(pbr4(), 3)]
    ensembles += [quartet(i) for i in range(100)]
    for e in ensembles:
        assert_screen_and_cover_match(e, 1e-9, povm_from_caves_triple, _triple_elements,
                                      monkeypatch)


def test_triple_cover_checks_each_triple_certificate_once(monkeypatch):
    e = sequence_ensemble(pbr4(), 3)
    calls = []

    def counting(*args, **kw):
        calls.append(args[0].name)
        return verify_strong(*args, **kw)

    monkeypatch.setattr("antimark.exclusion.verify_strong", counting)
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("YES", "triple_cover")
    assert len(v.triples) == 8
    assert calls == [e.name]
    assert verify_strong(e, v.certificate, tol=1e-8).passed


def test_a_failing_union_drops_the_triple_that_fails_alone(monkeypatch):
    """A stand-in builder hands back one planned triple with its elements
    rotated, so the union fails; each planned triple is then checked alone,
    the rotated one is dropped, and the cover is the loop's with a builder
    that refuses that triple."""
    e = sequence_ensemble(pbr4(), 2)
    first, _, _ = _triple_cover(e, 1e-9)
    bad = first[0]
    real = exclusion._triple_elements

    def rotating(kets, triples, tol):
        els, built = real(kets, triples, tol)
        hit = (triples == bad).all(axis=1)
        els[hit] = els[hit][:, [1, 2, 0]]
        return els, built

    def refusing(states, labels=None, **kw):
        if tuple(e.labels.index(lab) for lab in labels) == bad:
            raise RuntimeError("refused")

    checked = []

    def counting(ens, povm, tol):
        checked.append(ens.name)
        return verify_strong(ens, povm, tol=tol)

    monkeypatch.setattr("antimark.exclusion._triple_elements", rotating)
    monkeypatch.setattr("antimark.exclusion.verify_strong", counting)
    triples, union, _ = _triple_cover(e, 1e-9)
    assert bad not in triples
    assert triples == loop_triple_cover(e, 1e-9, refusing)
    assert checked[0] == checked[-1] == e.name
    assert len(checked) == len(first) + 2 and e.name not in checked[1:-1]
    assert verify_strong(e, union, tol=1e-9).passed


def test_triple_cover_margins_are_the_criterion_margins_of_the_chosen_triples():
    ensembles = [duan4()] + [sequence_ensemble(p, 2) for p in (pbr4(), su3(), duan4(),
                                                               theta4(0.9))]
    ensembles += [sequence_ensemble(pbr4(), 3)] + seeded_ensembles()
    covers = 0
    for e in ensembles:
        cover = _triple_cover(e, 1e-9)
        if cover is None:
            continue
        covers += 1
        triples, _, margins = cover
        reps = [caves_criterion([e.states[i] for i in t]) for t in triples]
        np.testing.assert_allclose(margins, [min(1.0 - r.total for r in reps),
                                             min(r.quartic_lhs - r.quartic_rhs for r in reps)],
                                   rtol=0, atol=1e-12, err_msg=e.name)
    assert covers >= 10


def membership_plan(idx, alive, k):
    """Reference greedy on a (T, k) membership matrix: None unless the live
    triples reach every state; then, while a state is uncovered, the smallest
    uncovered state takes the first live triple holding it that covers most
    uncovered states."""
    member = np.zeros((len(idx), k), dtype=bool)
    member[np.arange(len(idx))[:, None], idx] = True
    if not member[alive].any(axis=0).all():
        return None
    covered = np.zeros(k, dtype=bool)
    plan = []
    while not covered.all():
        u = int(np.argmin(covered))
        fresh = member[:, ~covered].sum(axis=1)
        plan.append(int(np.argmax(np.where(alive & member[:, u], fresh, -1))))
        covered |= member[plan[-1]]
    return plan


def test_cover_plan_matches_the_membership_greedy_with_dead_triples():
    """The plan on index triples is the membership greedy's, tie order
    included, on Haar ensembles with a seeded share of dead triples; it is
    None exactly when some state lies in no live triple."""
    rng = np.random.default_rng(77)
    outcomes = set()
    for k in range(4, 31):
        for d in (3, 4, 5):
            states = [haar(d, rng) for _ in range(k)]
            idx, passed, _ = _triple_screen(states, 1e-9)
            for dead in (0.0, 0.5, 0.9, 0.99):
                alive = passed & (rng.random(len(idx)) >= dead)
                before = alive.copy()
                plan = _cover_plan(idx, alive, k)
                assert plan == membership_plan(idx, alive, k), (k, d, dead)
                assert (alive == before).all()
                reached = np.zeros(k, dtype=bool)
                reached[idx[alive].ravel()] = True
                assert (plan is None) == (not reached.all()), (k, d, dead)
                outcomes.add(plan is None)
    assert outcomes == {True, False}


def test_cover_plan_allocates_less_than_its_index_triples():
    """Planning a k = 100 cover in C^6 (T = 161,700 triples) allocates less
    than the (T, 3) index array itself, so nothing of size T x k."""
    rng = np.random.default_rng(100)
    k = 100
    idx, alive, _ = _triple_screen([haar(6, rng) for _ in range(k)], 1e-9)
    assert len(idx) == 161_700
    tracemalloc.start()
    try:
        plan = _cover_plan(idx, alive, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan is not None and set(idx[plan].ravel().tolist()) == set(range(k))
    assert peak < idx.nbytes < len(idx) * k


# ---------------------------------------------------------------------------
# numerical search


def test_search_finds_pbr_certificate():
    e = pbr4()
    povm = search_exclusion_povm(e, restarts=8, iters=2000, seed=0)
    assert povm is not None
    rep = verify_strong(e, povm, tol=1e-8)
    assert rep.passed


def test_search_yes_answers_always_verify():
    rng = np.random.default_rng(17)
    lay = PartyLayout((3,))
    found = 0
    for i in range(20):
        states = [haar(3, rng) for _ in range(4)]
        e = Ensemble(f"r{i}", lay, [f"s{j}" for j in range(4)], states)
        povm = search_exclusion_povm(e, restarts=2, iters=1200, seed=i)
        if povm is None:
            continue
        found += 1
        assert verify_strong(e, povm, tol=1e-8).passed
    assert found >= 5


# ---------------------------------------------------------------------------
# the batched feasibility step against the per-block loop it replaced


def loop_psd_project(x, sizes):
    """Reference step: each block summed over its Hermitian basis, one eigh
    per block, one vdot per coordinate.  Returns the coordinates and the
    clipped blocks."""
    blocks = [_hermitian_basis(s) for s in sizes]
    out, i = [], 0
    for basis in blocks:
        m = np.zeros_like(basis[0])
        for g in basis:
            m = m + x[i] * g
            i += 1
        w, v = np.linalg.eigh(m)
        out.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
    y = np.array([float(np.vdot(g, m).real)
                  for m, basis in zip(out, blocks) for g in basis])
    return y, out


def loop_support_feasible(groups, dim, tol, restarts, iters, seed):
    """Reference core: the same Douglas-Rachford iteration with the loop step
    and the unfolded affine projection."""
    bases = [_orthocomplement(g, dim) for g in groups]
    sizes = [b.shape[1] for b in bases]
    cols = []
    for b, basis in zip(bases, [_hermitian_basis(s) for s in sizes]):
        for g in basis:
            m = b @ g @ b.conj().T
            cols.append(np.concatenate([m.real.ravel(), m.imag.ravel()]))
    lin = np.column_stack(cols)
    target = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    pinv = np.linalg.pinv(lin, rcond=1e-12)
    for r in range(restarts):
        x = np.random.default_rng(seed + 7919 * r).normal(size=lin.shape[1])
        best, since_best = np.inf, 0
        for _ in range(iters):
            y, clipped = loop_psd_project(x, sizes)
            res = float(np.max(np.abs(lin @ y - target)))
            if res < tol:
                return [b @ m @ b.conj().T for b, m in zip(bases, clipped)]
            if res < best * 0.99:
                best, since_best = res, 0
            else:
                since_best += 1
                if since_best > 400:
                    break
            refl = 2.0 * y - x
            x = x + refl - pinv @ (lin @ refl - target) - y
    return None


def support_instance(kind, seed):
    """Ket groups and dimension: a qutrit quartet (one size-2 block per
    state), mixed singles and pairs in C^4 (sizes 3 and 2), or six pairs in
    C^4 (the tilted-family shape, size 2)."""
    rng = np.random.default_rng(seed)
    if kind == "quartet":
        return [[haar(3, rng)] for _ in range(4)], 3
    if kind == "mixed":
        return [[haar(4, rng)], [haar(4, rng)], [haar(4, rng), haar(4, rng)],
                [haar(4, rng), haar(4, rng)]], 4
    return [[haar(4, rng), haar(4, rng)] for _ in range(6)], 4


@pytest.mark.parametrize("sizes", [[2, 2, 2, 2], [3, 2, 3, 2, 2], [1, 3, 2, 0, 2], [2] * 6],
                         ids=["quartet", "mixed", "with-empty", "pairs"])
def test_batched_step_matches_the_per_block_loop(sizes):
    rng = np.random.default_rng(sum(sizes))
    stacks = _block_stacks(sizes)
    nonzero = [s for s in sizes if s]
    for _ in range(20):
        x = rng.normal(size=sum(s * s for s in sizes))
        np.testing.assert_allclose(_psd_project(x, stacks),
                                   loop_psd_project(x, nonzero)[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,seeds", [
    ("quartet", [8, 9, 10]), ("mixed", [0, 1]), ("pairs", [0, 1]),
], ids=["quartet", "mixed", "pairs"])
def test_batched_core_matches_the_per_block_loop(kind, seeds):
    outcomes = set()
    for seed in seeds:
        groups, dim = support_instance(kind, seed)
        found = next(_core_answers(groups, dim, 1e-9, 2, 600, seed), None)
        fast = found if isinstance(found, list) else None
        slow = loop_support_feasible(groups, dim, 1e-9, 2, 600, seed)
        assert (fast is None) == (slow is None), seed
        outcomes.add(fast is None)
        if fast is not None:
            np.testing.assert_allclose(np.array(fast), np.array(slow), rtol=0, atol=1e-9)
    assert outcomes == {True, False}


def test_support_spanning_the_whole_space_gets_a_zero_element():
    e0, e1 = np.eye(2, dtype=np.complex128)
    # the second element may only live on |1>, so completeness fails
    assert next(_core_answers([[e0, e1], [e0]], 2, 1e-10, 3, 4000, 0), None) is None
    els = next(_core_answers([[e0, e1], [e0], [e1]], 2, 1e-10, 3, 4000, 0), None)
    assert els is not None
    np.testing.assert_allclose(els[0], np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(els[1], np.diag([0.0, 1.0]), atol=1e-9)
    np.testing.assert_allclose(els[2], np.diag([1.0, 0.0]), atol=1e-9)


# ---------------------------------------------------------------------------
# exclusion bookkeeping


def test_exclusion_counts_bell_computational():
    e = bell4()
    basis = [np.zeros((4, 4)) for _ in range(4)]
    for i in range(4):
        basis[i][i, i] = 1.0
    povm = Povm(e.layout, [m.astype(np.complex128) for m in basis])
    counts = exclusion_counts(e, povm)
    assert counts.min_exclusions == 2
    # |00> and |11> rule out the Psi pair, |01> and |10> the Phi pair
    pat = [set(r.excluded) for r in counts.outcomes]
    assert pat[0] == {"Psi+", "Psi-"} and pat[3] == {"Psi+", "Psi-"}
    assert pat[1] == {"Phi+", "Phi-"} and pat[2] == {"Phi+", "Phi-"}


def test_exclusion_counts_rejects_non_povm():
    e = bell4()
    els = [np.eye(4, dtype=np.complex128)] * 2
    with pytest.raises(ValueError):
        exclusion_counts(e, Povm(e.layout, els))


# ---------------------------------------------------------------------------
# the decision routine


def test_decide_catalog_verdicts():
    expected = {
        "trine3": ("YES", "caves"),
        "weak3": ("NO", "caves"),
        "duan4": ("YES", "triple_cover"),
        "nl1": ("YES", "caves"),
        "su3": ("NO", "caves"),
        "sic4": ("YES", "qubit_lp"),
        "bell4": ("YES", "triple_cover"),
        "bennett9": ("YES", "triple_cover"),
        "pbr4": ("YES", "search"),
        "pbr4^[2]": ("YES", "triple_cover"),
        "su3^[2]": ("YES", "triple_cover"),
        "duan4^[2]": ("YES", "triple_cover"),
        "theta4(0.9)^[2]": ("YES", "triple_cover"),
        "pbr4^[3]": ("YES", "triple_cover"),
    }
    builders = {"trine3": trine3, "weak3": weak3, "duan4": duan4, "nl1": nl1,
                "su3": su3, "sic4": sic4, "bell4": bell4, "bennett9": bennett9,
                "pbr4": pbr4,
                "pbr4^[2]": lambda: sequence_ensemble(pbr4(), 2),
                "su3^[2]": lambda: sequence_ensemble(su3(), 2),
                "duan4^[2]": lambda: sequence_ensemble(duan4(), 2),
                "theta4(0.9)^[2]": lambda: sequence_ensemble(theta4(0.9), 2),
                "pbr4^[3]": lambda: sequence_ensemble(pbr4(), 3)}
    for name, (decision, method) in expected.items():
        v = decide_antidist(builders[name]())
        assert (v.decision, v.method) == (decision, method), name
        if decision == "YES":
            assert v.certificate is not None
            assert verify_strong(builders[name](), v.certificate, tol=1e-8).passed


def test_decide_su3_margin_reports_overlap_surplus():
    v = decide_antidist(su3())
    assert v.decision == "NO"
    # the squared-overlap sum is 5/4, a quarter past the threshold
    assert v.margins[0] == pytest.approx(-0.25, abs=1e-12)


def test_verdict_serialization_roundtrip():
    v = decide_antidist(trine3())
    doc = v.to_dict()
    assert doc["decision"] == "YES"
    assert doc["method"] == "caves"
    assert isinstance(doc["margins"], list)


# ---------------------------------------------------------------------------
# NO certificates: dual witnesses


def pair_witness(a, b):
    """(rho_a + rho_b - |rho_a - rho_b|) / 2, below both projectors."""
    w, v = np.linalg.eigh(density(a) - density(b))
    return (density(a) + density(b) - (v * np.abs(w)) @ v.conj().T) / 2.0


def quartet(i):
    """The criterion-13 quartet of generator seed 1000 + i."""
    rng = np.random.default_rng(1000 + i)
    return Ensemble(f"q{i}", PartyLayout((3,)), [f"s{j}" for j in range(4)],
                    [haar(3, rng) for _ in range(4)])


# Verdicts of the quartets at seeds 1000..1099 before the core returned
# witnesses: T triple_cover, S search, U UNKNOWN after the default budget.
QUARTET_BEFORE = ("TUUUSUSTTUTTSUTTTUTTTUSUTSUSUUUSUSSSTTTUTUSUSTUUTT"
                  "TTTTTUTTTUTSUTTTUTSUTSTSTSTUTSTSTUSTUTTUTTTTSTTTUU")
NO_QUARTETS = [i for i, c in enumerate(QUARTET_BEFORE) if c == "U" and i != 3]


def test_quartets_keep_every_yes_and_certify_the_rest():
    unknown = []
    for i, before in enumerate(QUARTET_BEFORE):
        e = quartet(i)
        v = decide_antidist(e)
        if before != "U":
            assert (v.decision, v.method) == ("YES", {"T": "triple_cover",
                                                      "S": "search"}[before]), i
        elif v.decision == "UNKNOWN":
            unknown.append(i)
        elif i == 3:
            # the quartet the stall rule cut off, finished by the polish
            assert (v.decision, v.method) == ("YES", "search")
            assert verify_strong(e, v.certificate, tol=1e-8).passed
        else:
            assert (v.decision, v.method) == ("NO", "witness"), i
            margin = verify_no_witness(e, v.witness)
            assert margin > 1e-8, i
            assert v.margins == [margin]
    assert unknown == []


# ---------------------------------------------------------------------------
# the polish where the core stalls


def moved_quartet(i, seed):
    """Quartet i under a seeded Haar rotation, per-state phases and a
    permutation; labels follow their states."""
    e = quartet(i)
    rng = np.random.default_rng(seed)
    u, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    phases = np.exp(2j * math.pi * rng.uniform(size=4))
    order = rng.permutation(4)
    return Ensemble(f"q{i} moved", PartyLayout((3,)), [e.labels[k] for k in order],
                    [phases[k] * (u @ e.states[k]) for k in order])


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4],
                         ids=["base", "moved0", "moved1", "moved2", "moved3", "moved4"])
def test_q1003_ends_yes_by_search_with_a_verified_certificate(monkeypatch, seed):
    """The quartet of generator seed 1003 crawls in the Douglas-Rachford
    core; the polish finishes it at the default budget and, moved, at the
    cross-validation budget of 2 restarts of 1500 steps.  The first idle
    look below POLISH_AT polishes restart 0 with factors cut at the
    iterate's rank, which ends the search within 40 core steps, before
    STALL_STEPS flat steps could pass (the stall polish ended it after 69
    to 93)."""
    steps = count_core_steps(monkeypatch)
    polishes = record_polishes(monkeypatch)
    if seed is None:
        e = quartet(3)
        v = decide_antidist(e)
    else:
        e = moved_quartet(3, seed)
        v = decide_antidist(e, restarts=2, iters=1500)
    assert (v.decision, v.method) == ("YES", "search")
    assert len(steps) <= 40, len(steps)
    assert [(args[6] > 0.0, answer is not None) for args, answer in polishes] == [(True, True)]
    assert verify_strong(e, v.certificate, tol=1e-8).passed


def count_core_steps(monkeypatch):
    """A list that gains one entry per Douglas-Rachford step of the core:
    each step projects onto the block PSD cones once."""
    steps = []

    def counting(x, stacks):
        steps.append(None)
        return _psd_project(x, stacks)

    monkeypatch.setattr(exclusion, "_psd_project", counting)
    return steps


def record_polishes(monkeypatch):
    """A list that gains (arguments, answer) for every polish the core runs;
    the last argument is the cut."""
    polish, polishes = exclusion._polish, []

    def recording(*args):
        polishes.append((args, polish(*args)))
        return polishes[-1][1]

    monkeypatch.setattr(exclusion, "_polish", recording)
    return polishes


@pytest.mark.parametrize("party", [None, "A", "B"], ids=["pbr4", "pbr4^[2] A", "pbr4^[2] B"])
def test_pbr_searches_end_at_the_early_polish_within_40_steps(monkeypatch, party):
    """pbr4 and the two local parts of its two-draw sequence task, whose
    certificates are rank-one bases that Douglas-Rachford nears only
    linearly.  The residual falls by about 1 % a step, so no stall comes;
    the first idle look below POLISH_AT polishes factors cut at the
    iterate's rank and ends the search (the full run took 56, 56 and 70
    core steps)."""
    e = pbr4() if party is None else sequence_local_part(pbr4(), 2, party)
    steps = count_core_steps(monkeypatch)
    polishes = record_polishes(monkeypatch)
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("YES", "search")
    assert len(steps) < 40, len(steps)
    assert [(args[6] > 0.0, answer is not None) for args, answer in polishes] == [(True, True)]
    assert verify_strong(e, v.certificate, tol=1e-8).passed


def test_the_rank_cut_polishes_a_pbr_local_part_to_rank_one_elements(monkeypatch):
    """The core's iterate on a PBR local part at its first look below
    POLISH_AT: cut at that look's residual, every factor keeps one column
    and the polished elements are rank one and pass verify_strong; with
    cut 0 every factor keeps all its columns."""
    e = sequence_local_part(pbr4(), 2, "B")
    polishes = record_polishes(monkeypatch)
    decide_antidist(e)
    (*args, res), _ = polishes[0]
    assert 0.0 < res < exclusion.POLISH_AT
    monkeypatch.undo()
    factored, shapes = exclusion._factored_residual, []

    def shaping(supports, ws, dim):
        shapes.append([w.shape[1:] for w in ws])
        return factored(supports, ws, dim)

    monkeypatch.setattr(exclusion, "_factored_residual", shaping)
    els = exclusion._polish(*args, res)
    assert shapes[0] == [(3, 1)]   # one stack of four size-3 blocks
    assert els is not None
    assert all(np.linalg.eigvalsh(m)[-2] < 1e-9 for m in els)
    assert verify_strong(e, Povm(e.layout, els, list(e.labels)), tol=1e-8).passed
    shapes.clear()
    exclusion._polish(*args, 0.0)
    assert shapes[0] == [(3, 3)]


def record_witness_margins(monkeypatch):
    """A list that gains the margin of every witness the search checks."""
    margins = []

    def recording(ensemble, y):
        margins.append(verify_no_witness(ensemble, y))
        return margins[-1]

    monkeypatch.setattr(exclusion, "verify_no_witness", recording)
    return margins


def test_no_quartets_stop_at_their_witness_within_30_steps(monkeypatch):
    """The witness is looked for every WITNESS_EVERY steps, so a NO quartet
    stops at the first look that holds it, not after 50 steps."""
    steps = count_core_steps(monkeypatch)
    for i in NO_QUARTETS:
        e = quartet(i)
        steps.clear()
        v = decide_antidist(e)
        assert (v.decision, v.method) == ("NO", "witness"), i
        assert 0 < len(steps) <= 30, (i, len(steps))
        assert verify_no_witness(e, v.witness) > 1e-8, i


def embedded_qubits(k, seed, d):
    """k Haar qubit states placed in C^d and turned by a Haar unitary."""
    rng = np.random.default_rng([k, seed, d, 7])
    u, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    kets = [u @ np.concatenate([haar(2, rng), np.zeros(d - 2)]) for _ in range(k)]
    return Ensemble(f"qubits k{k} s{seed} in C^{d}", PartyLayout((d,)),
                    [f"s{j}" for j in range(k)], kets)


def assert_qubit_lp_no_with_witness(e):
    """decide_antidist answers an ensemble of span rank 2 exactly, with the
    lifted witness of the single-qubit program and its margin."""
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("NO", "qubit_lp")
    assert v.margins == [verify_no_witness(e, v.witness)]
    assert v.margins[0] > 0.0


@pytest.mark.parametrize("k,seed,d", [(6, 141, 3), (6, 69, 4), (6, 79, 4)])
def test_a_restart_runs_on_past_a_failed_polish_to_its_witness(monkeypatch, k, seed, d):
    """Six qubit states in C^3 or C^4: the residual flattens, and the polish
    runs and fails, some 70-170 steps before the displacement settles on a
    witness.  The restart goes on after the polish, so the search ends at a
    witness.  decide_antidist answers these on their span instead."""
    e = embedded_qubits(k, seed, d)
    assert_qubit_lp_no_with_witness(e)
    polishes = record_polishes(monkeypatch)
    y, margin = exclusion._search(e, 3, 4000, 0, exclusion.SEARCH_TOL)
    assert isinstance(y, np.ndarray)
    assert verify_no_witness(e, y) > 1e-8
    assert polishes and all(answer is None for _, answer in polishes)


def test_a_witness_too_thin_for_the_search_lets_the_core_run_on(monkeypatch):
    """Quartet 86 under the rotation of seed 435, embedded in C^4: the look
    at step 10 finds a witness that proves infeasibility but whose rescaled
    margin is far below the search's 1e-8; a later look finds one that
    passes, so the answer is NO rather than UNKNOWN."""
    e = quartet(86)
    rng = np.random.default_rng(435)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    phases = np.exp(2j * math.pi * rng.uniform(size=4))
    order = rng.permutation(4)
    states = [np.concatenate([s, np.zeros(1)]) for s in e.states]
    moved = Ensemble("moved", PartyLayout((4,)), [f"r{k}" for k in range(4)],
                     [phases[k] * (u @ states[k]) for k in order])
    margins = record_witness_margins(monkeypatch)
    v = decide_antidist(moved)
    assert (v.decision, v.method) == ("NO", "witness")
    assert 0.0 < margins[0] <= 1e-8 < margins[-1]
    assert verify_no_witness(moved, v.witness) > 1e-8


def test_the_search_ends_once_a_thin_witness_margin_settles(monkeypatch):
    """Six qubit states in C^4 whose witness margin settles near 3.2e-9,
    below the search's 1e-8: the search ends at the second short margin
    that agrees with the one before within 1 %, not after every restart's
    flat steps (about 1300 core steps).  decide_antidist answers them on
    their span instead."""
    e = embedded_qubits(6, 1297, 4)
    assert_qubit_lp_no_with_witness(e)
    steps = count_core_steps(monkeypatch)
    margins = record_witness_margins(monkeypatch)
    assert exclusion._search(e, 3, 4000, 0, exclusion.SEARCH_TOL) is None
    assert len(steps) < 200, len(steps)
    assert all(0.0 < m <= 1e-8 for m in margins)
    assert abs(margins[-1] - margins[-2]) <= 0.01 * margins[-2]


def count_checks(monkeypatch):
    """Counts, by name, of the verify_strong and verify_no_witness calls
    made inside the exclusion module."""
    counts = {"verify_strong": 0, "verify_no_witness": 0}
    for name in counts:
        def counted(*args, _check=getattr(exclusion, name), _name=name, **kwargs):
            counts[_name] += 1
            return _check(*args, **kwargs)
        monkeypatch.setattr(exclusion, name, counted)
    return counts


def embedded_sic4(d, seed):
    """The four qubit SIC states placed in C^d and turned by a Haar unitary."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    e = sic4()
    return Ensemble(f"sic4 in C^{d}", PartyLayout((d,)), e.labels,
                    [u @ np.concatenate([s, np.zeros(d - 2)]) for s in e.states])


@pytest.mark.parametrize("build,answer,checks", [
    (sic4, ("YES", "qubit_lp"), (1, 0)),
    (lambda: embedded_sic4(4, 3), ("YES", "qubit_lp"), (1, 0)),
    (lambda: embedded_qubits(6, 69, 4), ("NO", "qubit_lp"), (0, 1)),
    (trine3, ("YES", "caves"), (1, 0)),
    (bell4, ("YES", "triple_cover"), (1, 0)),
    (pbr4, ("YES", "search"), (1, 0)),
], ids=["sic4", "sic4 in C^4", "qubits k6 s69 in C^4", "trine3", "bell4", "pbr4"])
def test_each_answer_is_checked_once(monkeypatch, build, answer, checks):
    """Every route checks the certificate or witness it returns once, on the
    ensemble it answers: the qubit route lifts a span answer before its one
    check, rather than checking it in C^2 and again in C^d."""
    e = build()
    counts = count_checks(monkeypatch)
    v = decide_antidist(e)
    assert (v.decision, v.method) == answer
    assert (counts["verify_strong"], counts["verify_no_witness"]) == checks


def test_a_search_no_carries_the_margin_the_search_took(monkeypatch):
    """The search hands back the margin of the witness it accepts:
    decide_antidist reports it and checks nothing after the search returns."""
    e = quartet(NO_QUARTETS[0])
    counts = count_checks(monkeypatch)
    search, at_return = exclusion._search, []

    def recording(*args):
        found = search(*args)
        at_return.append(dict(counts))
        return found

    monkeypatch.setattr(exclusion, "_search", recording)
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("NO", "witness")
    assert v.margins == [verify_no_witness(e, v.witness)]
    assert at_return == [counts]


def test_factored_jacobian_matches_central_differences():
    """Blocks of sizes 3, 2, 2 and 1 (the two of size 2 in one stack), with
    a rank-1 factor and a factor with a zero column."""
    rng = np.random.default_rng(5)
    dim = 4
    kets = [haar(dim, rng) for _ in range(6)]
    supports = [_orthocomplement(kets[:1], dim)[None],
                np.stack([_orthocomplement(kets[1:3], dim), _orthocomplement(kets[3:5], dim)]),
                _orthocomplement(kets[3:], dim)[None]]
    ws = [rng.normal(size=(b.shape[0], b.shape[2], b.shape[2]))
          + 1j * rng.normal(size=(b.shape[0], b.shape[2], b.shape[2])) for b in supports]
    ws[0][0] = np.outer(ws[0][0][:, 0], ws[0][0][0])
    ws[1][1][:, 1] = 0.0
    fs, _ = _factored_residual(supports, ws, dim)
    jac = _factored_jacobian(supports, fs)

    h = 1e-6
    cols, zero_column = [], []
    for i, w in enumerate(ws):
        for unit in (1.0, 1j):
            for pos in np.ndindex(w.shape):
                def moved(t):
                    out = [v.copy() for v in ws]
                    out[i][pos] += t * unit
                    return _factored_residual(supports, out, dim)[1]
                cols.append((moved(h) - moved(-h)) / (2.0 * h))
                zero_column.append(i == 1 and pos[0] == 1 and pos[2] == 1)
    fd = np.column_stack(cols)
    assert jac.shape == fd.shape == (2 * dim * dim, 2 * sum(w.size for w in ws))
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(jac).max())
    # a zero column of a factor moves nothing: why the polish floors the spectrum
    assert not jac[:, zero_column].any()


def test_a_polished_point_with_a_dead_element_falls_through_to_the_next_restart(monkeypatch):
    e = quartet(3)
    groups = [[s] for s in e.states]
    seen = []

    def all_dead(table, tol):
        seen.append(None)
        return np.zeros(len(table), dtype=bool)

    monkeypatch.setattr(exclusion, "fires", all_dead)
    assert next(_core_answers(groups, 3, 1e-9, 2, 1500, 0), None) is None
    # each restart polishes twice, at its first idle look below POLISH_AT and
    # at its stall, and none of the four polished points counts
    assert len(seen) == 4

    seen.clear()

    def dead_first(table, tol):
        out = qcore.fires(table, tol)
        seen.append(out.copy())
        if len(seen) == 1:
            out[0] = False
        return out

    monkeypatch.setattr(exclusion, "fires", dead_first)
    els = next(_core_answers(groups, 3, 1e-9, 2, 1500, 0), None)
    # restart 0's early point fired everywhere but was reported dead, so the
    # restart ran on to its stall polish
    assert len(seen) == 2 and seen[0].all() and seen[1].all()
    assert isinstance(els, list)
    monkeypatch.undo()
    assert verify_strong(e, Povm(e.layout, els, list(e.labels)), tol=1e-8).passed


def test_core_witness_bounds_every_compression():
    e = quartet(NO_QUARTETS[0])
    y = next(_core_answers([[s] for s in e.states], 3, 1e-9, 3, 4000, 0), None)
    assert isinstance(y, np.ndarray) and y.shape == (3, 3)
    assert np.trace(y).real == pytest.approx(1.0, abs=1e-12)
    top = max(np.linalg.eigvalsh(b.conj().T @ y @ b)[-1]
              for b in (_orthocomplement([s], 3) for s in e.states))
    assert 1.0 - 3 * max(top, 0.0) > 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(i=st.sampled_from(NO_QUARTETS), seed=st.integers(0, 2 ** 32 - 1),
       embed=st.booleans())
@example(i=86, seed=435, embed=True)
def test_witness_no_is_invariant_under_unitaries_phases_relabelling_and_embedding(
        i, seed, embed):
    e = quartet(i)
    rng = np.random.default_rng(seed)
    d = 4 if embed else 3
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.exp(2j * math.pi * rng.uniform(size=4))
    order = rng.permutation(4)
    states = [np.concatenate([s, np.zeros(d - 3)]) for s in e.states]
    moved = Ensemble("moved", PartyLayout((d,)), [f"r{k}" for k in range(4)],
                     [phases[k] * (u @ states[k]) for k in order])
    v = decide_antidist(moved)
    assert (v.decision, v.method) == ("NO", "witness")
    assert verify_no_witness(moved, v.witness) > 1e-8


def test_verify_no_witness_rejects_what_proves_nothing():
    e = quartet(NO_QUARTETS[0])
    y = decide_antidist(e).witness
    assert verify_no_witness(e, y) > 0
    assert verify_no_witness(e, -y) <= 0
    traceless = y - np.trace(y).real / 3 * np.eye(3)
    assert verify_no_witness(e, traceless) <= 0
    assert verify_no_witness(e, traceless - 1e-3 * np.eye(3)) <= 0
    # a pair witness proves nothing about an antidistinguishable ensemble
    t = trine3()
    assert verify_no_witness(t, pair_witness(t.states[0], t.states[1])) <= 0
    with pytest.raises(ValueError):
        verify_no_witness(e, np.eye(2))


def test_plain_ket_lists_are_read_as_ensembles():
    """decide_antidist and verify_no_witness take a bare list of kets as the
    single-party ensemble of those kets."""
    t = trine3()
    kets = [v.copy() for v in t.states]
    got, want = decide_antidist(kets), decide_antidist(t)
    assert (got.decision, got.method) == (want.decision, want.method) == ("YES", "caves")
    y = pair_witness(t.states[0], t.states[1])
    assert verify_no_witness(kets, y) == verify_no_witness(t, y)
    with pytest.raises(ValueError):
        decide_antidist(kets[:1])
    with pytest.raises(ValueError):
        verify_no_witness(kets[:1], y)


def test_pair_route_decides_two_states_exactly():
    rng = np.random.default_rng(3)
    for d in (3, 4):
        a, b = haar(d, rng), haar(d, rng)
        e = Ensemble("pair", PartyLayout((d,)), ["a", "b"], [a, b])
        v = decide_antidist(e)
        assert (v.decision, v.method) == ("NO", "qubit_lp")
        x = abs(np.vdot(a, b)) ** 2
        assert v.margins[0] == pytest.approx(1.0 - math.sqrt(1.0 - x), rel=1e-9)
        assert verify_no_witness(e, v.witness) == pytest.approx(v.margins[0], rel=1e-9)
        np.testing.assert_allclose(v.witness, pair_witness(a, b), atol=1e-12)

        b_perp = b - np.vdot(a, b) * a
        e = Ensemble("pair", PartyLayout((d,)), ["a", "b"], [a, b_perp / np.linalg.norm(b_perp)])
        v = decide_antidist(e)
        assert (v.decision, v.method) == ("YES", "qubit_lp")
        assert verify_strong(e, v.certificate, tol=1e-9).passed
        assert v.witness is None


def test_verdict_writes_its_witness():
    e = quartet(NO_QUARTETS[0])
    v = decide_antidist(e)
    doc = v.to_dict()
    back = np.array([[complex(re, im) for re, im in row] for row in doc["witness"]])
    np.testing.assert_allclose(back, v.witness, atol=0)
    assert decide_antidist(trine3()).to_dict()["witness"] is None


# ---------------------------------------------------------------------------
# the span route: every ensemble of span rank at most 2 is a qubit problem


def qubits_and_embedding(k, seed, d):
    """k Haar qubit states, and the same states placed in C^d by a Haar
    unitary, with random phases and relabelled.  The draws start as those of
    ``embedded_qubits(k, seed, d)``, so the embedded states are its states."""
    rng = np.random.default_rng([k, seed, d, 7])
    u, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    kets = [haar(2, rng) for _ in range(k)]
    phases = np.exp(2j * math.pi * rng.uniform(size=k))
    order = rng.permutation(k)
    labels = [f"s{j}" for j in range(k)]
    flat = Ensemble(f"qubits k{k} s{seed}", PartyLayout((2,)), labels, kets)
    moved = Ensemble(f"qubits k{k} s{seed} in C^{d}", PartyLayout((d,)),
                     [labels[j] for j in order],
                     [phases[j] * (u @ np.concatenate([kets[j], np.zeros(d - 2)]))
                      for j in order])
    return flat, moved


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([3, 4]))
@example(k=6, seed=1276, d=3)
@example(k=6, seed=1297, d=4)
@example(k=6, seed=141, d=3)
def test_the_span_route_is_invariant_under_embedding(k, seed, d):
    """Decision and method in C^3 and C^4 are those in C^2, a YES certificate
    verifies in the full space, and a lifted witness keeps its C^2 margin
    within a relative 1e-9, or within the checker's own rounding, 16 d
    machine epsilons, for margins as thin as the 6.3e-9 of (6, 1297, 4).
    The examples are the known hard draws: two thin NOs, whose margins the
    core's search cannot certify at 1e-8, and (6, 141, 3), on which the
    core's polish fails before its witness settles."""
    flat, moved = qubits_and_embedding(k, seed, d)
    want, got = decide_antidist(flat), decide_antidist(moved)
    assert (got.decision, got.method) == (want.decision, want.method)
    assert got.decision in ("YES", "NO")
    if got.decision == "YES":
        assert verify_strong(moved, got.certificate, tol=1e-8).passed
    if want.witness is not None:
        assert verify_no_witness(moved, got.witness) == pytest.approx(
            verify_no_witness(flat, want.witness), rel=1e-9, abs=16 * d * np.finfo(float).eps)


def test_copies_of_one_state_are_decided_on_their_span():
    """Four copies of one ket, up to phase, in C^3: no measurement excludes
    a state that every outcome must exclude.  The span has rank 1, so the
    qubit program answers, with the witness rho_a of margin 1."""
    a = haar(3, np.random.default_rng(11))
    e = Ensemble("copies", PartyLayout((3,)), list("abcd"), [a, 1j * a, -a, a])
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("NO", "qubit_lp")
    np.testing.assert_allclose(v.witness, density(a), atol=1e-12)
    assert v.margins[0] == pytest.approx(1.0, abs=1e-12)


def test_every_no_with_a_witness_reports_its_margin():
    """margins[0] of a NO that carries a witness is that witness's
    verify_no_witness margin, and it is positive: core witnesses, lifted
    qubit witnesses of pairs, copies and thin ensembles, and the local parts
    of pbr4 at n = 1, the pairs |0>, |+> whose Bloch hull misses the origin."""
    rng = np.random.default_rng(3)
    a = haar(3, rng)
    cases = ([quartet(i) for i in NO_QUARTETS[:4]]
             + [Ensemble("pair", PartyLayout((4,)), ["a", "b"], [haar(4, rng), haar(4, rng)]),
                Ensemble("copies", PartyLayout((3,)), list("abcd"), [a, -a, a, 1j * a])]
             + [embedded_qubits(6, s, d) for s, d in ((1276, 3), (1297, 4), (141, 3))]
             + [sequence_local_part(pbr4(), 1, p) for p in "AB"])
    for e in cases:
        v = decide_antidist(e)
        assert v.decision == "NO" and v.witness is not None, e.name
        assert v.margins == [verify_no_witness(e, v.witness)] and v.margins[0] > 0, e.name
    part = sequence_local_part(pbr4(), 1, "A")
    assert decide_antidist(part).margins[0] == pytest.approx(1 - math.sqrt(0.5), rel=1e-12)


def test_boundary_qubit_nos_say_so_and_carry_no_witness():
    """A NO whose Bloch hull holds the origin is weakly but not strongly
    antidistinguishable, so no witness has a positive margin: weak3 and the
    local parts of duan4 at n = 1 keep the program's optimum as their only
    margin and say "boundary"."""
    verdicts = ([qubit_antidist_lp(weak3().states)]
                + [decide_antidist(sequence_local_part(duan4(), 1, p)) for p in "AB"])
    for v in verdicts:
        assert (v.decision, v.method) == ("NO", "qubit_lp")
        assert v.witness is None and "boundary" in v.detail
        assert len(v.margins) == 1 and abs(v.margins[0]) <= 1e-9


def test_a_qubit_ensemble_is_decided_and_checked_once_where_it_lives(monkeypatch):
    """An ensemble given in C^2 goes straight to the qubit program, with no
    span coordinates and no lift: sic4's YES passes one verify_strong call
    and pbr4's local part at n = 1 (|0>, |+>) one verify_no_witness call.
    The certificate carries the ensemble's own layout and verifies there."""
    calls = []

    def counting(name):
        check = getattr(exclusion, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return counted

    for name in ("verify_strong", "verify_no_witness"):
        monkeypatch.setattr(exclusion, name, counting(name))
    e = sic4()
    v = decide_antidist(e)
    assert (v.decision, v.method) == ("YES", "qubit_lp") and calls == ["verify_strong"]
    assert v.certificate.layout == e.layout and v.certificate.labels == e.labels
    calls.clear()
    part = sequence_local_part(pbr4(), 1, "A")
    v = decide_antidist(part)
    assert (v.decision, v.method) == ("NO", "qubit_lp") and calls == ["verify_no_witness"]
    monkeypatch.undo()
    assert verify_strong(e, decide_antidist(e).certificate).passed
    assert v.margins == [verify_no_witness(part, v.witness)] and v.margins[0] > 0


def test_a_search_out_of_budget_ends_unknown_with_nothing_to_check():
    """pbr4 has no exact route (four states of full span, no triple cover),
    and ten core steps in one restart close neither way."""
    v = decide_antidist(pbr4(), restarts=1, iters=10)
    assert (v.decision, v.method) == ("UNKNOWN", "exhausted")
    assert v.certificate is None and v.witness is None and v.margins == []
