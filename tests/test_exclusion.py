"""Antidistinguishability criteria, certificates, and the decision routine."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimark.ensembles import (Ensemble, bell4, bennett9, duan4, nl1, pbr4,
                                sic4, su3, trine3, weak3)
from antimark.exclusion import (Povm, _block_stacks, _hermitian_basis,
                                _orthocomplement, _psd_project,
                                _support_feasible, caves_criterion,
                                compose_union, decide_antidist,
                                exclusion_counts, povm_from_caves_triple,
                                qubit_antidist_lp, search_exclusion_povm,
                                verify_strong)
from antimark.qcore import PartyLayout


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


@settings(max_examples=30, deadline=None)
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


def test_compose_union_validates_membership():
    e = duan4()
    sub = povm_from_caves_triple([e.states[0], e.states[1], e.states[2]],
                                 ["D1", "D2", "D3"], layout=e.layout)
    with pytest.raises(ValueError):
        compose_union(e, [(["D1", "D2", "NOPE"], sub)])


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
        fast = _support_feasible(groups, dim, tol=1e-9, restarts=2, iters=600, seed=seed)
        slow = loop_support_feasible(groups, dim, 1e-9, 2, 600, seed)
        assert (fast is None) == (slow is None), seed
        outcomes.add(fast is None)
        if fast is not None:
            np.testing.assert_allclose(np.array(fast), np.array(slow), rtol=0, atol=1e-9)
    assert outcomes == {True, False}


def test_support_spanning_the_whole_space_gets_a_zero_element():
    e0, e1 = np.eye(2, dtype=np.complex128)
    # the second element may only live on |1>, so completeness fails
    assert _support_feasible([[e0, e1], [e0]], 2, tol=1e-10) is None
    els = _support_feasible([[e0, e1], [e0], [e1]], 2, tol=1e-10)
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
    }
    builders = {"trine3": trine3, "weak3": weak3, "duan4": duan4, "nl1": nl1,
                "su3": su3, "sic4": sic4, "bell4": bell4, "bennett9": bennett9,
                "pbr4": pbr4}
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
