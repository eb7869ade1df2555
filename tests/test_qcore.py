"""Core linear-algebra and layout plumbing."""

import math

import numpy as np
import pytest

from antimark.qcore import (DEFAULT_TOL, PartyLayout, canonical_phase, kron,
                            measurement_checks, measurement_failures,
                            min_eigenvalue, outcome_table, povm_residuals,
                            same_up_to_phase)


def test_layout_basics():
    lay = PartyLayout((2, 3))
    assert lay.dim == 6
    assert lay.n_parties == 2
    assert lay.names == ("A", "B")
    assert lay.index_of("B") == 1
    with pytest.raises(KeyError):
        lay.index_of("C")


def test_layout_validation():
    with pytest.raises(ValueError):
        PartyLayout(())
    with pytest.raises(ValueError):
        PartyLayout((2, 1))
    with pytest.raises(ValueError):
        PartyLayout((2, 2), ("A",))
    with pytest.raises(ValueError):
        PartyLayout((2, 2), ("A", "A"))


def test_layout_default_names_are_distinct():
    lay = PartyLayout(tuple([2] * 30))
    assert len(set(lay.names)) == 30


def test_hermitian_and_psd_checks():
    herm = np.array([[1.0, 1j], [-1j, 2.0]])
    low = 1.5 - math.sqrt(1.25)
    assert min_eigenvalue(herm) == pytest.approx(low)
    assert min_eigenvalue(np.stack([herm, 2 * herm])) == pytest.approx([low, 2 * low])

    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    herm_res, comp, mineig = povm_residuals(basis)
    assert np.all(herm_res == 0.0) and comp == 0.0 and mineig == 0.0

    skew = [basis[0] + np.array([[0.0, 0.1], [0.0, 0.0]]), basis[1]]
    herm_res, _, _ = povm_residuals(skew)
    assert herm_res[0] == pytest.approx(0.1) and herm_res[1] == 0.0

    tilted = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
    _, comp, mineig = povm_residuals(tilted)
    assert comp == pytest.approx(0.0, abs=1e-15) and mineig == pytest.approx(-0.5)

    _, comp, mineig = povm_residuals([basis[0]])
    assert comp == pytest.approx(1.0) and mineig == 0.0


def test_min_eigenvalue_takes_real_symmetric_stacks_to_the_real_solver(monkeypatch):
    """A complex stack with a zero imaginary part gives the complex solver's
    answer through the real one; a stack with any imaginary entry, however
    small, stays on the complex solver."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 6, 6))
    real_sym = (a + a.transpose(0, 2, 1)).astype(np.complex128)
    b = a + 1j * rng.normal(size=(5, 6, 6))
    complex_herm = b + b.conj().transpose(0, 2, 1)
    tiny = real_sym.copy()
    tiny[0, 0, 1], tiny[0, 1, 0] = tiny[0, 0, 1] + 1e-300j, tiny[0, 1, 0] - 1e-300j
    seen = []
    solver = np.linalg.eigvalsh

    def recording(mat):
        seen.append(mat.dtype)
        return solver(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for stack, dtype in ((real_sym, np.float64), (complex_herm, np.complex128),
                         (tiny, np.complex128)):
        seen.clear()
        assert np.max(np.abs(min_eigenvalue(stack) - solver(stack)[:, 0])) <= 1e-12
        assert seen == [dtype]


def test_outcome_table_matches_trace():
    rng = np.random.default_rng(7)
    for d, k, n in ((2, 3, 4), (3, 5, 2), (6, 2, 7)):
        a = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        els = a + a.conj().transpose(0, 2, 1)
        kets = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        table = outcome_table(list(els), list(kets))
        assert table.shape == (k, n) and table.dtype == np.float64
        for i in range(k):
            for j in range(n):
                rho = np.outer(kets[j], kets[j].conj())
                assert table[i, j] == pytest.approx(np.trace(rho @ els[i]).real, abs=1e-12)


def test_kron_equals_numpy_kron_entry_for_entry():
    rng = np.random.default_rng(11)
    for sa, sb in (((3,), (4,)), ((2, 2), (3, 3)), ((2, 3), (4, 1)), ((4, 4), (16, 16))):
        a = rng.normal(size=sa) + 1j * rng.normal(size=sa)
        b = rng.normal(size=sb) + 1j * rng.normal(size=sb)
        assert np.array_equal(kron(a, b), np.kron(a, b))


def test_kron_broadcasts_over_leading_axes():
    """Stacks of matrices pair up by broadcasting their leading axes, each
    pair giving np.kron's entries exactly."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 1, 2, 2)) + 1j * rng.normal(size=(3, 1, 2, 2))
    b = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    out = kron(a, b)
    assert out.shape == (3, 4, 6, 6)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(out[i, j], np.kron(a[i, 0], b[j]))
    assert np.array_equal(kron(a[0, 0], b), np.stack([np.kron(a[0, 0], m) for m in b]))


def test_a_group_check_answers_as_each_povm_alone():
    """measurement_checks over a group of POVMs, real and complex, good and
    bad, gives every POVM the failures and residuals it gets alone, up to
    the last bits of a sum or an eigenvalue."""
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    basis = [np.diag(np.eye(3)[k]) for k in range(3)]
    rotated = [np.outer(q[:, k], q[:, k].conj()) for k in range(3)]
    skew = [basis[0] + 1e-3 * np.eye(3, k=1), basis[1], basis[2]]
    short = [0.9 * m for m in rotated]
    negative = [basis[0] - 0.2 * np.eye(3), basis[1] + 0.2 * np.eye(3), basis[2]]
    group = [basis, rotated, skew, short, negative, rotated[:1] + [np.eye(3) - rotated[0]]]
    checks = measurement_checks(group, DEFAULT_TOL)
    assert len(checks) == len(group)
    for els, (failures, comp, mineig) in zip(group, checks):
        try:
            want, want_comp, want_min = measurement_failures(els, DEFAULT_TOL)
        except ValueError as exc:
            assert failures == [str(exc)] and math.isnan(comp) and math.isnan(mineig)
            continue
        assert [f.split()[0] for f in failures] == [f.split()[0] for f in want]
        assert comp == pytest.approx(want_comp, abs=1e-15)
        assert mineig == pytest.approx(want_min, abs=1e-15)
    assert [len(f) for f, _, _ in checks] == [0, 0, 1, 1, 1, 0]
    assert checks[2][0] == ["element 0 is not Hermitian"]


def test_canonical_phase_pins_first_big_amplitude():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        w = canonical_phase(v)
        # same ray, and the leading significant entry is real positive
        assert abs(abs(np.vdot(v, w)) - 1.0) < 1e-12
        lead = w[np.argmax(np.abs(w) > 1e-8)]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_same_up_to_phase():
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert same_up_to_phase(v, phase * v)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        w /= np.linalg.norm(w)
        if abs(np.vdot(v, w)) < 0.999:
            assert not same_up_to_phase(v, w)


def test_default_tolerance_is_tight():
    assert DEFAULT_TOL <= 1e-8
