"""Shared numerical core: party layouts, the outcome-probability table and its
firing rule, the measurement check, and the few other primitives everything
else is built on.

Conventions used throughout the package:

* kets are 1-d complex128 arrays in the computational product basis, with the
  party order fixed by a :class:`PartyLayout` (first party = slowest index,
  i.e. plain Kronecker order),
* tolerances are absolute unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class DataError(ValueError):
    """Malformed user-supplied data (ensemble or protocol files)."""


def _party_names(k: int) -> tuple[str, ...]:
    base = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if k <= len(base):
        return tuple(base[:k])
    return tuple(base) + tuple(f"P{i}" for i in range(len(base) + 1, k + 1))


@dataclass(frozen=True)
class PartyLayout:
    """Ordered list of subsystem dimensions, one per party."""

    dims: tuple[int, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"party dimensions must be >= 2, got {dims}")
        names = tuple(self.names) if self.names else _party_names(len(dims))
        if len(names) != len(dims):
            raise ValueError("one name per party required")
        if len(set(names)) != len(names):
            raise ValueError(f"party names must be distinct, got {names}")
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no party named {name!r} in {self.names}") from None


def real_if_exact(a) -> np.ndarray:
    """An array as a contiguous float64 array when its imaginary part is
    exactly zero, else as complex128: a complex stack with a zero imaginary
    part is the same real stack, and every product, sum and eigenvalue solve
    on it runs faster in real arithmetic."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a.astype(np.float64, copy=False)
    if a.imag.any():
        return a.astype(np.complex128, copy=False)
    return np.ascontiguousarray(a.real)


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, or of a whole stack of them.

    A complex stack whose imaginary part is exactly zero goes to the real
    solver (``real_if_exact``)."""
    return float(np.min(np.linalg.eigvalsh(real_if_exact(mat))[..., 0]))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two kets or of two matrices, as one broadcast product: the
    same entries without np.kron's general-rank bookkeeping."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def outcome_table(elements, kets) -> np.ndarray:
    """Outcome probabilities p[k, s] = <psi_s|E_k|psi_s> as a real
    outcomes x states array, one batched product for the whole table, in
    real arithmetic when both the elements and the kets are real
    (``real_if_exact``)."""
    els, vecs = real_if_exact(elements), real_if_exact(kets)
    return ((els @ vecs.T) * vecs.conj().T).sum(axis=1).real


def fires(table: np.ndarray, tol: float) -> np.ndarray:
    """The package's one firing rule, a flag per row of an outcome_table: an
    outcome fires (is reachable) when its probability summed over the k
    states, k times its probability under the uniform mixture, exceeds tol."""
    return table.sum(axis=1) > tol


def povm_residuals(elements) -> tuple[np.ndarray, float, float]:
    """How far a stack of elements is from a measurement.

    Returns the per-element Hermiticity residuals max|E - E^dag|, the
    completeness residual max|sum E - I| and the smallest eigenvalue over the
    Hermitian parts of all elements.  Whether the stack is real is decided
    once (``real_if_exact``), and every step runs on that one real or
    complex stack.
    """
    els = real_if_exact(elements)
    adj = els.swapaxes(1, 2)
    if np.iscomplexobj(els):
        adj = adj.conj()
    work = els - adj
    herm = np.max(np.abs(work), axis=(1, 2))
    comp = float(np.max(np.abs(els.sum(axis=0) - np.eye(els.shape[1]))))
    sym = np.add(els, adj, out=work)
    sym *= 0.5
    return herm, comp, min_eigenvalue(sym)


def measurement_failures(elements, tol: float) -> tuple[list[str], float, float]:
    """The package's one measurement check: ValueError for no elements or a
    non-Hermitian one, else the completeness and positivity failures (none for
    a measurement), the completeness residual and the smallest eigenvalue."""
    if len(elements) == 0:
        raise ValueError("no elements")
    herm, comp, mineig = povm_residuals(elements)
    if np.any(herm > tol):
        raise ValueError(f"element {int(np.argmax(herm > tol))} is not Hermitian")
    failures = []
    if comp > tol:
        failures.append(f"completeness residual {comp:.3e} exceeds tol")
    if mineig < -tol:
        failures.append(f"minimum eigenvalue {mineig:.3e} below -tol")
    return failures, comp, mineig


def density(v) -> np.ndarray:
    """|v><v| for a ket given as any 1-d array-like."""
    v = np.asarray(v, dtype=np.complex128)
    return np.outer(v, v.conj())


def mat_to_pairs(m: np.ndarray) -> list:
    """A complex matrix as nested [real, imag] pairs, for JSON output."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def canonical_phase(vec: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rotate a vector's global phase so its first non-negligible entry is positive real."""
    v = np.asarray(vec, dtype=np.complex128)
    for x in v:
        if abs(x) > tol:
            return v * (abs(x) / x)
    return v.copy()


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when two kets agree up to a global phase (absolute tolerance, entrywise)."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.size != b.size:
        return False
    return bool(np.max(np.abs(canonical_phase(a, tol) - canonical_phase(b, tol))) <= tol)
