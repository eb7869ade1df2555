"""Shared numerical core: party layouts, states, operators, and the few
primitives everything else is built on.

Conventions used throughout the package:

* kets are 1-d complex128 arrays in the computational product basis, with the
  party order fixed by a :class:`PartyLayout` (first party = slowest index,
  i.e. plain Kronecker order),
* ``overlap(a, b)`` is conjugate-linear in the first argument,
* tolerances are absolute unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

_HERM_TOL = 1e-10


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


def combine_layouts(a: PartyLayout, b: PartyLayout) -> PartyLayout:
    """Concatenate two layouts, suffixing names on collision."""
    names = list(a.names)
    for name in b.names:
        fresh, k = name, 1
        while fresh in names:
            k += 1
            fresh = f"{name}{k}"
        names.append(fresh)
    return PartyLayout(a.dims + b.dims, tuple(names))


@dataclass
class StateVector:
    """A normalized pure state on a party layout."""

    amps: np.ndarray
    layout: PartyLayout

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if self.amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude count {self.amps.size} does not match layout dim {self.layout.dim}"
            )
        nrm = float(np.linalg.norm(self.amps))
        if abs(nrm - 1.0) > DEFAULT_TOL:
            raise ValueError(f"state not normalized: |v| = {nrm!r}")

    @property
    def dim(self) -> int:
        return self.amps.size


def state(amps, layout: PartyLayout) -> StateVector:
    """Build a StateVector, normalizing the input amplitudes."""
    v = np.asarray(amps, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(v / nrm, layout)


@dataclass
class Operator:
    """A linear operator on a party layout (not necessarily Hermitian)."""

    mat: np.ndarray
    layout: PartyLayout

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.layout.dim
        if self.mat.shape != (d, d):
            raise ValueError(f"operator shape {self.mat.shape} does not match layout dim {d}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def identity(layout: PartyLayout) -> Operator:
    return Operator(np.eye(layout.dim, dtype=np.complex128), layout)


def dagger(op: Operator) -> Operator:
    return Operator(op.mat.conj().T, op.layout)


def projector(psi: StateVector) -> Operator:
    return Operator(np.outer(psi.amps, psi.amps.conj()), psi.layout)


def tensor(a, b):
    """Tensor product of two states or two operators; layouts concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amps, b.amps), combine_layouts(a.layout, b.layout))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.mat, b.mat), combine_layouts(a.layout, b.layout))
    raise TypeError("tensor expects two StateVectors or two Operators")


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first slot."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("overlap requires matching layouts")
    return complex(np.vdot(a.amps, b.amps))


def is_hermitian(mat: np.ndarray, tol: float = _HERM_TOL) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


def trace_product(rho: Operator, e: Operator) -> float:
    """Tr(rho e) for Hermitian factors, returned as a real number.

    Raises if either factor fails the Hermiticity check or if the imaginary
    residue of the trace exceeds 1e-10.
    """
    if rho.layout.dims != e.layout.dims:
        raise ValueError("trace_product requires matching layouts")
    if not is_hermitian(rho.mat) or not is_hermitian(e.mat):
        raise ValueError("trace_product requires Hermitian operators")
    val = complex(np.vdot(e.mat, rho.mat))  # = Tr(rho e) since e is Hermitian
    if abs(val.imag) > _HERM_TOL:
        raise ValueError(f"trace imaginary residue {val.imag!r} exceeds 1e-10")
    return float(val.real)


def is_psd(op: Operator, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness within tolerance; Hermiticity is a hard precondition."""
    if not is_hermitian(op.mat):
        raise ValueError("is_psd requires a Hermitian operator")
    if op.dim == 1:
        return bool(op.mat[0, 0].real >= -tol)
    evs = np.linalg.eigvalsh(op.mat)
    return bool(evs[0] >= -tol)


def min_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[0])


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
