"""Composite Hilbert-space bookkeeping and dense complex operator algebra.

Subsystem ordering is fixed throughout the package: atoms first (atom 1 ...
atom N), cavity mode last, combined with row-major Kronecker products.  A
composite basis index therefore reads

    i = ((level_atom1 * L + level_atom2) * L + ...) * dim_cavity + n_photon

for per-atom dimension L.  All operators are stored as dense complex
matrices; at the dimensions handled here (<= 125) dense algebra is exact,
fast, and unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor-product space described by its ordered subsystem dimensions."""

    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.subsystem_dims)
        object.__setattr__(self, "subsystem_dims", dims)
        if not dims:
            raise ValueError("a Hilbert space needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"every subsystem dimension must be >= 2, got {dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.subsystem_dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystem_dims)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix acting on a composite Hilbert space.

    Instances are immutable after construction (the underlying array is
    marked read-only).
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        dim = self.space.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match space dimension {dim}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix.conj().T)

    def _check_space(self, other: "OperatorMatrix"):
        if self.space != other.space:
            raise ValueError("operators act on different Hilbert spaces")

    def __add__(self, other):
        self._check_space(other)
        return OperatorMatrix(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_space(other)
        return OperatorMatrix(self.space, self.matrix - other.matrix)

    def __neg__(self):
        return OperatorMatrix(self.space, -self.matrix)

    def __mul__(self, scalar):
        return OperatorMatrix(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_space(other)
        return OperatorMatrix(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive state on a composite Hilbert space.

    Construction validates Hermiticity (max elementwise deviation 1e-10),
    unit trace (1e-10) and numerical positivity (lowest eigenvalue above
    -1e-8); reject anything else rather than propagating a broken state.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        dim = self.space.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match space dimension {dim}"
            )
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        lowest = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
        if lowest < -POSITIVITY_TOL:
            raise ValueError(f"density matrix not positive: lowest eigenvalue {lowest:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def identity(space: HilbertSpace) -> OperatorMatrix:
    """Identity operator on the composite space."""
    return OperatorMatrix(space, np.eye(space.total_dim, dtype=complex))


def _check_subsystem(space: HilbertSpace, subsystem: int):
    if not 0 <= subsystem < space.n_subsystems:
        raise ValueError(
            f"subsystem {subsystem} out of range for {space.n_subsystems} subsystems"
        )


def _embed(space: HilbertSpace, subsystem: int, local: np.ndarray) -> OperatorMatrix:
    """Embed a single-subsystem matrix, identity on all other factors."""
    factors = [np.eye(d, dtype=complex) for d in space.subsystem_dims]
    factors[subsystem] = local
    out = factors[0]
    for fac in factors[1:]:
        out = np.kron(out, fac)
    return OperatorMatrix(space, out)


def basis_projector(space: HilbertSpace, subsystem: int, level: int) -> OperatorMatrix:
    """|level><level| on one subsystem, identity elsewhere."""
    _check_subsystem(space, subsystem)
    dim = space.subsystem_dims[subsystem]
    if not 0 <= level < dim:
        raise ValueError(f"level {level} out of range for dimension {dim}")
    local = np.zeros((dim, dim), dtype=complex)
    local[level, level] = 1.0
    return _embed(space, subsystem, local)


def transition_operator(
    space: HilbertSpace, subsystem: int, upper: int, lower: int
) -> OperatorMatrix:
    """|lower><upper| on one subsystem (lowering convention), identity elsewhere."""
    _check_subsystem(space, subsystem)
    dim = space.subsystem_dims[subsystem]
    if upper == lower:
        raise ValueError("transition needs two distinct levels")
    for lev in (upper, lower):
        if not 0 <= lev < dim:
            raise ValueError(f"level {lev} out of range for dimension {dim}")
    local = np.zeros((dim, dim), dtype=complex)
    local[lower, upper] = 1.0
    return _embed(space, subsystem, local)


def annihilation_operator(space: HilbertSpace, cavity_subsystem: int) -> OperatorMatrix:
    """Truncated ladder operator a|n> = sqrt(n)|n-1> embedded in the composite space."""
    _check_subsystem(space, cavity_subsystem)
    dim = space.subsystem_dims[cavity_subsystem]
    local = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        local[n - 1, n] = math.sqrt(n)
    return _embed(space, cavity_subsystem, local)


def tensor(ops: list[OperatorMatrix], space: HilbertSpace | None = None) -> OperatorMatrix:
    """Kronecker product of single-subsystem operators, in subsystem order.

    If ``space`` is given, the factor dimensions must match it exactly.
    """
    if not ops:
        raise ValueError("tensor of zero factors is undefined")
    for op in ops:
        if op.space.n_subsystems != 1:
            raise ValueError("tensor factors must be single-subsystem operators")
    dims = tuple(op.space.total_dim for op in ops)
    if space is not None and dims != space.subsystem_dims:
        raise ValueError(
            f"factor dimensions {dims} do not match space {space.subsystem_dims}"
        )
    out = ops[0].matrix
    for op in ops[1:]:
        out = np.kron(out, op.matrix)
    return OperatorMatrix(space or HilbertSpace(dims), out)


def expectation(rho: DensityMatrix, op: OperatorMatrix) -> complex:
    """trace(op . rho)."""
    if rho.space != op.space:
        raise ValueError("state and operator act on different Hilbert spaces")
    return complex(np.trace(op.matrix @ rho.matrix))
