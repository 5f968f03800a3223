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

    Construction validates, in this order, finite entries, Hermiticity (max
    elementwise deviation 1e-10), unit trace (1e-10) and numerical
    positivity (lowest eigenvalue above -1e-8); reject anything else rather
    than propagating a broken state.  :meth:`each` runs the same checks on a
    whole stack of matrices at once.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        (state,) = DensityMatrix.each(self.space, np.asarray(self.matrix)[None])
        if isinstance(state, ValueError):
            raise state
        object.__setattr__(self, "matrix", state.matrix)

    @classmethod
    def each(cls, space: HilbertSpace, stack: np.ndarray) -> list["DensityMatrix | ValueError"]:
        """One state per matrix of ``stack`` (points, dim, dim), all checked
        in one pass: a non-finite matrix fails first, and the finite ones
        share one stacked ``eigvalsh``.  A matrix that fails comes back as
        the ValueError its own construction raises; one that passes is not
        checked again.
        """
        stack = np.array(stack, dtype=complex)
        dim = space.total_dim
        if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
            raise ValueError(
                f"matrix shape {stack.shape[1:]} does not match space dimension {dim}"
            )
        stack.setflags(write=False)
        finite = np.isfinite(stack).all(axis=(1, 2))
        checked = stack[finite]
        herm = np.abs(checked - checked.conj().swapaxes(1, 2)).max(axis=(1, 2))
        # a contiguous diagonal sums each row as np.trace sums one matrix
        traces = np.ascontiguousarray(checked.diagonal(axis1=1, axis2=2)).sum(axis=1)
        hermitian = 0.5 * (checked + checked.conj().swapaxes(1, 2))
        lowest = np.linalg.eigvalsh(hermitian).min(axis=1)
        states: list[DensityMatrix | ValueError] = [
            ValueError("density matrix has non-finite entries") for _ in finite
        ]
        for p, h, tr, low in zip(np.flatnonzero(finite), herm, traces, lowest):
            if h > HERMITICITY_TOL:
                states[p] = ValueError(f"density matrix not Hermitian: max |rho - rho^+| = {h:.3e}")
            elif abs(tr - 1.0) > TRACE_TOL:
                states[p] = ValueError(f"density matrix trace {tr} differs from 1")
            elif low < -POSITIVITY_TOL:
                states[p] = ValueError(f"density matrix not positive: lowest eigenvalue {low:.3e}")
            else:
                states[p] = object.__new__(cls)
                object.__setattr__(states[p], "space", space)
                object.__setattr__(states[p], "matrix", stack[p])
        return states


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


def expectation(rho: DensityMatrix, op: OperatorMatrix) -> complex:
    """trace(op . rho)."""
    if rho.space != op.space:
        raise ValueError("state and operator act on different Hilbert spaces")
    return complex(np.trace(op.matrix @ rho.matrix))
