"""Lindblad generator assembly, steady-state solve, and RK4 propagation.

Vectorization is column-stacking throughout: ``vec(rho) = rho.reshape(-1,
order="F")``, so ``vec(A rho B) = (B.T kron A) vec(rho)``.  The vectorized
generator is assembled from the effective Hamiltonian
``H_eff = H - (i/2) sum_c c^+c``.  The steady state is obtained from it by
replacing one row (the one belonging to the rho[0,0] component) with the
trace functional and solving the resulting linear system by sparse LU
factorization.
A family H + v*G with G real diagonal changes only the diagonal of that
system, in its r columns where G's diagonal differs between the two
indices of rho.  One block (``_Block``) owns the system: it assembles it
once, orders it for sparse LU once, stores it in that order and factors it
at any value.  The LUs leave SuperLU's supernodes unrelaxed and use
threshold partial pivoting that keeps the diagonal pivots the stored order
assumes.  One base (``_Base``) is the block's LU at a base value and what
is read from it: its scale and 1-norm, the one solve of the right-hand side
every value shares, its own condition estimate and, when it serves other
values, the rank-r update to them (Sherman-Morrison-Woodbury, with one
r x r eigendecomposition for the whole sweep; for a sweep with at least as
many values as rows, of a small system, through the dense A0^-1).
The model's side (``ParametricSteadyState``) chooses the bases: one for a
sweep when r is small (one atom), else every value (two atoms), and any
value the base cannot serve.  Each base gives every slice of values its
solver and solved states: its shared solve passed through each value's
rank-r correction (none at the base itself).  States (one stacked
eigendecomposition), residuals and condition estimates are computed for a
slice of values at once, one column per value.  Each solution carries its
residual verdict; a single solve, the one-value case at v = 0, raises a
miss.
L(rho) itself is applied by one closure built once per model, for a stack
(points, dim, dim) of Hermitian states: one sparse matrix X on the
row-major flat state gives x = K rho + J(rho)/2, with K = -iH_eff and the
jump sum J, and L(rho) = x + x^+ is Hermitian to the bit.  X is built
from entrywise products, never from the vectorized generator, so the
steady-state residual and the explicit RK4 integrator, which use only that
closure, serve as independent cross-checks of the vectorized solver.  For
small models the integrator tabulates its fixed RK4 step once, from closure
steps of stacks of Hermitian basis matrices, as a real matrix on the
Hermitian coordinates of rho.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from .errors import (
    CapacityError,
    DegenerateSteadyStateError,
    IntegrationInstabilityError,
    NearDegeneracyWarning,
    SteadyStateConvergenceError,
)
from .hilbert import DensityMatrix, HilbertSpace, OperatorMatrix

SUPEROP_DIM_CAP = 20000
DEFAULT_TOL = 1e-9
TRACE_DRIFT_LIMIT = 1e-6
# Largest Liouville size whose operators are held dense: evolve's RK4 table
# and a long one-base sweep's A0^-1 and A0^-H.  BENCH_1f4a024-tabulated-rk4.json,
# BENCH_2b89ac9-dense-probes.json; table and closure steps BENCH_9cb4943-one-block.json.
_DENSE_MAX_SIZE = 512

# Condition estimates of the trace-replaced system (healthy ones read 1e4 to
# 1e6) above which a value warns, and is singular.  CHANGES.md "the
# steady-state residual bound has one owner".
_COND_WARN = 1e9
_SINGULAR_COND = 1e14
# max|L| at the default working point, rounded up: a residual is judged against
# DEFAULT_TOL * max(1, max|L| / L_REF).  CHANGES.md "a sweep solves its points in blocks".
L_REF = 2.842e3
# Largest rank r of the diagonal step at which one base LU serves a sweep;
# one-atom CSVs keep their bits at 1 and 2 BLAS threads only up to r = 128.
# CHANGES.md "one owner per spectrum rule"; ranks BENCH_9cb4943-one-block.json.
_ONE_BASE_MAX_RANK = 96
# Largest cond_1(V) of the update's eigenvectors at which the base LU serves a
# sweep.  CHANGES.md "one factorization per one-atom sweep".
_EIGVEC_COND_MAX = 1e6
# Liouville rows of the right-hand sides solved or stepped at once; more make
# SuperLU's solve wake every OpenBLAS thread.  CHANGES.md "one factorization
# per one-atom sweep", "one state path"; BENCH_9cb4943-one-block.json.
_SLICE_ROWS = 1800
# Fewest values in one slice of a sweep through the dense probes, whose products
# wake every OpenBLAS thread whatever the slice.  BENCH_9cb4943-one-block.json.
_DENSE_SLICE_VALUES = 32
# SuperLU's supernode relaxation: 1 leaves every supernode as the pattern makes
# it.  BENCH_99ed2d1-unrelaxed-supernodes.json; CHANGES.md "supernodes unrelaxed".
_SUPERNODE_RELAX = 1
# Threshold partial pivoting: keep the diagonal pivot, which the stored order
# assumes, unless below 0.1 of its column's largest entry.  CHANGES.md
# "threshold partial pivoting"; BENCH_d6358eb-diagonal-pivoting.json.
_DIAG_PIVOT_THRESH = 0.1


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus sqrt(rate)-scaled collapse operators on one space.

    The Hamiltonian is in angular units (rad/us) and must be finite and
    Hermitian to 1e-9; collapse operators, finite too, carry units
    rad^(1/2)/us^(1/2).
    """

    space: HilbertSpace
    hamiltonian: OperatorMatrix
    collapse_ops: tuple[OperatorMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "collapse_ops", tuple(self.collapse_ops))
        if self.hamiltonian.space != self.space:
            raise ValueError("Hamiltonian does not act on the model space")
        if not np.isfinite(self.hamiltonian.matrix).all():
            raise ValueError("Hamiltonian has non-finite entries")
        herm = np.max(np.abs(self.hamiltonian.matrix - self.hamiltonian.matrix.conj().T))
        if herm > 1e-9:
            raise ValueError(f"Hamiltonian not Hermitian: max |H - H^+| = {herm:.3e}")
        for op in self.collapse_ops:
            if op.space != self.space:
                raise ValueError("collapse operator does not act on the model space")
            if not np.isfinite(op.matrix).all():
                raise ValueError("collapse operator has non-finite entries")


@dataclass(frozen=True)
class SolverDiagnostics:
    """Size and conditioning of one steady-state solve."""

    dimension: int
    condition_estimate: float
    near_degenerate: bool


@dataclass(frozen=True, eq=False)
class SteadyStateSolution:
    """A steady state and the scaled residual bound it was judged against."""

    rho: DensityMatrix
    residual_norm: float
    diagnostics: SolverDiagnostics
    tolerance: float

    @property
    def converged(self) -> bool:
        return self.residual_norm <= self.tolerance


def _flat_operator(model: LindbladModel) -> sp.csr_array:
    """X with x = K rho + J(rho)/2 = X flat(rho) on the row-major flat rho.

    K = -iH - (1/2) sum_c c^+c and the jump sum J(rho) = sum_c c rho c^+.
    X = (K kron I) + J/2 is built from entrywise products: K[i, k] at
    (i dim + j, k dim + j) for every j, and for the pairs (p, q) of nonzero
    entries of the same collapse operator, v_p conj(v_q)/2 at (r_p dim + r_q,
    s_p dim + s_q), with duplicates summed on conversion; the pair table has
    sum_c nnz(c)^2 entries, indexed in int32 (every size is at most
    ``SUPEROP_DIM_CAP``), the index type of X itself.
    """
    dim = model.space.total_dim
    every = np.arange(dim, dtype=np.int32)
    k = -1j * model.hamiltonian.matrix
    targets, sources, weights = [], [], []
    for op in model.collapse_ops:
        c = op.matrix
        k = k - 0.5 * (c.conj().T @ c)
        rows, cols = (index.astype(np.int32) for index in np.nonzero(c))
        values = c[rows, cols]
        targets.append((dim * rows[:, None] + rows).ravel())
        sources.append((dim * cols[:, None] + cols).ravel())
        weights.append(0.5 * np.outer(values, values.conj()).ravel())
    rows, cols = (index.astype(np.int32) for index in np.nonzero(k))
    targets.append((dim * rows[:, None] + every).ravel())
    sources.append((dim * cols[:, None] + every).ravel())
    weights.append(np.repeat(k[rows, cols], dim))
    targets, sources, weights = map(np.concatenate, (targets, sources, weights))
    return sp.csr_array((weights, (targets, sources)), shape=(dim * dim, dim * dim))


def _apply_factory(model: LindbladModel):
    """Closure evaluating L(rho) for each Hermitian rho of a stack (points,
    dim, dim), the layout :meth:`DensityMatrix.each` checks.

    L(rho) = x + x^+ with x = K rho + J(rho)/2, so one CSR product with
    :func:`_flat_operator` X on every point's row-major flat state gives x.
    x + x^+ is Hermitian to the bit, and it is L(rho) only for Hermitian
    rho; :func:`liouvillian_apply` extends the closure to any rho.
    """
    x_op = _flat_operator(model)
    size = x_op.shape[0]

    def apply(rho: np.ndarray) -> np.ndarray:
        x = (x_op @ rho.reshape(len(rho), size).T).T.reshape(rho.shape)
        return x + x.conj().transpose(0, 2, 1)

    return apply


def liouvillian_apply(model: LindbladModel, rho) -> np.ndarray:
    """L(rho) = -i[H, rho] + sum_c (c rho c^+ - (c^+c rho + rho c^+c)/2).

    Any rho: it splits rho = A + iB into the Hermitian A = (rho + rho^+)/2
    and B = (rho - rho^+)/(2i) and returns L(A) + iL(B), by linearity, from
    one call of the closure of :func:`_apply_factory` on the stack (A, B).
    A one-shot call: it builds that closure each time, so repeated
    applications of one model should hold it.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    dim = model.space.total_dim
    if mat.shape != (dim, dim):
        raise ValueError(f"state shape {mat.shape} does not match dimension {dim}")
    adjoint = mat.conj().T
    images = _apply_factory(model)(np.stack([0.5 * (mat + adjoint), -0.5j * (mat - adjoint)]))
    return images[0] + 1j * images[1]


def check_capacity(space: HilbertSpace) -> None:
    """Raise CapacityError when the vectorized generator on ``space`` exceeds the cap."""
    dim = space.total_dim
    if dim**2 > SUPEROP_DIM_CAP:
        raise CapacityError(f"composite dimension {dim} gives a vectorized generator of size "
                            f"{dim**2}, beyond the solver cap {SUPEROP_DIM_CAP}")


def build_superoperator(model: LindbladModel) -> sp.csr_matrix:
    """Sparse matrix L with L vec(rho) = vec(L(rho)) under column stacking.

    Assembled from the effective Hamiltonian H_eff = H - (i/2) sum_c c^+c as
    L = -i (I kron H_eff) + i (conj(H_eff) kron I) + sum_c conj(c) kron c,
    indexed directly from the nonzeros of H_eff and of each c.  Entries
    that several terms share add up in the order of the terms, and entries
    that cancel are dropped, as in the sum of the sparse Kronecker products.
    """
    check_capacity(model.space)
    dim = model.space.total_dim
    size = dim * dim
    h_eff = model.hamiltonian.matrix.astype(complex)
    for op in model.collapse_ops:
        h_eff = h_eff - 0.5j * (op.matrix.conj().T @ op.matrix)
    # COO triplets term by term: entry (a dim + b, c dim + d) of A kron B is
    # A[a, c] B[b, d], from the nonzeros of A and B alone
    every = np.arange(dim)[:, None]
    rows, cols = np.nonzero(h_eff)
    values = np.broadcast_to(h_eff[rows, cols], (dim, rows.size))
    terms = [
        (dim * rows + every, dim * cols + every, 1j * values.conj()),
        (dim * every + rows, dim * every + cols, -1j * values),
    ]
    for op in model.collapse_ops:
        rows, cols = np.nonzero(op.matrix)
        values = op.matrix[rows, cols]
        terms.append((
            dim * rows[:, None] + rows, dim * cols[:, None] + cols, values.conj()[:, None] * values,
        ))
    keys = np.concatenate([(size * r + c).ravel() for r, c, _ in terms])
    keys, where = np.unique(keys, return_inverse=True)
    data = np.zeros(keys.size, dtype=complex)
    # np.add.at adds in the order of the terms, as the sum of the krons did
    np.add.at(data, where, np.concatenate([v.ravel() for _, _, v in terms]))
    indptr = np.searchsorted(keys, size * np.arange(size + 1))
    liou = sp.csr_matrix((data, keys % size, indptr), shape=(size, size))
    liou.eliminate_zeros()
    return liou


class _SweepSolver:
    """``solve(x, trans)`` with the systems A(v) = R_v (A0 + t E diag(d) E^T)
    of a slice of values, one column of ``x`` per value, SuperLU's layout,
    as :func:`_inverse_one_norms` calls it; ``trans`` is "N" or "H".

    ``base`` serves the values from its LU of A0 and its update, ``shifts``
    are t = v - v0, and R_v scales the block's trace row by ``ratios``.  A
    solve is the base's (one dense product through the probes, else one
    solve with its LU) followed by :meth:`corrected`.
    """

    def __init__(self, base: _Base, shifts: np.ndarray, ratios: np.ndarray):
        self._base, self._ratios = base, ratios
        # (I + tK)^-1 t = V diag(f) V^-1, f = t / (1 + t lam), a column per
        # value; a huge t overflows f, and its value gets its own LU
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._weights = shifts / (1.0 + np.outer(base.eigenvalues, shifts))

    def solve(self, x: np.ndarray, trans: str = "N") -> np.ndarray:
        base = self._base
        if trans == "N":
            x = x.copy()
            x[base.block.position[0]] /= self._ratios
        if base.probes is not None:
            y = base.probes[trans][0] @ x
        else:
            y = base.lu.solve(x, trans=trans)
        y = self.corrected(y, x, trans)
        if trans != "N":
            y[base.block.position[0]] /= self._ratios
        return y

    def corrected(self, y: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """(A0 + t E diag(d) E^T)^-1 b, a column per value (one column of b
        may serve them all), from y = A0^-1 b, or with ``trans`` "H" its
        conjugate transpose's from y = A0^-H b: y minus (A0^-1 E) step
        through the dense probes, else one solve with the base LU of b minus
        E step.  The step is zero at the base."""
        base = self._base
        if base.probes is not None:
            return y - base.probes[trans][1] @ self._step(y, trans)
        rhs = np.broadcast_to(b, y.shape).copy()
        rhs[base.block.support] -= self._step(y, trans)
        return base.lu.solve(rhs, trans=trans)

    def _step(self, y: np.ndarray, trans: str) -> np.ndarray:
        # A(v)^-1 = A0^-1 (I - E V diag(f) V^-1 diag(d) E^T A0^-1), and its
        # conjugate transpose
        base = self._base
        y = y[base.block.support]
        if trans == "N":
            return base.vectors @ (self._weights * (base.inverse @ y))
        return base.inverse.conj().T @ (self._weights.conj() * (base.vectors.conj().T @ y))


class _Block:
    """The trace-replaced system A(v) = R_v (A0 + t E diag(d) E^T) of a
    family L(v) = L(0) + v diag(D), stored in its fill-reducing order.

    Row 0 of the generator ``liou`` = L(0) is replaced by the trace
    functional (1 on each rho_ii entry) times the scale max(1, max|L(v)|),
    a diagonal factor R_v on the left.  D (``step``, in vec(rho) order) must
    be zero in row 0, so the replacement commutes with the update.  The
    system is assembled once in CSC form with its whole diagonal in the
    pattern, so every value shares one sparsity pattern, and with it one
    fill-reducing order: SuperLU's ``MMD_AT_PLUS_A`` column order, a
    function of the pattern alone, is computed once here (``position[k]`` is
    where index k of vec(rho) sits), and the system is stored permuted by it
    symmetrically (P A P^T, rows and columns alike), so that :meth:`factor`
    runs SuperLU with ``permc_spec="NATURAL"``, ``relax=_SUPERNODE_RELAX``
    and ``diag_pivot_thresh=_DIAG_PIVOT_THRESH``, which keeps the diagonal
    pivots that order was computed for.  Only the diagonal moves with v, by
    d in the r columns E (``support``) where D is nonzero, and so does R_v;
    t = v - v0 for the system A0 at a base value v0.  Each value's scale and
    1-norm are read from the diagonal (:meth:`scales_and_norms`), and a
    :class:`_Base` carries an LU at a base to every other value.
    """

    def __init__(self, liou: sp.csr_matrix, step: np.ndarray):
        size = liou.shape[0]
        dim = math.isqrt(size)
        head = liou.data[liou.indptr[0]:liou.indptr[1]]
        body = liou[1:].tocoo()
        diagonal = np.arange(1, size)
        rows = np.concatenate([np.zeros(dim, dtype=int), body.row + 1, diagonal])
        cols = np.concatenate([(dim + 1) * np.arange(dim), body.col, diagonal])
        self.size = size
        self.position = _fill_reducing_position(rows, cols, size)
        self._system = system = sp.csc_matrix(
            (
                np.concatenate([np.zeros(dim), body.data, np.zeros(size - 1)]),
                (self.position[rows], self.position[cols]),
            ),
            shape=(size, size),
            dtype=complex,
        )
        self._trace = np.flatnonzero(system.indices == self.position[0])
        columns = np.repeat(np.arange(size), np.diff(system.indptr))
        # the entries that move with v: each column's diagonal (zero in the
        # trace row) and the trace row's scale
        self._on_diagonal = system.indices == columns
        self._diagonal = system.data[self._on_diagonal]
        # column l holds its diagonal entry exactly once; it belongs to
        # index argsort(position)[l] of vec(rho)
        self._step = step[np.argsort(self.position)]
        self.support = np.flatnonzero(self._step)
        fixed = np.abs(system.data)
        fixed[self._on_diagonal] = 0.0
        self._fixed_sums = np.add.reduceat(fixed, system.indptr[:-1])
        self._traced = np.zeros(size)
        self._traced[columns[self._trace]] = 1.0
        # L(v) keeps row 0 of L(0); its largest entry enters the trace-row scale
        self._scale_floor = max(1.0, float(np.abs(head).max(initial=0.0)), float(fixed.max()))

    def scales_and_norms(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trace-row scale max(1, max|L(v)|) and the 1-norm of the system
        at each of ``values``, from the diagonal, the only entries that move.
        A huge value overflows them, and its system, to no warning: it fails
        to factor, or its estimate reads singular."""
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = np.abs(self._diagonal + values[:, None] * self._step)
            scales = np.maximum(self._scale_floor, diagonal.max(axis=1))
            norms = (self._fixed_sums + diagonal + scales[:, None] * self._traced).max(axis=1)
        return scales, norms

    def factor(self, value: float):
        """The LU of the system at ``value`` and its scale and 1-norm, arrays
        of one entry; SuperLU's RuntimeError when the system is singular."""
        scale, norm = self.scales_and_norms(np.array([value]))
        system = self._system.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            system.data[self._on_diagonal] = self._diagonal + value * self._step
        system.data[self._trace] = scale
        # stored in its fill-reducing order already
        lu = splu(system, permc_spec="NATURAL", relax=_SUPERNODE_RELAX,
                  diag_pivot_thresh=_DIAG_PIVOT_THRESH)
        return lu, scale, norm


class _Base:
    """The LU of a :class:`_Block` at a base value v0 and what is read from it.

    It holds the LU, its trace-row scale and 1-norm (``factor``'s arrays of
    one entry), the right-hand side scale e_row that every value shares once
    R_v is divided out, and ``shared``, that right-hand side solved with the
    LU: the base's state, and every other value's before its correction.
    :meth:`serve` adds the base's own estimate ``cond`` and, when that is
    healthy, the rank-r update to every value: the eigenvalues lam, the
    eigenvectors V and V^-1 diag(d) of K = diag(d) E^T A0^-1 E, and, on a
    long sweep of a small system, the dense ``probes``.  :meth:`slice` gives
    a slice of values its solver, solved columns, scales and 1-norms.
    """

    def __init__(self, block: _Block, value: float):
        self.block, self.value = block, value
        self.lu, self.scale, self.norm = block.factor(value)
        self.rhs = np.zeros((block.size, 1), dtype=complex)
        self.rhs[block.position[0]] = self.scale
        self.shared = self.lu.solve(self.rhs)
        self.cond = self.eigenvalues = self.vectors = self.inverse = self.probes = None

    def serve(self, dense: bool) -> bool:
        """Whether the base serves other values: its own estimate is at most
        ``_COND_WARN`` and cond_1(V) at most ``_EIGVEC_COND_MAX``.  Then it
        holds the update, with the dense probes A0^-1 and A0^-H if ``dense``."""
        size, support = self.block.size, self.block.support
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.cond = self.norm[0] * _inverse_one_norms(self.lu, 1, size)[0]
        if not self.cond <= _COND_WARN:
            return False
        spread = self.block._step[support]
        # A0^-1 E, or all of A0^-1 if dense, a slice of unit columns at a time
        columns = np.arange(size) if dense else support
        solved = np.empty((size, columns.size), dtype=complex, order="F")
        step = max(1, _SLICE_ROWS // size)
        for start in range(0, columns.size, step):
            unit = np.zeros((size, min(step, columns.size - start)), dtype=complex, order="F")
            unit[columns[start:start + step], np.arange(unit.shape[1])] = 1.0
            solved[:, start:start + unit.shape[1]] = self.lu.solve(unit)
        if dense:
            adjoint = solved.conj().T
            self.probes = {"N": (solved, solved[:, support]), "H": (adjoint, adjoint[:, support])}
            solved = solved[:, support]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # K = diag(d) E^T A0^-1 E
            self.eigenvalues, self.vectors, inverse = _eig(spread[:, None] * solved[support])
            cond = (np.abs(self.vectors).sum(axis=0).max(initial=0.0)
                    * np.abs(inverse).sum(axis=0).max(initial=0.0))
        self.inverse = inverse * spread if cond <= _EIGVEC_COND_MAX else None
        return self.inverse is not None

    def slice(self, values: np.ndarray) -> tuple:
        """The solver of ``values`` (as :func:`_inverse_one_norms` calls it),
        their solved states, a column per value, and their scales and 1-norms.
        A base that serves only itself is its own LU and shared solve."""
        if self.inverse is None:
            return self.lu, self.shared, self.scale, self.norm
        scales, norms = self.block.scales_and_norms(values)
        solver = _SweepSolver(self, values - self.value, scales / self.scale)
        # the shared solve repeated, a column per value: BLAS runs a product
        # with one column as a matrix-vector product, on every thread
        return solver, solver.corrected(np.repeat(self.shared, values.size, axis=1), self.rhs), \
            scales, norms


class ParametricSteadyState:
    """Steady states of the family H(v) = H + v*G from one generator assembly.

    G must be real and diagonal.  Then L(v) = L(0) + v*D with D diagonal,
    D[i + j*dim] = i*(g_j - g_i) for the diagonal g of G, and row 0 of D is
    zero, so every value's trace-replaced system is one :class:`_Block`,
    assembled and ordered once, whose diagonal moves with v.
    :meth:`solve_each` decides which values are bases, and each base is one
    :class:`_Base`: the LU of A0 with its scale and 1-norm, its shared solve,
    its own estimate and, when it serves other values, its update.  When the
    block's rank r is at most ``_ONE_BASE_MAX_RANK``, one base, at the value
    nearest the window's midpoint, serves every value by
    Sherman-Morrison-Woodbury, with one eigendecomposition
    K = V diag(lam) V^-1 of the r x r matrix K = diag(d) E^T A0^-1 E for
    the whole sweep (Laub's frequency-response method):
    (A0 + t E diag(d) E^T)^-1 b = A0^-1 (b - E V diag(f) V^-1 diag(d) E^T
    A0^-1 b) with f = t / (1 + t lam), and its conjugate transpose
    likewise.  Once R_v is divided out, every value's right-hand side is
    scale e_row, so every base solves its state once.  Every value then
    goes through one slice computation of states, estimates and verdicts,
    from the solver and solved states :meth:`_Base.slice` gives: for a value
    that is its own base, its LU is the solver, that solve the state, and
    ``factor``'s scale and 1-norm its own, so the LU alone is its single
    solve.  Every other value's
    state is that solve through :meth:`_SweepSolver.corrected`, with a
    :class:`_SweepSolver` as its solver: one more solve with the base LU,
    or, in a sweep with at least as many values as rows, of Liouville size
    at most ``_DENSE_MAX_SIZE``, the product y - (A0^-1 E) step.  Such a
    sweep solves the base LU for every unit vector, ``_SLICE_ROWS`` rows at
    a time, keeps A0^-1 and A0^-H, and reads E^T A0^-1 E, A0^-1 E and
    A0^-H E from them, so each estimator probe is one dense product and the
    correction; its base keeps its own LU's estimate.  Above
    ``_ONE_BASE_MAX_RANK`` every value is its own base.  A value whose
    system the base cannot serve gets its own LU, as a single solve: all of
    them when the base fails to factor, its estimate exceeds ``_COND_WARN``
    or cond(V) exceeds ``_EIGVEC_COND_MAX``, and any one whose estimate is
    not finite or exceeds ``_COND_WARN``.  So every warning and singular
    verdict comes from the LU a single solve uses.
    The states (Hermitian part, trace-normalized), their density-matrix
    checks (:meth:`DensityMatrix.each`, one stacked eigendecomposition),
    their residuals max|L_v(rho)| and their condition estimates (lockstep,
    through the updated solves) are computed for a slice of values at a
    time (``_SLICE_ROWS``), the residual from one L(rho) closure built at
    v = 0, applied to the stack of states, plus -i[vG, rho] by diagonal
    products: it never touches the block.  Then each value raises or warns
    as a single solve would, in order, as it is yielded, and each solution
    carries its verdict against the scaled tolerance.
    """

    def __init__(self, model: LindbladModel, sweep_op: OperatorMatrix | None = None):
        dim = model.space.total_dim
        if sweep_op is None:
            g = np.zeros(dim)
        else:
            if sweep_op.space != model.space:
                raise ValueError("sweep operator does not act on the model space")
            g = np.diag(sweep_op.matrix)
            bad = g[~np.isfinite(g)]
            if bad.size:
                raise ValueError(f"sweep operator has a non-finite diagonal entry, {bad[0]}")
            if np.count_nonzero(sweep_op.matrix - np.diag(g)) or np.any(g.imag):
                raise ValueError("sweep operator must be a real diagonal matrix")
            g = g.real
        self._block = _Block(build_superoperator(model), 1j * (g - g[:, None]).ravel(order="F"))
        self._commutator = g[:, None] - g
        self._apply = _apply_factory(model)
        self.model = model

    def solve_each(self, values: Iterable[float]) -> Iterator[SteadyStateSolution]:
        """Yield the steady state (L(v) rho = 0, trace 1) at each of ``values``.

        Each solution carries the fixed bound ``tolerance = DEFAULT_TOL *
        max(1, scale / L_REF)``, with ``scale`` the largest entry of its
        system, and ``converged``, so a residual miss does not end the
        iteration.  A value with no usable state raises
        DegenerateSteadyStateError (numerically singular system) or
        SteadyStateConvergenceError without a solution (state invariants
        violated), which ends it.  NearDegeneracyWarnings are emitted per
        value, as it is yielded.  A non-finite value raises ValueError before
        any factorization.
        """
        values = [float(value) for value in values]
        for value in values:
            if not math.isfinite(value):
                raise ValueError(f"sweep values must be finite, got {value}")
        if values and self._block.support.size <= _ONE_BASE_MAX_RANK:
            middle = 0.5 * (min(values) + max(values))
            outcomes = self._outcomes(min(values, key=lambda value: abs(value - middle)), values)
        else:
            outcomes = (outcome for value in values for outcome in self._outcomes(value, [value]))
        for outcome in outcomes:
            yield self._solution(*outcome)

    def _outcomes(self, base_value: float, values: list[float]) -> Iterator[tuple]:
        """The arguments of :meth:`_solution` for each of ``values``, in order,
        from the LU at ``base_value`` where it serves, else from each value's own."""
        size = self._block.size
        alone = len(values) == 1
        try:
            base = _Base(self._block, base_value)
        except RuntimeError as exc:
            if alone:
                raise DegenerateSteadyStateError(
                    f"sparse factorization failed, generator is singular: {exc}",
                    condition_estimate=math.inf,
                ) from exc
            base = None
        if not alone and not (base and base.serve(size <= min(len(values), _DENSE_MAX_SIZE))):
            # each value its own base, so the first singular one is named exactly
            for value in values:
                yield from self._outcomes(value, [value])
            return
        # equal slices, so that no slice of a sweep is one value: BLAS runs a
        # product with one column as a matrix-vector product, on every thread
        per_slice = max(1, _SLICE_ROWS // size)
        if base.probes is not None:
            per_slice = max(per_slice, _DENSE_SLICE_VALUES)
        for chunk in np.array_split(values, -(-len(values) // per_slice)):
            solver, solved, scales, norms = base.slice(chunk)
            finite = np.isfinite(solved).all(axis=0)
            # a point whose state or estimate is not finite gets its own LU
            # or raises on its own check below, in order, so overflow here
            # is no warning
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                conds = norms * _inverse_one_norms(solver, chunk.size, size)
                states, residuals = self._states(chunk, solved)
            if base.probes is not None:
                # the dense probes round otherwise than the LU's solves
                conds[chunk == base_value] = base.cond
            for p, value in enumerate(chunk.tolist()):
                if value != base_value and not (finite[p] and conds[p] <= _COND_WARN):
                    yield from self._outcomes(value, [value])
                else:
                    yield (states[p], float(residuals[p]), bool(finite[p]), float(conds[p]),
                           float(scales[p]))

    def _states(
        self, values: np.ndarray, solved: np.ndarray
    ) -> tuple[list[DensityMatrix | ValueError], np.ndarray]:
        """Checked states and their residuals max|L_v(rho)|, for all of
        ``values`` at once.

        ``solved`` holds one solution of the block per column, in its
        stored order.  Each state is its Hermitian part divided by its
        trace, checked by :meth:`DensityMatrix.each`: a state that fails
        comes back as the ValueError of its check.
        """
        dim = self.model.space.total_dim
        # stacked[p, i, j] = vec(rho_p)[i + j*dim], the column-stacked rho_p[i, j]
        stacked = solved.T[:, self._block.position].reshape(-1, dim, dim).transpose(0, 2, 1)
        rho = 0.5 * (stacked + stacked.conj().transpose(0, 2, 1))
        # each point's own trace: a contiguous diagonal sums each point's
        # entries in the order np.trace sums one matrix
        traces = np.ascontiguousarray(rho.diagonal(axis1=1, axis2=2)).sum(axis=1).real
        rho = rho / traces[:, None, None]
        # L_v(rho) = L_0(rho) - i[vG, rho]
        shift = 1j * values[:, None, None] * self._commutator
        image = self._apply(rho) - shift * rho
        states = DensityMatrix.each(self.model.space, rho)
        return states, np.abs(image).max(axis=(1, 2))

    def _solution(
        self, state: DensityMatrix | ValueError, residual: float, finite: bool, cond: float,
        scale: float,
    ) -> SteadyStateSolution:
        """The checks of one value's solved state, as :meth:`solve_each` yields it."""
        # a NaN estimate fails every comparison, so it is singular unless finite
        if not finite or not math.isfinite(cond) or cond > _SINGULAR_COND:
            cause = (
                "the steady state is not determined: a second steady state, or rates "
                "that span too many orders of magnitude"
                if finite and math.isfinite(cond)
                else "the solve or its condition estimate overflowed"
            )
            raise DegenerateSteadyStateError(
                f"steady-state system is numerically singular (condition ~ {cond:.3e}); {cause}",
                condition_estimate=cond,
            )
        near = cond > _COND_WARN
        if near:
            warnings.warn(
                f"generator is close to degenerate (condition ~ {cond:.3e}); "
                "the steady state may be poorly determined",
                NearDegeneracyWarning,
                stacklevel=3,
            )

        diagnostics = SolverDiagnostics(
            dimension=self._block.size,
            condition_estimate=cond,
            near_degenerate=near,
        )
        if isinstance(state, ValueError):
            raise SteadyStateConvergenceError(
                f"solution violates state invariants: {state}"
            ) from state
        return SteadyStateSolution(
            rho=state,
            residual_norm=residual,
            diagnostics=diagnostics,
            tolerance=DEFAULT_TOL * max(1.0, scale / L_REF),
        )


def _eig(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues lam, unit right eigenvectors V and V^-1 of the square
    complex ``k``, without a BLAS matrix-vector product.

    OpenBLAS runs a matrix-vector product of order 64 or more on every
    thread, and np.linalg.eig runs many in its Hessenberg reduction and
    its back-transform; on a loaded 2-core host the woken threads slowed a
    72 x 72 eig and the next ~0.1 s of the process several-fold.  Here the
    Householder reduction is an einsum loop, LAPACK gives the Schur form
    Q T Q^H of the Hessenberg matrix (no product of that size there), and
    V = Q X D and V^-1 = D^-1 X^-1 Q^H come from the unit upper-triangular
    eigenvectors X of T by back substitution, D scaling V's columns to unit
    length.  A repeated eigenvalue gives non-finite V and V^-1.
    """
    n = len(k)
    h = np.array(k, dtype=complex)
    q = np.eye(n, dtype=complex)
    for j in range(n - 2):
        x = h[j + 1:, j]
        length = math.sqrt(np.einsum("i,i->", x.conj(), x).real)
        if not 2.0**-450 <= length <= 2.0**450:
            # the squared norm under- or overflowed: scale x into range by a
            # power of two, exactly (1 / max|x| overflows when it is subnormal)
            top = np.abs(x).max()
            if top == 0.0:
                continue
            half = 2.0 ** (-math.frexp(top)[1] // 2)
            x = x * half * half
            length = math.sqrt(np.einsum("i,i->", x.conj(), x).real)
        v = x.copy()
        # 1 / |x[0]| overflows for a subnormal x[0], negligible beside length
        v[0] += length * (x[0] / abs(x[0]) if abs(x[0]) >= 2.0**-1022 else 1.0)
        v /= math.sqrt(np.einsum("i,i->", v.conj(), v).real)
        # h <- P h P and q <- q P, with P = I - 2 v v^H on indices j+1..n-1
        h[j + 1:] -= 2.0 * np.multiply.outer(v, np.einsum("i,ij->j", v.conj(), h[j + 1:]))
        h[:, j + 1:] -= 2.0 * np.multiply.outer(np.einsum("ij,j->i", h[:, j + 1:], v), v.conj())
        q[:, j + 1:] -= 2.0 * np.multiply.outer(np.einsum("ij,j->i", q[:, j + 1:], v), v.conj())
    triangle, unitary = scipy.linalg.schur(np.triu(h, -1), output="complex")
    q = np.einsum("ij,jk->ik", q, unitary)
    values = triangle.diagonal().copy()
    # column m of x solves triangle x = values[m] x with x[m] = 1, x[m+1:] = 0,
    # and y = x^-1, both row by row upward
    x = np.eye(n, dtype=complex)
    y = np.eye(n, dtype=complex)
    for i in range(n - 2, -1, -1):
        x[i, i + 1:] = (np.einsum("j,jm->m", triangle[i, i + 1:], x[i + 1:, i + 1:])
                        / (values[i + 1:] - values[i]))
        y[i, i + 1:] = -np.einsum("j,jm->m", x[i, i + 1:], y[i + 1:, i + 1:])
    lengths = np.sqrt(np.einsum("ij,ij->j", x.conj(), x).real)
    return (values, np.einsum("ij,jk->ik", q, x / lengths),
            np.einsum("ij,kj->ik", y * lengths[:, None], q.conj()))


def _fill_reducing_position(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Where SuperLU's ``MMD_AT_PLUS_A`` column order puts each index of a
    ``size`` x ``size`` system with entries at (``rows``, ``cols``).

    The order is a function of the pattern alone.  It is read from an
    incomplete LU that drops every entry it may, of a diagonally dominant
    matrix with that pattern: SuperLU orders it as it orders the full LU, at
    a fraction of that LU's cost.
    """
    # complex like the systems it orders, so it runs the SuperLU code their
    # LUs run (0.15 MB less peak RSS per one-atom sweep than a real matrix)
    ones = np.ones(rows.size, dtype=complex)
    pattern = sp.csc_matrix((ones, (rows, cols)), shape=(size, size))
    dominant = pattern + size * sp.identity(size, format="csc")
    return spilu(dominant, drop_tol=1e300, fill_factor=1, permc_spec="MMD_AT_PLUS_A").perm_c


def _inverse_one_norms(lu, points: int, size: int) -> np.ndarray:
    """||A_p^-1||_1 estimates for ``points`` systems A_p, each of order
    ``size``, that ``lu.solve(x, trans)`` solves with one column of ``x``
    per system, SuperLU's layout (``trans`` "N" for A_p, "H" for A_p^H): a
    slice of a sweep's values through :class:`_SweepSolver`.

    Hager's estimator as refined by Higham (LAPACK's gecon method; Higham
    and Tisseur's block algorithm with one column, which draws no random
    probes), run for every system in lockstep: each iteration is one
    solve with A and one with A^H, and a system stops on its own tests
    while the others go on.  At most 5 iterations, as in scipy's
    ``onenormest``.
    """
    itmax = 5
    columns = np.arange(points)
    x = np.full((size, points), 1.0 / size, dtype=complex)
    estimate = np.zeros(points)
    active = np.ones(points, dtype=bool)
    for k in range(1, itmax + 2):
        y = lu.solve(x)
        norms = np.abs(y).sum(axis=0)
        if k >= 2:
            active &= norms > estimate
        estimate[active] = norms[active]
        if k > itmax or not active.any():
            break
        signs = np.copy(y)
        signs[signs == 0] = 1
        signs /= np.abs(signs)
        if k >= 2:
            # a sign vector repeats (np.dot, unconjugated, as the reference does)
            active &= [np.dot(s, t) != size for s, t in zip(signs.T, previous.T)]
        previous = signs
        z = np.abs(lu.solve(signs, trans="H"))
        if k >= 2:
            active &= z.max(axis=0) != z[best, columns]
        if not active.any():
            break
        best = np.argsort(z, axis=0)[-1]
        x = np.zeros((size, points), dtype=complex)
        x[best, columns] = 1.0
    return estimate


def _single_solve(system: ParametricSteadyState, value: float) -> SteadyStateSolution:
    """The solution at ``value`` as a single solve, with the errors of
    :meth:`ParametricSteadyState.solve_each` for one value, and the one place
    a residual miss is raised: a SteadyStateConvergenceError carrying the
    solution that is not converged."""
    solution = next(system.solve_each([value]))
    if not solution.converged:
        raise SteadyStateConvergenceError(
            f"steady-state residual {solution.residual_norm:.3e} exceeds tolerance "
            f"{solution.tolerance:.3e}", solution=solution
        )
    return solution


def steady_state(model: LindbladModel) -> SteadyStateSolution:
    """Solve L vec(rho) = 0 with trace(rho) = 1 by trace-row replacement.

    The v = 0 case of :meth:`ParametricSteadyState.solve_each`, with its
    errors and its fixed residual bound, as :func:`_single_solve`: a
    residual miss raises a SteadyStateConvergenceError carrying the
    solution that is not converged.
    """
    return _single_solve(ParametricSteadyState(model), 0.0)


def stable_timestep(model: LindbladModel) -> float:
    """Conservative RK4-stable step from a spectral bound on the generator."""
    bound = 2.0 * np.linalg.norm(model.hamiltonian.matrix, 2)
    for op in model.collapse_ops:
        bound += 2.0 * np.linalg.norm(op.matrix, 2) ** 2
    if bound <= 0.0:
        return math.inf
    return 2.0 / bound


def _rk4_step(apply, rho: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of drho/dt = L(rho) in Horner form.

    rho + hL(rho + h/2 L(rho + h/3 L(rho + h/4 L rho))) is
    sum_{k<=4} (hL)^k rho / k!, the degree-4 polynomial the stages k1..k4
    of classical RK4 sum to for a linear, time-independent L.
    """
    inner = rho + (h / 4.0) * apply(rho)
    inner = rho + (h / 3.0) * apply(inner)
    inner = rho + (h / 2.0) * apply(inner)
    return rho + h * apply(inner)


def _hermitian_coordinates(rho: np.ndarray, upper) -> np.ndarray:
    """Real coordinates of each Hermitian matrix of a stack, a row each: its
    diagonal, then the real and imaginary parts of its strict upper triangle ``upper``."""
    triangle = rho[:, upper[0], upper[1]]
    return np.concatenate([rho.diagonal(axis1=1, axis2=2).real, triangle.real, triangle.imag], 1)


def _hermitian_matrix(coords: np.ndarray, upper, dim: int) -> np.ndarray:
    """Inverse of :func:`_hermitian_coordinates`."""
    pairs = len(upper[0])
    rho = np.zeros((len(coords), dim, dim), dtype=complex)
    rho[:, upper[0], upper[1]] = coords[:, dim:dim + pairs] + 1j * coords[:, dim + pairs:]
    rho = rho + rho.conj().transpose(0, 2, 1)
    rho[:, range(dim), range(dim)] = coords[:, :dim]
    return rho


def _run_steps(advance, trace_of, state, steps: int, step: float):
    """``steps`` applications of ``advance``, each trace-checked and renormalized."""
    for _ in range(steps):
        state = advance(state)
        trace = trace_of(state)
        drift = abs(trace - 1.0)
        if not np.isfinite(drift) or drift > TRACE_DRIFT_LIMIT:
            raise IntegrationInstabilityError(
                f"trace drift {drift:.3e} in one step of size {step:.3e}; "
                "reduce dt"
            )
        state = state / trace
    return state


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_final: float,
    dt: float | None = None,
) -> DensityMatrix:
    """Fixed-step classical RK4 integration of drho/dt = L(rho).

    L is linear and time-independent, so a step, :func:`_rk4_step` on the
    closure of :func:`_apply_factory`, is one fixed real-linear map of the
    Hermitian coordinates of rho.  Up to Liouville size
    ``_DENSE_MAX_SIZE`` that map is tabulated once, from steps of the
    Hermitian basis matrices, ``_SLICE_ROWS`` rows at a time, and every
    step is one real matrix-vector product; above it rho0 is projected onto
    Hermitian matrices once and each step runs the closure on a one-point
    stack, whose image of a Hermitian state is Hermitian to the bit, so no
    step re-projects.
    The state is trace-renormalized after every step; a per-step trace drift
    beyond 1e-6 (or a non-finite state) aborts with an instability error
    suggesting a smaller step, and so does a final state that fails the
    DensityMatrix checks: a step can push a zero eigenvalue of rho below
    -1e-8.  The default step, :func:`stable_timestep`, is a stability bound,
    not an accuracy bound, so that check can fail over short times from a
    rank-deficient rho0: from the half-g1, half-g2 ground mixture with an
    empty cavity (five-level model, delta = 0.1 MHz), t_final of one step,
    0.01, 0.05 and 0.1 us raise, while 0.3 us passes and ``dt`` at half the
    default step passes at 0.01 us.  This integrator exists as a
    verification oracle for the steady-state solver and deliberately avoids
    the vectorized-generator code path, the table included.
    """
    if rho0.space != model.space:
        raise ValueError("initial state does not act on the model space")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if t_final == 0:
        return rho0
    if dt is None:
        dt = min(stable_timestep(model), t_final)
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt overflows the step count, t_final = {t_final}, dt = {dt}")
    steps = max(1, math.ceil(t_final / dt))
    step = t_final / steps
    apply = _apply_factory(model)
    dim = model.space.total_dim
    rho = np.array(rho0.matrix[None], dtype=complex)
    size = dim * dim
    if size <= _DENSE_MAX_SIZE:
        upper = np.triu_indices(dim, 1)
        # column b is the image of basis matrix b, C-contiguous: a transposed
        # table runs another BLAS kernel in table.dot, 8e-15 off on the N=1 oracle
        table = np.empty((size, size))
        per_slice = max(1, _SLICE_ROWS // size)
        for start in range(0, size, per_slice):
            units = np.eye(min(per_slice, size - start), size, start)
            basis = _hermitian_matrix(units, upper, dim)
            images = _hermitian_coordinates(_rk4_step(apply, basis, step), upper)
            table[:, start:start + len(basis)] = images.T
        coords = _run_steps(
            table.dot, lambda x: x[:dim].sum(), _hermitian_coordinates(rho, upper)[0],
            steps, step,
        )
        rho = _hermitian_matrix(coords[None], upper, dim)
    else:
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        rho = _run_steps(lambda rho: _rk4_step(apply, rho, step),
                         lambda rho: np.trace(rho[0]).real, rho, steps, step)
    try:
        return DensityMatrix(model.space, rho[0])
    except ValueError as exc:
        # the step, not the initial state, is at fault
        raise IntegrationInstabilityError(
            f"integrated state invalid after {steps} steps of size {step:.3e} ({exc}); "
            "reduce dt"
        ) from exc


def trace_distance(state_a, state_b) -> float:
    """(1/2) ||rho_a - rho_b||_1 for Hermitian inputs."""
    mat_a = state_a.matrix if isinstance(state_a, DensityMatrix) else np.asarray(state_a)
    mat_b = state_b.matrix if isinstance(state_b, DensityMatrix) else np.asarray(state_b)
    eigs = np.linalg.eigvalsh(mat_a - mat_b)
    return 0.5 * float(np.abs(eigs).sum())
