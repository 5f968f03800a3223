"""Lindblad generator assembly, steady-state solve, and RK4 propagation.

Vectorization is column-stacking throughout: ``vec(rho) = rho.reshape(-1,
order="F")``, so ``vec(A rho B) = (B.T kron A) vec(rho)``.  The vectorized
generator is assembled from the effective Hamiltonian
``H_eff = H - (i/2) sum_c c^+c``.  The steady state is obtained from it by
replacing one row (the one belonging to the rho[0,0] component) with the
trace functional and solving the resulting linear system by sparse LU
factorization.  A family H + v*G with G real diagonal changes only the
diagonal of that system, so a sweep over v assembles it once, orders it for
sparse LU once, and each block of values is one diagonal update per value and
one sparse LU of their block-diagonal system, with SuperLU's supernodes left
unrelaxed and threshold partial pivoting that keeps the diagonal pivots the
stored order assumes: one sparse LU per block of points, whose states (one
stacked eigendecomposition) and residuals are checked for the whole block at
once.
Each solution carries its residual verdict; a single solve, the one-value
case at v = 0, raises a miss.
L(rho) itself is applied by one closure built once per model from
entrywise products, for a stack (points, dim, dim) of Hermitian states: a
sparse K = -iH_eff for K rho + (K rho)^+ and one sparse matrix on the
row-major flat state for the jump sum.  It never touches the vectorized
generator, so the steady-state residual and the explicit RK4 integrator,
which use only that closure, serve as independent cross-checks of the
vectorized solver.  For small models the integrator tabulates its fixed
RK4 step once, from one closure step of the stack of every Hermitian basis
matrix, as a real matrix on the Hermitian coordinates of rho.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
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
# evolve tabulates its RK4 step as a dense real matrix up to this Liouville
# size (the table is then at most 2 MB).  One table step against one closure
# step on a 2-core host, 1 and 2 BLAS threads: 7-9 vs 81-84 us at size 225,
# 19-26 vs 63-86 us at 400, 157-268 vs 96 us at 900, 1.2-2.3 vs 0.25 ms at
# 2500.
_TABULATE_MAX_SIZE = 512

# Conditioning of the balanced trace-replaced system: healthy solves sit
# around 1e4..1e6 here; values beyond _COND_WARN signal a near-degenerate
# generator (second steady state opening up), beyond _SINGULAR_COND a state
# the system does not determine: a second steady state, or rates that span
# too many orders of magnitude, which the estimate cannot tell apart.
_COND_WARN = 1e9
_SINGULAR_COND = 1e14
# Largest generator entry max|L| at the default working point.  A residual
# is judged against DEFAULT_TOL * max(1, max|L| / L_REF), so a model at or
# below this scale keeps the absolute tolerance and a rescaled one scales it.
L_REF = 2.842e3
# Liouville rows of one block-diagonal system in ParametricSteadyState: a
# one-atom point (size 225) solves 4 values per sparse LU, a two-atom point
# (2500 or more) one.  The default 261-point sweep on a 2-core host, 1 BLAS
# thread, unrelaxed supernodes, at 512 / 1024 / 1536 / 2048 rows: 0.51 /
# 0.43 / 0.42 / 0.40 s, peak RSS 66.4 / 67.1 / 68.3 / 68.5 MB (medians of 6
# processes, 11 rounds each; the block's SuperLU factors and workspace).
_BLOCK_ROWS = 1024
# SuperLU's supernode relaxation for the block LUs: relax=1 leaves every
# supernode as the pattern makes it, where the default pads small ones with
# explicit zeros for BLAS kernels.  One LU on a 2-core host, 1 BLAS thread,
# default against relax=1 (interquartile range of alternating repetitions):
# 4 x 225 rows 3.7-4.8 against 3.1-4.0 ms, 2 x 400 12.5-14.6 against
# 6.2-7.9 ms, 625 rows 10.3-11.4 against 8.9-10.0 ms, two atoms at 2500 rows
# 323-376 against 227-254 ms and at 5625 rows 5.0-5.3 against 4.2-4.5 s.
_SUPERNODE_RELAX = 1
# Threshold partial pivoting for the block LUs: SuperLU keeps the diagonal
# pivot unless it is below 0.1 of its column's largest entry, where the
# default (1.0) takes the largest entry, so the stored fill-reducing order,
# which assumes diagonal pivots, keeps its fill.  One LU with relax=1 on a
# 2-core host, 1 BLAS thread, 1.0 against 0.1 (interquartile range of
# alternating repetitions; L+U fill): 4 x 225 rows 2.9-3.4 against
# 2.4-2.7 ms (42,132 against 35,184), 2 x 400 5.4-6.1 against 4.0-4.4 ms
# (72,546 / 58,372), 625 rows 6.9-11.8 against 4.1-5.5 ms (86,358 /
# 58,561), two atoms at 2500 rows 183-241 against 128-174 ms (1.03 M /
# 0.82 M) and at 5625 rows 3.4-3.6 against 1.8 s (6.61 M / 4.83 M).  The
# scaled backward error max|Ax - b| / (max|A| max|x|) over the default
# window's blocks is 1.8e-16 at 1.0, 2.1e-16 at 0.1 and 1.2e-15 at 0.01.
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


def vectorize(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vec()."""
    return np.asarray(mat).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape((dim, dim), order="F")


def _apply_factory(model: LindbladModel):
    """Closure evaluating L(rho) for each Hermitian rho of a stack (points,
    dim, dim), the layout :meth:`DensityMatrix.each` checks.

    L(rho) = K rho + (K rho)^+ + J(rho) with K = -iH - (1/2) sum_c c^+c held
    as one CSR matrix, so one product over the columns of every point.  The
    jump sum J(rho) = sum_c c rho c^+ is one CSR product J on every point's
    row-major flat state, built from the pairs (p, q) of nonzero entries of
    the same collapse operator, J[r_p dim + r_q, s_p dim + s_q] +=
    v_p conj(v_q), with duplicate pairs summed on conversion; the pair table
    has sum_c nnz(c)^2 entries.  The (K rho)^+ term equals rho K^+ only for
    Hermitian rho; :func:`liouvillian_apply` extends the closure to any rho.
    """
    dim = model.space.total_dim
    size = dim * dim
    k = -1j * model.hamiltonian.matrix
    empty = np.zeros(0, dtype=np.intp)
    targets, sources, weights = [empty], [empty], [empty.astype(complex)]
    for op in model.collapse_ops:
        c = op.matrix
        k = k - 0.5 * (c.conj().T @ c)
        rows, cols = np.nonzero(c)
        values = c[rows, cols]
        targets.append((dim * rows[:, None] + rows).ravel())
        sources.append((dim * cols[:, None] + cols).ravel())
        weights.append(np.outer(values, values.conj()).ravel())
    k = sp.csr_array(k)
    targets, sources, weights = map(np.concatenate, (targets, sources, weights))
    jumps = sp.csr_array((weights, (targets, sources)), shape=(size, size))

    def apply(rho: np.ndarray) -> np.ndarray:
        points = len(rho)
        half = k @ rho.transpose(1, 0, 2).reshape(dim, -1)
        half = half.reshape(dim, points, dim).transpose(1, 0, 2)
        jump = jumps @ np.ascontiguousarray(rho.reshape(points, size).T)
        return half + half.conj().transpose(0, 2, 1) + jump.T.reshape(rho.shape)

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


class ParametricSteadyState:
    """Steady states of the family H(v) = H + v*G from one generator assembly.

    G must be real and diagonal.  Then L(v) = L(0) + v*D with D diagonal,
    D[i + j*dim] = i*(g_j - g_i) for the diagonal g of G, and row 0 of D is
    zero, so replacing row 0 by the trace functional commutes with the
    update.  The trace-replaced system is assembled once in CSC form with
    its whole diagonal in the pattern, so every value shares one sparsity
    pattern, and with it one fill-reducing order: SuperLU's
    ``MMD_AT_PLUS_A`` column order, a function of the pattern alone, is
    computed once here, and the system is stored permuted by it
    symmetrically (P A P^T, rows and columns alike), so that every LU
    factors it with ``permc_spec="NATURAL"``, ``relax=_SUPERNODE_RELAX`` and
    ``diag_pivot_thresh=_DIAG_PIVOT_THRESH``, which keeps the diagonal pivots
    that order was computed for.
    The right-hand side and the solutions pass through the permutation.
    :meth:`solve_each` stacks the systems of a block of values into one
    block-diagonal matrix (``_BLOCK_ROWS`` Liouville rows at most): one
    sparse LU per block of points, one solve for all their states and one
    lockstep condition estimate.  The block's states (Hermitian part, trace-normalized), their
    density-matrix checks (:meth:`DensityMatrix.each`, one stacked
    eigendecomposition) and their residuals max|L_v(rho)| are computed for
    the whole block at once, the residual from one L(rho) closure built at
    v = 0, applied to the stack of states, plus -i[vG, rho] by diagonal
    products.  Then each value raises or warns as a single solve would, in
    order, as it is yielded, and each solution carries its verdict against
    the scaled tolerance.  Every value's bits are those of its own one-point
    solve.
    """

    def __init__(self, model: LindbladModel, sweep_op: OperatorMatrix | None = None):
        dim = model.space.total_dim
        size = dim * dim
        if sweep_op is None:
            g = np.zeros(dim)
        else:
            if sweep_op.space != model.space:
                raise ValueError("sweep operator does not act on the model space")
            g = np.diag(sweep_op.matrix)
            if np.count_nonzero(sweep_op.matrix - np.diag(g)) or np.any(g.imag):
                raise ValueError("sweep operator must be a real diagonal matrix")
            g = g.real
        liou = build_superoperator(model)
        head = liou.data[liou.indptr[0]:liou.indptr[1]]
        # L(v) keeps row 0 of L(0); its largest entry enters the trace-row scale
        self._head_max = float(np.abs(head).max()) if head.size else 0.0
        body = liou[1:].tocoo()
        diagonal = np.arange(1, size)
        rows = np.concatenate([np.zeros(dim, dtype=int), body.row + 1, diagonal])
        cols = np.concatenate([(dim + 1) * np.arange(dim), body.col, diagonal])
        # position[k]: where index k of vec(rho) sits in the permuted system
        position = _fill_reducing_position(rows, cols, size)
        system = sp.csc_matrix(
            (
                np.concatenate([np.zeros(dim), body.data, np.zeros(size - 1)]),
                (position[rows], position[cols]),
            ),
            shape=(size, size),
            dtype=complex,
        )
        self._size = size
        self._position = position
        self._indices, self._indptr = system.indices, system.indptr
        self._trace = np.flatnonzero(system.indices == position[0])
        self._base = system.data
        # column l holds its diagonal entry exactly once; it belongs to
        # index k = i + j*dim of vec(rho)
        k = np.argsort(position)
        on_diagonal = system.indices == np.repeat(np.arange(size), np.diff(system.indptr))
        self._step = np.zeros_like(self._base)
        self._step[on_diagonal] = 1j * (g[k // dim] - g[k % dim])
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
        value, as it is yielded.
        """
        values = [float(value) for value in values]
        per_block = max(1, _BLOCK_ROWS // self._size)
        for start in range(0, len(values), per_block):
            yield from self._solve_block(values[start:start + per_block])

    def _solve_block(self, values: list[float]) -> Iterator[SteadyStateSolution]:
        """Solutions of :meth:`solve_each` for one block from one sparse LU."""
        size = self._size
        points = len(values)
        nnz = self._base.size
        # a fresh array per block: a live SuperLU never sees its input change
        data = self._base + np.array(values)[:, None] * self._step
        scales = np.maximum(max(1.0, self._head_max), np.abs(data).max(axis=1))
        data[:, self._trace] = scales[:, None]
        offsets = np.arange(points)[:, None]
        system = sp.csc_matrix(
            (
                data.reshape(-1),
                (self._indices + size * offsets).reshape(-1),
                np.append((self._indptr[:-1] + nnz * offsets).reshape(-1), points * nnz),
            ),
            shape=(points * size, points * size),
        )
        try:
            # the system is stored in its fill-reducing order already
            lu = splu(
                system, permc_spec="NATURAL", relax=_SUPERNODE_RELAX,
                diag_pivot_thresh=_DIAG_PIVOT_THRESH,
            )
        except RuntimeError as exc:
            if points == 1:
                raise DegenerateSteadyStateError(
                    f"sparse factorization failed, generator is singular: {exc}",
                    condition_estimate=math.inf,
                ) from exc
            # name the first singular value exactly: blocks of one, in order
            for value in values:
                yield from self._solve_block([value])
            return
        rhs = np.zeros((points, size), dtype=complex)
        rhs[:, self._position[0]] = scales
        vecs = lu.solve(rhs.reshape(-1)).reshape(points, size)[:, self._position]
        finite = np.isfinite(vecs).all(axis=1)
        # a point whose state or estimate is not finite raises on its own
        # check below, in order, so overflow here is no warning
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            column_sums = np.add.reduceat(np.abs(data.reshape(-1)), system.indptr[:-1])
            anorm = column_sums.reshape(points, size).max(axis=1)
            conds = anorm * _inverse_one_norms(lu, points, size)
            states, residuals = self._states(values, vecs)
        for p in range(points):
            yield self._solution(
                states[p], float(residuals[p]), bool(finite[p]), float(conds[p]), float(scales[p])
            )

    def _states(
        self, values: list[float], vecs: np.ndarray
    ) -> tuple[list[DensityMatrix | ValueError], np.ndarray]:
        """A block's checked states and their residuals max|L_v(rho)|, for all
        points at once.

        ``vecs`` holds one solved vec(rho) per row.  Each state is its
        Hermitian part divided by its trace, checked by
        :meth:`DensityMatrix.each`: a state that fails comes back as the
        ValueError of its check.
        """
        dim = self.model.space.total_dim
        # stacked[p, i, j] = vecs[p, i + j*dim], the column-stacked rho_p[i, j]
        stacked = vecs.reshape(-1, dim, dim).transpose(0, 2, 1)
        rho = 0.5 * (stacked + stacked.conj().transpose(0, 2, 1))
        # each point's own trace: a contiguous diagonal sums each point's
        # entries in the order np.trace sums one matrix
        traces = np.ascontiguousarray(rho.diagonal(axis1=1, axis2=2)).sum(axis=1).real
        rho = rho / traces[:, None, None]
        # L_v(rho) = L_0(rho) - i[vG, rho]
        shift = 1j * np.array(values)[:, None, None] * self._commutator
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
                stacklevel=4,
            )

        diagnostics = SolverDiagnostics(
            dimension=self._size,
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
    """||A_p^-1||_1 estimates for the ``points`` diagonal blocks A_p of the
    block-diagonal matrix factored in ``lu``, each of order ``size``.

    Hager's estimator as refined by Higham (LAPACK's gecon method; Higham
    and Tisseur's block algorithm with one column, which draws no random
    probes), run for every block in lockstep: each iteration is one
    block-wide solve with A and one with A^H, and a block stops on its own
    tests while the others go on.  At most 5 iterations, as in scipy's
    ``onenormest``.
    """
    itmax = 5
    rows = np.arange(points)
    x = np.full((points, size), 1.0 / size, dtype=complex)
    estimate = np.zeros(points)
    active = np.ones(points, dtype=bool)
    for k in range(1, itmax + 2):
        y = lu.solve(x.reshape(-1)).reshape(points, size)
        norms = np.abs(y).sum(axis=1)
        if k >= 2:
            active &= norms > estimate
        estimate[active] = norms[active]
        if k > itmax or not active.any():
            break
        signs = y.copy()
        signs[signs == 0] = 1
        signs /= np.abs(signs)
        if k >= 2:
            # a sign vector repeats (np.dot, unconjugated, as the reference does)
            active &= [np.dot(s, t) != size for s, t in zip(signs, previous)]
        previous = signs
        z = np.abs(lu.solve(signs.reshape(-1), trans="H").reshape(points, size))
        if k >= 2:
            active &= z.max(axis=1) != z[rows, best]
        if not active.any():
            break
        best = np.argsort(z, axis=1)[:, -1]
        x = np.zeros((points, size), dtype=complex)
        x[rows, best] = 1.0
    return estimate


def steady_state(model: LindbladModel) -> SteadyStateSolution:
    """Solve L vec(rho) = 0 with trace(rho) = 1 by trace-row replacement.

    The v = 0 case of :meth:`ParametricSteadyState.solve_each`, with its
    errors and its fixed residual bound, and the one place a residual miss
    is raised: a SteadyStateConvergenceError carrying the solution that is
    not converged.
    """
    solution = next(ParametricSteadyState(model).solve_each([0.0]))
    if not solution.converged:
        raise SteadyStateConvergenceError(
            f"steady-state residual {solution.residual_norm:.3e} exceeds tolerance "
            f"{solution.tolerance:.3e}", solution=solution
        )
    return solution


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
    ``_TABULATE_MAX_SIZE`` that map is tabulated once, from one step of the
    stack of every Hermitian basis matrix, and every step is one real
    matrix-vector product; above it each step runs the closure on a
    one-point stack and is re-Hermitized.
    The state is trace-renormalized after every step; a per-step trace drift
    beyond 1e-6 (or a non-finite state) aborts with an instability error
    suggesting a smaller step, and so does a final state that fails the
    DensityMatrix checks: a step can push a zero eigenvalue of rho below
    -1e-8.  This integrator exists as a verification oracle for the
    steady-state solver and deliberately avoids the vectorized-generator
    code path, the table included.
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
    steps = max(1, math.ceil(t_final / dt))
    step = t_final / steps
    apply = _apply_factory(model)
    dim = model.space.total_dim
    rho = np.array(rho0.matrix[None], dtype=complex)
    if dim * dim <= _TABULATE_MAX_SIZE:
        upper = np.triu_indices(dim, 1)
        basis = _hermitian_matrix(np.identity(dim * dim), upper, dim)
        # column b is the image of basis matrix b, C-contiguous: a transposed
        # table runs another BLAS kernel in table.dot, 8e-15 off on the N=1 oracle
        table = np.ascontiguousarray(_hermitian_coordinates(_rk4_step(apply, basis, step), upper).T)
        coords = _run_steps(
            table.dot, lambda x: x[:dim].sum(), _hermitian_coordinates(rho, upper)[0],
            steps, step,
        )
        rho = _hermitian_matrix(coords[None], upper, dim)
    else:
        def advance(rho):
            rho = _rk4_step(apply, rho, step)
            return 0.5 * (rho + rho.conj().transpose(0, 2, 1))

        rho = _run_steps(advance, lambda rho: np.trace(rho[0]).real, rho, steps, step)
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
