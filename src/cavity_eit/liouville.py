"""Lindblad generator assembly, steady-state solve, and RK4 propagation.

Vectorization is column-stacking throughout: ``vec(rho) = rho.reshape(-1,
order="F")``, so ``vec(A rho B) = (B.T kron A) vec(rho)``.  The vectorized
generator is assembled from the effective Hamiltonian
``H_eff = H - (i/2) sum_c c^+c``.  The steady state is obtained from it by
replacing one row (the one belonging to the rho[0,0] component) with the
trace functional and solving the resulting linear system with one sparse LU
factorization.  A family H + v*G with G real diagonal changes only the
diagonal of that system, so a sweep over v assembles it once and each value
is one diagonal update and one LU; a single solve is the case v = 0.
L(rho) itself is applied by one closure built once per model from
entrywise products: a sparse K = -iH_eff for K rho + (K rho^+)^+ and one
gather for the jump sum.  It never touches the vectorized generator, so the
steady-state residual and the explicit RK4 integrator, which use only that
closure, serve as independent cross-checks of the vectorized solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

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

# Reported as SolverDiagnostics.method: every solve is one sparse LU.
_SOLVE_METHOD = "sparse"
# Conditioning of the balanced trace-replaced system: healthy solves sit
# around 1e4..1e6 here; values beyond _COND_WARN signal a near-degenerate
# generator (second steady state opening up), beyond _SINGULAR_COND an
# actually multiple steady state.
_COND_WARN = 1e9
_SINGULAR_COND = 1e14


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus sqrt(rate)-scaled collapse operators on one space.

    The Hamiltonian is in angular units (rad/us) and must be Hermitian to
    1e-9; collapse operators carry units rad^(1/2)/us^(1/2).
    """

    space: HilbertSpace
    hamiltonian: OperatorMatrix
    collapse_ops: tuple[OperatorMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "collapse_ops", tuple(self.collapse_ops))
        if self.hamiltonian.space != self.space:
            raise ValueError("Hamiltonian does not act on the model space")
        herm = np.max(np.abs(self.hamiltonian.matrix - self.hamiltonian.matrix.conj().T))
        if herm > 1e-9:
            raise ValueError(f"Hamiltonian not Hermitian: max |H - H^+| = {herm:.3e}")
        for op in self.collapse_ops:
            if op.space != self.space:
                raise ValueError("collapse operator does not act on the model space")


@dataclass(frozen=True)
class SolverDiagnostics:
    """Conditioning and method metadata for one steady-state solve."""

    method: str
    dimension: int
    condition_estimate: float
    near_degenerate: bool


@dataclass(frozen=True, eq=False)
class SteadyStateSolution:
    rho: DensityMatrix
    residual_norm: float
    diagnostics: SolverDiagnostics


def vectorize(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vec()."""
    return np.asarray(mat).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape((dim, dim), order="F")


def _apply_factory(model: LindbladModel):
    """Closure evaluating L(rho) by entrywise products (no vectorized generator).

    L(rho) = K rho + (K rho^+)^+ + J(rho) with K = -iH - (1/2) sum_c c^+c held
    as one CSR matrix.  The jump sum J(rho) = sum_c c rho c^+ is one flat
    gather over the pairs (p, q) of nonzero entries of the same collapse
    operator, out[r_p, r_q] += v_p conj(v_q) rho[s_p, s_q], summed with
    ``np.bincount``; the table has sum_c nnz(c)^2 entries.
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

    def apply(rho: np.ndarray) -> np.ndarray:
        both = k @ np.hstack([rho, rho.conj().T])
        terms = weights * rho.reshape(-1)[sources]
        jumps = np.bincount(targets, terms.real, size) + 1j * np.bincount(targets, terms.imag, size)
        return both[:, :dim] + both[:, dim:].conj().T + jumps.reshape(dim, dim)

    return apply


def liouvillian_apply(model: LindbladModel, rho) -> np.ndarray:
    """L(rho) = -i[H, rho] + sum_c (c rho c^+ - (c^+c rho + rho c^+c)/2).

    A one-shot call: it builds the closure of :func:`_apply_factory` each
    time, so repeated applications of one model should hold that closure.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    dim = model.space.total_dim
    if mat.shape != (dim, dim):
        raise ValueError(f"state shape {mat.shape} does not match dimension {dim}")
    return _apply_factory(model)(mat)


def build_superoperator(model: LindbladModel) -> sp.csr_matrix:
    """Sparse matrix L with L vec(rho) = vec(L(rho)) under column stacking.

    Assembled from the effective Hamiltonian H_eff = H - (i/2) sum_c c^+c as
    L = -i (I kron H_eff) + i (conj(H_eff) kron I) + sum_c conj(c) kron c.
    """
    dim = model.space.total_dim
    size = dim * dim
    if size > SUPEROP_DIM_CAP:
        raise CapacityError(
            f"vectorized generator dimension {size} exceeds the cap {SUPEROP_DIM_CAP}; "
            f"reduce the Hilbert space (total dimension {dim})"
        )
    h_eff = model.hamiltonian.matrix.astype(complex)
    for op in model.collapse_ops:
        h_eff = h_eff - 0.5j * (op.matrix.conj().T @ op.matrix)
    ident = sp.identity(dim, format="csr", dtype=complex)
    h_eff = sp.csr_matrix(h_eff)
    liou = 1j * (sp.kron(h_eff.conj(), ident, format="csr") - sp.kron(ident, h_eff, format="csr"))
    for op in model.collapse_ops:
        c = sp.csr_matrix(op.matrix)
        liou = liou + sp.kron(c.conj(), c, format="csr")
    return liou.tocsr()


class ParametricSteadyState:
    """Steady states of the family H(v) = H + v*G from one generator assembly.

    G must be real and diagonal.  Then L(v) = L(0) + v*D with D diagonal,
    D[i + j*dim] = i*(g_j - g_i) for the diagonal g of G, and row 0 of D is
    zero, so replacing row 0 by the trace functional commutes with the
    update.  The trace-replaced system is assembled once in CSC form with
    its whole diagonal in the pattern; each value v then costs a fresh data
    vector, one sparse LU and the same checks as a single solve.  The
    residual max|L_v(rho)| uses one L(rho) closure built at v = 0 plus
    -i[vG, rho] by diagonal products.
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
        system = sp.csc_matrix(
            (
                np.concatenate([np.zeros(dim), body.data, np.zeros(size - 1)]),
                (
                    np.concatenate([np.zeros(dim, dtype=int), body.row + 1, diagonal]),
                    np.concatenate([(dim + 1) * np.arange(dim), body.col, diagonal]),
                ),
            ),
            shape=(size, size),
            dtype=complex,
        )
        self._indices, self._indptr = system.indices, system.indptr
        self._trace = np.flatnonzero(system.indices == 0)
        self._base = system.data
        # column k = i + j*dim holds its diagonal entry exactly once
        k = np.arange(size)
        on_diagonal = system.indices == np.repeat(k, np.diff(system.indptr))
        self._step = np.zeros_like(self._base)
        self._step[on_diagonal] = 1j * (g[k // dim] - g[k % dim])
        self._commutator = g[:, None] - g
        self._apply = _apply_factory(model)
        self.model = model

    def solve(self, value: float = 0.0, tol: float = DEFAULT_TOL) -> SteadyStateSolution:
        """Solve L(v) vec(rho) = 0 with trace(rho) = 1 at v = ``value``.

        Raises DegenerateSteadyStateError when the null space is not
        one-dimensional, and SteadyStateConvergenceError (carrying the
        partial solution) when the residual max|L(rho)| exceeds ``tol``.
        """
        space = self.model.space
        dim = space.total_dim
        size = dim * dim
        # a fresh vector per value: a live SuperLU never sees its input change
        data = self._base + value * self._step
        scale = max(1.0, self._head_max, float(np.abs(data).max()))
        data[self._trace] = scale
        system = sp.csc_matrix((data, self._indices, self._indptr), shape=(size, size))
        rhs = np.zeros(size, dtype=complex)
        rhs[0] = scale
        try:
            # the generator's pattern is near-symmetric, which this ordering exploits
            lu = splu(system, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise DegenerateSteadyStateError(
                f"sparse factorization failed, generator is singular: {exc}"
            ) from exc
        vec = lu.solve(rhs)
        # ||A^-1||_1 by Hager's estimator as refined by Higham (LAPACK's gecon
        # method); with one column scipy draws no random probes.
        inverse = LinearOperator(
            (size, size),
            matvec=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="H"),
            dtype=complex,
        )
        anorm = float(np.add.reduceat(np.abs(data), self._indptr[:-1]).max())
        cond = anorm * float(onenormest(inverse, t=1))

        if not np.all(np.isfinite(vec)) or cond > _SINGULAR_COND:
            raise DegenerateSteadyStateError(
                f"steady-state system is numerically singular (condition ~ {cond:.3e}); "
                "the generator has multiple steady states",
                condition_estimate=cond,
            )
        near = cond > _COND_WARN
        if near:
            warnings.warn(
                f"generator is close to degenerate (condition ~ {cond:.3e}); "
                "the steady state may be poorly determined",
                NearDegeneracyWarning,
                stacklevel=2,
            )

        rho = unvectorize(vec, dim)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        # L_v(rho) = L_0(rho) - i[vG, rho]
        image = self._apply(rho) - 1j * value * self._commutator * rho
        residual = float(np.max(np.abs(image)))
        diagnostics = SolverDiagnostics(
            method=_SOLVE_METHOD,
            dimension=size,
            condition_estimate=float(cond),
            near_degenerate=near,
        )
        try:
            state = DensityMatrix(space, rho)
        except ValueError as exc:
            raise SteadyStateConvergenceError(
                f"solution violates state invariants: {exc}"
            ) from exc
        solution = SteadyStateSolution(rho=state, residual_norm=residual, diagnostics=diagnostics)
        if residual > tol:
            raise SteadyStateConvergenceError(
                f"steady-state residual {residual:.3e} exceeds tolerance {tol:.3e}",
                solution=solution,
            )
        return solution


def steady_state(model: LindbladModel, tol: float = DEFAULT_TOL) -> SteadyStateSolution:
    """Solve L vec(rho) = 0 with trace(rho) = 1 by trace-row replacement.

    The v = 0 case of :class:`ParametricSteadyState`, with the same errors:
    DegenerateSteadyStateError when the null space is not one-dimensional,
    and SteadyStateConvergenceError (carrying the partial solution) when the
    residual max|L(rho)| exceeds ``tol``.
    """
    return ParametricSteadyState(model).solve(0.0, tol)


def stable_timestep(model: LindbladModel) -> float:
    """Conservative RK4-stable step from a spectral bound on the generator."""
    bound = 2.0 * np.linalg.norm(model.hamiltonian.matrix, 2)
    for op in model.collapse_ops:
        bound += 2.0 * np.linalg.norm(op.matrix, 2) ** 2
    if bound <= 0.0:
        return math.inf
    return 2.0 / bound


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_final: float,
    dt: float | None = None,
) -> DensityMatrix:
    """Fixed-step classical RK4 integration of drho/dt = L(rho).

    The state is re-Hermitized and trace-renormalized after every step; a
    per-step trace drift beyond 1e-6 (or a non-finite state) aborts with an
    instability error suggesting a smaller step.  This integrator exists as
    a verification oracle for the steady-state solver and deliberately
    avoids the vectorized-generator code path.
    """
    if rho0.space != model.space:
        raise ValueError("initial state does not act on the model space")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if t_final == 0:
        return rho0
    if dt is None:
        dt = min(stable_timestep(model), t_final)
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = max(1, math.ceil(t_final / dt))
    step = t_final / steps
    apply = _apply_factory(model)
    rho = np.array(rho0.matrix, dtype=complex)
    for _ in range(steps):
        k1 = apply(rho)
        k2 = apply(rho + 0.5 * step * k1)
        k3 = apply(rho + 0.5 * step * k2)
        k4 = apply(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        trace = np.trace(rho)
        drift = abs(trace - 1.0)
        if not np.isfinite(drift) or drift > TRACE_DRIFT_LIMIT:
            raise IntegrationInstabilityError(
                f"trace drift {drift:.3e} in one step of size {step:.3e}; "
                "reduce dt"
            )
        rho = rho / trace.real
    return DensityMatrix(model.space, rho)


def trace_distance(state_a, state_b) -> float:
    """(1/2) ||rho_a - rho_b||_1 for Hermitian inputs."""
    mat_a = state_a.matrix if isinstance(state_a, DensityMatrix) else np.asarray(state_a)
    mat_b = state_b.matrix if isinstance(state_b, DensityMatrix) else np.asarray(state_b)
    eigs = np.linalg.eigvalsh(mat_a - mat_b)
    return 0.5 * float(np.abs(eigs).sum())
