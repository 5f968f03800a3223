import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, expm_multiply, onenormest, splu
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_eit import (
    CapacityError,
    DegenerateSteadyStateError,
    DensityMatrix,
    HilbertSpace,
    IntegrationInstabilityError,
    LindbladModel,
    NearDegeneracyWarning,
    OperatorMatrix,
    PhysicsParams,
    SteadyStateConvergenceError,
    annihilation_operator,
    build_model,
    build_superoperator,
    evolve,
    identity,
    liouvillian_apply,
    mean_photon_number,
    stable_timestep,
    steady_state,
    three_level_model,
    trace_distance,
    transition_operator,
    two_level_model,
)
from cavity_eit import liouville
from cavity_eit.hilbert import POSITIVITY_TOL
from cavity_eit.liouville import ParametricSteadyState, _apply_factory, unvectorize, vectorize
from cavity_eit.model import model_space, scan_operator
from cavity_eit.sweep import DEFAULT_SWEEP_POINTS, DEFAULT_SWEEP_START, DEFAULT_SWEEP_STOP

TWO_PI = 2.0 * math.pi


def _random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_density(rng, dim):
    raw = _random_matrix(rng, dim)
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def _qubit_decay(kappa=0.7):
    space = HilbertSpace((2,))
    ham = 0.0 * identity(space)
    sigma = transition_operator(space, 0, upper=1, lower=0)
    return LindbladModel(space, ham, (math.sqrt(2.0 * kappa) * sigma,)), space, kappa


def _driven_cavity(eta, kappa, delta_pc, n_max):
    space = HilbertSpace((n_max + 1,))
    low = annihilation_operator(space, 0)
    ham = (-delta_pc) * (low.dagger() @ low) + eta * (low + low.dagger())
    return LindbladModel(space, ham, (math.sqrt(2.0 * kappa) * low,)), space


def _reference_apply(model, rho):
    """L(rho) term by term: the loop the fast apply must reproduce."""
    ham = model.hamiltonian.matrix
    out = -1j * (ham @ rho - rho @ ham)
    for op in model.collapse_ops:
        c = op.matrix
        cdc = c.conj().T @ c
        out = out + c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def _random_model(rng, dims=(2, 3), n_collapse=2):
    space = HilbertSpace(dims)
    dim = space.total_dim
    raw = _random_matrix(rng, dim)
    ham = OperatorMatrix(space, 0.5 * (raw + raw.conj().T))
    collapse = tuple(
        OperatorMatrix(space, _random_matrix(rng, dim)) for _ in range(n_collapse)
    )
    return LindbladModel(space, ham, collapse)


def test_model_requires_hermitian_hamiltonian():
    space = HilbertSpace((2,))
    bad = OperatorMatrix(space, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        LindbladModel(space, bad, ())


@pytest.mark.parametrize("part", ["hamiltonian", "collapse"])
def test_model_rejects_non_finite_entries(part):
    # a NaN fails every comparison, the Hermiticity check included
    space = HilbertSpace((2,))
    nan = OperatorMatrix(space, np.array([[0.0, np.nan], [np.nan, 0.0]]))
    zero = 0.0 * identity(space)
    with pytest.raises(ValueError, match="non-finite"):
        if part == "hamiltonian":
            LindbladModel(space, nan, ())
        else:
            LindbladModel(space, zero, (nan,))


def test_apply_zero_generator():
    space = HilbertSpace((3,))
    model = LindbladModel(space, 0.0 * identity(space), ())
    rho = _random_density(np.random.default_rng(0), 3)
    assert np.allclose(liouvillian_apply(model, rho), 0.0)


def test_apply_photon_decay():
    kappa = 0.9
    space = HilbertSpace((3,))
    low = annihilation_operator(space, 0)
    model = LindbladModel(space, 0.0 * identity(space), (math.sqrt(2.0 * kappa) * low,))
    one_photon = np.zeros((3, 3), dtype=complex)
    one_photon[1, 1] = 1.0
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 2.0 * kappa
    expected[1, 1] = -2.0 * kappa
    assert np.allclose(liouvillian_apply(model, one_photon), expected, atol=1e-14)


def test_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = _random_model(rng)
        rho = _random_density(rng, model.space.total_dim)
        image = liouvillian_apply(model, rho)
        assert abs(np.trace(image)) < 1e-12
        assert np.max(np.abs(image - image.conj().T)) < 1e-12


def test_apply_shape_mismatch():
    model, _, _ = _qubit_decay()
    with pytest.raises(ValueError):
        liouvillian_apply(model, np.eye(3))


def test_superoperator_matches_apply_random():
    rng = np.random.default_rng(9)
    model = _random_model(rng)
    liou = build_superoperator(model)
    for _ in range(20):
        rho = _random_density(rng, model.space.total_dim)
        direct = liouvillian_apply(model, rho)
        through = liou @ vectorize(rho)
        assert np.max(np.abs(through - vectorize(direct))) < 1e-12


def test_superoperator_matches_apply_full_model():
    # physical magnitudes are ~1e3 rad/us, so compare relative to scale
    rng = np.random.default_rng(10)
    model = build_model(PhysicsParams())
    liou = build_superoperator(model)
    for _ in range(5):
        rho = _random_density(rng, model.space.total_dim)
        direct = liouvillian_apply(model, rho)
        through = liou @ vectorize(rho)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(through - vectorize(direct))) < 1e-12 * scale


_RATE = st.floats(min_value=0.0, max_value=10.0)
_DETUNING = st.floats(min_value=-300.0, max_value=300.0)


@st.composite
def _models(draw, atoms=(0, 1)):
    scheme = draw(st.sampled_from(("five", "three", "two")))
    share_d, share_e = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    params = PhysicsParams(
        g=draw(_RATE), omega_con=draw(_RATE), gamma=draw(_RATE), kappa=draw(st.floats(0.01, 10.0)),
        gamma_deph=draw(_RATE), n_p=draw(st.floats(0.0, 1.0)),
        delta_p=draw(_DETUNING), delta_p_cav=draw(_DETUNING), delta=draw(_DETUNING),
        light_shift=draw(_DETUNING), omega_d=draw(_DETUNING), omega_f=draw(_DETUNING),
        r_d=draw(_RATE), r_e=draw(_RATE), r_f=draw(_RATE), c_d=draw(_RATE), c_e=draw(_RATE),
        b_d_g1=share_d, b_d_g2=1.0 - share_d, b_e_g1=share_e, b_e_g2=1.0 - share_e,
        n_max=draw(st.sampled_from((1, 2))),
        n_atoms=draw(st.sampled_from(atoms)) if scheme == "five" else 1,
    )
    builder = {"five": build_model, "three": three_level_model, "two": two_level_model}[scheme]
    return builder(params)


@settings(max_examples=60, deadline=None)
@given(_models(), st.integers(min_value=0, max_value=2**32 - 1))
def test_superoperator_matches_apply_property(model, seed):
    rho = _random_density(np.random.default_rng(seed), model.space.total_dim)
    direct = liouvillian_apply(model, rho)
    image = unvectorize(build_superoperator(model) @ vectorize(rho), model.space.total_dim)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(image - direct)) <= 1e-12 * scale
    assert abs(np.trace(image)) <= 1e-12 * scale
    assert np.max(np.abs(image - image.conj().T)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_models(atoms=(0, 1, 2)), st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_matches_reference_loop_property(model, seed):
    # random non-Hermitian rho, so L(rho) and L(rho^+)^+ are not tied together
    rho = _random_matrix(np.random.default_rng(seed), model.space.total_dim)
    reference = _reference_apply(model, rho)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(liouvillian_apply(model, rho) - reference)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_models(atoms=(0, 1, 2)), st.integers(min_value=0, max_value=2**32 - 1))
def test_held_apply_matches_reference_loop_on_hermitian_property(model, seed):
    # the closure evolve and the steady-state residual hold, on the Hermitian
    # states they pass it
    raw = _random_matrix(np.random.default_rng(seed), model.space.total_dim)
    rho = 0.5 * (raw + raw.conj().T)
    reference = _reference_apply(model, rho)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(_apply_factory(model)(rho[None])[0] - reference)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "make",
    [lambda: _random_model(np.random.default_rng(4), (2, 3), 3),
     lambda: build_model(PhysicsParams()),
     lambda: build_model(replace(PhysicsParams(), n_atoms=2, n_max=1))],
    ids=["random", "one-atom", "two-atoms"],
)
def test_held_apply_of_a_stack_is_the_apply_of_each_matrix(make):
    # the steady-state residual applies the closure to a stack (points, dim,
    # dim) at once; every point must get the bits of its own application
    model = make()
    rng = np.random.default_rng(11)
    dim = model.space.total_dim
    raw = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    stack = raw + raw.conj().transpose(0, 2, 1)
    apply = _apply_factory(model)
    images = apply(stack)
    for p in range(3):
        assert np.array_equal(images[p], apply(stack[p:p + 1])[0])


@pytest.mark.parametrize(
    "make",
    [lambda: _random_model(np.random.default_rng(4), (2, 3), 3),
     lambda: build_model(replace(PhysicsParams(), n_max=1)),
     lambda: build_model(PhysicsParams())],
    ids=["random", "one-atom-nmax1", "one-atom"],
)
def test_stacked_rk4_table_is_the_step_of_each_basis_matrix(make, monkeypatch):
    # evolve tabulates its RK4 step from steps of stacks of Hermitian basis
    # matrices; each column must get the bits of its basis matrix's own
    # step, and table.dot the C-contiguous table
    model = make()
    dim = model.space.total_dim
    tables = []

    def run_steps(advance, trace_of, state, steps, step):
        tables.append(advance.__self__)
        return state

    monkeypatch.setattr(liouville, "_run_steps", run_steps)
    step = stable_timestep(model)
    evolve(model, DensityMatrix(model.space, np.eye(dim) / dim), step)
    (table,) = tables
    apply = _apply_factory(model)
    upper = np.triu_indices(dim, 1)
    reference = np.column_stack([
        liouville._hermitian_coordinates(liouville._rk4_step(apply, unit[None], step), upper)[0]
        for unit in liouville._hermitian_matrix(np.identity(dim * dim), upper, dim)
    ])
    assert table.flags.c_contiguous
    assert np.array_equal(table, reference)


@pytest.mark.parametrize("dims, n_collapse", [((2,), 1), ((2, 3), 2), ((3, 4), 3), ((2, 2, 3), 4)])
def test_apply_matches_reference_loop_dense_collapse(dims, n_collapse):
    # a dense collapse operator has dim^2 nonzeros, so dim^4 pairs in the jump sum
    rng = np.random.default_rng(sum(dims) + n_collapse)
    for _ in range(5):
        model = _random_model(rng, dims, n_collapse)
        rho = _random_matrix(rng, model.space.total_dim)
        reference = _reference_apply(model, rho)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(liouvillian_apply(model, rho) - reference)) <= 1e-12 * scale


def _kron_superoperator(model):
    """L as the sum of Kronecker products: -i (I kron H_eff) + i (conj(H_eff)
    kron I) + sum_c conj(c) kron c, the assembly the index-built one replaced."""
    dim = model.space.total_dim
    h_eff = model.hamiltonian.matrix.astype(complex)
    for op in model.collapse_ops:
        h_eff = h_eff - 0.5j * (op.matrix.conj().T @ op.matrix)
    ident = sp.identity(dim, format="csr", dtype=complex)
    h_eff = sp.csr_matrix(h_eff)
    liou = 1j * (sp.kron(h_eff.conj(), ident, format="csr") - sp.kron(ident, h_eff, format="csr"))
    for op in model.collapse_ops:
        c = sp.csr_matrix(op.matrix)
        liou = liou + sp.kron(c.conj(), c, format="csr")
    liou = liou.tocsr()
    liou.sort_indices()
    return liou


@pytest.mark.parametrize(
    "builder, changes",
    [
        (build_model, {"n_atoms": 0}),
        (build_model, {}),
        (build_model, {"n_max": 4}),
        (build_model, {"omega_con": 0.0}),
        (three_level_model, {}),
        (two_level_model, {}),
        (build_model, {"n_atoms": 2, "n_max": 1}),
    ],
    ids=["empty-cavity", "one-atom", "one-atom-nmax4", "no-control", "three-level", "two-level",
         "two-atoms"],
)
def test_superoperator_matches_kron_reference(builder, changes):
    # the same pattern, cancelled entries dropped; the same values, bit for
    # bit up to one atom, and to rounding where more terms meet (two atoms)
    model = builder(replace(PhysicsParams(), delta=0.3, **changes))
    built, reference = build_superoperator(model), _kron_superoperator(model)
    assert np.array_equal(built.indptr, reference.indptr)
    assert np.array_equal(built.indices, reference.indices)
    assert np.all(built.data != 0)
    if model.space.n_subsystems <= 2:
        assert np.array_equal(built.data, reference.data)
    else:
        scale = np.abs(reference.data).max()
        assert np.abs(built.data - reference.data).max() <= 1e-15 * scale


def test_superoperator_qubit_decay_spectrum():
    kappa = 0.7
    model, _, _ = _qubit_decay(kappa)
    eigs = np.sort_complex(np.linalg.eigvals(build_superoperator(model).toarray()))
    expected = np.sort_complex(np.array([-2.0 * kappa, -kappa, -kappa, 0.0], dtype=complex))
    assert np.allclose(eigs, expected, atol=1e-10)


def test_superoperator_capacity_cap():
    # one subsystem of dimension 142: vectorized size 20164 > SUPEROP_DIM_CAP.
    # A hand-built model and the preflight on dimensions alone (the empty
    # cavity at n_max = 141) word the cap alike.
    model, _ = _driven_cavity(0.1, 1.0, 0.0, n_max=141)
    with pytest.raises(CapacityError) as built:
        build_superoperator(model)
    with pytest.raises(CapacityError) as preflight:
        model_space(PhysicsParams(n_atoms=0, n_max=141))
    assert str(built.value) == str(preflight.value)
    assert "20164" in str(built.value)


def test_steady_state_annihilates():
    model = build_model(replace(PhysicsParams(), delta=0.4))
    solution = steady_state(model)
    liou = build_superoperator(model)
    assert np.max(np.abs(liou @ vectorize(solution.rho.matrix))) < 1e-9


def test_steady_state_driven_cavity_analytic():
    # coherent-state solution <a+a> = eta^2 / (kappa^2 + delta^2)
    kappa = TWO_PI * 0.4
    for eta_frac, delta_pc in ((0.32, 0.0), (0.1, TWO_PI * 0.8), (0.55, -TWO_PI * 0.5)):
        eta = eta_frac * kappa
        model, _ = _driven_cavity(eta, kappa, delta_pc, n_max=12)
        solution = steady_state(model)
        photons = mean_photon_number(solution.rho)
        expected = eta**2 / (kappa**2 + delta_pc**2)
        assert photons == pytest.approx(expected, rel=1e-9)


def test_steady_state_pure_decay_qubit():
    model, space, _ = _qubit_decay()
    solution = steady_state(model)
    expected = np.diag([1.0, 0.0]).astype(complex)
    assert np.max(np.abs(solution.rho.matrix - expected)) < 1e-12


def test_steady_state_contract():
    solution = steady_state(build_model(PhysicsParams()))
    assert solution.residual_norm < 1e-9
    rho = solution.rho.matrix
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_steady_state_matches_dense_null_space():
    for delta in (-0.5, 0.2, 1.1):
        model = build_model(replace(PhysicsParams(), delta=delta))
        kernel = scipy.linalg.null_space(build_superoperator(model).toarray())
        assert kernel.shape[1] == 1
        reference = unvectorize(kernel[:, 0], model.space.total_dim)
        reference = reference / np.trace(reference)
        solution = steady_state(model)
        assert np.max(np.abs(solution.rho.matrix - reference)) < 1e-12


def test_condition_estimate_brackets_exact_condition():
    # the estimator is a lower bound that is rarely off by more than 3x
    model = build_model(PhysicsParams())
    dim = model.space.total_dim
    system = build_superoperator(model).toarray()
    scale = max(1.0, np.abs(system).max())
    system[0, :] = 0.0
    system[0, (dim + 1) * np.arange(dim)] = scale
    exact = np.linalg.cond(system, 1)
    estimate = steady_state(model).diagnostics.condition_estimate
    assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-9)


def test_parametric_system_rejects_non_diagonal_operator():
    model = build_model(PhysicsParams())
    hopping = transition_operator(model.space, 0, upper=1, lower=0)
    with pytest.raises(ValueError, match="diagonal"):
        ParametricSteadyState(model, hopping + hopping.dagger())
    with pytest.raises(ValueError, match="diagonal"):
        ParametricSteadyState(model, 1j * identity(model.space))


def test_parametric_system_matches_rebuilt_generator():
    # the diagonal update reproduces a generator assembled at each value
    model = build_model(replace(PhysicsParams(), delta=0.0))
    step = scan_operator(PhysicsParams(), "delta")
    system = ParametricSteadyState(model, step)
    for value in (-0.9, 0.25, 1.7):
        shifted = LindbladModel(model.space, model.hamiltonian + value * step, model.collapse_ops)
        swept = next(system.solve_each([value]))
        single = steady_state(shifted)
        assert swept.converged
        assert np.max(np.abs(swept.rho.matrix - single.rho.matrix)) < 1e-12
        assert swept.diagnostics.condition_estimate == pytest.approx(
            single.diagnostics.condition_estimate, rel=1e-12
        )
        assert swept.residual_norm < 1e-13


@pytest.mark.parametrize(
    "field, scheme, params, values",
    [
        ("delta", "five", PhysicsParams(), (-0.9, 0.3, 1.7)),
        ("delta", "three", PhysicsParams(), (-0.9, 0.3, 1.7)),
        ("delta_p_cav", "five", PhysicsParams(), (-3.0, 0.5, 3.0)),
        ("delta_p_cav", "two", PhysicsParams(), (-3.0, 3.0)),
        ("delta", "five", replace(PhysicsParams(), n_atoms=2, n_max=1), (0.0, 1.5)),
    ],
    ids=["five-delta", "three-delta", "five-cavity", "two-cavity", "two-atoms"],
)
def test_parametric_residual_is_true_residual(field, scheme, params, values):
    # the residual reuses the closure built at v = 0 and is computed for a
    # slice of values at once; it must still be the true max|L(rho)| of the
    # model rebuilt at v, not a re-check of the system's own diagonal update
    builder = {"five": build_model, "three": three_level_model, "two": two_level_model}[scheme]
    params = replace(params, **{field: 0.0})
    model = builder(params)
    step = scan_operator(params, field, scheme)
    system = ParametricSteadyState(model, step)
    for value, solution in zip(values, system.solve_each(values), strict=True):
        assert solution.converged
        shifted = LindbladModel(model.space, model.hamiltonian + value * step, model.collapse_ops)
        direct = float(np.max(np.abs(liouvillian_apply(shifted, solution.rho))))
        assert solution.residual_norm == pytest.approx(direct, rel=1e-9, abs=1e-15)


def _system_matrix(system, value):
    """The trace-replaced system at ``value`` as stored: in its fill-reducing order."""
    size = system.model.space.total_dim ** 2
    data = system._base + value * system._step
    data[system._trace] = max(system._scale_floor, float(np.abs(data).max()))
    return sp.csc_matrix((data, system._indices, system._indptr), shape=(size, size))


def _one_point_solve(system, value, relax=liouville._SUPERNODE_RELAX,
                     diag_pivot_thresh=liouville._DIAG_PIVOT_THRESH):
    """The per-point solve that the block solve replaced: one sparse LU of
    the value's own trace-replaced system, the state it solves for and
    scipy's ``onenormest`` condition estimate on its solves."""
    matrix = _system_matrix(system, value)
    anorm = float(np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max())
    lu = splu(matrix, permc_spec="NATURAL", relax=relax, diag_pivot_thresh=diag_pivot_thresh)
    # the trace row's scale cancels in the trace normalization
    rhs = np.zeros(matrix.shape[0], dtype=complex)
    rhs[system._position[0]] = 1.0
    rho = unvectorize(lu.solve(rhs)[system._position], system.model.space.total_dim)
    rho = 0.5 * (rho + rho.conj().T)
    inverse = LinearOperator(
        matrix.shape,
        matvec=lu.solve,
        rmatvec=lambda x: lu.solve(x, trans="H"),
        dtype=complex,
    )
    return rho / np.trace(rho).real, anorm * float(onenormest(inverse, t=1))


_DEFAULT_WINDOW = np.linspace(DEFAULT_SWEEP_START, DEFAULT_SWEEP_STOP, DEFAULT_SWEEP_POINTS)
# one-base sweeps with at least as many values as rows, which probe through
# the base LU's dense inverse: sizes 36, 9 and 225
_DENSE_CASES = [
    ("delta_p_cav", "two", PhysicsParams(), np.linspace(-3.0, 3.0, 41)),
    ("delta_p_cav", "five", replace(PhysicsParams(), n_atoms=0), np.linspace(-3.0, 3.0, 13)),
    ("delta", "five", PhysicsParams(), _DEFAULT_WINDOW),
]
_DENSE_IDS = ["dense-two-level-scan", "dense-empty-cavity-scan", "dense-default-window"]
_BLOCK_CASES = [
    ("delta", "five", PhysicsParams(), np.linspace(-0.9, 1.7, 7)),
    ("delta", "three", PhysicsParams(), np.linspace(-0.9, 1.7, 7)),
    ("delta_p_cav", "five", replace(PhysicsParams(), n_atoms=0), np.linspace(-3.0, 3.0, 7)),
    ("delta_p_cav", "two", PhysicsParams(), np.linspace(-3.0, 3.0, 7)),
    ("delta", "five", replace(PhysicsParams(), n_atoms=2, n_max=1), (0.0, 0.75, 1.5)),
]
_BLOCK_IDS = ["five-delta", "three-delta", "empty-cavity-scan", "two-level-scan", "two-atoms"]


def _parametric_system(field, scheme, params):
    builder = {"five": build_model, "three": three_level_model, "two": two_level_model}[scheme]
    params = replace(params, **{field: 0.0})
    return ParametricSteadyState(builder(params), scan_operator(params, field, scheme))


@pytest.mark.parametrize("field, scheme, params, values", _BLOCK_CASES + _DENSE_CASES,
                         ids=_BLOCK_IDS + _DENSE_IDS)
def test_block_solve_is_the_per_point_solve(field, scheme, params, values):
    # a sweep's base values get the bits of their own one-point solve: the
    # value nearest the window's midpoint when one base LU serves the sweep,
    # every value when the update's rank is above the limit (two atoms).
    # The other values are held to their own LUs by
    # test_every_point_matches_its_own_one_point_lu.
    system = _parametric_system(field, scheme, params)
    middle = 0.5 * (min(values) + max(values))
    one_base = system._support.size <= liouville._ONE_BASE_MAX_RANK
    assert one_base == (params.n_atoms != 2)
    bases = [min(values, key=lambda v: abs(v - middle))] if one_base else list(values)
    swept = dict(zip(values, system.solve_each(values), strict=True))
    for value in bases:
        solution, (alone,) = swept[value], system.solve_each([value])
        assert np.array_equal(solution.rho.matrix, alone.rho.matrix)
        assert solution.residual_norm == alone.residual_norm
        assert solution.tolerance == alone.tolerance
        cond = solution.diagnostics.condition_estimate
        assert cond == alone.diagnostics.condition_estimate
        assert cond == pytest.approx(_one_point_solve(system, value)[1], rel=1e-14)


_WINDOW = np.linspace(-0.9, 1.7, 7)


@pytest.mark.parametrize(
    "field, scheme, params, values",
    [
        ("delta", "five", PhysicsParams(), _WINDOW),
        ("delta", "three", PhysicsParams(), _WINDOW),
        ("delta_p_cav", "five", replace(PhysicsParams(), n_atoms=0), np.linspace(-3.0, 3.0, 7)),
        ("delta_p_cav", "two", PhysicsParams(), np.linspace(-3.0, 3.0, 7)),
        ("delta_p_cav", "three", PhysicsParams(), np.linspace(-3.0, 3.0, 7)),
        ("delta", "five", replace(PhysicsParams(), n_atoms=2, n_max=1), (0.0, 0.75, 1.5)),
        ("delta", "five", replace(PhysicsParams(), g=1e-3), _WINDOW),
        ("delta", "five", replace(PhysicsParams(), omega_con=1e-3), _WINDOW),
        ("delta", "five", replace(PhysicsParams(), omega_con=30.0), _WINDOW),
        ("delta", "five", replace(PhysicsParams(), gamma_deph=0.0), _WINDOW),
        ("delta", "five", replace(PhysicsParams(), kappa=1e-3), _WINDOW),
        # no atom: the two-photon detuning moves nothing, an update of rank 0
        ("delta", "five", replace(PhysicsParams(), n_atoms=0), _WINDOW),
        *_DENSE_CASES,
    ],
    ids=["five-delta", "three-delta", "empty-cavity-scan", "two-level-scan", "three-level-scan",
         "two-atoms", "g-1e-3", "omega_con-1e-3", "omega_con-30", "gamma_deph-0", "kappa-1e-3",
         "empty-cavity-delta", *_DENSE_IDS],
)
def test_every_point_matches_its_own_one_point_lu(field, scheme, params, values):
    # however a sweep shares its factorizations, each point's state and
    # condition estimate are those of the LU of its own system
    system = _parametric_system(field, scheme, params)
    for value, solution in zip(values, system.solve_each(values), strict=True):
        rho, cond = _one_point_solve(system, value)
        assert np.max(np.abs(solution.rho.matrix - rho)) <= 1e-12 * np.max(np.abs(rho))
        assert solution.diagnostics.condition_estimate == pytest.approx(cond, rel=1e-10)


@pytest.mark.parametrize("field, scheme, params, values", _BLOCK_CASES, ids=_BLOCK_IDS)
def test_unrelaxed_lu_matches_superlu_default_relaxation(field, scheme, params, values):
    # the block LUs leave SuperLU's supernodes unrelaxed and prefer diagonal
    # pivots; every state and estimate must be that of an LU with SuperLU's
    # default relaxation and partial pivoting
    system = _parametric_system(field, scheme, params)
    for value, solution in zip(values, system.solve_each(values), strict=True):
        rho, cond = _one_point_solve(system, value, relax=None, diag_pivot_thresh=None)
        assert np.max(np.abs(solution.rho.matrix - rho)) <= 1e-12 * np.max(np.abs(rho))
        assert solution.diagnostics.condition_estimate == pytest.approx(cond, rel=1e-10)


def test_block_lu_backward_error_on_the_default_window():
    # threshold pivoting bounds element growth more loosely than partial
    # pivoting; the scaled backward error max|Ax - b| / (max|A| max|x|) of
    # the LU of every system of the default one-atom window, the base of a
    # sweep or of a single solve, stays at rounding level (2.1e-16 at most,
    # against 1.8e-16 with partial pivoting)
    system = _parametric_system("delta", "five", PhysicsParams())
    errors = []
    for value in _DEFAULT_WINDOW:
        matrix = _system_matrix(system, value)
        lu = splu(matrix, permc_spec="NATURAL", relax=liouville._SUPERNODE_RELAX,
                  diag_pivot_thresh=liouville._DIAG_PIVOT_THRESH)
        # the right-hand side of the solve: the trace row's scale
        rhs = np.zeros(matrix.shape[0], dtype=complex)
        rhs[system._position[0]] = matrix.diagonal()[system._position[0]]
        x = lu.solve(rhs)
        errors.append(np.abs(matrix @ x - rhs).max() / (np.abs(matrix.data).max() * np.abs(x).max()))
    assert max(errors) <= 1e-15


_NEAR_DEGENERATE = (0.0, 1e-9, 1e-6, 1e-3, 1.0)


def _outcome(params):
    """How ``steady_state`` ends for ``params``: ``"solved"``,
    ``"degenerate"`` or ``"invalid"`` (a state check fails), whether it
    warned of near degeneracy, and the state and estimate if solved."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solution = steady_state(build_model(params))
            result = "solved", solution.rho.matrix, solution.diagnostics.condition_estimate
        except DegenerateSteadyStateError:
            result = "degenerate", None, None
        except SteadyStateConvergenceError:
            result = "invalid", None, None
    kind, rho, cond = result
    return kind, any(w.category is NearDegeneracyWarning for w in caught), rho, cond


def test_diagonal_pivoting_keeps_every_verdict_near_degeneracy(monkeypatch):
    # g and omega_con toward 0 open a second steady state.  Against SuperLU's
    # default pivoting: a singular generator stays singular, a warned one is
    # still warned, and outside the warned band the verdict and the state
    # agree.  Inside it the positivity verdict may flip either way
    # (g = 0, omega_con = 1e-3 and g = 1e-3, omega_con = 0), and the states
    # agree to the estimate's cond * eps.
    grid = [replace(PhysicsParams(), g=g, omega_con=omega_con)
            for g in _NEAR_DEGENERATE for omega_con in _NEAR_DEGENERATE]
    diagonal = [_outcome(params) for params in grid]
    monkeypatch.setattr(liouville, "_DIAG_PIVOT_THRESH", 1.0)
    partial = [_outcome(params) for params in grid]
    kinds = {kind for kind, *_ in diagonal + partial}
    assert kinds == {"solved", "degenerate", "invalid"}
    for params, (kind, warned, rho, cond), (ref_kind, ref_warned, ref_rho, _) in zip(
            grid, diagonal, partial, strict=True):
        where = f"g = {params.g}, omega_con = {params.omega_con}"
        assert warned == ref_warned, where
        if ref_kind == "degenerate" or not warned:
            assert kind == ref_kind, where
        if kind == ref_kind == "solved":
            bound = 1e-15 * cond if warned else 1e-12
            assert np.max(np.abs(rho - ref_rho)) <= bound * np.max(np.abs(ref_rho)), where


@pytest.mark.parametrize(
    "params, values",
    [
        (PhysicsParams(), np.linspace(-0.9, 1.7, 5)),
        (replace(PhysicsParams(), n_max=4), np.linspace(-0.9, 1.7, 5)),
        (replace(PhysicsParams(), n_atoms=2, n_max=1), (-0.9, 1.7)),
    ],
    ids=["one-atom", "one-atom-nmax4", "two-atoms-nmax1"],
)
def test_stored_order_is_superlu_ordering_of_the_pattern(params, values):
    # the system is stored permuted by the MMD_AT_PLUS_A order SuperLU would
    # compute for every value, and a NATURAL LU of it, with the solve path's
    # options, fills like that LU of the unpermuted system.  Diagonal pivots
    # leave row-order ties little to break: over the default window the
    # stored order fills at most 0.023 % more (n_max 2, every point), and no
    # point fills more at n_max 1 or 4.
    params = replace(params, delta=0.0)
    system = ParametricSteadyState(build_model(params), scan_operator(params, "delta"))
    position = system._position
    options = {"relax": liouville._SUPERNODE_RELAX,
               "diag_pivot_thresh": liouville._DIAG_PIVOT_THRESH}
    for value in values:
        stored = _system_matrix(system, value)
        ordered = splu(stored, permc_spec="NATURAL", **options)
        unpermuted = stored[position][:, position].tocsc()
        reference = splu(unpermuted, permc_spec="MMD_AT_PLUS_A", **options)
        assert np.array_equal(reference.perm_c, position)
        fill = ordered.L.nnz + ordered.U.nnz
        assert fill <= 1.001 * (reference.L.nnz + reference.U.nnz)


def test_lockstep_estimate_is_onenormest_of_each_block():
    # Random blocks stop the estimator at different iterations and by
    # different tests: circulant M-matrices mostly on no increase, real
    # triangular ones on a repeated sign vector, complex ones on a revisited
    # column.  Each block must still get the estimate of its own LU.
    rng = np.random.default_rng(2)
    size, points = 8, 60
    blocks = []
    for k in range(points):
        if k % 3 == 0:
            blocks.append((size + 1) * np.eye(size) - scipy.linalg.circulant(rng.random(size)))
        elif k % 3 == 1:
            blocks.append(3.0 * np.triu(rng.normal(size=(size, size)), 1) + np.eye(size))
        else:
            ternary = rng.integers(-1, 2, size=(2, size, size))
            blocks.append(ternary[0] + 1j * ternary[1] + 2.0 * np.eye(size))
    matrix = sp.block_diag([sp.csc_matrix(b, dtype=complex) for b in blocks], format="csc")
    stacked = splu(matrix, permc_spec="NATURAL")

    class Columns:
        """The block-diagonal LU as the estimator calls a sweep's solver:
        one column of ``x`` per block."""

        def solve(self, x, trans="N"):
            flat = stacked.solve(x.T.reshape(-1), trans=trans)
            return flat.reshape(points, size).T

    lockstep = liouville._inverse_one_norms(Columns(), points, size)
    for block, estimate in zip(blocks, lockstep):
        lu = splu(sp.csc_matrix(block, dtype=complex), permc_spec="NATURAL")
        inverse = LinearOperator(
            (size, size),
            matvec=lu.solve,
            rmatvec=lambda x, lu=lu: lu.solve(x, trans="H"),
            dtype=complex,
        )
        assert estimate == onenormest(inverse, t=1)


def test_block_solve_warns_once_per_near_degenerate_value_in_order():
    # H(v) = v*sigma_z with a sigma_x collapse operator has two steady
    # states at v = 0 (I/2 and sigma_x); a weak decay reconnects them there
    space = HilbertSpace((2,))
    sigma_x = OperatorMatrix(space, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    sigma_z = OperatorMatrix(space, np.diag([1.0, -1.0]).astype(complex))
    weak = math.sqrt(1e-11) * transition_operator(space, 0, upper=1, lower=0)
    model = LindbladModel(space, 0.0 * identity(space), (sigma_x, weak))
    system = ParametricSteadyState(model, sigma_z)
    seen = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for outcome in system.solve_each([1.0, 0.0, 2.0, 0.0, -1.0]):
            seen.append((outcome.diagnostics.near_degenerate, len(caught)))
    assert seen == [(False, 0), (True, 1), (False, 1), (True, 2), (False, 2)]
    assert all(w.category is NearDegeneracyWarning for w in caught)


def test_non_finite_condition_estimate_is_singular(monkeypatch):
    # a NaN estimate fails every comparison, so it must not pass as healthy;
    # the point before it is still yielded.  The NaN falls on the base value
    # 0.0, whose own LU is the one that serves it, so it is the verdict.
    estimate = liouville._inverse_one_norms

    def nan_at_second_point(lu, points, size):
        norms = estimate(lu, points, size)
        if points > 1:
            norms[1] = np.nan
        return norms

    monkeypatch.setattr(liouville, "_inverse_one_norms", nan_at_second_point)
    system = _parametric_system("delta", "five", PhysicsParams())
    solutions = system.solve_each([-0.5, 0.0, 0.5])
    first = next(solutions)
    assert first.converged and not first.diagnostics.near_degenerate
    with pytest.raises(DegenerateSteadyStateError, match=r"condition ~ nan\)") as caught:
        next(solutions)
    assert math.isnan(caught.value.condition_estimate)


def test_eig_of_the_update_is_an_eigendecomposition():
    # the update's eigendecomposition runs no BLAS matrix-vector product; it
    # must still give K V = V diag(lam) with unit columns, V^-1 and LAPACK's
    # eigenvalues, and non-finite vectors for a defective K, which the sweep
    # rejects through cond(V)
    rng = np.random.default_rng(7)
    for n in (1, 2, 6, 36, 72, 96):
        k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values, vectors, inverse = liouville._eig(k)
        assert np.abs(k @ vectors - vectors * values).max() <= 1e-13 * np.abs(k).max()
        assert np.abs(np.linalg.norm(vectors, axis=0) - 1.0).max() <= 1e-14
        assert np.abs(inverse @ vectors - np.eye(n)).max() <= 1e-13
        reference = np.linalg.eigvals(k)
        assert np.abs(values[:, None] - reference).min(axis=1).max() <= 1e-12 * np.abs(k).max()
    with np.errstate(divide="ignore", invalid="ignore"):
        _, vectors, inverse = liouville._eig(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert not (np.isfinite(vectors).all() and np.isfinite(inverse).all())


def _factor_count(monkeypatch):
    """A list that grows by one entry per sparse LU the package factors."""
    factors, factor = [], liouville.splu
    monkeypatch.setattr(liouville, "splu", lambda *args, **kwargs: (
        factors.append(None) or factor(*args, **kwargs)))
    return factors


def _solve_count(monkeypatch):
    """A list that grows by one entry per solve with a sparse LU the package factors."""
    solves, factor = [], liouville.splu

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            solves.append(None)
            return self._lu.solve(*args, **kwargs)

    monkeypatch.setattr(liouville, "splu", lambda *args, **kwargs: Counted(factor(*args, **kwargs)))
    return solves


@pytest.mark.parametrize(
    "points, dense_max, dense",
    [
        (DEFAULT_SWEEP_POINTS, liouville._DENSE_MAX_SIZE, True),
        (224, liouville._DENSE_MAX_SIZE, False),
        (DEFAULT_SWEEP_POINTS, 224, False),
    ],
    ids=["default-window", "fewer-values-than-rows", "system-above-dense-bound"],
)
def test_a_long_sweep_of_a_small_system_probes_through_the_dense_inverse(
        monkeypatch, points, dense_max, dense):
    # a one-base sweep with at least as many values as its 225 rows, of
    # Liouville size at most _DENSE_MAX_SIZE, solves its one LU for A0^-1, a
    # slice of unit columns at a time, then only as its base's single solve
    # does (the estimate and the state): every other probe is a dense
    # product, and every state the correction of the base's.  Through two
    # solves per probe the default window took 343 solves.
    monkeypatch.setattr(liouville, "_DENSE_MAX_SIZE", dense_max)
    system = _parametric_system("delta", "five", PhysicsParams())
    values = np.linspace(DEFAULT_SWEEP_START, DEFAULT_SWEEP_STOP, points)
    middle = 0.5 * (values[0] + values[-1])
    modes, update = [], ParametricSteadyState._update
    monkeypatch.setattr(ParametricSteadyState, "_update",
                        lambda self, lu, dense: modes.append(dense) or update(self, lu, dense))
    factors = _factor_count(monkeypatch)
    solves = _solve_count(monkeypatch)
    next(system.solve_each([min(values, key=lambda v: abs(v - middle))]))
    single = len(solves)
    solves.clear()
    factors.clear()
    list(system.solve_each(values))
    assert modes == [dense] and len(factors) == 1
    if dense:
        size = system._size
        assert len(solves) == -(-size // (liouville._SLICE_ROWS // size)) + single <= 40
    else:
        assert len(solves) > 100


def test_a_two_solve_sweep_solves_its_states_once_plus_once_per_slice(monkeypatch):
    # fewer values than rows: every state is the base's one solve, shared,
    # then one solve with the base LU per slice for the corrections.  The
    # estimates are stubbed, so only A0^-1 E and the states are counted.
    system = _parametric_system("delta", "five", PhysicsParams())
    values = np.linspace(-0.7, 0.7, 29)
    monkeypatch.setattr(liouville, "_inverse_one_norms",
                        lambda lu, points, size: np.ones(points))
    solves = _solve_count(monkeypatch)
    list(system.solve_each(values))
    per_slice = liouville._SLICE_ROWS // system._size
    update = -(-system._support.size // per_slice)
    assert len(solves) == update + 1 + -(-len(values) // per_slice)


@pytest.mark.parametrize("points", [2, 29, DEFAULT_SWEEP_POINTS],
                         ids=["two-values", "two-solves", "dense-default-window"])
def test_the_update_step_never_takes_one_column(monkeypatch, points):
    # a one-column step is an order-r matrix-vector product, which OpenBLAS
    # runs on every thread, so a sweep repeats its shared state solve across
    # the columns of a slice
    widths, step = [], liouville._SweepSolver._step
    monkeypatch.setattr(liouville._SweepSolver, "_step", lambda self, y, trans: (
        widths.append(y.shape[1]) or step(self, y, trans)))
    system = _parametric_system("delta", "five", PhysicsParams())
    list(system.solve_each(np.linspace(DEFAULT_SWEEP_START, DEFAULT_SWEEP_STOP, points)))
    assert widths and min(widths) >= 2


def test_a_dense_sweep_keeps_its_base_estimate_from_its_own_lu(monkeypatch):
    # the dense probes round otherwise than the LU's solves, so a sweep that
    # probes through them keeps its base's estimate from the base's own LU:
    # a change to the estimates through the probes reaches every value but
    # the base
    system = _parametric_system("delta_p_cav", "two", PhysicsParams())
    values = np.linspace(-3.0, 3.0, 41)
    reference = [s.diagnostics.condition_estimate for s in system.solve_each(values)]
    estimate = liouville._inverse_one_norms
    monkeypatch.setattr(liouville, "_inverse_one_norms", lambda lu, points, size: (
        estimate(lu, points, size) * (2.0 if points > 1 else 1.0)))
    for value, solution, cond in zip(values, system.solve_each(values), reference, strict=True):
        expected = cond if value == 0.0 else 2.0 * cond
        assert solution.diagnostics.condition_estimate == expected


@pytest.mark.parametrize(
    "patch, lus",
    [
        (None, 1),
        # a non-base value whose estimate through the update is not finite
        ("nan-estimate", 2),
        # a base whose estimate reads near-degenerate serves only itself
        ("base-warned", 1 + 5),
        ("ill-conditioned-eigenvectors", 1 + 5),
        ("rank-above-limit", 5),
    ],
    ids=["one-base", "nan-estimate", "base-warned", "ill-conditioned-eigenvectors",
         "rank-above-limit"],
)
def test_a_value_the_base_cannot_serve_gets_its_own_lu(monkeypatch, patch, lus):
    # every value that the base LU does not serve is solved as a single
    # solve, with that solve's bits, and the others stay within rounding of it
    system = _parametric_system("delta", "five", PhysicsParams())
    values = [-0.9, -0.2, 0.4, 1.0, 1.7]
    single = [next(system.solve_each([value])) for value in values]
    estimate = liouville._inverse_one_norms
    if patch == "nan-estimate":
        def nan_at_first_point(lu, points, size):
            norms = estimate(lu, points, size)
            if points > 1:
                norms[0] = np.nan
            return norms
        monkeypatch.setattr(liouville, "_inverse_one_norms", nan_at_first_point)
    elif patch == "base-warned":
        calls = []

        def base_warned(lu, points, size):
            # the sweep's first estimate is its base's
            calls.append(points)
            return estimate(lu, points, size) * (1e10 if len(calls) == 1 else 1.0)
        monkeypatch.setattr(liouville, "_inverse_one_norms", base_warned)
    elif patch == "ill-conditioned-eigenvectors":
        monkeypatch.setattr(liouville, "_EIGVEC_COND_MAX", 1.0)
    elif patch == "rank-above-limit":
        monkeypatch.setattr(liouville, "_ONE_BASE_MAX_RANK", 71)
    factors = _factor_count(monkeypatch)
    swept = list(system.solve_each(values))
    assert len(factors) == lus
    own = {"nan-estimate": [-0.9], "base-warned": values,
           "ill-conditioned-eigenvectors": values, "rank-above-limit": values}.get(patch, [])
    for value, solution, alone in zip(values, swept, single, strict=True):
        if value in own or value == 0.4:
            assert np.array_equal(solution.rho.matrix, alone.rho.matrix)
            assert solution.residual_norm == alone.residual_norm
        else:
            scale = np.max(np.abs(alone.rho.matrix))
            assert np.max(np.abs(solution.rho.matrix - alone.rho.matrix)) <= 1e-13 * scale
        assert solution.diagnostics.condition_estimate == pytest.approx(
            alone.diagnostics.condition_estimate, rel=1e-12)


def test_block_raises_a_state_violation_when_its_point_is_yielded(monkeypatch):
    # a slice's states are checked at once, but a point that fails raises
    # only when it is yielded, after the points before it
    each = DensityMatrix.each
    violation = ValueError("density matrix not positive: lowest eigenvalue -1.000e-06")

    def second_fails(space, stack):
        states = each(space, stack)
        states[1] = violation
        return states

    monkeypatch.setattr(DensityMatrix, "each", second_fails)
    system = _parametric_system("delta", "five", PhysicsParams())
    solutions = system.solve_each([-0.5, 0.0, 0.5])
    assert next(solutions).converged
    with pytest.raises(SteadyStateConvergenceError) as caught:
        next(solutions)
    assert str(caught.value) == f"solution violates state invariants: {violation}"
    assert caught.value.__cause__ is violation and caught.value.solution is None



def test_residual_reference_scale_is_the_working_point():
    # the residual tolerance scales with max|L| above L_REF; L_REF is the
    # default working point's max|L|, rounded up, so that point keeps DEFAULT_TOL
    scale = float(np.abs(build_superoperator(build_model(PhysicsParams())).data).max())
    assert scale <= liouville.L_REF < scale * (1.0 + 1e-3)


def test_scaled_working_point_converges():
    # scaling every rate and detuning by 1e6 scales the residual with it
    unit = PhysicsParams()
    scaled = replace(unit, **{
        name: 1e6 * getattr(unit, name)
        for name in ("g", "omega_con", "gamma", "kappa", "gamma_deph", "delta_p",
                     "light_shift", "omega_d", "omega_f")
    })
    solution = steady_state(build_model(scaled))
    assert solution.residual_norm > liouville.DEFAULT_TOL
    assert np.max(np.abs(solution.rho.matrix - steady_state(build_model(unit)).rho.matrix)) < 1e-9


def test_steady_state_raises_a_residual_miss_with_its_solution(monkeypatch):
    # a zero tolerance is missed by every nonzero residual
    monkeypatch.setattr(liouville, "DEFAULT_TOL", 0.0)
    with pytest.raises(SteadyStateConvergenceError) as caught:
        steady_state(build_model(PhysicsParams()))
    solution = caught.value.solution
    assert solution.tolerance == 0.0 < solution.residual_norm
    assert not solution.converged
    assert str(caught.value) == (
        f"steady-state residual {solution.residual_norm:.3e} exceeds tolerance 0.000e+00"
    )


def test_steady_state_degenerate_rejected():
    # no dynamics at all: every state is steady
    space = HilbertSpace((2,))
    model = LindbladModel(space, 0.0 * identity(space), ())
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(model)


def test_steady_state_near_degenerate_warns():
    # two steady-state branches reconnected only by a vanishing decay rate
    space = HilbertSpace((2,))
    sigma_x = OperatorMatrix(space, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    weak = math.sqrt(2.0e-10) * transition_operator(space, 0, upper=1, lower=0)
    model = LindbladModel(space, sigma_x, (weak,))
    with pytest.warns(NearDegeneracyWarning):
        solution = steady_state(model)
    assert solution.diagnostics.near_degenerate


def test_evolve_zero_time():
    model, space, _ = _qubit_decay()
    rho0 = DensityMatrix(space, np.diag([0.0, 1.0]).astype(complex))
    assert evolve(model, rho0, 0.0) is rho0


def test_evolve_relaxes_driven_cavity():
    kappa = TWO_PI * 0.4
    eta = kappa * math.sqrt(0.1)
    model, space = _driven_cavity(eta, kappa, 0.0, n_max=8)
    vac = np.zeros((9, 9), dtype=complex)
    vac[0, 0] = 1.0
    final = evolve(model, DensityMatrix(space, vac), 20.0 / kappa)
    photons = mean_photon_number(final)
    assert photons == pytest.approx(0.1, abs=1e-6)
    assert trace_distance(final, steady_state(model).rho) < 1e-6


def test_evolve_detects_instability():
    model = build_model(PhysicsParams())
    rho0 = steady_state(model).rho
    with pytest.raises(IntegrationInstabilityError):
        evolve(model, rho0, 1.0, dt=0.05)


def test_evolve_blames_its_step_for_a_state_that_is_not_positive():
    # from a rank-deficient start an RK4 step at the default size leaves an
    # eigenvalue of -3.3e-7 (one step) to -5.4e-7 (0.01 us); half the step passes
    params = replace(PhysicsParams(), n_atoms=1, delta=0.1)
    model = build_model(params)
    vacuum = np.zeros((params.n_max + 1,) * 2)
    vacuum[0, 0] = 1.0
    rho0 = DensityMatrix(model.space, np.kron(np.diag([0.5, 0.5, 0.0, 0.0, 0.0]), vacuum))
    step = stable_timestep(model)
    for t_final in (step, 0.01):
        with pytest.raises(IntegrationInstabilityError, match=r"lowest eigenvalue -.*reduce dt"):
            evolve(model, rho0, t_final)
    evolve(model, rho0, 0.01, dt=step / 2)


def test_evolve_detects_instability_when_stepping_the_closure():
    # size 2500, above the tabulation limit, so every step runs the closure
    model = build_model(replace(PhysicsParams(), n_atoms=2, n_max=1))
    dim = model.space.total_dim
    assert dim * dim > liouville._DENSE_MAX_SIZE
    rho0 = DensityMatrix(model.space, _random_density(np.random.default_rng(3), dim))
    with pytest.raises(IntegrationInstabilityError):
        evolve(model, rho0, 1.0, dt=0.05)


def _reference_rk4(model, rho, t_final, dt):
    """Classical RK4 stages k1..k4 on the term-by-term L, with evolve's
    per-step Hermitization and trace renormalization."""
    steps = max(1, math.ceil(t_final / dt))
    h = t_final / steps
    for _ in range(steps):
        k1 = _reference_apply(model, rho)
        k2 = _reference_apply(model, rho + 0.5 * h * k1)
        k3 = _reference_apply(model, rho + 0.5 * h * k2)
        k4 = _reference_apply(model, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
    return rho


@settings(max_examples=40, deadline=None)
@given(_models(), st.integers(min_value=0, max_value=2**32 - 1))
def test_tabulated_and_closure_steps_agree_property(model, seed):
    # every model here has size <= 225, so evolve tabulates its step unless
    # the limit is patched to 0
    dim = model.space.total_dim
    assert dim * dim <= liouville._DENSE_MAX_SIZE
    rho0 = DensityMatrix(model.space, _random_density(np.random.default_rng(seed), dim))
    dt = stable_timestep(model)

    def run():
        try:
            return evolve(model, rho0, 50 * dt, dt=dt)
        except IntegrationInstabilityError:
            return None

    tabulated = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liouville, "_DENSE_MAX_SIZE", 0)
        stepped = run()
    reference = _reference_rk4(model, rho0.matrix, 50 * dt, dt)
    assert (tabulated is None) == (stepped is None)
    if tabulated is None:
        # the default step is a stability bound, not an accuracy bound: 50
        # steps from a drawn state can end below the positivity tolerance
        # (-3.5e-4 in one draw), and then the textbook stages must end there too
        assert np.linalg.eigvalsh(reference).min() < -POSITIVITY_TOL
        return
    assert trace_distance(tabulated, stepped) <= 1e-12
    assert trace_distance(stepped, reference) <= 1e-12


def test_evolve_stationary_on_steady_state():
    model = build_model(replace(PhysicsParams(), delta=0.1))
    solution = steady_state(model)
    final = evolve(model, solution.rho, 1.0)
    assert trace_distance(final, solution.rho) < 1e-9


@pytest.mark.parametrize(
    "n_atoms, delta, t_final, bound",
    [(1, 0.1, 1.0, 1e-9), (2, 1.5, 0.5, 1e-6)],
    ids=["one-atom", "two-atoms"],
)
def test_evolve_transient_matches_exact_propagator(n_atoms, delta, t_final, bound):
    # the oracle's seed-0 start: each atom in (|g1><g1| + |g2><g2|)/2, the
    # cavity in vacuum, far from the steady state.  Two atoms: RK4 ends
    # 2.6e-7 from the exact state after 0.5 us.
    params = replace(PhysicsParams(), n_atoms=n_atoms, delta=delta)
    model = build_model(params)
    atoms = np.ones((1, 1))
    for _ in range(n_atoms):
        atoms = np.kron(atoms, np.diag([0.5, 0.5, 0.0, 0.0, 0.0]))
    vacuum = np.zeros((params.n_max + 1,) * 2)
    vacuum[0, 0] = 1.0
    rho0 = DensityMatrix(model.space, np.kron(atoms, vacuum))
    final = evolve(model, rho0, t_final)
    exact = expm_multiply(build_superoperator(model) * t_final, vectorize(rho0.matrix))
    assert trace_distance(final, rho0) > 0.1
    assert trace_distance(final, unvectorize(exact, model.space.total_dim)) <= bound


def test_evolve_validates_inputs():
    model, space, _ = _qubit_decay()
    rho0 = DensityMatrix(space, np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        evolve(model, rho0, -1.0)
    with pytest.raises(ValueError):
        evolve(model, rho0, 1.0, dt=0.0)
    for t_final in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_final"):
            evolve(model, rho0, t_final)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            evolve(model, rho0, 1.0, dt=dt)


def test_trace_distance_orthogonal_states():
    space = HilbertSpace((2,))
    ground = DensityMatrix(space, np.diag([1.0, 0.0]).astype(complex))
    excited = DensityMatrix(space, np.diag([0.0, 1.0]).astype(complex))
    assert trace_distance(ground, excited) == pytest.approx(1.0)
    assert trace_distance(ground, ground) == pytest.approx(0.0)
