import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import expm_multiply
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
    annihilation_operator,
    build_model,
    build_superoperator,
    evolve,
    identity,
    liouvillian_apply,
    mean_photon_number,
    steady_state,
    three_level_model,
    trace_distance,
    transition_operator,
    two_level_model,
)
from cavity_eit.liouville import ParametricSteadyState, unvectorize, vectorize
from cavity_eit.model import scan_operator

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


def test_superoperator_qubit_decay_spectrum():
    kappa = 0.7
    model, _, _ = _qubit_decay(kappa)
    eigs = np.sort_complex(np.linalg.eigvals(build_superoperator(model).toarray()))
    expected = np.sort_complex(np.array([-2.0 * kappa, -kappa, -kappa, 0.0], dtype=complex))
    assert np.allclose(eigs, expected, atol=1e-10)


def test_superoperator_capacity_cap():
    # one subsystem of dimension 142: vectorized size 20164 > SUPEROP_DIM_CAP
    model, _ = _driven_cavity(0.1, 1.0, 0.0, n_max=141)
    with pytest.raises(CapacityError):
        build_superoperator(model)


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
    solution = steady_state(build_model(PhysicsParams()), tol=1e-9)
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
        assert solution.diagnostics.method == "sparse"


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
        swept = system.solve(value)
        single = steady_state(shifted)
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
    # the residual reuses the closure built at v = 0; it must still be the
    # true max|L(rho)| of the model rebuilt at v, not a re-check of the
    # system's own diagonal update
    builder = {"five": build_model, "three": three_level_model, "two": two_level_model}[scheme]
    params = replace(params, **{field: 0.0})
    model = builder(params)
    step = scan_operator(params, field, scheme)
    system = ParametricSteadyState(model, step)
    for value in values:
        solution = system.solve(value)
        shifted = LindbladModel(model.space, model.hamiltonian + value * step, model.collapse_ops)
        direct = float(np.max(np.abs(liouvillian_apply(shifted, solution.rho))))
        assert solution.residual_norm == pytest.approx(direct, rel=1e-9, abs=1e-15)


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


def test_evolve_stationary_on_steady_state():
    model = build_model(replace(PhysicsParams(), delta=0.1))
    solution = steady_state(model)
    final = evolve(model, solution.rho, 1.0)
    assert trace_distance(final, solution.rho) < 1e-9


def test_evolve_transient_matches_exact_propagator():
    # the oracle's seed-0 start: the atom in (|g1><g1| + |g2><g2|)/2, the
    # cavity in vacuum, far from the steady state
    params = replace(PhysicsParams(), delta=0.1)
    model = build_model(params)
    atom = np.diag([0.5, 0.5, 0.0, 0.0, 0.0])
    vacuum = np.zeros((params.n_max + 1,) * 2)
    vacuum[0, 0] = 1.0
    rho0 = DensityMatrix(model.space, np.kron(atom, vacuum))
    t_final = 1.0
    final = evolve(model, rho0, t_final)
    exact = expm_multiply(build_superoperator(model) * t_final, vectorize(rho0.matrix))
    assert trace_distance(final, rho0) > 0.1
    assert trace_distance(final, unvectorize(exact, model.space.total_dim)) <= 1e-9


def test_evolve_validates_inputs():
    model, space, _ = _qubit_decay()
    rho0 = DensityMatrix(space, np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        evolve(model, rho0, -1.0)
    with pytest.raises(ValueError):
        evolve(model, rho0, 1.0, dt=0.0)


def test_trace_distance_orthogonal_states():
    space = HilbertSpace((2,))
    ground = DensityMatrix(space, np.diag([1.0, 0.0]).astype(complex))
    excited = DensityMatrix(space, np.diag([0.0, 1.0]).astype(complex))
    assert trace_distance(ground, excited) == pytest.approx(1.0)
    assert trace_distance(ground, ground) == pytest.approx(0.0)
