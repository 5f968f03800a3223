import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_eit import (
    ConfigError,
    DegenerateSteadyStateError,
    PhysicsParams,
    build_model,
    drive_amplitude,
    ground_coherence_decay,
    mean_photon_number,
    relative_transmission,
    steady_state,
    three_level_model,
    two_level_model,
    two_level_transmission,
)
from cavity_eit.model import model_space, scan_operator

TWO_PI = 2.0 * math.pi
WORKING_POINT = PhysicsParams()


def _transmission(params, builder=build_model):
    return relative_transmission(steady_state(builder(params)), params)


def test_defaults_are_the_working_point():
    assert (WORKING_POINT.g, WORKING_POINT.omega_con, WORKING_POINT.gamma_deph) == (3.0, 2.8, 0.15)
    assert (WORKING_POINT.gamma, WORKING_POINT.kappa, WORKING_POINT.delta_p) == (2.6, 0.4, 20.0)
    assert (WORKING_POINT.n_p, WORKING_POINT.light_shift, WORKING_POINT.n_max, WORKING_POINT.n_atoms) == (0.1, 0.1, 2, 1)


@pytest.mark.parametrize(
    "bad",
    [
        {"gamma": -0.1},
        {"n_p": -1e-3},
        {"n_max": 0},
        {"n_atoms": 3},
        {"n_atoms": -1},
        {"b_d_g1": 0.8},  # pair no longer sums to 1
        {"b_f_g1": 0.1, "b_f_g2": 0.9},  # forbidden decay branch
        {"r_d": -1.0},
    ],
)
def test_params_validation(bad):
    with pytest.raises(ConfigError):
        PhysicsParams(**bad)


def test_drive_amplitude_matches_photon_target():
    # eta^2/(kappa^2 + dpc^2) = n_p by construction, also off resonance
    for dpc in (0.0, 0.7, -1.3):
        params = replace(WORKING_POINT, delta_p_cav=dpc)
        eta = drive_amplitude(params)
        kappa = TWO_PI * params.kappa
        assert eta**2 / (kappa**2 + (TWO_PI * dpc) ** 2) == pytest.approx(0.1, rel=1e-12)


def test_drive_amplitude_needs_cavity_decay():
    with pytest.raises(ConfigError):
        drive_amplitude(replace(WORKING_POINT, kappa=0.0))
    assert drive_amplitude(replace(WORKING_POINT, kappa=0.0, n_p=0.0)) == 0.0


def test_ground_coherence_decay_convention():
    assert ground_coherence_decay(WORKING_POINT) == pytest.approx(TWO_PI * 0.075)


def test_hamiltonian_hermitian_for_random_params():
    rng = np.random.default_rng(23)
    for _ in range(8):
        params = replace(
            WORKING_POINT,
            g=float(rng.uniform(0.0, 8.0)),
            omega_con=float(rng.uniform(0.0, 6.0)),
            delta=float(rng.uniform(-2.0, 2.0)),
            delta_p=float(rng.uniform(-30.0, 30.0)),
            delta_p_cav=float(rng.uniform(-1.0, 1.0)),
            light_shift=float(rng.uniform(-0.3, 0.3)),
            n_atoms=int(rng.integers(0, 3)),
        )
        ham = build_model(params).hamiltonian.matrix
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-9


_BUILDERS = {"five": build_model, "three": three_level_model, "two": two_level_model}
_RATE = st.floats(min_value=0.0, max_value=10.0)
_DETUNING = st.floats(min_value=-300.0, max_value=300.0)


@st.composite
def _scheme_and_params(draw):
    scheme = draw(st.sampled_from(sorted(_BUILDERS)))
    share_d, share_e = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    params = PhysicsParams(
        g=draw(_RATE), omega_con=draw(_RATE), gamma=draw(_RATE), kappa=draw(st.floats(0.01, 10.0)),
        gamma_deph=draw(_RATE), n_p=draw(st.floats(0.0, 1.0)),
        delta_p=draw(_DETUNING), delta_p_cav=draw(_DETUNING), delta=draw(_DETUNING),
        light_shift=draw(_DETUNING), omega_d=draw(_DETUNING), omega_f=draw(_DETUNING),
        r_d=draw(_RATE), r_e=draw(_RATE), r_f=draw(_RATE), c_d=draw(_RATE), c_e=draw(_RATE),
        b_d_g1=share_d, b_d_g2=1.0 - share_d, b_e_g1=share_e, b_e_g2=1.0 - share_e,
        n_max=draw(st.sampled_from((1, 2))),
        n_atoms=draw(st.sampled_from((0, 1, 2))) if scheme == "five" else 1,
    )
    return scheme, params


@settings(max_examples=60, deadline=None)
@given(_scheme_and_params(), st.sampled_from(("delta", "delta_p_cav")), _DETUNING)
def test_hamiltonian_affine_in_scan_variable_property(scheme_params, field, value):
    # a sweep solves H(v) = H(0) + v*G; the builder at v must agree with it
    scheme, params = scheme_params
    builder = _BUILDERS[scheme]
    eta = drive_amplitude(params)  # pinned, as in a sweep
    base = builder(replace(params, **{field: 0.0}), drive_eta=eta).hamiltonian
    step = scan_operator(params, field, scheme)
    direct = builder(replace(params, **{field: value}), drive_eta=eta).hamiltonian.matrix
    assert np.count_nonzero(step.matrix - np.diag(np.diag(step.matrix))) == 0
    assert np.max(np.abs(direct - (base + value * step).matrix)) <= 1e-12 * np.max(np.abs(direct))


def test_scan_operator_rejects_other_fields():
    with pytest.raises(ValueError, match="scan variable"):
        scan_operator(WORKING_POINT, "kappa")


def test_model_shapes_and_collapse_counts():
    model = build_model(WORKING_POINT)
    assert model.space.subsystem_dims == (5, 3)
    # 5 allowed spontaneous branches (f -> g1 forbidden) + dephasing + cavity
    assert len(model.collapse_ops) == 7
    model2 = build_model(replace(WORKING_POINT, n_atoms=2))
    assert model2.space.subsystem_dims == (5, 5, 3)
    assert len(model2.collapse_ops) == 13


def test_empty_cavity_transmission_is_unity():
    params = replace(WORKING_POINT, n_atoms=0, n_max=8)
    assert _transmission(params) == pytest.approx(1.0, abs=1e-8)


def test_decoupled_cavity_transmission_is_unity():
    params = replace(WORKING_POINT, g=0.0, omega_con=0.0, n_atoms=0, n_max=8)
    assert _transmission(params) == pytest.approx(1.0, abs=1e-8)


def test_decoupled_atom_has_no_unique_steady_state():
    # with both fields off, the atomic ground populations never equilibrate
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_model(replace(WORKING_POINT, g=0.0, omega_con=0.0)))


def test_overflowing_parameters_are_a_config_error():
    # g is finite in MHz but not in rad/us; inf * 0 entries are expected
    with np.errstate(invalid="ignore"), pytest.raises(ConfigError, match="non-finite"):
        build_model(replace(WORKING_POINT, g=1e308))


def test_transmission_requires_probe():
    params = replace(WORKING_POINT, n_atoms=0, n_p=0.0)
    solution = steady_state(build_model(params))
    with pytest.raises(ConfigError):
        relative_transmission(solution, params)


def test_two_level_drop_matches_input_output():
    params = replace(WORKING_POINT, n_p=1e-3)
    value = _transmission(params, two_level_model)
    assert value == pytest.approx(two_level_transmission(WORKING_POINT), abs=1e-3)
    assert 0.35 < value < 0.60


def test_far_detuned_transmission_near_single_atom_level():
    params = replace(WORKING_POINT, delta=1.5)
    solution = steady_state(build_model(params))
    assert 0.30 < relative_transmission(solution, params) < 0.60
    assert 0.35 < mean_photon_number(solution.rho) / params.n_p < 0.65


def test_transparency_maximum_below_unity_at_working_point():
    params = replace(WORKING_POINT, delta=-WORKING_POINT.light_shift)  # effective two-photon resonance
    value = _transmission(params)
    far = _transmission(replace(WORKING_POINT, delta=1.5))
    assert far < value < 1.0


def test_three_level_minimum_near_closed_form_position():
    from scipy.optimize import minimize_scalar

    base = replace(WORKING_POINT, gamma_deph=0.0, light_shift=0.0, n_p=1e-4)
    result = minimize_scalar(
        lambda d: _transmission(replace(base, delta=float(d)), three_level_model),
        bounds=(0.02, 0.3),
        method="bounded",
        options={"xatol": 1e-4},
    )
    predicted = base.omega_con**2 / (4.0 * base.delta_p)
    assert abs(result.x - predicted) < 0.3 * predicted


def test_three_level_restrictions():
    model = three_level_model(WORKING_POINT)
    assert model.space.subsystem_dims == (3, 3)
    with pytest.raises(ConfigError):
        three_level_model(replace(WORKING_POINT, n_atoms=2))
    with pytest.raises(ConfigError):
        two_level_model(replace(WORKING_POINT, n_atoms=2))


@pytest.mark.parametrize("n_atoms", [0, 2])
@pytest.mark.parametrize("scheme", ["three", "two"])
def test_restricted_schemes_are_one_atom_models(scheme, n_atoms):
    # the space and scan operator of a restricted scheme reject another atom
    # number as its builder does, with the builder's wording
    params = replace(WORKING_POINT, n_atoms=n_atoms)
    builder = {"three": three_level_model, "two": two_level_model}[scheme]
    message = f"^the {scheme}-level restriction is defined for one atom$"
    for call in (lambda: builder(params), lambda: model_space(params, scheme),
                 lambda: scan_operator(params, "delta_p_cav", scheme)):
        with pytest.raises(ConfigError, match=message):
            call()


def test_three_level_no_control_decouples_g1_in_hamiltonian():
    ham = three_level_model(replace(WORKING_POINT, omega_con=0.0)).hamiltonian.matrix
    # g1 is the first atomic level: with the control off no Hamiltonian matrix
    # element connects the g1 block (cavity indices 0..2) to the rest
    g1_rows = np.arange(3)
    others = np.arange(3, 9)
    assert np.max(np.abs(ham[np.ix_(g1_rows, others)])) == 0.0


def test_weak_control_approaches_two_level_value():
    # the control must stay strong enough to repump faster than the probe
    # depletes g2, hence a weak probe alongside the weak control
    params = replace(WORKING_POINT, omega_con=0.1, n_p=1e-5, delta=1.5, light_shift=0.0)
    value = _transmission(params, three_level_model)
    assert abs(value - two_level_transmission(params)) < 0.02


def test_detuning_sign_convention():
    # blue probe detuning: the transmission minimum sits at positive delta,
    # beyond the maximum
    deltas = np.linspace(-0.6, 0.7, 27)
    values = [_transmission(replace(WORKING_POINT, delta=float(d))) for d in deltas]
    d_max = deltas[int(np.argmax(values))]
    d_min = deltas[int(np.argmin(values))]
    assert d_max < d_min
    assert d_min > 0.0


def _refined_min(params, lo, hi, n=36):
    deltas = np.linspace(lo, hi, n)
    values = [_transmission(replace(params, delta=float(d))) for d in deltas]
    idx = int(np.argmin(values))
    x = deltas[idx - 1 : idx + 2]
    y = values[idx - 1 : idx + 2]
    denom = y[0] - 2.0 * y[1] + y[2]
    return x[1] + 0.5 * (x[2] - x[1]) * (y[0] - y[2]) / denom


def test_light_shift_translates_spectrum():
    with_shift = _refined_min(WORKING_POINT, -0.1, 0.25)
    without = _refined_min(replace(WORKING_POINT, light_shift=0.0), 0.0, 0.35)
    assert with_shift - without == pytest.approx(-WORKING_POINT.light_shift, abs=5e-3)


def test_atom_number_deepens_dispersive_shift(n_two_solution):
    params_two_atoms, solution_two = n_two_solution
    t_one = _transmission(replace(WORKING_POINT, delta=1.5))
    t_two = relative_transmission(solution_two, params_two_atoms)
    assert t_two < t_one < 1.0
