import math
from dataclasses import replace

import numpy as np
import pytest

from cavity_eit import (
    PhysicsParams,
    absorption_peak_numeric,
    atomic_response,
    delta_abs,
    epsilon_mixing,
    linewidth_abs,
    refractive_index,
    susceptibility,
    transmission_semiclassical,
    two_level_transmission,
)

TWO_PI = 2.0 * math.pi
WORKING_POINT = PhysicsParams()


def test_exact_transparency():
    response = atomic_response(replace(WORKING_POINT, gamma_deph=0.0), 0.0)
    assert response.value == 0.0


def test_two_level_limit_of_response():
    params = replace(WORKING_POINT, omega_con=0.0)
    value = atomic_response(params, TWO_PI * 0.3).value
    g = TWO_PI * params.g
    expected = g**2 / (TWO_PI * params.gamma + 1j * TWO_PI * params.delta_p)
    assert value == pytest.approx(expected)


def test_response_passivity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = replace(
            WORKING_POINT,
            g=float(rng.uniform(0.1, 10.0)),
            omega_con=float(rng.uniform(0.0, 6.0)),
            gamma=float(rng.uniform(0.5, 5.0)),
            gamma_deph=float(rng.choice([0.0, 0.05, 0.3])),
            delta_p=float(rng.uniform(-30.0, 30.0)),
        )
        for delta in np.linspace(-TWO_PI * 3.0, TWO_PI * 3.0, 101):
            assert atomic_response(params, float(delta)).absorption_part >= -1e-12


def test_response_requires_positive_gamma():
    with pytest.raises(ValueError):
        atomic_response(replace(WORKING_POINT, gamma=0.0), 0.0)


def test_absorption_peak_position_and_width():
    params = replace(WORKING_POINT, gamma_deph=0.0)
    position, fwhm = absorption_peak_numeric(params)
    assert abs(position - TWO_PI * 0.098) < 0.3 * TWO_PI * 0.098
    assert abs(fwhm - TWO_PI * 0.025) < 0.3 * TWO_PI * 0.025


def test_dispersion_changes_sign_twice():
    # dispersion crosses zero at the transparency point and at the absorption
    # peak; the crossings survive only while the ground-coherence decay stays
    # below omega_con^2/(8 delta_p), so probe at and just below that regime
    for deph in (0.0, 0.03):
        params = replace(WORKING_POINT, gamma_deph=deph)
        grid = np.linspace(-0.9, 1.7, 260) + 0.0005  # avoid the exact zero
        signs = np.sign(
            [atomic_response(params, TWO_PI * float(d)).dispersion_part for d in grid]
        )
        flips = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert flips == 2
    # at the full working-point dephasing the net dispersion stays negative
    strong = replace(WORKING_POINT, gamma_deph=0.15)
    grid = np.linspace(-0.9, 1.7, 260) + 0.0005
    assert all(
        atomic_response(strong, TWO_PI * float(d)).dispersion_part < 0.0 for d in grid
    )


def test_transmission_no_atoms():
    empty = replace(WORKING_POINT, n_atoms=0)
    for delta in (-0.5, 0.0, 1.0):
        assert transmission_semiclassical(empty, TWO_PI * delta) == pytest.approx(1.0)


def test_transmission_transparency_point():
    params = replace(WORKING_POINT, gamma_deph=0.0)
    assert transmission_semiclassical(params, 0.0) == pytest.approx(1.0)


def test_transmission_two_level_value():
    params = replace(WORKING_POINT, omega_con=0.0)
    value = transmission_semiclassical(params, TWO_PI * 0.5)
    # |kappa/(kappa + g^2/(gamma + i delta_p))|^2 with the quoted numbers
    assert value == pytest.approx(0.3949, abs=1e-3)
    assert 0.35 < value < 0.60
    # both formulas share one cavity transmission, so no control is bit-identical
    assert value == two_level_transmission(params)


def test_transmission_far_detuned_limit():
    for sign in (-1.0, 1.0):
        value = transmission_semiclassical(WORKING_POINT, TWO_PI * sign * 50.0)
        assert abs(value - two_level_transmission(WORKING_POINT)) < 1e-3


def test_transmission_minimum_near_delta_abs():
    from scipy.optimize import minimize_scalar

    params = replace(WORKING_POINT, gamma_deph=0.0)
    result = minimize_scalar(
        lambda d: transmission_semiclassical(params, float(d)),
        bounds=(TWO_PI * 0.02, TWO_PI * 0.3),
        method="bounded",
    )
    assert abs(result.x - delta_abs(params)) < 0.3 * delta_abs(params)


def test_closed_form_values():
    assert delta_abs(WORKING_POINT) == pytest.approx(TWO_PI * 0.098)
    assert linewidth_abs(WORKING_POINT) == pytest.approx(TWO_PI * 0.025480, rel=1e-4)
    assert epsilon_mixing(WORKING_POINT) == pytest.approx(0.07)
    assert 1.0 - epsilon_mixing(WORKING_POINT) ** 2 == pytest.approx(0.9951)


def test_closed_forms_reject_zero_detuning():
    for func in (delta_abs, linewidth_abs, epsilon_mixing):
        with pytest.raises(ValueError):
            func(replace(WORKING_POINT, delta_p=0.0))


def test_susceptibility_maps_response():
    response = atomic_response(WORKING_POINT, TWO_PI * 0.3)
    chi = susceptibility(WORKING_POINT, TWO_PI * 0.3)
    assert chi.imag == pytest.approx(response.absorption_part)
    assert chi.real == pytest.approx(-response.dispersion_part)


def test_refractive_index_values():
    assert refractive_index(0.0) == pytest.approx(1.0)
    assert refractive_index(3.0) == pytest.approx(2.0)
    taylor = refractive_index(2.1e-3j)
    assert taylor == pytest.approx(1.0 + 1.05e-3j, abs=1e-6)


def test_refractive_index_branch_cut():
    with pytest.raises(ValueError):
        refractive_index(-2.0)
