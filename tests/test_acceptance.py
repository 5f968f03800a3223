"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Each test prints a PASS line once its assertions went through (visible with
``pytest -s``); the per-test verdicts of ``pytest -v`` carry the same
information.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cavity_eit import (
    DensityMatrix,
    HilbertSpace,
    LindbladModel,
    PhysicsParams,
    SweepSpec,
    absorption_peak_numeric,
    annihilation_operator,
    build_model,
    convergence_study,
    delta_abs,
    evolve,
    find_extrema,
    mean_photon_number,
    relative_transmission,
    run_sweep,
    steady_state,
    three_level_model,
    trace_distance,
    transmission_semiclassical,
    two_level_model,
    two_level_transmission,
)
from cavity_eit.cli import main
from cavity_eit.model import TWO_PI
from cavity_eit.sweep import ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL, VAR_TWO_PHOTON

WORKING_POINT = PhysicsParams()
T_ORACLE = 20.0 / (TWO_PI * WORKING_POINT.kappa)  # long-time oracle horizon, us


def _report(number: int, message: str):
    print(f"[PASS] criterion {number}: {message}")


@pytest.fixture(scope="module")
def default_sweep():
    spec = SweepSpec(
        variable=VAR_TWO_PHOTON,
        start=-0.9,
        stop=1.7,
        n_points=261,
        base_params=WORKING_POINT,
        engines=(ENGINE_MASTER_EQUATION,),
    )
    return run_sweep(spec)


def test_criterion_01_empty_cavity_oracle():
    kappa = TWO_PI * WORKING_POINT.kappa
    worst = 0.0
    for eta_frac in (0.1, math.sqrt(0.1), 0.5):
        for dpc_mhz in (-1.0, 0.0, 0.7):
            eta = eta_frac * kappa
            dpc = TWO_PI * dpc_mhz
            space = HilbertSpace((13,))
            low = annihilation_operator(space, 0)
            ham = (-dpc) * (low.dagger() @ low) + eta * (low + low.dagger())
            model = LindbladModel(space, ham, (math.sqrt(2.0 * kappa) * low,))
            photons = mean_photon_number(steady_state(model).rho)
            expected = eta**2 / (kappa**2 + dpc**2)
            worst = max(worst, abs(photons - expected) / expected)
    assert worst < 1e-6

    params = replace(WORKING_POINT, n_atoms=0, n_max=12)
    photons = mean_photon_number(steady_state(build_model(params)).rho)
    assert abs(photons - 0.100) < 1e-6
    _report(1, f"driven-cavity photon number analytic, worst relative error {worst:.2e}")


def test_criterion_02_two_level_dispersive_drop():
    params = replace(WORKING_POINT, n_p=1e-3)
    value = relative_transmission(steady_state(two_level_model(params)), params)
    formula = two_level_transmission(WORKING_POINT)
    assert abs(value - formula) < 0.02
    assert 0.35 <= value <= 0.60
    _report(2, f"no-control transmission {value:.4f} vs input-output {formula:.4f}")


def test_criterion_03_exact_transparency():
    params = replace(WORKING_POINT, gamma_deph=0.0, light_shift=0.0, n_p=1e-3, delta=0.0)
    value = relative_transmission(steady_state(three_level_model(params)), params)
    assert abs(value - 1.0) < 0.01
    _report(3, f"transparency point transmission {value:.5f}")


def test_criterion_04_absorption_peak_position_and_width():
    params = replace(WORKING_POINT, gamma_deph=0.0)
    position, fwhm = absorption_peak_numeric(params)
    assert abs(position - TWO_PI * 0.098) < 0.3 * TWO_PI * 0.098
    assert abs(fwhm - TWO_PI * 0.025) < 0.3 * TWO_PI * 0.025

    weak = replace(WORKING_POINT, gamma_deph=0.0, light_shift=0.0, n_p=1e-4)
    sc_min = minimize_scalar(
        lambda d: transmission_semiclassical(weak, TWO_PI * float(d)),
        bounds=(0.02, 0.25), method="bounded", options={"xatol": 1e-5},
    ).x

    def me_transmission(d):
        point = replace(weak, delta=float(d))
        return relative_transmission(steady_state(three_level_model(point)), point)

    me_min = minimize_scalar(
        me_transmission, bounds=(0.02, 0.25), method="bounded", options={"xatol": 1e-5}
    ).x
    assert abs(me_min - sc_min) < 0.020
    _report(
        4,
        f"peak {position / TWO_PI * 1e3:.1f} kHz, width {fwhm / TWO_PI * 1e3:.1f} kHz, "
        f"engine minima within {abs(me_min - sc_min) * 1e3:.2f} kHz",
    )


def test_criterion_05_spectrum_shape(default_sweep):
    extrema = find_extrema(default_sweep)
    separation = extrema.delta_min - extrema.delta_max
    assert extrema.delta_max < extrema.delta_min  # maximum followed by minimum
    assert abs(extrema.delta_max) <= 0.35  # maximum near the two-photon resonance
    assert 0.15 <= separation <= 0.35
    assert all(r.converged for r in default_sweep)
    _report(
        5,
        f"max {extrema.t_max:.3f}@{extrema.delta_max:+.3f} MHz, "
        f"min {extrema.t_min:.3f}@{extrema.delta_min:+.3f} MHz, "
        f"separation {separation * 1e3:.0f} kHz",
    )


@pytest.mark.parametrize("deph", [0.0, 0.15])
def test_criterion_06_cross_engine_equivalence(deph):
    params = replace(WORKING_POINT, gamma_deph=deph, n_p=1e-3)
    spec = SweepSpec(
        variable=VAR_TWO_PHOTON,
        start=-0.9,
        stop=1.7,
        n_points=261,
        base_params=params,
        engines=(ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL),
        level_scheme="three",
    )
    records = run_sweep(spec)
    by_engine = {
        engine: [r.transmission_rel for r in records if r.engine == engine]
        for engine in (ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL)
    }
    diffs = np.abs(
        np.array(by_engine[ENGINE_MASTER_EQUATION])
        - np.array(by_engine[ENGINE_SEMICLASSICAL])
    )
    assert diffs.max() < 0.02
    _report(6, f"gamma_deph={deph}: engines within {diffs.max():.4f} across the window")


def _stationary(model, solution):
    final = evolve(model, solution.rho, T_ORACLE)
    return trace_distance(final, solution.rho)


def test_criterion_07_solver_self_consistency(n_two_solution):
    distances = {}

    empty = replace(WORKING_POINT, n_atoms=0, n_max=8)
    model = build_model(empty)
    solution = steady_state(model)
    distances["empty cavity"] = _stationary(model, solution)
    vac = np.zeros((9, 9), dtype=complex)
    vac[0, 0] = 1.0
    relaxed = evolve(model, DensityMatrix(model.space, vac), T_ORACLE)
    distances["empty cavity from vacuum"] = trace_distance(relaxed, solution.rho)

    two = replace(WORKING_POINT, n_p=1e-3)
    model = two_level_model(two)
    distances["two-level"] = _stationary(model, steady_state(model))

    three = replace(WORKING_POINT, n_p=1e-3)
    model = three_level_model(three)
    distances["three-level"] = _stationary(model, steady_state(model))

    one = replace(WORKING_POINT, delta=0.1)
    model = build_model(one)
    distances["five-level N=1"] = _stationary(model, steady_state(model))

    params_two_atoms, solution = n_two_solution
    distances["five-level N=2"] = _stationary(build_model(params_two_atoms), solution)

    for name, dist in distances.items():
        assert dist < 1e-6, f"{name}: trace distance {dist:.2e}"
    summary = ", ".join(f"{k} {v:.1e}" for k, v in distances.items())
    _report(7, f"long-time integration stays on every steady state ({summary})")


def test_criterion_08_truncation_check():
    study = convergence_study(WORKING_POINT, [2, 3])
    changes = study.last_changes
    print("truncation changes (n_max 2 -> 3):")
    for delta_mhz, change in changes.items():
        print(f"  delta = {delta_mhz:+.3f} MHz: dT = {change:+.5f}")
        assert abs(change) < 0.05
    assert study.converged  # 0.01 internal threshold, stricter than the 0.05 bound
    _report(8, "transmission shifts below 0.05 between n_max = 2 and 3")


def test_criterion_09_atom_number_monotonicity(n_two_solution):
    params_two_atoms, solution_two = n_two_solution
    t_two = relative_transmission(solution_two, params_two_atoms)
    one = replace(WORKING_POINT, delta=1.5)
    t_one = relative_transmission(steady_state(build_model(one)), one)
    assert t_two < t_one < 1.0
    _report(9, f"T(N=2) = {t_two:.3f} < T(N=1) = {t_one:.3f} < 1 at +1.5 MHz")


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("start = -0.7\nstop = 0.7\nn_points = 29\n", encoding="utf-8")
    pairs = []
    for tag in ("a", "b"):
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        scan_out = tmp_path / f"scan_{tag}.csv"
        conv_out = tmp_path / f"conv_{tag}.csv"
        assert main(["eit-sweep", "--config", str(config), "--engine", "both",
                     "--out", str(sweep_out), "--deterministic"]) == 0
        assert main(["cavity-scan", "--atoms", "1", "--points", "21",
                     "--out", str(scan_out), "--deterministic"]) == 0
        assert main(["converge", "--config", str(config), "--nmax-list", "1,2",
                     "--out", str(conv_out), "--deterministic"]) == 0
        pairs.append((sweep_out.read_bytes(), scan_out.read_bytes(), conv_out.read_bytes()))
    assert pairs[0] == pairs[1]
    _report(10, "repeated deterministic runs are byte-identical")
