import math
from dataclasses import replace

import numpy as np
import pytest

from cavity_eit import (
    CapacityError,
    ConfigError,
    DegenerateSteadyStateError,
    EdgeExtremumError,
    HilbertSpace,
    LindbladModel,
    OperatorMatrix,
    PhysicsParams,
    SpectrumRecord,
    SteadyStateConvergenceError,
    SweepSpec,
    build_model,
    convergence_study,
    drive_amplitude,
    find_extrema,
    identity,
    liouville,
    mean_cavity_amplitude,
    mean_photon_number,
    relative_transmission,
    run_sweep,
    steady_state,
    sweep,
    three_level_model,
    two_level_model,
)
from cavity_eit.liouville import ParametricSteadyState
from cavity_eit.sweep import ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL, VAR_PROBE_CAVITY, VAR_TWO_PHOTON

WORKING_POINT = PhysicsParams()


def test_spec_validation():
    good = dict(variable=VAR_TWO_PHOTON, start=-0.9, stop=1.7, n_points=5, base_params=WORKING_POINT)
    SweepSpec(**good)
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "variable": "frequency"})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "start": 2.0})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "n_points": 1})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "engines": ()})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "engines": ("me", "me")})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "engines": ("exact",)})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "level_scheme": "seven"})
    with pytest.raises(ConfigError):
        SweepSpec(**{**good, "variable": VAR_PROBE_CAVITY, "engines": ("sc",)})
    # a step below 1e-10 of the largest |value| is finer than the written grid
    with pytest.raises(ConfigError, match="12 significant digits"):
        SweepSpec(**{**good, "start": 1000.0, "stop": 1000.000001, "n_points": 241})


def _forbidden_solve(*args, **kwargs):
    pytest.fail("a point was solved with a count that is not an integer")


_GOOD_SPEC = dict(variable=VAR_TWO_PHOTON, start=-0.9, stop=1.7, n_points=5,
                  base_params=WORKING_POINT)


@pytest.mark.parametrize(
    "held, rejected, accepted, error, message",
    [
        (lambda n: PhysicsParams(n_max=n).n_max, 2.5, np.int64(3), ConfigError,
         r"^n_max must be an integer of at least 1, got 2\.5$"),
        (lambda n: PhysicsParams(n_atoms=n).n_atoms, 1.0, np.int64(2), ConfigError,
         r"^n_atoms must be an integer 0, 1 or 2, got 1\.0$"),
        (lambda n: SweepSpec(**{**_GOOD_SPEC, "n_points": n}).n_points, 5.5, np.int64(5),
         ConfigError, r"^n_points must be an integer of at least 2, got 5\.5$"),
        (lambda n: convergence_study(WORKING_POINT, [n, 2]).n_max_list[0], 1.5, np.int64(1),
         ConfigError, r"^n_max must be an integer of at least 1, got 1\.5$"),
        (lambda n: HilbertSpace((5, n)).subsystem_dims[1], 2.5, np.int64(2), TypeError, None),
    ],
    ids=["n_max", "n_atoms", "n_points", "convergence-n_max", "hilbert-dim"],
)
def test_counts_are_integers_checked_where_held(monkeypatch, held, rejected, accepted, error,
                                                message):
    # a float count raises before any solve instead of being truncated
    # downstream; a NumPy integer is a count
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "steady_state", _forbidden_solve)
        with pytest.raises(error, match=message):
            held(rejected)
    assert held(accepted) == accepted


def test_empty_cavity_scan_is_resonance_line():
    params = replace(WORKING_POINT, n_atoms=0, n_p=1e-4, n_max=6)
    spec = SweepSpec(VAR_PROBE_CAVITY, -3.0, 3.0, 61, params)
    records = run_sweep(spec)
    kappa = WORKING_POINT.kappa
    for rec in records:
        expected = kappa**2 / (kappa**2 + rec.sweep_value**2)
        assert rec.transmission_rel == pytest.approx(expected, abs=1e-9)
    # half maximum at +-kappa: full width 2 kappa = 0.8 MHz
    values = np.array([r.transmission_rel for r in records])
    grid = np.array([r.sweep_value for r in records])
    above = grid[values >= 0.5]
    assert above.max() - above.min() == pytest.approx(0.8, abs=0.11)


def test_single_atom_scan_shifted_and_reduced():
    params = replace(WORKING_POINT, n_p=1e-4)
    spec = SweepSpec(VAR_PROBE_CAVITY, -3.0, 3.0, 121, params, level_scheme="two")
    extrema = find_extrema(run_sweep(spec), allow_edge=True)
    # dispersion moves the resonance to positive detuning by
    # g^2 delta_p / (gamma^2 + delta_p^2); absorption lowers the peak
    denom = WORKING_POINT.gamma**2 + WORKING_POINT.delta_p**2
    shift = WORKING_POINT.g**2 * WORKING_POINT.delta_p / denom
    loss = WORKING_POINT.g**2 * WORKING_POINT.gamma / denom
    assert extrema.delta_max == pytest.approx(shift, abs=0.03)
    assert extrema.t_max == pytest.approx(WORKING_POINT.kappa**2 / (WORKING_POINT.kappa + loss) ** 2, abs=1e-3)
    assert extrema.t_max < 1.0


def test_two_photon_sweep_max_then_min():
    spec = SweepSpec(VAR_TWO_PHOTON, -0.9, 1.7, 27, WORKING_POINT)
    records = run_sweep(spec)
    assert len(records) == 27
    assert all(r.engine == ENGINE_MASTER_EQUATION for r in records)
    assert all(r.converged for r in records)
    extrema = find_extrema(records)
    assert extrema.delta_max < extrema.delta_min
    assert extrema.t_min < extrema.t_max


def test_both_engines_interleaved_and_ordered():
    params = replace(WORKING_POINT, n_p=1e-3)
    spec = SweepSpec(
        VAR_TWO_PHOTON, -0.5, 0.5, 11, params,
        engines=(ENGINE_SEMICLASSICAL, ENGINE_MASTER_EQUATION),
        level_scheme="three",
    )
    records = run_sweep(spec)
    assert len(records) == 22
    keys = [(r.sweep_value, r.engine) for r in records]
    assert keys == sorted(keys)
    for rec in records:
        if rec.engine == ENGINE_SEMICLASSICAL:
            assert rec.absorption_part is not None and rec.residual_norm is None
        else:
            assert rec.absorption_part is None and rec.residual_norm is not None


def test_semiclassical_engine_applies_light_shift():
    from cavity_eit import transmission_semiclassical
    from cavity_eit.model import TWO_PI

    spec = SweepSpec(VAR_TWO_PHOTON, -0.5, 0.5, 5, WORKING_POINT, engines=(ENGINE_SEMICLASSICAL,))
    for rec in run_sweep(spec):
        expected = transmission_semiclassical(
            WORKING_POINT, TWO_PI * (rec.sweep_value + WORKING_POINT.light_shift)
        )
        assert rec.transmission_rel == pytest.approx(expected, rel=1e-12)


def test_semiclassical_transparency_maximum():
    params = replace(WORKING_POINT, gamma_deph=0.0, light_shift=0.0)
    spec = SweepSpec(VAR_TWO_PHOTON, -0.9, 1.7, 261, params, engines=(ENGINE_SEMICLASSICAL,))
    extrema = find_extrema(run_sweep(spec))
    assert extrema.t_max == pytest.approx(1.0, abs=0.005)
    assert abs(extrema.delta_max) < 0.01


def test_sweep_deterministic():
    spec = SweepSpec(VAR_TWO_PHOTON, -0.3, 0.5, 9, replace(WORKING_POINT, n_p=1e-3), level_scheme="three")
    assert run_sweep(spec) == run_sweep(spec)


def test_capacity_error_names_the_point():
    params = replace(WORKING_POINT, n_atoms=2, n_max=40)
    spec = SweepSpec(VAR_TWO_PHOTON, 0.0, 0.1, 2, params)
    with pytest.raises(CapacityError, match=r"^sweep point two_photon_delta = 0\.0 MHz: "):
        run_sweep(spec)


@pytest.mark.parametrize(
    "variable, scheme, params, window",
    [
        (VAR_TWO_PHOTON, "five", WORKING_POINT, (-0.9, 1.7)),
        (VAR_TWO_PHOTON, "three", WORKING_POINT, (-0.9, 1.7)),
        (VAR_PROBE_CAVITY, "five", replace(WORKING_POINT, n_atoms=0), (-3.0, 3.0)),
        (VAR_PROBE_CAVITY, "two", WORKING_POINT, (-3.0, 3.0)),
        (VAR_TWO_PHOTON, "five", replace(WORKING_POINT, n_atoms=2, n_max=1), (0.0, 1.5)),
    ],
    ids=["five-delta", "three-delta", "empty-cavity-scan", "two-level-scan", "two-atoms"],
)
def test_sweep_matches_per_point_solves(variable, scheme, params, window):
    # each point is a diagonal update of one system; rebuilding the model
    # and the generator at the point must give the same record
    n_points = 2 if params.n_atoms == 2 else 5
    spec = SweepSpec(variable, *window, n_points, params, level_scheme=scheme)
    builder = {"five": build_model, "three": three_level_model, "two": two_level_model}[scheme]
    field = "delta" if variable == VAR_TWO_PHOTON else "delta_p_cav"
    eta = drive_amplitude(params)
    tol = 1e-9
    records = run_sweep(spec)
    assert [r.sweep_value for r in records] == list(np.linspace(*window, n_points))
    for rec in records:
        solution = steady_state(builder(replace(params, **{field: rec.sweep_value}), drive_eta=eta))
        coherent = abs(mean_cavity_amplitude(solution.rho)) ** 2 / params.n_p
        photons = max(mean_photon_number(solution.rho), 0.0)
        assert rec.transmission_rel == pytest.approx(coherent, rel=1e-12, abs=0)
        assert rec.photon_number == pytest.approx(photons, rel=1e-12, abs=0)
        assert rec.converged and rec.residual_norm <= tol


def test_semiclassical_sweep_builds_no_model(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("a closed-form sweep built a master-equation model")

    monkeypatch.setitem(sweep._BUILDERS, "five", forbidden)
    spec = SweepSpec(VAR_TWO_PHOTON, -0.5, 0.5, 5, WORKING_POINT, engines=(ENGINE_SEMICLASSICAL,))
    assert len(run_sweep(spec)) == 5


def test_sweep_builds_and_assembles_once(monkeypatch):
    calls = {"build": 0, "assemble": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(sweep._BUILDERS, "five", counted("build", build_model))
    monkeypatch.setattr(liouville, "build_superoperator",
                        counted("assemble", liouville.build_superoperator))
    run_sweep(SweepSpec(VAR_TWO_PHOTON, -0.5, 0.5, 7, WORKING_POINT))
    assert calls == {"build": 1, "assemble": 1}


def test_sweep_orders_once_and_factors_in_that_order(monkeypatch):
    # one fill-reducing ordering per system and, for a one-atom sweep, one
    # LU at its base value, which keeps that ordering, leaves SuperLU's
    # supernodes unrelaxed and prefers diagonal pivots
    orderings, specs = [], []
    order = liouville._fill_reducing_position
    factor = liouville.splu
    monkeypatch.setattr(liouville, "_fill_reducing_position",
                        lambda *args: orderings.append(args) or order(*args))
    monkeypatch.setattr(liouville, "splu", lambda matrix, permc_spec, relax, diag_pivot_thresh: (
        specs.append((permc_spec, relax, diag_pivot_thresh))
        or factor(matrix, permc_spec, relax=relax, diag_pivot_thresh=diag_pivot_thresh)))
    run_sweep(SweepSpec(VAR_TWO_PHOTON, -0.5, 0.5, 9, WORKING_POINT))
    assert len(orderings) == 1
    assert specs == [("NATURAL", 1, 0.1)]


def test_sweep_checks_the_closed_form_before_solving(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("the master-equation system was built before the closed form was checked")

    monkeypatch.setattr(sweep, "ParametricSteadyState", forbidden)
    spec = SweepSpec(VAR_TWO_PHOTON, -0.5, 0.5, 5, replace(WORKING_POINT, gamma=0.0),
                     engines=(ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL))
    with pytest.raises(ConfigError, match="gamma"):
        run_sweep(spec)


def test_sweep_requires_probe():
    spec = SweepSpec(VAR_TWO_PHOTON, 0.0, 0.1, 2, replace(WORKING_POINT, n_p=0.0))
    with pytest.raises(ConfigError):
        run_sweep(spec)


def test_sweep_flags_points_missing_tolerance(monkeypatch):
    # an unreachable tolerance flags every record instead of aborting
    spec = SweepSpec(VAR_TWO_PHOTON, 0.0, 0.2, 3, WORKING_POINT)
    with monkeypatch.context() as patched:
        patched.setattr(liouville, "DEFAULT_TOL", 1e-18)
        records = run_sweep(spec)
    assert len(records) == 3
    assert all(not r.converged for r in records)
    assert all(r.residual_norm > 1e-18 for r in records)
    # the same sweep at the default tolerance is clean
    assert all(r.converged for r in run_sweep(spec))


def test_sweep_flags_each_point_missing_tolerance_inside_a_block(monkeypatch):
    # the 7 three-level points (Liouville size 81) share one base LU; a
    # tolerance between their residuals flags exactly the points above it
    spec = SweepSpec(VAR_TWO_PHOTON, -0.9, 1.7, 7, WORKING_POINT, level_scheme="three")
    residuals = [r.residual_norm for r in run_sweep(spec)]
    tol = float(np.median(residuals))
    monkeypatch.setattr(liouville, "DEFAULT_TOL", tol)
    flagged = run_sweep(spec)
    assert [r.residual_norm for r in flagged] == residuals
    assert [r.converged for r in flagged] == [r <= tol for r in residuals]
    assert False in [r.converged for r in flagged[1:-1]]


def test_sweep_names_a_singular_point_inside_a_block(monkeypatch):
    # H(v) = v*sigma_z with a sigma_x collapse operator is singular at v = 0
    # only, the sweep's base value; its LU fails, and each value's own LU
    # finds that point
    space = HilbertSpace((2,))
    sigma_x = OperatorMatrix(space, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    sigma_z = OperatorMatrix(space, np.diag([1.0, -1.0]).astype(complex))
    model = LindbladModel(space, 0.0 * identity(space), (sigma_x,))
    monkeypatch.setitem(sweep._BUILDERS, "two", lambda params, drive_eta: model)
    monkeypatch.setattr(sweep, "scan_operator", lambda params, field, scheme: sigma_z)
    spec = SweepSpec(VAR_PROBE_CAVITY, -2.0, 2.0, 5, WORKING_POINT, level_scheme="two")
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"^sweep point probe_cavity_detuning = 0\.0 MHz: ") as caught:
        run_sweep(spec)
    assert caught.value.condition_estimate == math.inf


def _lorentzian_records(center=0.2, width=0.3, n=41, grid=None):
    grid = np.linspace(-1.0, 1.0, n) if grid is None else grid
    return [
        SpectrumRecord(
            sweep_value=float(x),
            transmission_rel=float(1.0 / (1.0 + ((x - center) / width) ** 2)),
            photon_number=0.0,
            absorption_part=None,
            dispersion_part=None,
            residual_norm=0.0,
            engine=ENGINE_MASTER_EQUATION,
        )
        for x in grid
    ]


def test_find_extrema_refines_lorentzian_peak():
    records = _lorentzian_records()
    extrema = find_extrema(records, allow_edge=True)
    assert extrema.delta_max == pytest.approx(0.2, abs=2e-3)
    assert extrema.t_max == pytest.approx(1.0, abs=2e-3)


def test_find_extrema_edge_raises():
    with pytest.raises(EdgeExtremumError):
        find_extrema(_lorentzian_records())  # line minima sit on the window edges


def test_find_extrema_input_validation():
    records = _lorentzian_records(n=41)
    with pytest.raises(ValueError):
        find_extrema(records[:4])
    mixed = records[:10] + [
        SpectrumRecord(2.0, 1.0, 0.0, None, None, None, ENGINE_SEMICLASSICAL)
    ]
    with pytest.raises(ValueError):
        find_extrema(mixed)


def test_find_extrema_rejects_a_non_uniform_grid():
    # the refinement's parabola takes one step for both neighbours, which
    # three extra points or a repeated sweep value would silently break
    uniform = np.linspace(-1.0, 1.0, 41)
    find_extrema(_lorentzian_records(grid=uniform), allow_edge=True)
    extra = np.sort(np.concatenate([uniform, [0.16, 0.21, 0.26]]))
    with pytest.raises(ValueError, match="uniform sweep grid"):
        find_extrema(_lorentzian_records(grid=extra), allow_edge=True)
    repeated = np.sort(np.concatenate([uniform, uniform[20:21]]))
    with pytest.raises(ValueError, match="uniform sweep grid"):
        find_extrema(_lorentzian_records(grid=repeated), allow_edge=True)


@pytest.mark.parametrize(
    "start, stop, n",
    [(1000.0, 1000.06, 241), (1000.0, 1000.07, 241), (-0.9, 1.7, 261), (-3.0, 3.0, 243),
     (-2e6, -1e6, 997), (1e-9, 3e-9, 7), (-1e3, 1e9, 7)],
)
def test_find_extrema_accepts_written_grids(start, stop, n):
    # a CSV carries 12 significant digits: read back, a uniform grid is
    # uniform to ~1e-11 of its largest value
    SweepSpec(VAR_PROBE_CAVITY, start, stop, n, WORKING_POINT)
    grid = np.array([float(format(x, ".12g")) for x in np.linspace(start, stop, n)])
    records = _lorentzian_records(grid[n // 2], (stop - start) / 4.0, grid=grid)
    assert find_extrema(records, allow_edge=True).delta_max == pytest.approx(grid[n // 2])


def test_grid_refinement_stability():
    params = replace(WORKING_POINT, light_shift=0.0)
    coarse_spec = SweepSpec(VAR_TWO_PHOTON, -0.9, 1.7, 131, params, engines=(ENGINE_SEMICLASSICAL,))
    fine_spec = SweepSpec(VAR_TWO_PHOTON, -0.9, 1.7, 261, params, engines=(ENGINE_SEMICLASSICAL,))
    coarse = find_extrema(run_sweep(coarse_spec))
    fine = find_extrema(run_sweep(fine_spec))
    spacing = 2.6 / 130.0
    assert abs(coarse.delta_max - fine.delta_max) < spacing
    assert abs(coarse.delta_min - fine.delta_min) < spacing


def test_convergence_study_weak_drive():
    study = convergence_study(replace(WORKING_POINT, n_p=1e-3), [1, 2])
    assert study.converged
    assert study.deltas_mhz == pytest.approx((0.0, 0.098, 1.5))
    changes = study.last_changes
    # single-excitation dominance at the transparency and absorption points;
    # the dispersive point reacts more strongly but stays below 1e-3
    assert abs(changes[study.deltas_mhz[0]]) < 1e-4
    assert abs(changes[study.deltas_mhz[1]]) < 1e-4
    assert abs(changes[study.deltas_mhz[2]]) < 1e-3


@pytest.mark.parametrize(
    "params",
    [WORKING_POINT, replace(WORKING_POINT, delta_p=0.0), replace(WORKING_POINT, n_atoms=2)],
    ids=["default", "delta_p-0", "two-atoms"],
)
def test_convergence_rows_match_their_own_models(params, request):
    # each truncation's system is assembled once at delta = 0 and moved to
    # every detuning by its diagonal; a model built at the row's detuning
    # must give the same row
    study = convergence_study(params, [1, 2])
    assert len(study.deltas_mhz) == (2 if params.delta_p == 0.0 else 3)
    # the suite's N=2 steady state is the two-atom row at n_max 2, delta 1.5
    known = request.getfixturevalue("n_two_solution") if params.n_atoms == 2 else (None, None)
    for row in study.rows:
        point = replace(params, n_max=row.n_max, delta=row.delta_mhz)
        solution = known[1] if point == known[0] else steady_state(build_model(point))
        assert row.transmission_rel == pytest.approx(
            relative_transmission(solution, params), rel=1e-12, abs=0)
        assert row.photon_number == pytest.approx(
            mean_photon_number(solution.rho), rel=1e-12, abs=0)


def test_convergence_study_assembles_and_orders_once_per_truncation(monkeypatch):
    systems, orderings = [], []
    order = liouville._fill_reducing_position

    class Counted(ParametricSteadyState):
        def __init__(self, *args):
            systems.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sweep, "ParametricSteadyState", Counted)
    monkeypatch.setattr(liouville, "_fill_reducing_position",
                        lambda *args: orderings.append(args) or order(*args))
    study = convergence_study(WORKING_POINT, [2, 3, 4])
    assert len(study.rows) == 9
    assert len(systems) == 3 and len(orderings) == 3


def test_convergence_study_vacuum_identical():
    study = convergence_study(replace(WORKING_POINT, n_p=0.0), [1, 2])
    assert study.converged
    for row in study.rows:
        assert row.photon_number == pytest.approx(0.0, abs=1e-12)
        assert row.transmission_rel == pytest.approx(0.0, abs=1e-12)


def test_convergence_study_below_probe_threshold_tabulates_photons():
    # 1e-16 probe photons is below empty_cavity_photons' threshold, which
    # run_sweep rejects: T/T0 is undefined, so the raw photon number stands in
    params = replace(WORKING_POINT, n_p=1e-16)
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec(VAR_TWO_PHOTON, 0.0, 0.1, 2, params))
    study = convergence_study(params, [1, 2])
    assert study.rows
    for row in study.rows:
        assert row.transmission_rel == row.photon_number


def test_convergence_study_validation():
    with pytest.raises(ConfigError):
        convergence_study(WORKING_POINT, [2])
    with pytest.raises(ConfigError):
        convergence_study(WORKING_POINT, [3, 2])


def test_convergence_study_checks_every_capacity_before_solving(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("a point was solved before every truncation's capacity was checked")

    # every solve needs its truncation's system first
    monkeypatch.setattr(sweep, "_zero_system", forbidden)
    with pytest.raises(CapacityError, match=r"^n_max = 1000, delta = 0\.0 MHz: "):
        convergence_study(replace(WORKING_POINT, n_atoms=2), [2, 1000])


def _record_solver_errors(monkeypatch):
    """Route ``sweep.steady_state``, the single solve of one detuning of a
    truncation's system, through a wrapper that records each error it
    raises, with its message, before the error leaves the solver."""
    raised = []
    single_solve = sweep.steady_state

    def recording(system, value):
        try:
            return single_solve(system, value)
        except (DegenerateSteadyStateError, SteadyStateConvergenceError) as exc:
            raised.append((exc, str(exc)))
            raise

    monkeypatch.setattr(sweep, "steady_state", recording)
    return raised


def test_convergence_study_names_a_degenerate_point(monkeypatch):
    # no coupling and no control field leave several steady states; the
    # labelled error is the solver's own, with its type and condition estimate
    raised = _record_solver_errors(monkeypatch)
    params = replace(WORKING_POINT, g=0.0, omega_con=0.0)
    with pytest.raises(DegenerateSteadyStateError) as caught:
        convergence_study(params, [1, 2])
    ((original, message),) = raised
    assert caught.value is original and type(original) is DegenerateSteadyStateError
    assert str(caught.value) == f"n_max = 1, delta = 0.0 MHz: {message}"
    assert caught.value.condition_estimate > 1e14


def test_convergence_study_names_a_residual_miss(monkeypatch):
    # a zero tolerance is missed by every nonzero residual; the labelled
    # error is the solver's own, with its type and solution
    raised = _record_solver_errors(monkeypatch)
    monkeypatch.setattr(liouville, "DEFAULT_TOL", 0.0)
    with pytest.raises(SteadyStateConvergenceError) as caught:
        convergence_study(WORKING_POINT, [1, 2])
    ((original, message),) = raised
    assert caught.value is original and type(original) is SteadyStateConvergenceError
    assert message.startswith("steady-state residual ")
    assert str(caught.value) == f"n_max = 1, delta = 0.0 MHz: {message}"
    assert not caught.value.solution.converged
