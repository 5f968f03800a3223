"""Parameter sweeps, spectrum records, extrema analysis, truncation studies.

Sweeps are quasi-static: one independent steady state per grid point (every
relaxation rate far exceeds any realistic scan speed).  Both sweep variables
enter the Hamiltonian as v*G with G diagonal (``model.scan_operator``; the
drive is pinned for probe-cavity scans), so a master-equation sweep builds
its model and assembles the generator once, and every point is one diagonal
update of that system and one sparse LU (``ParametricSteadyState``).  Points
are solved one after another in grid order, so a given spec produces
bit-identical records on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateSteadyStateError,
    EdgeExtremumError,
    SteadyStateConvergenceError,
)
from .hilbert import expectation
from .liouville import DEFAULT_TOL, ParametricSteadyState, steady_state
from .model import (
    TWO_PI,
    PhysicsParams,
    build_model,
    cavity_operators,
    drive_amplitude,
    scan_operator,
    three_level_model,
    two_level_model,
)
from .semiclassical import atomic_response, transmission_semiclassical

ENGINE_MASTER_EQUATION = "me"
ENGINE_SEMICLASSICAL = "sc"
_ENGINES = (ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL)

VAR_TWO_PHOTON = "two_photon_delta"
VAR_PROBE_CAVITY = "probe_cavity_detuning"
_VARIABLES = (VAR_TWO_PHOTON, VAR_PROBE_CAVITY)

_SCHEMES = ("five", "three", "two")
_BUILDERS = {"five": build_model, "three": three_level_model, "two": two_level_model}

DEFAULT_SWEEP_START = -0.9
DEFAULT_SWEEP_STOP = 1.7
DEFAULT_SWEEP_POINTS = 261

# Largest |change| in T/T0 between the two largest truncations that
# ``convergence_study`` still calls converged.
TRUNCATION_THRESHOLD = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which variable, window (linear MHz), grid size, engines."""

    variable: str
    start: float
    stop: float
    n_points: int
    base_params: PhysicsParams
    engines: tuple[str, ...] = (ENGINE_MASTER_EQUATION,)
    level_scheme: str = "five"

    def __post_init__(self):
        object.__setattr__(self, "engines", tuple(self.engines))
        if self.variable not in _VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep window must be finite")
        if not self.start < self.stop:
            raise ConfigError("sweep window needs start < stop")
        if self.n_points < 2:
            raise ConfigError("a sweep needs at least 2 points")
        if not self.engines:
            raise ConfigError("at least one engine is required")
        for engine in self.engines:
            if engine not in _ENGINES:
                raise ConfigError(f"unknown engine {engine!r}")
        if len(set(self.engines)) != len(self.engines):
            raise ConfigError("duplicate engines in sweep spec")
        if ENGINE_SEMICLASSICAL in self.engines and self.variable != VAR_TWO_PHOTON:
            raise ConfigError("the semiclassical engine only sweeps the two-photon detuning")
        if self.level_scheme not in _SCHEMES:
            raise ConfigError(f"unknown level scheme {self.level_scheme!r}")


@dataclass(frozen=True)
class SpectrumRecord:
    """One sweep point from one engine.

    ``sweep_value`` is in linear MHz.  ``transmission_rel`` is the coherent
    relative transmission; ``photon_number`` is the total intracavity
    photon number (master equation) or its coherent-response equivalent
    (closed-form engine).  The absorption/dispersion parts (rad/us) are
    filled by the closed-form engine and the residual by the
    master-equation engine.
    """

    sweep_value: float
    transmission_rel: float
    photon_number: float
    absorption_part: float | None
    dispersion_part: float | None
    residual_norm: float | None
    engine: str
    converged: bool = True


def grid_points(spec: SweepSpec) -> np.ndarray:
    return np.linspace(spec.start, spec.stop, spec.n_points)


def _point_label(spec: SweepSpec, value: float) -> str:
    return f"sweep point {spec.variable} = {value} MHz"


def _sweep_system(spec: SweepSpec, eta: float, first: float) -> ParametricSteadyState:
    """The model at a zero sweep value and its generator, assembled once."""
    field = "delta" if spec.variable == VAR_TWO_PHOTON else "delta_p_cav"
    params = replace(spec.base_params, **{field: 0.0})
    try:
        model = _BUILDERS[spec.level_scheme](params, drive_eta=eta)
        return ParametricSteadyState(model, scan_operator(params, field, spec.level_scheme))
    except CapacityError as exc:
        raise CapacityError(f"{_point_label(spec, first)}: {exc}") from exc


def _readout(solution, operators) -> tuple[float, float]:
    """Photon number <a+a> (clipped at 0) and coherent |<a>|^2 of a steady state."""
    lower, number = operators
    return max(expectation(solution.rho, number).real, 0.0), abs(expectation(solution.rho, lower)) ** 2


def _solve_point(spec: SweepSpec, system: ParametricSteadyState, operators, value: float,
                 t0: float, tol: float) -> SpectrumRecord:
    try:
        solution = system.solve(float(value), tol)
        converged = True
    except SteadyStateConvergenceError as exc:
        if exc.solution is None:
            raise SteadyStateConvergenceError(f"{_point_label(spec, value)}: {exc}") from exc
        solution = exc.solution
        converged = False
    except DegenerateSteadyStateError as exc:
        raise DegenerateSteadyStateError(
            f"{_point_label(spec, value)}: {exc}", condition_estimate=exc.condition_estimate
        ) from exc
    photons, coherent = _readout(solution, operators)
    return SpectrumRecord(
        sweep_value=float(value),
        transmission_rel=coherent / t0,
        photon_number=photons,
        absorption_part=None,
        dispersion_part=None,
        residual_norm=solution.residual_norm,
        engine=ENGINE_MASTER_EQUATION,
        converged=converged,
    )


def _semiclassical_point(spec: SweepSpec, value: float, t0: float) -> SpectrumRecord:
    params = spec.base_params
    # The differential light shift sits on g1 in the full model, so the
    # formula sees the shifted two-photon detuning.
    delta_eff = TWO_PI * (value + params.light_shift)
    response = atomic_response(params, delta_eff)
    trans = transmission_semiclassical(params, delta_eff)
    return SpectrumRecord(
        sweep_value=float(value),
        transmission_rel=trans,
        photon_number=trans * t0,
        absorption_part=response.absorption_part,
        dispersion_part=response.dispersion_part,
        residual_norm=None,
        engine=ENGINE_SEMICLASSICAL,
        converged=True,
    )


def run_sweep(spec: SweepSpec, *, tol: float = DEFAULT_TOL) -> list[SpectrumRecord]:
    """Solve every grid point with every requested engine.

    Records are ordered by sweep value, then engine tag.  Master-equation
    points that miss the residual tolerance are recorded with
    ``converged=False`` instead of aborting the sweep; capacity, degeneracy
    and invalid-state problems abort with the offending point identified.
    """
    t0 = spec.base_params.n_p
    if t0 < 1e-15:
        raise ConfigError("probe drive is zero; relative transmission is undefined")
    # Drive amplitude and normalization are pinned to the base parameters so
    # that probe-cavity scans trace the resonance line at fixed input power.
    eta = drive_amplitude(spec.base_params)

    grid = grid_points(spec)
    if ENGINE_MASTER_EQUATION in spec.engines:
        system = _sweep_system(spec, eta, grid[0])
        operators = cavity_operators(system.model.space)

    records: list[SpectrumRecord] = []
    for value in grid:
        for engine in sorted(spec.engines):
            if engine == ENGINE_MASTER_EQUATION:
                records.append(_solve_point(spec, system, operators, value, t0, tol))
            else:
                records.append(_semiclassical_point(spec, value, t0))
    return records


class ExtremaResult(NamedTuple):
    delta_max: float
    t_max: float
    delta_min: float
    t_min: float


def _refine(x: np.ndarray, y: np.ndarray, idx: int) -> tuple[float, float]:
    """Vertex of the parabola through three neighbouring grid points."""
    denom = y[idx - 1] - 2.0 * y[idx] + y[idx + 1]
    if denom == 0.0:
        return float(x[idx]), float(y[idx])
    step = x[idx + 1] - x[idx]
    shift = 0.5 * (y[idx - 1] - y[idx + 1]) / denom
    return float(x[idx] + shift * step), float(y[idx] - 0.125 * (y[idx - 1] - y[idx + 1]) ** 2 / denom)


def find_extrema(records: list[SpectrumRecord], *, allow_edge: bool = False) -> ExtremaResult:
    """Locate the dominant transmission maximum and minimum of one engine.

    Grid extrema are refined parabolically; an extremum on the window edge
    raises EdgeExtremumError unless ``allow_edge`` accepts the raw grid
    point (a plain resonance line has no interior minimum, for instance).
    """
    if len(records) < 5:
        raise ValueError("extrema search needs at least 5 points")
    engines = {r.engine for r in records}
    if len(engines) != 1:
        raise ValueError("extrema search mixes engines; filter the records first")
    ordered = sorted(records, key=lambda r: r.sweep_value)
    x = np.array([r.sweep_value for r in ordered])
    y = np.array([r.transmission_rel for r in ordered])

    def locate(idx: int) -> tuple[float, float]:
        if idx in (0, len(x) - 1):
            if allow_edge:
                return float(x[idx]), float(y[idx])
            raise EdgeExtremumError(
                f"extremum at sweep value {x[idx]} MHz lies on the window edge"
            )
        return _refine(x, y, idx)

    delta_max, t_max = locate(int(np.argmax(y)))
    delta_min, t_min = locate(int(np.argmin(y)))
    return ExtremaResult(delta_max, t_max, delta_min, t_min)


class TruncationRow(NamedTuple):
    n_max: int
    delta_mhz: float
    transmission_rel: float
    photon_number: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Transmission vs Fock truncation at a handful of two-photon detunings.

    ``last_changes`` maps each detuning to the change in T/T0 between the
    two largest truncations; ``converged`` is false when any of them exceeds
    ``TRUNCATION_THRESHOLD`` in magnitude.
    """

    n_max_list: tuple[int, ...]
    deltas_mhz: tuple[float, ...]
    rows: tuple[TruncationRow, ...]
    last_changes: dict[float, float]
    converged: bool


def convergence_study(params: PhysicsParams, n_max_list: list[int]) -> ConvergenceStudy:
    """Solve the full model at each truncation and tabulate T/T0 per detuning.

    The detunings are 0, the absorption peak omega_con^2/(4 delta_p) (when
    delta_p is nonzero) and 1.5 MHz, each once and in that order.  Flags
    non-convergence when the change between the two largest truncations
    exceeds ``TRUNCATION_THRESHOLD`` at any detuning.  With a zero probe
    drive the raw photon number (identically zero) is tabulated instead of
    the undefined transmission ratio.
    """
    n_max_list = [int(n) for n in n_max_list]
    if len(n_max_list) < 2:
        raise ConfigError("a truncation study needs at least two n_max values")
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise ConfigError("n_max values must be strictly ascending")
    abs_peak = params.omega_con**2 / (4.0 * params.delta_p) if params.delta_p else None
    # dict.fromkeys drops a repeat (omega_con = 0 puts the peak at 0) and keeps the order.
    deltas_mhz = list(dict.fromkeys([0.0, 1.5] if abs_peak is None else [0.0, abs_peak, 1.5]))

    rows = []
    for n_max in n_max_list:
        for delta in deltas_mhz:
            model = build_model(replace(params, n_max=n_max, delta=delta))
            try:
                solution = steady_state(model)
            except SteadyStateConvergenceError as exc:
                raise SteadyStateConvergenceError(
                    f"n_max = {n_max}, delta = {delta} MHz: {exc}", solution=exc.solution
                ) from exc
            photons, coherent = _readout(solution, cavity_operators(model.space))
            trans = coherent / params.n_p if params.n_p > 0 else photons
            rows.append(TruncationRow(n_max, delta, trans, photons))

    transmission = {(row.n_max, row.delta_mhz): row.transmission_rel for row in rows}
    lo, hi = n_max_list[-2:]
    last_changes = {d: transmission[hi, d] - transmission[lo, d] for d in deltas_mhz}
    return ConvergenceStudy(
        n_max_list=tuple(n_max_list),
        deltas_mhz=tuple(deltas_mhz),
        rows=tuple(rows),
        last_changes=last_changes,
        converged=all(abs(c) <= TRUNCATION_THRESHOLD for c in last_changes.values()),
    )
