"""Parameter sweeps, spectrum records, extrema analysis, truncation studies.

Sweeps are quasi-static: one independent steady state per grid point (every
relaxation rate far exceeds any realistic scan speed).  Both sweep variables
enter the Hamiltonian as v*G with G diagonal (``model.scan_operator``; the
drive is pinned for probe-cavity scans), so a master-equation sweep builds
its model and assembles the generator once, and every point is one diagonal
update of that system (``ParametricSteadyState.solve_each``).  A one-atom
sweep factors it once, at the grid point nearest the window's midpoint, and
solves every other point as a low-rank update of that LU; a two-atom sweep
factors every point.  Each point's state and condition estimate are those of
its own one-point solve to rounding, and points are checked and recorded in
grid order, so a given spec produces bit-identical records on every run.
"""

from __future__ import annotations

import contextlib
import math
import numbers
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
from .liouville import ParametricSteadyState, steady_state
from .model import (
    TWO_PI,
    PhysicsParams,
    build_model,
    cavity_operators,
    drive_amplitude,
    empty_cavity_photons,
    model_space,
    scan_operator,
    three_level_model,
    two_level_model,
)
from .semiclassical import atomic_response, check_closed_form, transmission_semiclassical

ENGINE_MASTER_EQUATION = "me"
ENGINE_SEMICLASSICAL = "sc"
_ENGINES = (ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL)

VAR_TWO_PHOTON = "two_photon_delta"
VAR_PROBE_CAVITY = "probe_cavity_detuning"
_SWEPT_FIELDS = {VAR_TWO_PHOTON: "delta", VAR_PROBE_CAVITY: "delta_p_cav"}

_BUILDERS = {"five": build_model, "three": three_level_model, "two": two_level_model}

DEFAULT_SWEEP_START = -0.9
DEFAULT_SWEEP_STOP = 1.7
DEFAULT_SWEEP_POINTS = 261

# Largest |change| in T/T0 between the two largest truncations that
# ``convergence_study`` still calls converged.
TRUNCATION_THRESHOLD = 0.01

# Share of a grid's largest |value| by which its steps may differ and still
# count as uniform (``find_extrema``), and below which no sweep may step
# (``SweepSpec``).  A written value carries 12 significant digits, so it is
# off by at most 5e-12 of that largest value: a grid stepping at least this
# share is read back strictly rising and uniform to this share.
GRID_TOL = 1e-10


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which variable, window (linear MHz), grid size, engines.

    ``n_points`` is an integer (NumPy integers included) of at least 2; any
    other value is a ConfigError.
    """

    variable: str
    start: float
    stop: float
    n_points: int
    base_params: PhysicsParams
    engines: tuple[str, ...] = (ENGINE_MASTER_EQUATION,)
    level_scheme: str = "five"

    def __post_init__(self):
        object.__setattr__(self, "engines", tuple(self.engines))
        if self.variable not in _SWEPT_FIELDS:
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep window must be finite")
        if not self.start < self.stop:
            raise ConfigError("sweep window needs start < stop")
        self.check_n_points(self.n_points)
        step = (self.stop - self.start) / (self.n_points - 1)
        if step < GRID_TOL * max(abs(self.start), abs(self.stop)):
            raise ConfigError(
                f"sweep step {step:.3e} MHz is below {GRID_TOL:g} of the window's largest "
                "|value|, finer than the 12 significant digits a grid is written with"
            )
        if not self.engines:
            raise ConfigError("at least one engine is required")
        for engine in self.engines:
            if engine not in _ENGINES:
                raise ConfigError(f"unknown engine {engine!r}")
        if len(set(self.engines)) != len(self.engines):
            raise ConfigError("duplicate engines in sweep spec")
        if ENGINE_SEMICLASSICAL in self.engines and self.variable != VAR_TWO_PHOTON:
            raise ConfigError("the semiclassical engine only sweeps the two-photon detuning")
        if self.level_scheme not in _BUILDERS:
            raise ConfigError(f"unknown level scheme {self.level_scheme!r}")

    @staticmethod
    def check_n_points(n_points) -> None:
        """Raise ConfigError unless ``n_points`` is an integer of at least 2."""
        if not (isinstance(n_points, numbers.Integral) and n_points >= 2):
            raise ConfigError(f"n_points must be an integer of at least 2, got {n_points!r}")


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


def _point_label(spec: SweepSpec, value: float) -> str:
    return f"sweep point {spec.variable} = {value} MHz"


@contextlib.contextmanager
def _naming(label: str):
    """Prefix ``label`` to the message of a solver error raised inside, and re-raise it."""
    try:
        yield
    except (CapacityError, DegenerateSteadyStateError, SteadyStateConvergenceError) as exc:
        exc.args = (f"{label}: {exc}",)
        raise


def _sweep_system(spec: SweepSpec, eta: float, first: float) -> ParametricSteadyState:
    """The model at a zero sweep value and its generator, assembled once."""
    field = _SWEPT_FIELDS[spec.variable]
    params = replace(spec.base_params, **{field: 0.0})
    with _naming(_point_label(spec, first)):
        model = _BUILDERS[spec.level_scheme](params, drive_eta=eta)
        return ParametricSteadyState(model, scan_operator(params, field, spec.level_scheme))


def _readout(solution, operators) -> tuple[float, float]:
    """Photon number <a+a> (clipped at 0) and coherent |<a>|^2 of a steady state."""
    lower, number = operators
    return max(expectation(solution.rho, number).real, 0.0), abs(expectation(solution.rho, lower)) ** 2


def _master_equation_record(spec: SweepSpec, solutions, operators, value: float,
                            t0: float) -> SpectrumRecord:
    """The record of the next solution of ``ParametricSteadyState.solve_each``."""
    with _naming(_point_label(spec, value)):
        solution = next(solutions)
    photons, coherent = _readout(solution, operators)
    return SpectrumRecord(
        sweep_value=float(value),
        transmission_rel=coherent / t0,
        photon_number=photons,
        absorption_part=None,
        dispersion_part=None,
        residual_norm=solution.residual_norm,
        engine=ENGINE_MASTER_EQUATION,
        converged=solution.converged,
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


def run_sweep(spec: SweepSpec) -> list[SpectrumRecord]:
    """Solve every grid point with every requested engine.

    Records are ordered by sweep value, then engine tag.  Master-equation
    points that miss the fixed residual tolerance of
    :meth:`ParametricSteadyState.solve_each` are recorded with
    ``converged=False`` instead of aborting the sweep; capacity, degeneracy
    and invalid-state problems abort with the offending point identified.
    """
    t0 = empty_cavity_photons(spec.base_params)
    # Drive amplitude and normalization are pinned to the base parameters so
    # that probe-cavity scans trace the resonance line at fixed input power.
    eta = drive_amplitude(spec.base_params)

    grid = np.linspace(spec.start, spec.stop, spec.n_points)
    if ENGINE_SEMICLASSICAL in spec.engines:
        # before the master-equation system is built and solved
        check_closed_form(spec.base_params)
    if ENGINE_MASTER_EQUATION in spec.engines:
        system = _sweep_system(spec, eta, grid[0])
        operators = cavity_operators(system.model.space)
        solutions = system.solve_each(grid)

    records: list[SpectrumRecord] = []
    for value in grid:
        for engine in sorted(spec.engines):
            if engine == ENGINE_MASTER_EQUATION:
                records.append(_master_equation_record(spec, solutions, operators, value, t0))
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

    The sweep values must form a uniform grid (ValueError otherwise).  Grid
    extrema are refined parabolically; an extremum on the window edge
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
    # the refinement's parabola takes one grid step
    steps = np.diff(x)
    if not steps.min() > 0.0 or np.ptp(steps) > GRID_TOL * np.abs(x).max():
        raise ValueError("extrema search needs a uniform sweep grid")

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
    exceeds ``TRUNCATION_THRESHOLD`` at any detuning, and names the n_max
    and detuning of a solve that fails.  With a probe drive below the probe
    threshold of :func:`~cavity_eit.model.empty_cavity_photons` the raw photon
    number is tabulated instead of the undefined transmission ratio.
    """
    n_max_list = list(n_max_list)
    if len(n_max_list) < 2:
        raise ConfigError("a truncation study needs at least two n_max values")
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise ConfigError("n_max values must be strictly ascending")
    abs_peak = params.omega_con**2 / (4.0 * params.delta_p) if params.delta_p else None
    if abs_peak is not None and not math.isfinite(abs_peak):
        raise ConfigError(
            f"the absorption-peak detuning omega_con^2/(4 delta_p) = {abs_peak} MHz is not "
            f"finite (omega_con = {params.omega_con!r}, delta_p = {params.delta_p!r})"
        )
    # dict.fromkeys drops a repeat (omega_con = 0 puts the peak at 0) and keeps the order.
    deltas_mhz = list(dict.fromkeys([0.0, 1.5] if abs_peak is None else [0.0, abs_peak, 1.5]))
    try:
        t0 = empty_cavity_photons(params)
    except ConfigError:
        t0 = None

    # every truncation's count and capacity, from dimensions alone, before the
    # first solve; a capacity error is named as the first point it would stop
    for n_max in n_max_list:
        with _naming(f"n_max = {n_max}, delta = {deltas_mhz[0]} MHz"):
            model_space(replace(params, n_max=n_max))

    rows = []
    for n_max in n_max_list:
        for delta in deltas_mhz:
            with _naming(f"n_max = {n_max}, delta = {delta} MHz"):
                model = build_model(replace(params, n_max=n_max, delta=delta))
                solution = steady_state(model)
            photons, coherent = _readout(solution, cavity_operators(model.space))
            trans = photons if t0 is None else coherent / t0
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
