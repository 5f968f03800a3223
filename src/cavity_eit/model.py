"""Physical parameters and Lindblad-model construction for a driven lossy
cavity containing one or two multilevel atoms.

Every externally visible frequency is a linear frequency nu = omega/2pi in
MHz; matrices are assembled in angular units (rad/us).  Decay rates follow
the half-width convention: kappa and gamma are the field/dipole amplitude
decay rates, so photon number and excited-state population decay at 2*kappa
and 2*gamma, which is what the sqrt(2*rate) collapse operators encode.

Atom level structure (full scheme): two ground states g1, g2 and three
excited levels d, e, f with energies offset from e by omega_d < 0 and
omega_f > 0.  The cavity couples g2 to all three excited levels (strength
g * r_k); the control field couples g1 to d and e only (Rabi frequency
omega_con * c_k) -- the g1 <-> f transition is dipole-forbidden, as is decay
from f to g1.  The frame rotates at the probe frequency for the cavity and
g2-excited coherences and at the control frequency for g1, so the two-photon
detuning ``delta`` (plus the differential light shift on g1) appears only in
the g1 energy, exactly like a control-frequency scan at fixed probe.

Ground-state dephasing is the pure-dephasing Lindblad sqrt(gamma_deph)
|g1><g1| per atom, which damps the g1-g2 coherence at gamma_deph/2.  That
identification reproduces the observed spectral maximum-minimum separation
of roughly 250 kHz; scaling the collapse by sqrt(2) instead (coherence
decay gamma_deph) widens it to above 400 kHz.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    OperatorMatrix,
    annihilation_operator,
    basis_projector,
    expectation,
    transition_operator,
)
from .liouville import LindbladModel, SteadyStateSolution, check_capacity

TWO_PI = 2.0 * math.pi

BRANCHING_TOL = 1e-12


@dataclass(frozen=True)
class PhysicsParams:
    """All rates, detunings and drive strengths, as linear frequencies in MHz.

    Defaults are the working point of the simulated experiment: coupling
    g = 3.0, control Rabi frequency 2.8, dipole decay 2.6, cavity decay 0.4,
    ground-state dephasing 0.15, probe detuning +20 (blue), probe resonant
    with the cavity, 0.1 intracavity photons from the probe, and a 0.1 MHz
    differential light shift on g1.  Hyperfine offsets, coupling/control
    ratios and branching fractions are standard cesium D2 data, not fitted
    quantities; override them freely.  The counts ``n_max`` (Fock
    truncation, at least 1) and ``n_atoms`` (0, 1 or 2) are integers, NumPy
    integers included; any other value, ``2.0`` too, is a ConfigError.
    """

    g: float = 3.0
    omega_con: float = 2.8
    gamma: float = 2.6
    kappa: float = 0.4
    gamma_deph: float = 0.15
    delta_p: float = 20.0
    delta_p_cav: float = 0.0
    delta: float = 0.0
    n_p: float = 0.1
    light_shift: float = 0.1
    n_max: int = 2
    n_atoms: int = 1
    omega_d: float = -201.2
    omega_f: float = 251.0
    r_d: float = 1.0
    r_e: float = 1.0
    r_f: float = 1.0
    c_d: float = 1.0
    c_e: float = 1.0
    b_d_g1: float = 0.75
    b_d_g2: float = 0.25
    b_e_g1: float = 5.0 / 12.0
    b_e_g2: float = 7.0 / 12.0
    b_f_g1: float = 0.0
    b_f_g2: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("g", "omega_con", "gamma", "kappa", "gamma_deph", "n_p",
                     "r_d", "r_e", "r_f", "c_d", "c_e"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (isinstance(self.n_max, numbers.Integral) and self.n_max >= 1):
            raise ConfigError(f"n_max must be an integer of at least 1, got {self.n_max!r}")
        if not (isinstance(self.n_atoms, numbers.Integral) and self.n_atoms in (0, 1, 2)):
            raise ConfigError(f"n_atoms must be an integer 0, 1 or 2, got {self.n_atoms!r}")
        for upper, pair in (
            ("d", (self.b_d_g1, self.b_d_g2)),
            ("e", (self.b_e_g1, self.b_e_g2)),
            ("f", (self.b_f_g1, self.b_f_g2)),
        ):
            if min(pair) < 0:
                raise ConfigError(f"branching fractions from {upper} must be nonnegative")
            if abs(sum(pair) - 1.0) > BRANCHING_TOL:
                raise ConfigError(
                    f"branching fractions from {upper} must sum to 1, got {sum(pair)!r}"
                )
        if self.b_f_g1 != 0.0:
            raise ConfigError("decay f -> g1 is dipole-forbidden; b_f_g1 must be 0")


class _ExcitedLevel(NamedTuple):
    index: int
    offset: float  # linear MHz relative to e
    cavity_ratio: float
    control_ratio: float
    branch_g1: float
    branch_g2: float


def _level_scheme(params: PhysicsParams, scheme: str):
    """Per-atom level layout: (n_levels, g1 index or None, g2 index, excited)."""
    if scheme == "five":
        excited = (
            _ExcitedLevel(2, params.omega_d, params.r_d, params.c_d, params.b_d_g1, params.b_d_g2),
            _ExcitedLevel(3, 0.0, params.r_e, params.c_e, params.b_e_g1, params.b_e_g2),
            _ExcitedLevel(4, params.omega_f, params.r_f, 0.0, 0.0, params.b_f_g2),
        )
        return 5, 0, 1, excited
    if scheme not in ("three", "two"):
        raise ValueError(f"unknown level scheme {scheme!r}")
    if params.n_atoms != 1:
        raise ConfigError(f"the {scheme}-level restriction is defined for one atom")
    if scheme == "three":
        excited = (
            _ExcitedLevel(2, 0.0, params.r_e, params.c_e, params.b_e_g1, params.b_e_g2),
        )
        return 3, 0, 1, excited
    # Closed g2 <-> e cycle: the full dipole decay returns to g2.
    excited = (_ExcitedLevel(1, 0.0, params.r_e, 0.0, 0.0, 1.0),)
    return 2, None, 0, excited


def drive_amplitude(params: PhysicsParams) -> float:
    """Probe drive eta (rad/us) giving <a+a> = n_p in the empty cavity.

    eta = kappa sqrt(n_p) sqrt(1 + (delta_p_cav/kappa)^2), so the analytic
    empty-cavity photon number eta^2/(kappa^2 + delta_p_cav^2) equals n_p at
    the configured probe-cavity detuning.
    """
    if params.n_p == 0.0:
        return 0.0
    if params.kappa <= 0.0:
        raise ConfigError("kappa must be positive to set a probe drive")
    kappa = TWO_PI * params.kappa
    dpc = TWO_PI * params.delta_p_cav
    return kappa * math.sqrt(params.n_p) * math.sqrt(1.0 + (dpc / kappa) ** 2)


def model_space(params: PhysicsParams, scheme: str = "five") -> HilbertSpace:
    """The space of the ``scheme`` model: N atoms, then the cavity (Fock 0..n_max).

    From dimensions alone, so a caller can check a model's capacity
    (:func:`~cavity_eit.liouville.check_capacity`) before building it.
    """
    n_levels = _level_scheme(params, scheme)[0]
    space = HilbertSpace((n_levels,) * params.n_atoms + (params.n_max + 1,))
    check_capacity(space)
    return space


def _scan_operators(space: HilbertSpace, n_atoms: int, g1: int | None) -> dict[str, OperatorMatrix]:
    """The operator each scan variable, times -2pi, multiplies in H.

    ``delta`` (and the light shift beside it) sits on every atom's g1 level,
    ``delta_p_cav`` on the cavity photon number a+a.
    """
    number = cavity_operators(space)[1]
    g1_population = 0.0 * number
    if g1 is not None:
        for atom in range(n_atoms):
            g1_population = g1_population + basis_projector(space, atom, g1)
    return {"delta": g1_population, "delta_p_cav": number}


# an overflow from finite parameters is no warning: LindbladModel's finite
# check turns it into a ConfigError below
@np.errstate(over="ignore", invalid="ignore")
def _build(params: PhysicsParams, scheme: str, drive_eta: float | None) -> LindbladModel:
    _, g1, g2, excited = _level_scheme(params, scheme)
    n_atoms = params.n_atoms
    space = model_space(params, scheme)
    scan = _scan_operators(space, n_atoms, g1)
    lower = annihilation_operator(space, n_atoms)
    raise_op = lower.dagger()
    eta = drive_amplitude(params) if drive_eta is None else drive_eta

    ham = (-TWO_PI * params.delta_p_cav) * scan["delta_p_cav"] + eta * (lower + raise_op)
    ham = ham + (-TWO_PI * (params.delta + params.light_shift)) * scan["delta"]
    g_ang = TWO_PI * params.g
    con_ang = TWO_PI * params.omega_con
    for atom in range(n_atoms):
        for lev in excited:
            detuning = TWO_PI * (params.delta_p - lev.offset)
            ham = ham + (-detuning) * basis_projector(space, atom, lev.index)
            if g_ang * lev.cavity_ratio != 0.0:
                drop = transition_operator(space, atom, upper=lev.index, lower=g2)
                coupling = g_ang * lev.cavity_ratio
                ham = ham + coupling * (raise_op @ drop) + coupling * (lower @ drop.dagger())
            if g1 is not None and con_ang * lev.control_ratio != 0.0:
                drop = transition_operator(space, atom, upper=lev.index, lower=g1)
                half_rabi = 0.5 * con_ang * lev.control_ratio
                ham = ham + half_rabi * (drop + drop.dagger())

    gamma_ang = TWO_PI * params.gamma
    deph_ang = TWO_PI * params.gamma_deph
    kappa_ang = TWO_PI * params.kappa
    collapse = []
    for atom in range(n_atoms):
        for lev in excited:
            if g1 is not None and gamma_ang * lev.branch_g1 > 0.0:
                collapse.append(
                    math.sqrt(2.0 * gamma_ang * lev.branch_g1)
                    * transition_operator(space, atom, upper=lev.index, lower=g1)
                )
            if gamma_ang * lev.branch_g2 > 0.0:
                collapse.append(
                    math.sqrt(2.0 * gamma_ang * lev.branch_g2)
                    * transition_operator(space, atom, upper=lev.index, lower=g2)
                )
        if g1 is not None and deph_ang > 0.0:
            collapse.append(math.sqrt(deph_ang) * basis_projector(space, atom, g1))
    if kappa_ang > 0.0:
        collapse.append(math.sqrt(2.0 * kappa_ang) * lower)
    try:
        return LindbladModel(space=space, hamiltonian=ham, collapse_ops=tuple(collapse))
    except ValueError as exc:
        # parameters finite in MHz can overflow in rad/us
        raise ConfigError(f"parameters overflow the model: {exc}") from exc


def build_model(params: PhysicsParams, *, drive_eta: float | None = None) -> LindbladModel:
    """Full model: N five-level atoms plus the driven, damped cavity mode.

    With ``n_atoms=0`` this reduces to the empty driven cavity.  Pass
    ``drive_eta`` (rad/us) to pin the drive independently of the configured
    probe-cavity detuning, e.g. for cavity-resonance scans at fixed input
    power.
    """
    return _build(params, "five", drive_eta)


def three_level_model(params: PhysicsParams, *, drive_eta: float | None = None) -> LindbladModel:
    """Single-atom restriction to {g1, g2, e}: the d and f levels are dropped.

    Same construction as the full model with the d/f couplings removed; used
    for comparison against the closed-form three-level response.
    """
    return _build(params, "three", drive_eta)


def two_level_model(params: PhysicsParams, *, drive_eta: float | None = None) -> LindbladModel:
    """Single atom pinned in the g2 <-> e cycle: no control, no g1.

    All dipole decay returns to g2, keeping the full coherence decay rate
    gamma on the probed transition.  This is the dispersive no-control
    reference; a literal three-level steady state with the control off would
    instead pump the atom into the dark g1 state.
    """
    return _build(params, "two", drive_eta)


def scan_operator(params: PhysicsParams, field: str, scheme: str = "five") -> OperatorMatrix:
    """G (rad/us per MHz) with H(v) = H(0) + v*G when ``field`` is set to v.

    ``field`` is ``"delta"`` or ``"delta_p_cav"``; for the latter H is
    affine in v only with the drive pinned (``drive_eta``).  ``scheme`` is
    the level scheme of the builder: ``"five"``, ``"three"`` or ``"two"``.
    """
    g1 = _level_scheme(params, scheme)[1]
    scan = _scan_operators(model_space(params, scheme), params.n_atoms, g1)
    if field not in scan:
        raise ValueError(f"{field!r} is not a scan variable; expected one of {sorted(scan)}")
    return (-TWO_PI) * scan[field]


@functools.cache
def cavity_operators(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """The cavity lowering operator a and photon number a+a (cavity = last
    subsystem), built once per space: both are read-only, so callers share them."""
    lower = annihilation_operator(space, space.n_subsystems - 1)
    return lower, lower.dagger() @ lower


def mean_photon_number(rho: DensityMatrix) -> float:
    """Total intracavity photons <a+a> (cavity = last subsystem), clipped at
    0: a valid state may hold populations down to -POSITIVITY_TOL."""
    return max(expectation(rho, cavity_operators(rho.space)[1]).real, 0.0)


def mean_cavity_amplitude(rho: DensityMatrix) -> complex:
    """Coherent cavity amplitude <a> (cavity = last subsystem)."""
    return expectation(rho, cavity_operators(rho.space)[0])


def ground_coherence_decay(params: PhysicsParams) -> float:
    """g1-g2 coherence decay rate (rad/us) produced by the dephasing collapse.

    One place owns the convention: sqrt(gamma_deph)|g1><g1| damps the ground
    coherence at gamma_deph/2.
    """
    return TWO_PI * params.gamma_deph / 2.0


def empty_cavity_photons(params: PhysicsParams) -> float:
    """n_p, the normalization T0 of T/T0.  Below the probe threshold checked
    here the ratio is undefined, and the probe drive is a ConfigError."""
    if params.n_p < 1e-15:
        raise ConfigError("probe drive is zero; relative transmission is undefined")
    return params.n_p


def relative_transmission(solution: SteadyStateSolution, params: PhysicsParams) -> float:
    """T/T0: coherent cavity response |<a>|^2 over the empty-cavity value n_p.

    The drive built by :func:`build_model` puts exactly n_p photons in the
    empty cavity at the configured probe-cavity detuning, so n_p is the
    analytic normalization eta^2/(kappa^2 + delta_p_cav^2).

    |<a>|^2 is the response at the probe frequency, the quantity input-output
    theory propagates to the transmitted field; it is what the closed-form
    |kappa/(kappa + i dpc + N P)|^2 describes.  The full photon number <a+a>
    additionally contains light the atom scatters into the resonant mode
    (several percent here); that total is available separately as
    :func:`mean_photon_number` and is reported alongside the transmission in
    sweep records.
    """
    t0 = empty_cavity_photons(params)
    return abs(mean_cavity_amplitude(solution.rho)) ** 2 / t0
