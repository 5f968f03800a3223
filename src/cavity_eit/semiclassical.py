"""Closed-form three-level response and input-output cavity transmission.

The atom enters the cavity field equation through one complex rate

    P(delta) = g^2 / D(delta),
    D(delta) = gamma + i delta_p + (omega_con^2/4) / (gamma_gg + i delta)

(all angular, rad/us), where gamma_gg is the g1-g2 coherence decay rate --
gamma_deph/2 for the dephasing collapse used by the master-equation models.
Re P adds to the cavity loss, Im P to the cavity detuning, each N times
for N = ``params.n_atoms`` atoms.  The linear susceptibility is
proportional to i P(delta) with a positive real scale left open -- only
peak positions, widths and zeros are physically fixed here, so those are
what the package asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, PhysicsParams, ground_coherence_decay

_PEAK_GRID_POINTS = 20001


@dataclass(frozen=True)
class AtomicResponse:
    """Complex atomic rate P at one two-photon detuning (angular units)."""

    delta: float
    value: complex

    @property
    def absorption_part(self) -> float:
        """Re P: adds to the cavity field decay."""
        return self.value.real

    @property
    def dispersion_part(self) -> float:
        """Im P: adds to the probe-cavity detuning."""
        return self.value.imag


def atomic_response(params: PhysicsParams, delta: float) -> AtomicResponse:
    """P(delta) for two-photon detuning ``delta`` in rad/us.

    Pole-free for gamma_deph > 0; at gamma_deph = 0 and delta = 0 the exact
    transparency limit P = 0 is returned (for a nonzero control field).
    """
    if params.gamma <= 0.0:
        raise ValueError("gamma must be positive for the atomic response")
    g = TWO_PI * params.g
    gamma = TWO_PI * params.gamma
    delta_p = TWO_PI * params.delta_p
    omega_con = TWO_PI * params.omega_con
    ground = ground_coherence_decay(params) + 1j * delta
    if omega_con != 0.0 and ground == 0.0:
        return AtomicResponse(delta=delta, value=0.0 + 0.0j)
    term = 0.0 if omega_con == 0.0 else (omega_con**2 / 4.0) / ground
    return AtomicResponse(delta=delta, value=g**2 / (gamma + 1j * delta_p + term))


def transmission_semiclassical(params: PhysicsParams, delta: float) -> float:
    """Relative transmission T/T0 of ``params.n_atoms`` atoms from input-output theory.

    ``delta`` in rad/us.  Normalized to the empty cavity at the same
    probe-cavity detuning, so n_atoms = 0 gives exactly 1.
    """
    kappa = TWO_PI * params.kappa
    dpc = TWO_PI * params.delta_p_cav
    response = atomic_response(params, delta).value
    denom = kappa + 1j * dpc + params.n_atoms * response
    return float(abs(kappa / denom) ** 2 * (kappa**2 + dpc**2) / kappa**2)


def _control_detuning(params: PhysicsParams) -> float:
    """Angular control detuning for the large-detuning formulas (~ delta_p)."""
    if params.delta_p == 0.0:
        raise ValueError("the closed forms need a nonzero (large) control detuning")
    return TWO_PI * params.delta_p


def delta_abs(params: PhysicsParams) -> float:
    """Absorption-peak position omega_con^2 / (4 delta_con), rad/us."""
    return (TWO_PI * params.omega_con) ** 2 / (4.0 * _control_detuning(params))


def linewidth_abs(params: PhysicsParams) -> float:
    """Absorption-peak FWHM gamma omega_con^2 / (2 delta_con^2), rad/us."""
    det = _control_detuning(params)
    return TWO_PI * params.gamma * (TWO_PI * params.omega_con) ** 2 / (2.0 * det**2)


def epsilon_mixing(params: PhysicsParams) -> float:
    """Excited-state amplitude of the mostly-ground dressed state,
    omega_con / (2 delta_con)."""
    return TWO_PI * params.omega_con / (2.0 * _control_detuning(params))


def susceptibility(params: PhysicsParams, delta: float) -> complex:
    """Linear susceptibility chi = i P, i.e. up to the positive real scale left open."""
    return 1j * atomic_response(params, delta).value


def refractive_index(chi: complex) -> complex:
    """Principal square root of 1 + chi."""
    value = 1.0 + complex(chi)
    if value.real < 0.0 and value.imag == 0.0:
        raise ValueError("1 + chi on the negative real axis: branch cut")
    return complex(np.sqrt(value))


def two_level_transmission(params: PhysicsParams) -> float:
    """No-control dispersive limit |kappa/(kappa + i dpc + N g^2/(gamma + i delta_p))|^2,
    N = ``params.n_atoms``, normalized like :func:`transmission_semiclassical`."""
    kappa = TWO_PI * params.kappa
    dpc = TWO_PI * params.delta_p_cav
    g = TWO_PI * params.g
    pole = g**2 / (TWO_PI * params.gamma + 1j * TWO_PI * params.delta_p)
    denom = kappa + 1j * dpc + params.n_atoms * pole
    return float(abs(kappa / denom) ** 2 * (kappa**2 + dpc**2) / kappa**2)


def absorption_peak_numeric(params: PhysicsParams) -> tuple[float, float]:
    """Grid-based (position, FWHM) of the Re P peak, both in rad/us.

    Locates the maximum on a fine grid spanning eight estimated widths on
    either side of the closed-form position, and brackets the half-maximum
    crossings by linear interpolation, so the result is independent of the
    closed forms beyond the choice of window.
    """
    center = delta_abs(params)
    width = max(linewidth_abs(params), abs(center) * 0.5)
    grid = np.linspace(center - 8.0 * width, center + 8.0 * width, _PEAK_GRID_POINTS)
    values = np.array([atomic_response(params, x).value.real for x in grid])
    peak = int(np.argmax(values))
    if peak in (0, len(grid) - 1):
        raise ValueError("absorption peak not bracketed by the search window")
    half = values[peak] / 2.0

    def crossing(lo: int, hi: int) -> float:
        x0, x1 = grid[lo], grid[hi]
        y0, y1 = values[lo], values[hi]
        return x0 + (half - y0) * (x1 - x0) / (y1 - y0)

    left = peak
    while left > 0 and values[left] > half:
        left -= 1
    right = peak
    while right < len(grid) - 1 and values[right] > half:
        right += 1
    if values[left] > half or values[right] > half:
        raise ValueError("half-maximum crossings outside the search window")
    fwhm = crossing(right - 1, right) - crossing(left + 1, left)
    return float(grid[peak]), float(fwhm)
