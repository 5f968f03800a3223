"""Fixtures shared across test modules."""

from dataclasses import replace

import pytest

from cavity_eit import PhysicsParams, build_model, steady_state


@pytest.fixture(scope="session")
def n_two_solution():
    """Two atoms at delta = +1.5 MHz, the suite's one full N=2 steady state."""
    params = replace(PhysicsParams(), n_atoms=2, delta=1.5)
    return params, steady_state(build_model(params))
