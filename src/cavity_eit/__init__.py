"""Steady-state cavity transmission spectra for one or two multilevel atoms.

The package splits into a small linear-algebra substrate (``hilbert``), the
Lindblad engine (``liouville``), the physical model (``model``), the
closed-form three-level response (``semiclassical``), sweep orchestration
(``sweep``) and a CSV/JSON command-line layer (``config``/``cli``).
"""

from .config import RunConfig
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateSteadyStateError,
    EdgeExtremumError,
    IntegrationInstabilityError,
    NearDegeneracyWarning,
    SteadyStateConvergenceError,
)
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    OperatorMatrix,
    annihilation_operator,
    basis_projector,
    expectation,
    identity,
    transition_operator,
)
from .liouville import (
    LindbladModel,
    SolverDiagnostics,
    SteadyStateSolution,
    SUPEROP_DIM_CAP,
    build_superoperator,
    evolve,
    liouvillian_apply,
    stable_timestep,
    steady_state,
    trace_distance,
)
from .model import (
    PhysicsParams,
    build_model,
    drive_amplitude,
    ground_coherence_decay,
    mean_cavity_amplitude,
    mean_photon_number,
    relative_transmission,
    three_level_model,
    two_level_model,
)
from .semiclassical import (
    AtomicResponse,
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
from .sweep import (
    ConvergenceStudy,
    ExtremaResult,
    SpectrumRecord,
    SweepSpec,
    convergence_study,
    find_extrema,
    run_sweep,
)

__version__ = "0.1.0"
