"""ergodyn: work-driven quantum time evolution on truncated Fock spaces."""

from .closed_forms import (
    GravityScenario,
    MoonParams,
    balanced_superposition_number,
    balanced_superposition_probabilities,
    detuning_response,
    gravitational_probabilities,
    moon_degenerate_probabilities,
    moon_perturbative_probabilities,
    noon_probabilities,
    oscillation_frequency,
    oscillation_frequency_from_coherence,
    product_recurrence_possible,
    separable_pair_probabilities,
    two_level_probabilities,
    two_level_survival,
)
from .dynamics import (
    EffectiveDynamics,
    TimeSeries,
    effective_dynamics,
    effective_hamiltonian,
    evolve_probabilities,
    expanded_generator,
    propagator,
    rk4_expectation_series,
    survival_probability,
)
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    EngineDisagreementError,
    ErgodynError,
    GridError,
    RefinementError,
)
from .fock import (
    DensityOperator,
    Ket,
    ModeSystem,
    flat_index,
    fock_ket,
    free_energies,
    free_hamiltonian,
    occupation_counts,
    occupations_of,
    superposition,
    vacuum_ket,
)
from .measures import BipartitionSpec, l1_coherence, negativity
from .passive import (
    GroundDecomposition,
    build_passive_unitary,
    decompose_against_ground,
    passive_state,
)
from .scenarios import ScenarioConfig, load_config, run_scenario, sweep

__version__ = "0.1.0"
