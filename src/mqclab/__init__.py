"""mqclab: a desk-scale numerical laboratory for mixed quantum-classical
dynamics on a periodic 2D phase space.

Integrates the mean-field, Ehrenfest (density / conditional / Uhlmann) and
gradient-corrected beyond-Ehrenfest models, evaluates their entropy and
Casimir functionals, verifies the conservation laws numerically, and builds
maximum-entropy equilibrium states with stationarity certification.
"""

from .grids import (
    PhaseGrid,
    NotHermitianError,
    matrix_function,
    random_band_limited,
)
from .states import (
    HybridDensity,
    ConditionalSplit,
    UhlmannSplit,
    MeanFieldState,
    BerryData,
    UnphysicalStateError,
    quantum_marginal,
    purity,
    compose,
    conditional_to_uhlmann,
    uhlmann_factor,
    berry_data,
    lambda_of,
)
from .hamiltonians import (
    Hamiltonian,
    ScalarProfile,
    EigenvalueCrossingError,
    UnsupportedHamiltonianError,
    scalar_profile,
    uncoupled,
    nanowire,
    pure_dephasing,
    zeta_composed,
    tabulated,
    eigenfields,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)
from .dynamics import (
    StepperConfig,
    NumericalAbort,
    RunResult,
    mean_field_rhs,
    ehrenfest_rhs,
    conditional_rhs,
    uhlmann_rhs,
    beyond_ehrenfest_rhs,
    rk4_run,
    circle_loop,
    energy_of,
)
from .invariants import (
    SpectralFn,
    ScalarFn,
    GammaSpec,
    spectral_fn,
    scalar_fn,
    Functional,
    MassFunctional,
    EnergyFunctional,
    WeightedTraceFunctional,
    LinearProbeFunctional,
    CasimirC1,
    CasimirGeneral,
    bracket_operand,
    hybrid_bracket,
    bracket_consistency,
    casimir_c2,
    shannon_pure,
    entropy_meanfield,
    renyi_meanfield,
    entropy_uhlmann,
    renyi_mqc,
    casimir_general_value,
    loop_integral,
    lambda_transport_residual,
)
from .equilibria import (
    MaxEntProblem,
    EquilibriumResult,
    gibbs_conditional,
    gibbs_uhlmann,
    gibbs_meanfield_uncoupled,
    solve_mu,
    stationarity_residual,
    marina_residual,
    meanfield_maxent_residual,
    project_to_constraints,
)
from .snapshots import write_snapshot, read_snapshot, snapshot_lines

__version__ = "0.1.0"
