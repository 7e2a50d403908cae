"""Nonlocal random-walk dynamics on networks with variable-order generators.

The generator of the dynamics is a fractional power L^{alpha(t)} of a graph
Laplacian whose exponent changes over time, or the hop-distance coupling
operator weighted by alpha(t).  The package provides the graph and Laplacian
machinery, matrix functions, exponent schedules, adaptive explicit/implicit
integrators, the closed-form eigenbasis solution, and stability diagnostics,
plus a CLI for producing trajectory and spectrum files.
"""

from .dynamics import (
    DynamicsProblem,
    GeneralGenerator,
    IntegratorConfig,
    KPathGenerator,
    SpectralGenerator,
    Trajectory,
    exact_solution,
    random_initial_state,
    simulate,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FraclapError,
    GraphParseError,
    NumericError,
    QuadratureError,
    ScheduleError,
    StiffnessError,
)
from .graphs import (
    ConnectivityReport,
    DistanceMatrix,
    Graph,
    adjacency_and_degrees,
    all_pairs_distances,
    combinatorial_laplacian,
    connectivity,
    directed_laplacians,
    load_graph,
    normalized_laplacians,
    transformed_k_path_laplacian,
)
from .matfun import (
    EigenFactorization,
    TriangularFactorization,
    fractional_power_general,
    fractional_power_sym,
    sym_eig,
    triangular_factorization,
)
from .quadrature import adaptive_simpson
from .schedules import (
    AlphaSchedule,
    ConstantSchedule,
    ExpSaturatingSchedule,
    SawtoothSchedule,
    SineSchedule,
    SplineSchedule,
    TriangularSchedule,
    parse_schedule,
    render_schedule,
)
from .stability import (
    DecayEnvelope,
    antiderivative_commutator_residual,
    decay_envelope,
    floquet_exponents,
    steady_state,
)

__version__ = "0.1.0"
