"""jamgame: equilibria and simulation of the timing-channel jamming game.

A transmitter under reactive jamming moves information into the *timing* of
its silences; the jammer trades disruption against energy.  This package
provides the closed-form best responses and Nash equilibrium of that game,
best-response dynamics with a contraction certificate, the Stackelberg
solution under perfect and uncertain knowledge of the jammer's cost, and a
cycle-level simulator cross-checked against the analytic equilibria.
"""

from .belief import (
    UniformPrior,
    efficiency,
    expected_utility_closed,
    g_of_xi,
    realized_utility,
    xi_opt,
)
from .best_response import (
    Thresholds,
    best_response_jammer,
    best_response_target,
    chi,
    psi,
    thresholds,
    x_hat,
)
from .errors import (
    ApproxUndefined,
    BracketError,
    ConfigError,
    DegenerateUtility,
    DomainError,
    InvalidParams,
    InvalidStrategy,
    JamGameError,
    SingularError,
)
from .lambertw import BRANCH_POINT, WBranch, lambert_w, lambert_w_prime
from .model import (
    GameParams,
    StrategyProfile,
    UtilityPair,
    capacity,
    capacity_xy,
    cycle_duration,
    utilities,
    utilities_xy,
)
from .nash import (
    BrdTrace,
    ConvergenceCert,
    EquilibriumColumns,
    EquilibriumResult,
    Regime,
    SPrimeBounds,
    brd,
    convergence_certificate,
    nash_closed_form,
    nash_sweep,
    s_prime_bounds,
)
from .sim import (
    SimConfig,
    SimTrace,
    run_sim,
    updates_to_equilibrium,
)
from .stackelberg import (
    ImprovementReport,
    improvement_report,
    improvement_sweep,
    leader_loss_bracket_width,
    leader_utility,
    stackelberg_approx,
    stackelberg_approx_sweep,
    stackelberg_exact,
    stackelberg_sweep,
)

__version__ = "0.1.0"
