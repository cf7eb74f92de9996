"""Optimal and near-incentive-compatible contracts for succinct principal-agent settings."""

from .errors import (
    CapacityError,
    ContractForgeError,
    InfeasibleError,
    InputError,
    ResourceError,
)
from .model import (
    ADDITIVE,
    MULTIPLICATIVE,
    AgentChoice,
    Contract,
    ExplicitSetting,
    Linear,
    Mixed,
    ProductSetting,
    Separable,
    Setting,
    Sparse,
    agent_utility,
    best_response,
    expected_payment,
    expected_payments,
    expected_reward,
    expected_rewards,
    ic_slack,
    is_normalized,
    outcome_probabilities,
    outcome_probability,
    principal_payoff,
    product_to_explicit,
    verify_delta_ic,
)
from .exact import first_best, min_payment, opt_contract
from .delta_solver import min_payment_delta, opt_contract_delta
from .linear import approx_linear_delta, optimal_linear, optimal_separable
from .oracle import (
    SeparationInstance,
    min_ratio_bruteforce,
    min_ratio_fptas,
    min_ratio_fptas_stats,
    ratio_front,
)
from .transform import delta_to_ic, delta_to_ir
from .blackbox import (
    QueryOracle,
    blackbox_contract,
    negative_pair,
    required_samples,
)

__version__ = "0.1.0"
