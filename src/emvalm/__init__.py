"""Multi-period exploratory mean-variance asset-liability management in a
two-regime switching market: simulation, filtering, closed-form policies,
policy improvement, actor-critic learning, and evaluation."""

from .closed_form import (
    GaussianPolicy,
    ProblemSpec,
    bellman_residual,
    f_terms,
    optimal_policy,
    value_function,
)
from .filtering import (
    MomentSchedule,
    MomentSet,
    expected_regime_signal,
    filter_path,
    filtered_moments,
    regime_schedule,
    update_filter,
)
from .improvement import (
    InitialPolicyFamily,
    IteratedPolicy,
    gaussian_entropy_min,
    improve_once,
    iterate_to_convergence,
)
from .market import (
    Episode,
    MarketModel,
    RegimeChain,
    ReturnSpec,
    sample_skewed_t,
    stream,
)
from .rl import (
    ActorParams,
    CriticParams,
    Hyperparams,
    TrainState,
    critic_value,
    martingale_loss,
    ml_gradients,
    policy_entropy,
    policy_gradient,
    train,
    update_lagrange,
)
from .evaluate import EvalReport, compare_table, out_of_sample, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
