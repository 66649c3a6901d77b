"""Multi-period exploratory mean-variance asset-liability management in a
two-regime switching market: simulation, filtering, closed-form policies,
policy improvement, actor-critic learning, and evaluation."""

from .closed_form import (
    GaussianPolicy,
    ProblemSpec,
    bellman_residual,
    f_terms,
    optimal_policy,
)
from .filtering import (
    MomentSchedule,
    MomentSet,
    filter_path,
    regime_schedule,
)
from .improvement import (
    InitialPolicyFamily,
    IteratedPolicy,
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
    martingale_loss,
    ml_gradients,
    train,
    update_lagrange,
)
from .evaluate import EvalReport, compare_table, out_of_sample, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
