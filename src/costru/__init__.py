"""costru: contextual stochastic combinatorial optimization policies.

Statistical models composed with combinatorial optimization layers,
trained by a primal-dual alternating scheme with Fenchel-Young losses,
plus an exact small-instance laboratory that numerically certifies the
underlying convergence and error bounds.
"""

from .core import (
    CheckRow,
    Dataset,
    InputError,
    LinearOracle,
    RngStream,
    Scenario,
    ScoreDirection,
    SolutionVector,
    make_rng,
)
from .regularizers import RegularizerKind
from .trainer import TrainConfig, WeightTrajectory, evaluate_policy, train_primal_dual

__version__ = "0.1.0"

__all__ = [
    "CheckRow",
    "Dataset",
    "InputError",
    "LinearOracle",
    "RegularizerKind",
    "RngStream",
    "Scenario",
    "ScoreDirection",
    "SolutionVector",
    "TrainConfig",
    "WeightTrajectory",
    "evaluate_policy",
    "make_rng",
    "train_primal_dual",
    "__version__",
]
