"""Predictive-coding networks under biological constraints.

Gradient-based predictive coding with three optional constraints layered on
top of the classic formulation: separate feedback weights (fixed random or
trained with the Kolen-Pollack decay rule) instead of weight transposes,
non-negative activity neurons, and non-negative error-neuron encodings
(threshold-shifted subtraction or a square-root ratio). A conventional
backpropagation MLP is included as the comparison baseline.
"""

from .baseline import MLP
from .config import TrainConfig
from .dataio import BatchPlan, DatasetSplit, load_split, one_hot, synthetic_split
from .encodings import Division, Subtractive, SubtractiveThreshold
from .linalg import ActivationKind
from .network import (
    KolenPollack,
    NetworkState,
    PCNetwork,
    RandomFixed,
    Transpose,
    init_network,
)
from .optim import AdamState, adam_step
from .training import run_gradcheck, train

__all__ = [
    "ActivationKind",
    "AdamState",
    "BatchPlan",
    "DatasetSplit",
    "Division",
    "KolenPollack",
    "MLP",
    "NetworkState",
    "PCNetwork",
    "RandomFixed",
    "Subtractive",
    "SubtractiveThreshold",
    "TrainConfig",
    "Transpose",
    "adam_step",
    "init_network",
    "load_split",
    "one_hot",
    "run_gradcheck",
    "synthetic_split",
    "train",
]

__version__ = "0.1.0"
