"""Equilibrium matching on 2D toy data.

Train a time-invariant gradient field over an implicit energy landscape by
matching scaled noise-to-data directions, then sample by descending the
learned field. Includes explicit-energy variants, flow-matching baselines
(the same objective under the constant schedule), gradient-descent sampling
with optional Nesterov look-ahead and per-sample stopping, and the
measurement kit for checking the framework's claims at desk scale.
"""

from .config import DatasetSpec, OptimizerSettings, RunConfig, TrainSettings
from .data import ToyDistribution, default_mixture, fixed_memorization_set
from .model import GradientFieldModel, ModelConfig, init_model
from .objective import TrainBatch, corrupt, gradient_target
from .optimizer import AdamW
from .sampler import ComposedField, ModelField, SamplerConfig, Trajectory, sample
from .schedule import Schedule
from .training import TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ComposedField", "DatasetSpec", "GradientFieldModel", "ModelConfig",
    "ModelField", "OptimizerSettings", "RunConfig", "SamplerConfig", "Schedule",
    "ToyDistribution", "TrainBatch", "TrainResult", "TrainSettings",
    "Trajectory", "corrupt", "default_mixture",
    "fixed_memorization_set", "gradient_target", "init_model", "sample",
    "train",
]
