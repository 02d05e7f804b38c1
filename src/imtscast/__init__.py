"""Forecasting irregular multivariate time series.

Shared-grid alignment of asynchronous observation streams, convolutional
smoothing with a continuous time encoding, learnable Gaussian-kernel
pooling of each variate to a fixed-width vector, spectral linear attention
across variates, and a query-conditioned output head, trained end-to-end
by squared error on a scratch reverse-mode tape.
"""

from .config import TrainConfig
from .data import AlignedTriplet, ImtsSample, RawSeries, align, normalize_times
from .datasets import PRESETS, SynthSpec, generate, read_dataset, write_dataset
from .model import ModelParams, expected_param_count, forward
from .tape import Tape, Tensor, grad_check
from .train import adam_step, evaluate, metrics, train

__version__ = "0.1.0"

__all__ = [
    "AlignedTriplet",
    "ImtsSample",
    "ModelParams",
    "PRESETS",
    "RawSeries",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "align",
    "evaluate",
    "expected_param_count",
    "forward",
    "generate",
    "grad_check",
    "metrics",
    "normalize_times",
    "read_dataset",
    "train",
    "write_dataset",
]
