"""Run configuration: model and optimizer hyperparameters plus the sweep grid."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace


class ConfigError(ValueError):
    """Raised for structurally invalid configurations."""


# Default hyperparameter sweep for the grid-iteration helper.
DEFAULT_GRID = {
    "kernels": [2, 4, 8, 16],
    "conv_channels": [8, 16, 32, 64],
    "time_dim": [16, 32, 64],
    "hidden": [32, 64, 128, 256],
    "blocks": [1, 2, 3, 4],
    "learning_rate": [1e-3, 1e-2],
}


@dataclass
class TrainConfig:
    """Everything needed to build and train one model."""

    kernels: int = 8           # Gaussian kernels in the time pooling stage
    conv_channels: int = 16    # channel width of the smoothing convolution
    time_dim: int = 16         # width of the continuous time encoding
    hidden: int = 32           # hidden state width (must be even)
    heads: int = 4             # attention heads (must divide hidden)
    rff_dim: int = 64          # random feature dimension (must be even)
    blocks: int = 1            # stacked attention blocks
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 50
    seed: int = 0
    normalize_time: bool = True          # min-max normalize grid times for pooling
    per_variate_time_norm: bool = False  # use each variate's own observed extremes
    use_preconv: bool = True             # convolutional smoothing stage
    use_pool_gate: bool = True           # sigmoid gate on kernel summaries
    softmax_attention: bool = False      # exact softmax attention instead of linear
    grid: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_GRID.items()})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


def validate(cfg: TrainConfig) -> list[str]:
    """Check structural invariants; returns non-fatal warnings.

    Hard violations (shapes that cannot be built) raise ConfigError. Values
    outside the standard sweep grid only warn, since toy runs and gradient
    checks legitimately use tiny dimensions.
    """
    if cfg.kernels < 2:
        raise ConfigError("kernels must be >= 2")
    if cfg.conv_channels < 1:
        raise ConfigError("conv_channels must be >= 1")
    if cfg.time_dim < 3:
        raise ConfigError("time_dim must be >= 3")
    if cfg.hidden < 2 or cfg.hidden % 2 != 0:
        raise ConfigError(f"hidden must be even and >= 2, got {cfg.hidden}")
    if cfg.heads < 1 or cfg.hidden % cfg.heads != 0:
        raise ConfigError(f"heads must divide hidden ({cfg.heads} does not divide {cfg.hidden})")
    if cfg.rff_dim < 2 or cfg.rff_dim % 2 != 0:
        raise ConfigError(f"rff_dim must be even and >= 2, got {cfg.rff_dim}")
    if cfg.blocks < 1:
        raise ConfigError("blocks must be >= 1")
    if cfg.learning_rate <= 0:
        raise ConfigError("learning_rate must be positive")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.max_epochs < 1:
        raise ConfigError("max_epochs must be >= 1")
    if cfg.patience < 1:
        raise ConfigError("patience must be >= 1")

    warnings = []
    for key, allowed in DEFAULT_GRID.items():
        value = getattr(cfg, key)
        if value not in allowed:
            warnings.append(f"{key}={value} is outside the standard sweep grid {allowed}")
    return warnings


def iter_grid(cfg: TrainConfig):
    """Yield one config per point of cfg.grid (other fields unchanged)."""
    keys = list(cfg.grid)
    for combo in itertools.product(*(cfg.grid[k] for k in keys)):
        yield replace(cfg, **dict(zip(keys, combo)))
