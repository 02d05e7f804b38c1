"""Run configuration: model and optimizer hyperparameters."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields


class ConfigError(ValueError):
    """Raised for structurally invalid configurations."""


# Keys that older checkpoints and config files may still carry, each with
# the one value the model now always uses. A stored ``grid`` (a sweep grid
# nothing swept) is dropped whatever it holds.
RETIRED_KEYS = {
    "normalize_time": True,
    "per_variate_time_norm": False,
    "softmax_attention": False,
    "use_preconv": True,
    "use_pool_gate": False,
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to build and train one model. Immutable, so it can
    key a cache; ``dataclasses.replace`` derives a changed copy."""

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        data.pop("grid", None)
        for key, kept in RETIRED_KEYS.items():
            if key in data and data.pop(key) is not kept:
                raise ConfigError(f"{key} is no longer configurable; only {key}={kept} "
                                  "is supported")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


_KINDS = {int: "an integer", float: "a number"}


def validate(cfg: TrainConfig) -> None:
    """Raise ConfigError for values of the wrong type and shapes that cannot
    be built.

    Integer fields take ``int`` only (not ``bool``, and not a float such as
    32.0); ``learning_rate`` takes a finite positive ``int`` or ``float``.
    """
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(f"{f.name} must be {_KINDS[kind]}, got {value!r}")
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
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
        raise ConfigError(f"learning_rate must be finite and positive, got {cfg.learning_rate!r}")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.max_epochs < 1:
        raise ConfigError("max_epochs must be >= 1")
    if cfg.patience < 1:
        raise ConfigError("patience must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")


def physical_memory() -> float:
    """Bytes of physical memory on this machine; inf where it is not reported."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):   # not reported: no check
        return math.inf
