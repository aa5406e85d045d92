from .checkpoint import (
    BadMagicError,
    CheckpointError,
    DescriptorMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from .net import (
    ArchDescriptor,
    DenoiserParams,
    backward_from_cache,
    forward_with_cache,
    init_params,
    param_specs,
)
from .optim import AdamState, NonFiniteGradientError, adam_update

__all__ = [
    "ArchDescriptor",
    "DenoiserParams",
    "AdamState",
    "NonFiniteGradientError",
    "CheckpointError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedCheckpointError",
    "DescriptorMismatchError",
    "adam_update",
    "backward_from_cache",
    "forward_with_cache",
    "init_params",
    "load_checkpoint",
    "param_specs",
    "save_checkpoint",
]
