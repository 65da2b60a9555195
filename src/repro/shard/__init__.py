"""Process-parallel sharding of the moving-object index.

A :class:`~repro.shard.router.ShardedForest` is the partitioned index
(:class:`~repro.core.forest.PartitionedMovingObjectForest`) with every
member in its own worker process, each owning a durable member tree;
operations travel as packed-struct batches (:mod:`repro.shard.wire`).
This is the MOIST-style scale-out layer (Jiang et al., arXiv:1208.4178)
over the paper's R^exp-trees.
"""

from .router import (
    ShardConfig,
    ShardCrashError,
    ShardedForest,
    ShardWorkerError,
)
from .wire import OpCodec

__all__ = [
    "OpCodec",
    "ShardConfig",
    "ShardCrashError",
    "ShardWorkerError",
    "ShardedForest",
]
