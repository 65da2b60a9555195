"""The paper's contribution: the R^exp-tree and its configuration space."""

from .clock import SimulationClock
from .config import TreeConfig
from .forest import ForestConfig, PartitionedMovingObjectForest
from .horizon import HorizonTracker
from .index import MovingObjectIndex
from .partition import (
    DirectionPartitioner,
    Partitioner,
    SpeedPartitioner,
    make_partitioner,
)
from .presets import (
    bounding_config,
    flavor_config,
    forest_config,
    rexp_config,
    tpr_config,
)
from .scheduled import ScheduledDeletionIndex
from .tree import MovingObjectTree, TreeAudit

__all__ = [
    "DirectionPartitioner",
    "ForestConfig",
    "HorizonTracker",
    "MovingObjectIndex",
    "MovingObjectTree",
    "PartitionedMovingObjectForest",
    "Partitioner",
    "ScheduledDeletionIndex",
    "SimulationClock",
    "SpeedPartitioner",
    "TreeAudit",
    "TreeConfig",
    "bounding_config",
    "flavor_config",
    "forest_config",
    "make_partitioner",
    "rexp_config",
    "tpr_config",
]
