"""The generic R* heuristics and the node and metric types they work on."""

from .heuristics import (
    Metrics,
    SplitResult,
    choose_child,
    choose_split,
    reinsert_candidates,
)
from .metrics import KineticMetrics, RectMetrics
from .node import Node

__all__ = [
    "KineticMetrics",
    "Metrics",
    "Node",
    "RectMetrics",
    "SplitResult",
    "choose_child",
    "choose_split",
    "reinsert_candidates",
]
