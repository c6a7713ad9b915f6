"""dynnet: round-based knowledge propagation on adversarial dynamic
networks, with exact worst-case search, worst-case schedules, and
certificate verification."""

from .dissemination import (
    Objective,
    ObjectiveNotReached,
    RoundSequence,
    RunResult,
    broadcast_achieved,
    cover_achieved,
    k_broadcast_achieved,
    run,
    sampled_run,
)
from .families import Model, ModelSpec, random_graph
from .graphs import Graph, ProductTrace, in_set, make_graph, out_set, product

__all__ = [
    "Graph",
    "Model",
    "ModelSpec",
    "Objective",
    "ObjectiveNotReached",
    "ProductTrace",
    "RoundSequence",
    "RunResult",
    "broadcast_achieved",
    "cover_achieved",
    "in_set",
    "k_broadcast_achieved",
    "make_graph",
    "out_set",
    "product",
    "random_graph",
    "run",
    "sampled_run",
]

__version__ = "0.1.0"
