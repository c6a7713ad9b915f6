"""dynnet: round-based knowledge propagation on adversarial dynamic
networks, with exact worst-case search, worst-case schedules, and
certificate verification."""

from .dissemination import (
    Objective,
    ObjectiveNotReached,
    RoundSequence,
    RunResult,
    cover_achieved,
    run,
    sampled_run,
)
from .families import Model, ModelSpec, random_graph
from .graphs import Graph, ProductTrace, make_graph, product

__all__ = [
    "Graph",
    "Model",
    "ModelSpec",
    "Objective",
    "ObjectiveNotReached",
    "ProductTrace",
    "RoundSequence",
    "RunResult",
    "cover_achieved",
    "make_graph",
    "product",
    "random_graph",
    "run",
    "sampled_run",
]

__version__ = "0.1.0"
