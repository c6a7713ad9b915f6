"""Adversary schedules that realize the worst-case lower bounds.

The rooted-tree schedule has three phases on nodes 0..n-1, with
q = floor((n-2)/2) and p = n-2-q:

  phase 1 (p rounds)  the path 0 -> 1 -> ... -> n-1. Afterwards the id of
                      node j is known exactly by the window [j, j+p].

  phase 2 (q rounds)  re-root at 0: node n-1-q ("the pocket") hangs below a
                      chain through the q freshest nodes n-1 -> ... -> n-q,
                      everything else is parked as a leaf under 0. The only
                      ids the pocket ever hears are tail ids whose spread is
                      already frozen near the pocket; the root's own id
                      creeps down the chain and arrives one round too late.

  phase 3 (repeat)    a path rooted at the pocket, ordered so that every id
                      the pocket knows still has one contiguous uncovered
                      stretch of length n-p-1.

No id completes before round p + q + (n-p-1) = floor(3n/2) - 2, and the
weakest candidate completes exactly then. The k-forest and k-rooted
schedules reuse this skeleton (isolated singletons, clique expansion).
Below n = 3k+3, where the k-rooted skeleton does not fit, the k-rooted
schedule is one directed cycle, which needs n-1 rounds for every k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import bounds_for
from .dissemination import RoundSequence
from .families import Model, ModelSpec
from .graphs import Graph, make_graph


@dataclass(frozen=True)
class ConstructionOutput:
    seq: RoundSequence
    claimed_time: int  # the family's lower bound, or n-1 for the cycle


def _tree_phase_graphs(n: int) -> list[tuple[Graph, int]]:
    """The phase graphs and their repeat counts for the rooted-tree schedule
    on n >= 3 nodes."""
    path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
    if n == 3:
        # Degenerate: the plain path already meets ceil((3n-1)/2) - 2 = n - 1.
        return [(path, n - 1)]
    q = (n - 2) // 2
    p = n - 2 - q
    pocket = n - 1 - q
    parking = [(0, j) for j in range(1, pocket)]
    chain = [(0, n - 1)] + [(i, i - 1) for i in range(n - 1, pocket, -1)]
    regroup = make_graph(n, parking + chain)
    order = [pocket] + list(range(pocket + 1, n)) + list(range(pocket))
    final = make_graph(n, list(zip(order, order[1:])))
    return [(path, p), (regroup, q), (final, n - p - 1)]


def _schedule(spec: ModelSpec, phases: list[tuple[Graph, int]]) -> RoundSequence:
    """Each phase graph repeated its count of times, then the last one
    repeated up to the family's guaranteed horizon."""
    rounds = [g for g, reps in phases for _ in range(reps)]
    rounds += [phases[-1][0]] * (bounds_for(spec).upper_int - len(rounds))
    return RoundSequence(spec, rounds)


def trees_lower_bound(n: int) -> ConstructionOutput:
    """Rooted-tree schedule with broadcast time >= ceil((3n-1)/2 - 2)."""
    if n < 3:
        raise ValueError("tree lower-bound schedule needs n >= 3")
    seq = _schedule(ModelSpec(Model.TREES, n), _tree_phase_graphs(n))
    return ConstructionOutput(seq, bounds_for(seq.spec).lower)


def cover_lower_bound(n: int, k: int) -> ConstructionOutput:
    """k-forest schedule with cover time >= ceil((3n-3k)/2 - 1): k-1 nodes
    stay isolated in every round, the tree schedule runs on the rest."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k + 2:
        raise ValueError("k-forest lower-bound schedule needs n >= k + 2")
    phases = [(make_graph(n, g.edges()), reps) for g, reps in _tree_phase_graphs(n - k + 1)]
    seq = _schedule(ModelSpec(Model.K_FORESTS, n, k), phases)
    return ConstructionOutput(seq, bounds_for(seq.spec).lower)


def kroot_lower_bound(n: int, k: int) -> ConstructionOutput:
    """k-rooted schedule with k-broadcast time >= ceil((3n-9k)/2 + 2).

    Runs the tree schedule on i = n - 3k + 3 virtual vertices, expanding the
    three schedule-critical vertices (both phase roots and the chain head)
    into k fully connected vertices each; group-to-group edges replace the
    virtual edges, so the virtual dynamics replay with k roots per round.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 3 * k + 3:
        raise ValueError("k-rooted lower-bound schedule needs n >= 3k + 3")
    i = n - 3 * k + 3
    q = (i - 2) // 2
    expanded = {0, i - 1 - q, i - 1}  # phase-1/2 root, phase-3 root, chain head
    group: list[list[int]] = []
    next_id = 0
    for v in range(i):
        size = k if v in expanded else 1
        group.append(list(range(next_id, next_id + size)))
        next_id += size
    assert next_id == n
    cliques = [(x, y) for v in expanded for x in group[v] for y in group[v] if x != y]

    def expand(g: Graph) -> Graph:
        return make_graph(
            n, cliques + [(x, y) for a, b in g.edges() for x in group[a] for y in group[b]]
        )

    phases = [(expand(g), reps) for g, reps in _tree_phase_graphs(i)]
    seq = _schedule(ModelSpec(Model.K_ROOTED, n, k), phases)
    return ConstructionOutput(seq, bounds_for(seq.spec).lower)


def cycle_schedule(n: int, k: int) -> ConstructionOutput:
    """The cycle i -> i+1 mod n in every round. Every node is a root, so it
    is k-rooted for every k <= n, and each id moves one node a round, so no
    node knows all ids before round n-1."""
    cycle = make_graph(n, [(i, (i + 1) % n) for i in range(n)] if n > 1 else [])
    seq = _schedule(ModelSpec(Model.K_ROOTED, n, k), [(cycle, n - 1)])
    return ConstructionOutput(seq, n - 1)


def build(model: Model, n: int, k: int = 1) -> ConstructionOutput:
    ModelSpec(model, n, k)  # rejects k outside [1, n] and k != 1 for trees
    if model is Model.TREES:
        return trees_lower_bound(n)
    if model is Model.K_FORESTS:
        return cover_lower_bound(n, k)
    if n < 3 * k + 3:
        return cycle_schedule(n, k)
    return kroot_lower_bound(n, k)
