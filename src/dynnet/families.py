"""The three adversary graph families: rooted trees, k-forests, k-rooted
digraphs. Every graph here is a raw adversary round, without self-loops;
the loops of the model are implied by each composition step in
``graphs``, never added to a round."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterator, Optional, Sequence

from .graphs import MAX_NODES, Graph, full_mask, graph_from_parents, graph_from_rows, row_image

ENUM_GUARD = 8  # rooted-tree enumeration is n^(n-1); keep it desk-scale
EXTRA_EDGE_DENSITY = 0.1  # chance of each extra edge in a random k-rooted graph


class Model(Enum):
    TREES = "tree"
    K_FORESTS = "forest"
    K_ROOTED = "digraph"


@dataclass(frozen=True)
class ModelSpec:
    model: Model
    n: int
    k: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"n must be in [1, {MAX_NODES}], got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in [1, n], got k={self.k}, n={self.n}")
        if self.model is Model.TREES and self.k != 1:
            raise ValueError("tree model has no k parameter (k must be 1)")


def forest_parents(g: Graph) -> Optional[list[int]]:
    """Parent array of g, -1 at each root, if every node has in-degree <= 1
    and there are no cycles and no self-loops; None otherwise. A tree is the
    forest with one root.

    ``g.parents`` rules out two parents and self-loops; every chain is then
    climbed, since that array (and ``graph_from_parents``) keeps a cycle of
    two or more nodes."""
    parents = g.parents
    if parents is None:
        return None
    # climb parent chains, marking each node with the start of the climb
    # that reached it; a chain that meets its own mark has closed a cycle,
    # and one that meets an older mark has joined a chain ending at a root
    mark = [-1] * g.n
    for start in range(g.n):
        v = start
        while v != -1 and mark[v] == -1:
            mark[v] = start
            v = parents[v]
        if v != -1 and mark[v] == start:
            return None  # cycle
    return list(parents)


def reach_mask(g: Graph, x: int) -> int:
    """Bitmask of nodes reachable from x (including x), self-loops ignored."""
    seen = frontier = 1 << x
    rows = g.out_rows
    while frontier:
        frontier = row_image(rows, frontier) & ~seen
        seen |= frontier
    return seen


def _roots(g: Graph) -> Iterator[int]:
    """Nodes that reach every node, ascending, searched lazily. A node that
    a non-root reaches cannot be a root (it reaches no more than the
    non-root does), so it is ruled out without a search of its own."""
    fm = full_mask(g.n)
    ruled_out = 0
    for x in range(g.n):
        if ruled_out >> x & 1:
            continue
        reach = reach_mask(g, x)
        if reach == fm:
            yield x
        else:
            ruled_out |= reach


def roots_reaching_all(g: Graph) -> set[int]:
    """Nodes whose forward-reachable set is all of [n]."""
    return set(_roots(g))


def is_k_rooted(g: Graph, k: int) -> bool:
    """At least k nodes reach every node. Counts lazily and stops at k."""
    return len(list(itertools.islice(_roots(g), k))) == k


def validate_member(spec: ModelSpec, g: Graph) -> bool:
    """Whether g is a round of spec's family on spec.n nodes: a forest of
    exactly spec.k trees (a rooted tree when k = 1), or for k-rooted
    digraphs a graph in which at least spec.k nodes reach every node."""
    if g.n != spec.n:
        return False
    if spec.model is Model.K_ROOTED:
        return is_k_rooted(g, spec.k)
    parents = forest_parents(g)
    return parents is not None and parents.count(-1) == spec.k


def _prufer_parents(n: int, code: Sequence[int]) -> list[int]:
    """Parent array of the labeled tree on [n] with the length n-2 ``code``,
    rooted at label n-1: smallest-leaf elimination hangs each leaf below the
    label that removes it.

    Linear: ``ptr`` is the last leaf found by scanning upward, and every
    removed leaf is at or below it, so the scan resumes past it and a
    removed leaf needs no degree decrement. A label that its last letter
    turns into a leaf below ``ptr`` is the smallest leaf, removed next."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    parents = [-1] * n
    ptr = degree.index(1)
    leaf = ptr
    for v in code:
        parents[leaf] = v
        degree[v] -= 1
        if v < ptr and degree[v] == 1:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parents[leaf] = n - 1
    return parents


def _forest_parents_from_code(n: int, code: Sequence[int]) -> list[int]:
    """Parent array of the rooted forest on [n] cut from the tree on n+1
    labels with code ``code`` (length n-1): the tree is rooted at label 0,
    which is then dropped, so its neighbors become the forest's roots and
    label v+1 is node v. Label 0 has degree ``code.count(0) + 1``, the
    number of trees."""
    return [p - 1 for p in _rooted_tree_parents(n + 1, 0, code)[1:]]


def _forest_from_code(n: int, code: Sequence[int]) -> Graph:
    return graph_from_parents(n, _forest_parents_from_code(n, code))


def _rooted_tree_parents(n: int, root: int, code: Sequence[int]) -> list[int]:
    """Parent array of the tree on n >= 2 nodes with the n-label ``code``,
    rooted at ``root``: decoded rooted at label n-1, then re-rooted by
    reversing the path from ``root`` up to it."""
    parents = _prufer_parents(n, code)
    prev, v = -1, root
    while v != -1:
        parents[v], prev, v = prev, v, parents[v]
    return parents


def _codes_with_zeros(length: int, zeros: int, labels: int) -> Iterator[tuple[int, ...]]:
    """Every code of ``length`` letters from range(labels) that holds 0
    exactly ``zeros`` times, in lexicographic order: a letter at a time,
    0 while zeros remain, then each other letter while enough places remain
    for the zeros."""
    if zeros == 0:
        yield from itertools.product(range(1, labels), repeat=length)
        return
    for tail in _codes_with_zeros(length - 1, zeros - 1, labels):
        yield (0,) + tail
    if length > zeros:
        for v in range(1, labels):
            for tail in _codes_with_zeros(length - 1, zeros, labels):
                yield (v,) + tail


def enumerate_k_forests(n: int, k: int) -> Iterator[Graph]:
    """All forests of k rooted trees spanning [n], each exactly once, in
    the lexicographic order of their codes.

    These are the codes on n+1 labels that hold label 0 exactly k-1 times,
    C(n-1, k-1) * n^(n-k) of them, generated without visiting any other
    code. A rooted tree is the k = 1 case.
    """
    if not 1 <= n <= ENUM_GUARD:
        raise ValueError(f"enumeration guarded to n <= {ENUM_GUARD}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got k={k}, n={n}")
    for code in _codes_with_zeros(n - 1, k - 1, n + 1):
        yield _forest_from_code(n, code)


def _randbelow(rnd: random.Random, n: int, count: int) -> list[int]:
    """``count`` draws of ``rnd.randrange(n)``, in order, from the same
    random words: each is ``getrandbits(n.bit_length())``, drawn again
    while it is n or more, without the per-call overhead of ``randrange``."""
    bits = n.bit_length()
    getrandbits = rnd.getrandbits
    out: list[int] = []
    while len(out) < count:
        v = getrandbits(bits)
        if v < n:
            out.append(v)
    return out


def _random_k_forest(n: int, k: int, rnd: random.Random) -> Graph:
    """Uniform forest of k rooted trees: a uniform code on n+1 labels that
    holds label 0 exactly k-1 times. The other letters are drawn from
    range(n) and shifted up by one; the zeros go in at their positions in
    ascending order."""
    positions = sorted(rnd.sample(range(n - 1), k - 1))
    code = [v + 1 for v in _randbelow(rnd, n, n - k)]
    for i in positions:
        code.insert(i, 0)
    return _forest_from_code(n, code)


# ``random() < EXTRA_EDGE_DENSITY`` as a test on the integer m of
# ``random() == m / 2**53``: an integer is below x iff it is below ceil(x)
_DENSITY_NUM, _DENSITY_DEN = EXTRA_EDGE_DENSITY.as_integer_ratio()
EXTRA_EDGE_THRESHOLD = -(-_DENSITY_NUM * 2**53 // _DENSITY_DEN)


@cache
def _cell_bits(n: int):
    """Row u's n-1 extra-edge cells as bits: column j, or j + 1 once past
    the diagonal."""
    import numpy as np

    j = np.arange(n - 1, dtype=np.uint64)
    return np.uint64(1) << j + (j >= np.arange(n, dtype=np.uint64)[:, None])


def _random_k_rooted(n: int, k: int, rnd: random.Random) -> Graph:
    """k random spanning trees from k distinct roots, then each off-diagonal
    cell (u, v), row by row, set where ``rnd.random() < EXTRA_EDGE_DENSITY``.

    The extra-edge draws read the words those calls would take, in one
    bulk draw. ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``
    for the next two 32-bit words a and b, and ``getrandbits(64 * j)``
    returns the next 2j words least significant first, so each
    little-endian 64-bit lane holds one call's a (low half) and b (high
    half).

    numpy is imported here, not with the module, so that ``import
    dynnet`` stays free of it (about 14 MiB and 0.1 s to load)."""
    import numpy as np

    roots = rnd.sample(range(n), k)
    letters = _randbelow(rnd, n, k * (n - 2))
    cells = n * (n - 1)
    lanes = np.frombuffer(rnd.getrandbits(64 * cells).to_bytes(8 * cells, "little"), "<u8")
    hits = ((lanes & 0xFFFFFFFF) >> 5 << 26 | lanes >> 38) < EXTRA_EDGE_THRESHOLD
    rows = (hits.reshape(n, n - 1) * _cell_bits(n)).sum(axis=1).tolist()
    if n > 1:
        rows.append(0)  # row -1: where each root's missing parent points
        for i, r in enumerate(roots):
            for v, p in enumerate(_rooted_tree_parents(n, r, letters[i * (n - 2):(i + 1) * (n - 2)])):
                rows[p] |= 1 << v
        rows.pop()
    return graph_from_rows(n, rows)


def random_graph(spec: ModelSpec, seed: int) -> Graph:
    """Deterministic-per-seed random family member.

    Trees and k-forests are uniform over their families; a tree is drawn as
    a 1-forest. K-rooted graphs are built as k overlaid random spanning
    trees from k distinct roots plus extra edges at ``EXTRA_EDGE_DENSITY``;
    membership is guaranteed, the distribution is not uniform.

    The sequence of random words drawn from ``random.Random(seed)`` is part
    of the output: each graph is the one that the plain ``randrange`` and
    ``random()`` calls of this construction give, in their order, and
    drawing the same words in bulk keeps it so.
    """
    rnd = random.Random(seed)
    n, k = spec.n, spec.k
    if spec.model is Model.K_ROOTED:
        return _random_k_rooted(n, k, rnd)
    return _random_k_forest(n, k, rnd)


def forest_roots(g: Graph) -> list[int]:
    """Tree roots of a forest round: the nodes with an empty in-row."""
    return [v for v, row in enumerate(g.in_rows) if not row]
