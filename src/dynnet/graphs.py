"""Directed graphs on up to 64 labeled nodes, kept as bitset adjacency rows.

A node set is a single machine word (Python int used as a 64-bit mask), so
relational composition of two graphs is a word-parallel OR loop. A running
product is kept as in-rows and composed with one round by
:func:`compose_in_rows` (a backward sweep of out-rows by
:func:`compose_out_rows`). Each step decides from the round alone: a round
in which every node has at most one in-neighbor and no self-loop, which is
what its ``parents`` array records, is one gather (or scatter) over that
array; any other round is one OR per edge. The transpose packs the
rows into one int and swaps its off-diagonal blocks with log2(size) masked
delta swaps, so it costs a few big-int operations rather than one per edge.
All values are immutable after construction (a graph's in-rows and parent
array are derived on first read; a forest built by
:func:`graph_from_parents` starts with its array, and its in-rows are read
off it). :func:`prefix_products` is the one walk of a product through the
rounds; a :class:`ProductTrace` keeps the prefixes it yields.

Rounds are the adversary's raw graphs throughout. A process keeps what it
has heard, so every composition step with a round implies a self-loop at
every node of that round; no looped copy of a round is ever built.
:func:`product` is plain relational composition and implies nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import ne, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

MAX_NODES = 64


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def row_image(rows: Sequence[int], mask: int) -> int:
    """OR of ``rows[i]`` over the set bits ``i`` of ``mask``: the image of
    the node set ``mask`` under the relation whose rows are ``rows``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


@dataclass(frozen=True)
class Graph:
    """Immutable digraph: ``out_rows[x]`` is the bitmask of out-neighbors of x.

    ``in_rows`` is the exact transpose and ``parents`` the parent array,
    each computed from the edges on first read and cached, so equal graphs
    have equal values whichever constructor built them. Equality and
    hashing see ``n`` and ``out_rows`` only. Construct via
    :func:`make_graph`, :func:`graph_from_rows` or :func:`graph_from_parents`;
    each guarantees that no bit at index >= n is set.
    """

    n: int
    out_rows: tuple[int, ...]

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        """``in_rows[y]`` is the bitmask of in-neighbors of y."""
        # an array present before the in-rows were read was pre-filled by
        # graph_from_parents; any other is derived from these in-rows
        if "parents" in self.__dict__:
            return tuple(map(_BITS.__getitem__, self.parents))
        return _transpose(self.n, self.out_rows)

    @cached_property
    def parents(self) -> Optional[tuple[int, ...]]:
        """``parents[y]`` is y's one in-neighbor, or -1 where y has none;
        None when some node has two in-neighbors or a self-loop. Whenever
        it is not None, ``graph_from_parents(n, g.parents) == g``. A cycle
        of two or more nodes is kept (``families.forest_parents`` refuses
        it)."""
        parents = []
        for y, row in enumerate(self.in_rows):
            if row & (row - 1) or row >> y & 1:
                return None  # two in-neighbors or a self-loop
            parents.append(row.bit_length() - 1)
        return tuple(parents)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.out_rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.out_rows[u]):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.out_rows)

    def __repr__(self) -> str:  # compact, for test failure output
        es = ",".join(f"{u}->{v}" for u, v in self.edges() if u != v)
        loops = sum(row >> x & 1 for x, row in enumerate(self.out_rows))
        return f"Graph(n={self.n}, edges=[{es}], loops={loops})"


def _once(f: Callable, key: Callable = id) -> Callable:
    """``f`` computed once per ``key`` of its argument: a later argument
    with a key already seen gets the first one's value. The default key is
    the object's id, so a round that a schedule repeats as one object costs
    one call. The memo holds each argument, so no id is reused while it
    lives."""
    memo: dict = {}

    def once(x):
        k = key(x)
        hit = memo.get(k)
        if hit is None:
            hit = memo[k] = (x, f(x))
        return hit[1]

    return once


@cache
def _delta_swaps(size: int) -> tuple[tuple[int, int], ...]:
    """(delta, mask) of each block swap that transposes a size x size bit
    matrix packed row by row into one int, bit (u, v) at u * size + v. At
    block width j the mask holds each (u, v) with u & j == 0 and v & j != 0,
    whose partner (u + j, v - j) sits delta = j * (size - 1) bits higher."""
    swaps = []
    j = size >> 1
    while j:
        row = sum(1 << v for v in range(size) if v & j)
        mask = sum(row << u * size for u in range(size) if not u & j)
        swaps.append((j * (size - 1), mask))
        j >>= 1
    return tuple(swaps)


@cache
def _layout(n: int) -> tuple[struct.Struct, tuple[tuple[int, int], ...]]:
    """The packing of n rows, each padded to 8, 16, 32 or 64 columns, and
    the delta swaps of that size."""
    size, code = next(word for word in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if n <= word[0])
    return struct.Struct(f"<{n}{code}"), _delta_swaps(size)


def _transpose(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """The transpose of the n x n bit matrix ``rows`` (no bit at index >= n):
    entry v of the result has bit u exactly when ``rows[u]`` has bit v."""
    layout, swaps = _layout(n)
    x = int.from_bytes(layout.pack(*rows), "little")
    for delta, mask in swaps:
        t = (x ^ x >> delta) & mask
        x ^= t ^ t << delta
    return layout.unpack(x.to_bytes(layout.size, "little"))


# the single-node sets, shared by every forest's in-rows; entry -1 is the
# empty set, the in-row of a root
_BITS = tuple(1 << x for x in range(MAX_NODES)) + (0,)


def graph_from_rows(n: int, out_rows: Iterable[int]) -> Graph:
    """Build a Graph from out-adjacency masks."""
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    rows = tuple(out_rows)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    if reduce(or_, rows) >> n:  # a negative row shifts to -1
        x = next(x for x, row in enumerate(rows) if row >> n)
        raise ValueError(f"row {x} has bits beyond node {n - 1}")
    return Graph(n, rows)


def graph_from_parents(n: int, parents: Sequence[int]) -> Graph:
    """The forest on [n] in which node v hangs below ``parents[v]``, or is a
    root where that is -1. The graph's ``parents`` is the array given,
    pre-filled rather than read back off the edges, and its in-rows are
    read off that array on first read. A node that is its own parent is
    refused; a longer cycle is not (a graph with one is no forest, which
    ``families.forest_parents`` finds)."""
    if len(parents) != n:
        raise ValueError(f"parent array has length {len(parents)}, expected {n}")
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    if min(parents) < -1 or max(parents) >= n or not all(map(ne, parents, range(n))):
        v, p = next((v, p) for v, p in enumerate(parents) if not -1 <= p < n or p == v)
        raise ValueError(f"node {v} has parent {p}, not -1 or another node's id")
    # a root's parent -1 ORs its own bit into a spare row at index -1,
    # which is dropped; every other bit is a node's, so the rows need no
    # check of their own
    rows = [0] * (n + 1)
    for v, p in enumerate(parents):
        rows[p] |= _BITS[v]
    rows.pop()
    g = Graph(n, tuple(rows))
    g.__dict__["parents"] = tuple(parents)  # the cached property's value, as given
    return g


def graph_from_in_rows(n: int, in_rows: Sequence[int]) -> Graph:
    """The Graph whose in-rows are ``in_rows``, through the transpose."""
    return graph_from_rows(n, _transpose(n, in_rows))


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges; duplicates collapse."""
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
    return graph_from_rows(n, rows)


def identity(n: int) -> Graph:
    """The graph with a self-loop at every node and no other edges."""
    return graph_from_rows(n, (1 << x for x in range(n)))


def product(a: Graph, b: Graph) -> Graph:
    """Relational composition: (x, y) is an edge iff some z has (x, z) in
    ``a`` and (z, y) in ``b``."""
    if a.n != b.n:
        raise ValueError(f"node count mismatch: {a.n} != {b.n}")
    brows = b.out_rows
    return graph_from_rows(a.n, [row_image(brows, m) for m in a.out_rows])


def compose_rows(rows: tuple[int, ...], b: Graph) -> tuple[int, ...]:
    """Out-rows of (rows graph) o (b with a self-loop at every node), without
    building a Graph: row m becomes ``m | row_image(b.out_rows, m)``, one OR
    per set bit of the product. One round of the reference search, on the
    raw round, and the out-row oracle of the tests; ``run`` composes on
    in-rows with :func:`compose_in_rows`."""
    brows = b.out_rows
    return tuple([m | row_image(brows, m) for m in rows])


def compose_in_rows(cols: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    """In-rows of P o (g with a self-loop at every node), from the in-rows
    ``cols`` of P: entry y is the union of ``cols[z]`` over y and its
    in-neighbors z in g, since in_{P o G}(y) is the union of in_P(z) over z
    in in_G(y). Where ``g.parents`` is not None that is
    ``cols[y] | cols[parents[y]]``, one gather in C in which index -1 reads
    an appended 0; otherwise ``cols[y] | row_image(cols, g.in_rows[y])``,
    one OR per edge of g, so a sparse round is cheap however dense the
    product is."""
    if g.parents is None:
        return tuple([c | row_image(cols, m) for c, m in zip(cols, g.in_rows)])
    return tuple(map(or_, cols, map((*cols, 0).__getitem__, g.parents)))


def compose_out_rows(rows: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    """Out-rows of (g with a self-loop at every node) o S, from the out-rows
    ``rows`` of S: the step of :func:`compose_in_rows` on the transposed
    relation, entry x the union of ``rows[z]`` over x and its out-neighbors
    z in g. Where ``g.parents`` is not None each node's row is ORed into
    its parent's, one loop over the nodes (a root's goes to a spare entry
    that is dropped); otherwise one OR per edge of g."""
    if g.parents is None:
        return tuple([r | row_image(rows, m) for r, m in zip(rows, g.out_rows)])
    out = [*rows, 0]
    for row, p in zip(rows, g.parents):
        out[p] |= row
    out.pop()
    return tuple(out)


def prefix_products(n: int, rounds: Iterable[Graph]) -> Iterator[tuple[int, ...]]:
    """The in-rows of the identity, then of each prefix product of
    ``rounds``, each composed from the one before by one
    :func:`compose_in_rows` step; a round is read only when its prefix is
    asked for."""
    cols = identity(n).out_rows
    yield cols
    for g in rounds:
        cols = compose_in_rows(cols, g)
        yield cols


class ProductTrace:
    """A round sequence together with its cumulative products.

    ``rounds[t-1]`` is the adversary's round-t graph as given (rounds are
    1-based throughout); every step below composes it with its implied
    self-loops, so a round that carries the loops gives the same trace.
    ``prefix(t)`` holds the in-rows of the product of rounds 1..t: entry y
    is the set of processes whose id y has heard after round t. Index 0 is
    the identity (every process knows only itself before round 1). The
    trace walks :func:`prefix_products` only as far as a prefix is read and
    keeps what it composed, so ``run`` and the rounds-graph certificate
    share one walk; the strict-sets certificate reads only the rounds.
    :meth:`product_at` builds a prefix as a Graph, through the transpose.
    """

    __slots__ = ("n", "rounds", "_prefixes", "_walk")

    def __init__(self, n: int, rounds: Iterable[Graph]):
        self.n = n
        self.rounds = list(rounds)
        if any(g.n != n for g in self.rounds):
            raise ValueError("round graph node count mismatch")
        self._prefixes: list[tuple[int, ...]] = []
        self._walk = prefix_products(n, self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def prefix(self, t: int) -> tuple[int, ...]:
        """In-rows of the cumulative product after round t (t=0 gives the identity)."""
        if not 0 <= t <= len(self.rounds):
            raise ValueError(f"round {t} outside trace of length {len(self.rounds)}")
        while len(self._prefixes) <= t:
            self._prefixes.append(next(self._walk))
        return self._prefixes[t]

    def product_at(self, t: int) -> Graph:
        """Cumulative product after round t (t=0 gives the identity)."""
        return graph_from_in_rows(self.n, self.prefix(t))

    def _start(self, t: int, t2: int, x: int) -> int:
        """x's set before any round of [t, t2] is composed: ``{x}``, or
        empty when t > t2+1. Raises ValueError for a node or an interval
        outside the trace."""
        if not 0 <= x < self.n:
            raise ValueError(f"node {x} out of range for n={self.n}")
        if not (0 <= t <= len(self.rounds) + 1 and -1 <= t2 <= len(self.rounds)):
            raise ValueError(
                f"round interval [{t}, {t2}] outside trace of length {len(self.rounds)}"
            )
        return 1 << x if t <= t2 + 1 else 0

    def in_mask(self, t: int, t2: int, x: int) -> int:
        """Bitmask of the nodes with a path to x through rounds t..t2
        (1-based, inclusive), each round with its implied self-loops.

        Degenerate intervals follow the usual conventions: only x when
        t == t2+1, empty when t > t2+1."""
        # In-neighborhood of x in G_t o ... o G_t2, each round with its
        # implied self-loops, computed by composing backwards:
        # in_{A o B}(x) = union of in_A(z) over z in in_B(x).
        # Round 0 does not exist; the interval [0, t2] means [1, t2] with an
        # identity prepended, which changes nothing.
        m = self._start(t, t2, x)
        for tau in range(t2, max(t, 1) - 1, -1):
            m |= row_image(self.rounds[tau - 1].in_rows, m)
        return m

    def out_mask(self, t: int, t2: int, x: int) -> int:
        """Bitmask of the nodes reachable from x through rounds t..t2;
        conventions as in :meth:`in_mask`."""
        m = self._start(t, t2, x)
        for tau in range(max(t, 1), t2 + 1):
            m |= row_image(self.rounds[tau - 1].out_rows, m)
        return m


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT rendering of a graph, one line per node and per edge."""
    lines = [f"digraph {name} {{"]
    for x in range(g.n):
        lines.append(f"  {x};")
    for u, v in g.edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
