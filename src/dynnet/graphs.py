"""Directed graphs on up to 64 labeled nodes, kept as bitset adjacency rows.

A node set is a single machine word (Python int used as a 64-bit mask), so
relational composition of two graphs is a word-parallel OR loop. A running
product is kept as in-rows and composed with one round by one step: for a
general round :func:`compose_in_rows`, at one OR per edge of the round; for
a forest built by :func:`graph_from_parents`, which keeps the parent array
it was given, :func:`gather_parents`, one gather in C over that array (and
:func:`scatter_parents` for a sweep of out-rows). The transpose packs the
rows into one int and swaps its off-diagonal blocks with log2(size) masked
delta swaps, so it costs a few big-int operations rather than one per edge.
All values are immutable after construction (a graph's in-rows are derived
on first read: a forest's from its parent array, any other graph's by the
transpose). :func:`prefix_products` is the one walk of a product through the
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
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

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

    ``in_rows`` is the exact transpose, computed on first read and cached;
    ``parents`` is the parent array of a graph built by
    :func:`graph_from_parents` and None for any other. Equality and hashing
    see ``n`` and ``out_rows`` only. Construct via
    :func:`make_graph`, :func:`graph_from_rows` or :func:`graph_from_parents`;
    each guarantees that no bit at index >= n is set.
    """

    n: int
    out_rows: tuple[int, ...]
    parents: ClassVar[Optional[tuple[int, ...]]] = None  # set per forest by graph_from_parents

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        """``in_rows[y]`` is the bitmask of in-neighbors of y."""
        if self.parents is not None:
            return tuple(map(_BITS.__getitem__, self.parents))
        return _transpose(self.n, self.out_rows)

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
    root where that is -1. The graph keeps the parent array as its
    ``parents``, and its in-rows are read off that array on first read.
    A node that is its own parent is refused; a longer cycle is not (a
    graph with one is no forest, which ``families.forest_parents`` finds)."""
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
    g.__dict__["parents"] = tuple(parents)  # frozen: shadows the class's None
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


def compose_in_rows(cols: Sequence[int], in_rows: Sequence[int]) -> tuple[int, ...]:
    """In-rows of P o (G with a self-loop at every node), from the in-rows
    ``cols`` of P and ``in_rows`` of G: entry y is
    ``cols[y] | row_image(cols, in_rows[y])``, since in_{P o G}(y) is the
    union of in_P(z) over z in in_G(y). One OR per edge of the round, so a
    sparse round is cheap however dense the product is."""
    return tuple([c | row_image(cols, m) for c, m in zip(cols, in_rows)])


def gather_parents(cols: tuple[int, ...], parents: Sequence[int]) -> tuple[int, ...]:
    """``compose_in_rows(cols, g.in_rows)`` for a round g in which node y
    has the one in-neighbor ``parents[y]``, or none where that is -1: entry
    y is ``cols[y] | cols[parents[y]]``, one gather in C, where index -1
    reads an appended 0. Exact for any in-degree at most 1, cycles
    included."""
    return tuple(map(or_, cols, map((cols + (0,)).__getitem__, parents)))


def scatter_parents(rows: Sequence[int], parents: Sequence[int]) -> tuple[int, ...]:
    """``compose_in_rows(rows, g.out_rows)`` for the round g of
    :func:`gather_parents`: each node's row is ORed into its parent's, one
    loop over the nodes; a root's goes to a spare entry that is dropped."""
    out = [*rows, 0]
    for row, p in zip(rows, parents):
        out[p] |= row
    out.pop()
    return tuple(out)


def prefix_products(n: int, rounds: Iterable[Graph]) -> Iterator[tuple[int, ...]]:
    """The in-rows of the identity, then of each prefix product of
    ``rounds``, composed from the one before (by :func:`gather_parents` for
    a round that keeps a parent array); a round is read only when its
    prefix is asked for."""
    cols = identity(n).out_rows
    yield cols
    for g in rounds:
        parents = g.parents
        cols = compose_in_rows(cols, g.in_rows) if parents is None else gather_parents(cols, parents)
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
