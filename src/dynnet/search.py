"""Exact worst-case objective times by memoized maximization over the
monotone product-graph state space, plus greedy adversary heuristics."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from itertools import product as iproduct
from typing import Iterable, Iterator, Optional

import numpy as np

from .dissemination import Objective, RoundSequence, cover_achieved
from .families import Model, ModelSpec, enumerate_rooted_trees, random_graph
from .graphs import Graph, add_self_loops, compose_rows, full_mask, graph_from_rows, identity, make_graph

TREE_SEARCH_GUARD = 6
OTHER_SEARCH_GUARD = 5
DEFAULT_MEM_CAP = 2 << 30  # bytes


class MemoryBudgetExceeded(RuntimeError):
    pass


@dataclass
class SearchResult:
    value: int
    optimal_sequence: RoundSequence
    states_visited: int
    memo_hits: int


def _set_partitions(items: list[int], k: int) -> Iterator[list[list[int]]]:
    """All partitions of items into exactly k nonempty blocks."""
    if k == 1:
        yield [list(items)]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first joins an existing block of a (k)-partition of the rest
    for part in _set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
    # or forms its own block
    for part in _set_partitions(rest, k - 1):
        yield [[first]] + part


def _relabeled_trees(block: list[int]) -> list[Graph]:
    """Rooted trees on the node set ``block`` as edge lists over [n] labels."""
    m = len(block)
    out = []
    for t in enumerate_rooted_trees(m):
        out.append([(block[u], block[v]) for u, v in t.edges()])
    return out


def family_moves(spec: ModelSpec) -> list[Graph]:
    """Every adversary move considered by the exact search, sorted by
    serialized adjacency so tie-breaking is stable.

    Trees and k-forests are enumerated exhaustively. For k-rooted networks
    only the minimal members are generated (unions of k spanning trees with
    distinct roots): extra edges only help dissemination, so they never
    increase the worst-case time.
    """
    n, k = spec.n, spec.k
    if spec.model is Model.TREES:
        moves = list(enumerate_rooted_trees(n))
    elif spec.model is Model.K_FORESTS:
        moves = []
        for part in _set_partitions(list(range(n)), k):
            per_block = [_relabeled_trees(block) for block in part]
            for combo in iproduct(*per_block):
                moves.append(make_graph(n, [e for tree in combo for e in tree]))
    else:
        seen: set[tuple[int, ...]] = set()
        moves = []
        trees_by_root = [list(enumerate_rooted_trees(n, root=r)) for r in range(n)]
        for roots in combinations(range(n), k):
            for combo in iproduct(*(trees_by_root[r] for r in roots)):
                rows = [0] * n
                for t in combo:
                    for x in range(n):
                        rows[x] |= t.out_rows[x]
                key = tuple(rows)
                if key not in seen:
                    seen.add(key)
                    moves.append(graph_from_rows(n, rows))
    moves.sort(key=lambda g: g.out_rows)
    return moves


def _objective_holds(rows: tuple[int, ...], n: int, objective: Objective) -> bool:
    fm = full_mask(n)
    if objective.kind == "broadcast":
        return any(r == fm for r in rows)
    if objective.kind == "kbroadcast":
        return sum(r == fm for r in rows) >= objective.k
    return cover_achieved(graph_from_rows(n, rows), objective.k) is not None


def _move_table(moves: list[Graph], n: int) -> np.ndarray:
    """table[j, mask] = OR of move j's loop-added out-rows over ``mask``."""
    rows = np.array(
        [[add_self_loops(g).out_rows[i] for i in range(n)] for g in moves],
        dtype=np.uint64,
    )
    table = np.zeros((len(moves), 1 << n), dtype=np.uint64)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[:, mask] = table[:, mask ^ low] | rows[:, low.bit_length() - 1]
    return table


def _drop_bit(row, x: int):
    """Row ``row`` without bit ``x``; higher bits move down by one."""
    return (row & ((1 << x) - 1)) | ((row >> (x + 1)) << x)


def _insert_bit(row, x: int):
    """Inverse of ``_drop_bit``, with bit ``x`` set."""
    return (row & ((1 << x) - 1)) | ((row >> x) << (x + 1)) | (1 << x)


def _successor_tables(moves: list[Graph], n: int) -> np.ndarray:
    """succ[x, c, j] = row x of the child under move j when row x of the
    state is ``c``, both without the diagonal, shifted to its key position."""
    table = _move_table(moves, n)
    width = n - 1
    compressed = np.arange(1 << width, dtype=np.uint64)
    succ = np.empty((n, 1 << width, len(moves)), dtype=np.int64)
    for x in range(n):
        child_rows = table[:, _insert_bit(compressed, x)].T
        succ[x] = _drop_bit(child_rows, x) << (x * width)
    return succ


class _Search:
    """A state is the product graph G(t) with self-loops, so its diagonal is
    always set. The key drops it: row x without bit x occupies key bits
    [x*(n-1), (x+1)*(n-1)), so a state takes n(n-1) bits (20 at n=5, 30 at
    n=6).

    Values live in a dense uint8 table indexed by key that holds the value
    plus 1; 0 means not solved yet. A state's children under every move are
    the sum of n rows gathered from ``_successor_tables``. With more than
    one thread, ``memo_hits`` and the state budget count are updated without
    a lock and are approximate; the table itself stays exact."""

    def __init__(self, spec: ModelSpec, objective: Objective, mem_cap_bytes: int):
        n = spec.n
        table_bytes = 1 << (n * (n - 1))
        if table_bytes > mem_cap_bytes:
            raise MemoryBudgetExceeded(
                f"value table needs {table_bytes} bytes, over the budget of {mem_cap_bytes}"
            )
        self.n = n
        self.width = n - 1
        self.row_mask = full_mask(n - 1)
        self.objective = objective
        # broadcast and k-broadcast are decided on whole arrays of keys
        self.full_rows_needed = None if objective.kind == "cover" else objective.k
        self.moves = family_moves(spec)
        self.succ = _successor_tables(self.moves, n).reshape(n << self.width, -1)
        # (full row x for every compressed row, key shift of row x)
        self.row_lookup = [
            ([_insert_bit(c, x) for c in range(1 << self.width)], x * self.width)
            for x in range(n)
        ]
        self.full_rows = np.array([self.row_mask << (x * self.width) for x in range(n)])
        self.values = np.zeros(table_bytes, dtype=np.uint8)
        self.memo_hits = 0
        self.stored = 0  # states stored, for the state budget
        # state budget: at most one stored state per 100 bytes of the cap
        self.max_entries = max(1, mem_cap_bytes // 100)

    def pack(self, rows: tuple[int, ...]) -> int:
        key = 0
        for x, r in enumerate(rows):
            key |= _drop_bit(r, x) << (x * self.width)
        return key

    def unpack(self, key: int) -> list[int]:
        mask = self.row_mask
        return [rows[(key >> shift) & mask] for rows, shift in self.row_lookup]

    @property
    def memo(self) -> dict[int, int]:
        """Snapshot of the solved states, key -> value."""
        keys = np.flatnonzero(self.values)
        return dict(zip(keys.tolist(), (self.values[keys] - 1).tolist()))

    def successors(self, key: int) -> np.ndarray:
        """The child key under each move, in move order."""
        w, mask = self.width, self.row_mask
        picks = [(x << w) | ((key >> (x * w)) & mask) for x in range(self.n)]
        return np.add.reduce(self.succ.take(picks, axis=0), axis=0)

    def children(self, key: int) -> np.ndarray:
        """The distinct child keys, sorted."""
        kids = self.successors(key)
        kids.sort()
        distinct = np.empty(kids.size, dtype=bool)
        distinct[0] = True
        np.not_equal(kids[1:], kids[:-1], out=distinct[1:])
        return kids[distinct]

    def _terminal(self, keys: np.ndarray) -> np.ndarray:
        full = (keys[:, None] & self.full_rows) == self.full_rows
        return full.sum(axis=1) >= self.full_rows_needed

    def value(self, key: int) -> int:
        entry = int(self.values[key])
        if entry:
            self.memo_hits += 1
            return entry - 1
        return self._solve(key) - 1

    def _solve(self, key: int) -> int:
        """Table entry of an unsolved state, tested against the objective."""
        if _objective_holds(tuple(self.unpack(key)), self.n, self.objective):
            self.values[key] = 1
            self.stored += 1
            return 1
        return self._expand(key)

    def _expand(self, key: int) -> int:
        """Table entry of an unsolved state the objective does not hold on."""
        kids = self.children(key)
        # children are supersets of the state, so the state sorts first
        if kids[0] == key:
            raise RuntimeError(
                "adversary move without progress; family is not rooted enough"
            )
        entries = self.values[kids]
        fresh = kids[entries == 0]
        self.memo_hits += kids.size - fresh.size
        best = int(entries.max())
        if fresh.size and self.full_rows_needed is not None:
            done = self._terminal(fresh)
            if done.any():
                self.values[fresh[done]] = 1
                self.stored += int(np.count_nonzero(done))
                best = max(best, 1)
                fresh = fresh[~done]
        descend = self._solve if self.full_rows_needed is None else self._expand
        for child in fresh.tolist():
            entry = int(self.values[child])
            if entry:
                self.memo_hits += 1
            else:
                entry = descend(child)
            if entry > best:
                best = entry
        if self.stored >= self.max_entries:
            raise MemoryBudgetExceeded(
                f"memo exceeded the configured budget ({self.max_entries} states)"
            )
        self.values[key] = best + 1
        self.stored += 1
        return best + 1


def exact_worst_case(
    spec: ModelSpec,
    objective: Objective,
    *,
    allow_large: bool = False,
    mem_cap_bytes: int = DEFAULT_MEM_CAP,
    threads: int = 1,
) -> SearchResult:
    """Exact max-over-adversaries objective time, from the identity state.

    value = f(G(0)) where f(G) is 0 once the objective holds and otherwise
    1 + max over family members H of f(G o H). Memoized on the product
    adjacency; terminates because every move adds at least one product edge
    while the objective is unmet.

    Raises MemoryBudgetExceeded, before enumerating any move, when the dense
    value table (2^(n(n-1)) bytes) exceeds ``mem_cap_bytes``, and during the
    search when it stores more than ``mem_cap_bytes // 100`` states.
    ``states_visited`` counts the solved states and is exact with any number
    of threads; ``memo_hits`` is exact only with ``threads=1``.
    """
    guard = TREE_SEARCH_GUARD if spec.model is Model.TREES else OTHER_SEARCH_GUARD
    if spec.n > guard and not allow_large:
        raise ValueError(
            f"exact search guarded to n <= {guard} for {spec.model.value}; "
            "pass allow_large=True at your own risk"
        )
    if objective.k > spec.n:
        raise ValueError("objective k exceeds n")
    search = _Search(spec, objective, mem_cap_bytes)
    start = search.pack(identity(spec.n).out_rows)

    if threads > 1 and not _objective_holds(identity(spec.n).out_rows, spec.n, objective):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(search.value, search.children(start).tolist()))
    value = search.value(start)

    seq_rounds = _reconstruct(search, start)
    seq = RoundSequence(spec, seq_rounds)
    states = int(np.count_nonzero(search.values))
    return SearchResult(value, seq, states, search.memo_hits)


def _reconstruct(search: _Search, start: int) -> list[Graph]:
    """One maximizing play: at each state pick the first (smallest
    serialized) move whose child still needs value-1 rounds."""
    out: list[Graph] = []
    key = start
    remaining = int(search.values[key]) - 1
    while remaining > 0:
        succ = search.successors(key)
        # a child that needs remaining-1 rounds has table entry remaining
        best = np.flatnonzero(search.values[succ] == remaining)
        if best.size == 0:  # pragma: no cover
            raise AssertionError("memoized values are inconsistent")
        j = int(best[0])
        out.append(search.moves[j])
        key = int(succ[j])
        remaining -= 1
    return out


def worst_case_reference(spec: ModelSpec, objective: Objective) -> int:
    """Memo-free recursive maximization; only sane for n <= 3."""
    if spec.n > 3:
        raise ValueError("reference search is for n <= 3")
    moves = [add_self_loops(g) for g in family_moves(spec)]

    def f(rows: tuple[int, ...]) -> int:
        if _objective_holds(rows, spec.n, objective):
            return 0
        best = 0
        for mv in moves:
            child = compose_rows(rows, mv)
            if child == rows:
                raise RuntimeError("adversary move without progress")
            best = max(best, f(child))
        return best + 1

    return f(identity(spec.n).out_rows)


class Policy(Enum):
    MIN_NEW_EDGES = "min-new-edges"
    MIN_MAX_OUT_ROW = "min-max-out-row"


@dataclass
class GreedyResult:
    sequence: RoundSequence
    metrics: list[int]
    policy: Policy


_GREEDY_ENUM_GUARD = {Model.TREES: 6, Model.K_FORESTS: 5, Model.K_ROOTED: 4}


def greedy_adversary(
    spec: ModelSpec,
    objective: Objective,
    horizon: int,
    policy: Policy,
    *,
    samples: int = 200,
    seed: int = 0,
) -> GreedyResult:
    """Heuristic lower-bound probe: at each round pick the family member
    minimizing the policy metric on the resulting product, ties broken by
    smallest serialized graph. Enumerates the family when small, otherwise
    draws ``samples`` seeded random members per round."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    enumerable = spec.n <= _GREEDY_ENUM_GUARD[spec.model]
    all_moves = family_moves(spec) if enumerable else None
    rows = identity(spec.n).out_rows
    chosen: list[Graph] = []
    metrics: list[int] = []
    for t in range(horizon):
        if all_moves is not None:
            candidates: Iterable[Graph] = all_moves
        else:
            candidates = (
                random_graph(spec, seed * 1_000_003 + t * 1_009 + i)
                for i in range(samples)
            )
        best: Optional[tuple[int, tuple[int, ...], Graph, tuple[int, ...]]] = None
        base_edges = sum(r.bit_count() for r in rows)
        for mv in candidates:
            child = compose_rows(rows, add_self_loops(mv))
            if policy is Policy.MIN_NEW_EDGES:
                metric = sum(r.bit_count() for r in child) - base_edges
            else:
                metric = max(r.bit_count() for r in child)
            key = (metric, mv.out_rows)
            if best is None or key < best[:2]:
                best = (metric, mv.out_rows, mv, child)
        assert best is not None
        metrics.append(best[0])
        chosen.append(best[2])
        rows = best[3]
    return GreedyResult(RoundSequence(spec, chosen), metrics, policy)
