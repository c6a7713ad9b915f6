"""Exact worst-case objective times over the monotone product-graph state
space, by two sweeps over a dense value table: one that reaches the states
in layers of ascending bit count, and one that values them in reverse."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, repeat
from math import comb, factorial
from operator import is_not, or_
from typing import TYPE_CHECKING, Iterator

from .dissemination import Objective, RoundSequence, cover_achieved
from .families import Model, ModelSpec, enumerate_k_forests, forest_roots
from .graphs import Graph, compose_rows, full_mask, graph_from_rows, identity

if TYPE_CHECKING:
    import numpy as np

# n <= 5 keeps the dense value table at 1 MiB and every key in 20 bits
SEARCH_GUARD = 5
# C(n, k) * (n^(n-2))^k k-tuples of rooted trees with distinct roots, at
# n=5, k=3, whose search takes about half a minute; k=4 and 5 have 62.5 and
# 1,562.5 times as many. The count bounds the (partial union, tree) pairs of
# the last step of ``family_moves``' fold
K_ROOTED_WALK_GUARD = comb(5, 3) * (5 ** 3) ** 3
KEY_DTYPE = "int32"
KEY_BYTES = 4
DEFAULT_MEM_CAP = 2 << 30  # bytes


class MemoryBudgetExceeded(RuntimeError):
    pass


class SearchStalled(RuntimeError):
    """An adversary move leaves a state whose objective does not hold
    unchanged, so the adversary can delay the objective forever."""


@dataclass
class SearchResult:
    value: int
    optimal_sequence: RoundSequence
    states_visited: int
    # hits of a memoized recursion that tries every move at every expanded
    # state: expanded_states * moves - (states_visited - 1)
    memo_hits: int
    # expanded states, each orbit weighted by its size, and expanded orbits
    expanded_states: int
    expanded_orbits: int


def family_moves(spec: ModelSpec) -> list[Graph]:
    """Every adversary move considered by the exact search, sorted by
    out-rows so tie-breaking is stable.

    Trees and k-forests are every member of the family, from
    ``enumerate_k_forests`` (a tree is a 1-forest). For k-rooted networks
    the moves are every distinct union of k spanning trees with distinct
    roots, the trees of each root being the 1-forests with that root. Every
    k-rooted graph contains such a union, and extra edges only help
    dissemination, so restricting the adversary to them does not lower the
    worst-case time. The unions are deduplicated but not reduced to the
    inclusion-minimal ones: many contain another union (at n=5, k=2 there
    are 54,244 moves, of which 944 are minimal).
    """
    n, k = spec.n, spec.k
    if spec.model is not Model.K_ROOTED:
        return sorted(enumerate_k_forests(n, k), key=lambda g: g.out_rows)
    trees_by_root: list[list[Graph]] = [[] for _ in range(n)]
    for tree in enumerate_k_forests(n, 1):
        trees_by_root[forest_roots(tree)[0]].append(tree)
    # each root set's unions, folded root by root over the distinct partial
    # unions, so a partial union that two tree tuples share is extended once
    unions: set[tuple[int, ...]] = set()
    for roots in combinations(range(n), k):
        partial = {(0,) * n}
        for r in roots:
            partial = {
                tuple(map(or_, p, tree.out_rows)) for p in partial for tree in trees_by_root[r]
            }
        unions |= partial
    return [graph_from_rows(n, rows) for rows in sorted(unions)]


def _image_table(rows: np.ndarray) -> np.ndarray:
    """table[j, mask] = OR of rows[j, y] over the set bits y of ``mask``,
    the image of a node set under map j; a row has n <= ``SEARCH_GUARD``
    bits, so one byte holds it."""
    import numpy as np

    maps, n = rows.shape
    table = np.zeros((maps, 1 << n), dtype=np.uint8)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[:, mask] = table[:, mask ^ low] | rows[:, low.bit_length() - 1]
    return table


def _drop_bit(row, x):
    """Row ``row`` without bit ``x``; higher bits move down by one."""
    return (row & ((1 << x) - 1)) | ((row >> (x + 1)) << x)


def _insert_bit(row, x: int):
    """Inverse of ``_drop_bit``, with bit ``x`` set."""
    return (row & ((1 << x) - 1)) | ((row >> x) << (x + 1)) | (1 << x)


def _row_tables(table: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """[x, c, j] = the key part of state row x with key bits ``c`` under map
    j: the image of the full row (``table``) put at row ``targets[x]``, which
    broadcasts over the maps, without that row's diagonal bit and shifted to
    its key position. A key under a map is the OR of one entry per row. Each
    row is dropped in uint8 and shifted in place, so the temporaries stay at
    four uint8 arrays of one row's entries."""
    import numpy as np

    width = len(targets) - 1
    compressed = np.arange(1 << width, dtype=np.uint64)
    out = np.empty((len(targets), 1 << width, len(table)), dtype=KEY_DTYPE)
    for x, target in enumerate(targets):
        out[x] = _drop_bit(table[:, _insert_bit(compressed, x)].T, target)
        out[x] <<= target * width
    return out


def _successor_tables(moves: list[Graph], n: int) -> np.ndarray:
    """[x, c, j] = row x of the child under move j when row x of the state
    has key bits ``c``: the rows of its bits under the move's loop-added
    out-rows, so the row stays at x. A child key is the OR of one entry per
    row."""
    import numpy as np

    nodes = np.arange(n, dtype=np.uint8)
    # no name holds the row array, so it is freed before the rows are built
    table = _image_table(np.array([g.out_rows for g in moves], dtype=np.uint8) | (1 << nodes))
    return _row_tables(table, nodes[:, None])


def _relabel_tables(n: int) -> np.ndarray:
    """[x, c, p] = the key part of state row x with key bits ``c`` after the
    p-th permutation π of ``permutations(range(n))`` relabels the nodes:
    the row moves to π(x) and each column y to π(y). A relabeled key is the
    OR of one entry per row."""
    import numpy as np

    perms = np.array(list(permutations(range(n))), dtype=np.uint8)  # [p, y] = π(y)
    return _row_tables(_image_table(1 << perms), perms.T)


def _parts(size: int, keys: np.ndarray) -> Iterator[np.ndarray]:
    """``keys`` in consecutive slices of at most ``size``."""
    for i in range(0, keys.size, size):
        yield keys[i : i + size]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the flat array ``keys``, which is sorted in
    place."""
    import numpy as np

    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


# a table entry holds the value plus 1; 0 is unsolved. A state reached but
# not yet valued holds REACHED; the layers queue its orbit's smallest key to
# be expanded, and the other members take that key's entry
REACHED = 255
# bytes of one batch's child keys, and of one chunk's relabelings; bounds
# the temporaries of a batch and of a chunk
BATCH_BYTES = 1 << 17
# keys per slice when a whole-table pass is cut to bound its temporaries
SLICE = 1 << 16


class _Search:
    """A state is the product graph G(t) with self-loops, so its diagonal is
    always set. The key drops it: row x without bit x occupies key bits
    [x*(n-1), (x+1)*(n-1)), so a state takes n(n-1) bits, at most 20 under
    ``SEARCH_GUARD``, and every key is an int32.

    Values live in a dense uint8 table indexed by key that holds the value
    plus 1; 0 means not solved yet. The children of a batch of states under
    every move are gathered at once from ``_successor_tables``: each state
    row's key bits pick an entry of that row's table, and the child key is
    the OR of the n picks.

    Every family is closed under relabeling the nodes, and every objective
    is invariant under it (a broadcaster, k full rows and a cover of size k
    are all moved to ones of the same kind). The relabeled state's children
    are the relabeled children, so a state's value and its terminal
    decision are the same across its orbit.
    Since the identity start is fixed by every relabeling, the states
    reached from it form whole orbits. Children are gathered and looked up
    only for the smallest key of each orbit, its representative;
    ``_relabel_tables`` relabels a key under all n! permutations by the same
    OR of one entry per row (``_lookup``), from tables of the same builder
    (``_row_tables``).

    A child is a strict superset of its parent, so it has more set bits,
    and a relabeling keeps the bit count. Walking the whole table in layers
    of ascending bit count therefore visits every parent, and every
    relabeling of it, before its children. ``_solve`` makes two sweeps in
    that order:

    - ascending: each layer's queued representatives are expanded in
      batches. Their fresh children are relabeled in chunks, one row of n!
      relabelings per child, and each row is sorted in place: it starts
      with the orbit's representative, and children of one orbit have the
      same row, so one row per representative is kept. An entry of that
      row equal to its left neighbour is a member fixed by some relabeling
      and is dropped; the rest are the orbit's members, each marked reached
      and decided once against the objective (``_terminal``). A terminal
      orbit gets entry 1; otherwise the orbit gets REACHED and its
      representative is queued in its layer, to be expanded when the sweep
      reaches it. A queued orbit is counted then: the kept row holds its
      distinct members, so their number is its size;
    - descending: the same layers in reverse order, each representative
      gets 1 + the largest entry among its children, which are all valued
      by then, and the entry is written to its whole orbit.

    So the value table is the one a sweep over every state would fill,
    byte for byte, and the counts are those of every state, too: an orbit
    is queued only when it is first reached and every queued
    representative is expanded, so counting it when it is queued counts
    it once, by its size in ``expanded_states`` (``expanded_orbits``
    counts representatives). A stalled search raises before any count is
    read.

    Before anything is allocated, the tables are charged against
    ``mem_cap_bytes``: the value table before any move is enumerated, then
    the value table plus the move, successor and relabeling tables and the
    temporaries of one batch and one chunk before those are built (the
    terms are listed in ``exact_worst_case``). Every batch and chunk
    allocates its own temporaries, which are freed when it is done."""

    def __init__(self, spec: ModelSpec, objective: Objective, mem_cap_bytes: int):
        import numpy as np

        n = spec.n
        key_bits = n * (n - 1)
        table_bytes = 1 << key_bits
        _charge("value table", table_bytes, mem_cap_bytes)
        self.n = n
        self.width = n - 1
        self.row_mask = full_mask(n - 1)
        self.objective = objective
        self.moves = family_moves(spec)
        moves = len(self.moves)
        perms = factorial(n)
        # a batch comes from one bit-count layer, and the middle one is largest
        self.batch = max(1, min(BATCH_BYTES // (moves * KEY_BYTES), comb(key_bits, key_bits // 2)))
        # a chunk of keys whose relabelings fill at most BATCH_BYTES, and at
        # most every key
        self.chunk = max(1, min(BATCH_BYTES // (perms * KEY_BYTES), table_bytes))
        # a cover decision unpacks the distinct members of a chunk's orbits
        # (``_terminal``) into n lists of one 8-byte reference per key. While
        # the last is built, the first n-1 are held with that row's int32
        # index, the index's int64 cast and the int64 rows it selects
        members = min(self.chunk * perms, table_bytes)
        unpacked = members * (8 * (n - 1) + 20) if objective.kind == "cover" else 0
        _charge(
            "value, move, successor and relabeling tables and batch and chunk temporaries",
            table_bytes
            # one uint8 image table entry per move and row subset
            + moves * (1 << n)
            # one successor and one relabeling entry per row, row key and
            # move or permutation
            + n * (1 << self.width) * (moves + perms) * KEY_BYTES
            # four uint8 temporaries per entry of the successor row being built
            + 4 * (1 << self.width) * moves
            # at most six key-sized temporaries per child key of a batch
            + self.batch * moves * 6 * KEY_BYTES
            # at most five key-sized temporaries per relabeling of a chunk
            + self.chunk * perms * 5 * KEY_BYTES
            + unpacked,
            mem_cap_bytes,
        )
        self.succ = _successor_tables(self.moves, n)
        self.relabel = _relabel_tables(n)
        # (full row x for every compressed row, key shift of row x)
        compressed = np.arange(1 << self.width, dtype=np.int64)
        self.row_lookup = [(_insert_bit(compressed, x), x * self.width) for x in range(n)]
        self.full_rows = [self.row_mask << (x * self.width) for x in range(n)]
        self.values = np.zeros(table_bytes, dtype=np.uint8)
        # the representatives queued in each layer, by bit count
        self.layers: list[list[np.ndarray]] = []
        self.expanded_states = 0
        self.expanded_orbits = 0

    def pack(self, rows: tuple[int, ...]) -> int:
        key = 0
        for x, r in enumerate(rows):
            key |= _drop_bit(r, x) << (x * self.width)
        return key

    def unpack(self, key: int) -> list[int]:
        import numpy as np

        return list(next(self.unpack_all(np.array([key]))))

    def unpack_all(self, keys: np.ndarray) -> Iterator[tuple[int, ...]]:
        """``unpack`` of every key, one array lookup per row."""
        mask = self.row_mask
        return zip(*(rows[(keys >> shift) & mask].tolist() for rows, shift in self.row_lookup))

    @property
    def memo(self) -> dict[int, int]:
        """Snapshot of the solved states, key -> value."""
        import numpy as np

        keys = np.flatnonzero(self.values)
        return dict(zip(keys.tolist(), (self.values[keys] - 1).tolist()))

    def _lookup(self, tables: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """out[i] = the OR over rows x of tables[x, row x's key bits in
        keys[i]]."""
        mask = self.row_mask
        out = tables[0].take(keys & mask, axis=0)
        for x in range(1, self.n):
            out |= tables[x].take((keys >> x * self.width) & mask, axis=0)
        return out

    def _gather(self, keys: np.ndarray) -> np.ndarray:
        """out[i, j] = the child of keys[i] under move j."""
        return self._lookup(self.succ, keys)

    def _terminal(self, keys: np.ndarray) -> np.ndarray:
        """Whether the objective holds on each state in ``keys``.

        A cover is decided by one ``cover_achieved`` call per key, on the
        row tuples that ``unpack_all`` restores for the whole array at once.
        No columns are passed, so most keys end in its size-1 membership
        test or its rows-only size-2 pair scan, which reads no bit counts.
        The calls and the ``is not None`` tests are chained by ``map``, so
        no Python frame runs per key but ``cover_achieved``'s own; the
        function is read from this module when the chain is built, so a
        wrapper put in its place sees every call."""
        import numpy as np

        k = self.objective.k
        if self.objective.kind == "cover":
            found = map(cover_achieved, self.unpack_all(keys), repeat(k))
            return np.fromiter(map(is_not, found, repeat(None)), dtype=bool, count=keys.size)
        # broadcast and k-broadcast: at least k full rows
        full = np.zeros(keys.size, dtype=np.uint8)
        for row in self.full_rows:
            full += (keys & row) == row
        return full >= k

    def _relabelings(self, keys: np.ndarray) -> np.ndarray:
        """out[i, p] = keys[i] under the p-th permutation."""
        return self._lookup(self.relabel, keys)

    def _reach(self, fresh: np.ndarray) -> None:
        """Mark the orbit of every unsolved key in ``fresh`` reached, decide
        each member once and queue the non-terminal representatives in
        their layers, a chunk of keys at a time. The members are read off
        one sorted relabeling row per orbit, and their number is the size
        each queued orbit adds to ``expanded_states``."""
        import numpy as np

        values = self.values
        for keys in _parts(self.chunk, fresh):
            # an earlier chunk may have reached some of these orbits
            keys = keys[values.take(keys) == 0]
            if not keys.size:
                continue
            orbits = self._relabelings(keys)
            # a sorted row starts with its orbit's representative, and two
            # keys of one orbit have the same sorted row: keep the first
            orbits.sort(axis=1)
            reps, first = np.unique(orbits[:, 0], return_index=True)
            # a member equal to its left neighbour is fixed by a relabeling
            kept = np.zeros(orbits.shape, dtype=bool)
            kept[first] = True
            kept[:, 1:] &= orbits[:, 1:] != orbits[:, :-1]
            members = orbits[kept]
            sizes = np.count_nonzero(kept, axis=1)[first]
            # freed before the decisions allocate theirs
            del orbits, kept
            values[members] = np.where(self._terminal(members), 1, REACHED)
            queued = values.take(reps) == REACHED
            reps = reps[queued]
            # every queued representative is expanded, so its orbit is
            # counted here, once
            self.expanded_states += int(sizes[queued].sum())
            self.expanded_orbits += reps.size
            layers = np.bitwise_count(reps)
            for c in set(layers.tolist()):
                self.layers[c].append(reps[layers == c])

    def _spread(self, keys: np.ndarray) -> None:
        """Write the entry of each key to every relabeling of it."""
        values = self.values
        for part in _parts(self.chunk, keys):
            values[self._relabelings(part)] = values.take(part)[:, None]

    def value(self, key: int) -> int:
        self._solve(key)
        return int(self.values[key]) - 1

    def _solve(self, start: int) -> None:
        """Value every state reachable from the orbit of ``start`` through
        non-terminal states; a solved ``start`` is left as it is, and a
        terminal one is only decided."""
        import numpy as np

        values = self.values
        self.layers = [[] for _ in range(self.n * self.width + 1)]
        expanded = []
        try:
            self._reach(np.array([start], dtype=KEY_DTYPE))
            for layer in self.layers:
                if layer:
                    keys = np.sort(np.concatenate(layer))
                    layer.clear()
                    for batch in _parts(self.batch, keys):
                        self._expand(batch)
                    expanded.append(keys)
        except SearchStalled:
            # a stalled search leaves the states it reached unsolved, except
            # the terminal orbits, whose values are exact
            for part in _parts(SLICE, values):
                part[part == REACHED] = 0
            raise
        for keys in reversed(expanded):
            for batch in _parts(self.batch, keys):
                values[batch] = values.take(self._gather(batch)).max(axis=1) + 1
                self._spread(batch)

    def _expand(self, keys: np.ndarray) -> None:
        """Reach the fresh children of queued, non-terminal
        representatives."""
        kids = self._gather(keys)
        # a child is a superset of its state; an equal one is no progress
        if (kids == keys[:, None]).any():
            raise SearchStalled(
                "adversary move without progress; family is not rooted enough"
            )
        self._reach(_distinct(kids[self.values.take(kids) == 0]))


def _charge(what: str, nbytes: int, mem_cap_bytes: int) -> None:
    if nbytes > mem_cap_bytes:
        raise MemoryBudgetExceeded(
            f"{what}: {nbytes} bytes needed, over the budget of {mem_cap_bytes}"
        )


def exact_worst_case(
    spec: ModelSpec,
    objective: Objective,
    *,
    mem_cap_bytes: int = DEFAULT_MEM_CAP,
    threads: int = 1,
) -> SearchResult:
    """Exact max-over-adversaries objective time, from the identity state.

    value = f(G(0)) where f(G) is 0 once the objective holds and otherwise
    1 + max over family members H of f(G o H). Every move adds at least one
    product edge while the objective is unmet, so a child has more set bits
    than its parent and the search runs as two sweeps over the dense value
    table in layers of bit count (see ``_Search``): an ascending one that
    reaches every state and decides each one once against the objective,
    and a descending one that values every state that was expanded.

    Every family is closed under relabeling the nodes, every objective is
    invariant under it and the identity is fixed by it, so the reached
    states form whole orbits and f is constant on each. The sweeps gather
    children only for the smallest key of each orbit and write its entry to
    every relabeling, so the table is the one every state's expansion would
    fill. The counts are still of states: ``states_visited`` counts the
    solved states, ``expanded_states`` the expanded ones (each expanded
    orbit counted by its size, the distinct members of its sorted
    relabeling row; ``expanded_orbits`` counts the orbits) and
    ``memo_hits`` the hits of a plain memoized recursion that tries every
    move at every expanded state. That recursion makes
    1 + ``expanded_states`` * moves calls, of which ``states_visited`` are
    misses, so ``memo_hits`` = ``expanded_states`` * moves -
    (``states_visited`` - 1). The counts depend on the reachable states,
    the expanded states and the move count only, not on the engine.

    Raises ValueError, before anything else, when n exceeds ``SEARCH_GUARD``
    (5) in any family, then for k-rooted networks when the C(n, k) *
    (n^(n-2))^k k-tuples of rooted trees with distinct roots exceed
    ``K_ROOTED_WALK_GUARD`` (n=5, k=3's). ``family_moves`` walks no such
    tuple: it folds each root set's trees into deduplicated partial unions,
    and the tuple count bounds the (partial union, tree) pairs of the
    fold's last step. It raises before charging anything
    when ``mem_cap_bytes`` is negative (a budget of 0 is valid and refuses
    every table). Raises
    MemoryBudgetExceeded, before enumerating any move, when the dense value
    table (2^(n(n-1)) bytes) exceeds
    ``mem_cap_bytes``, and before building the successor tables when the
    value table plus the moves' uint8 image table (``moves * 2^n`` bytes),
    the successor and relabeling tables (``n * 2^(n-1) * (moves + n!) * 4``
    bytes, one int32 entry per row, row key and move or permutation), the
    uint8 temporaries that build one successor row
    (``4 * 2^(n-1) * moves`` bytes), the temporaries of one batch
    (``6 * batch * moves * 4`` bytes) and of one chunk
    (``5 * chunk * n! * 4`` bytes) and, for a cover objective, the rows of
    one chunk's distinct members unpacked for their decisions
    (``(8n + 12) * min(chunk * n!, 2^(n(n-1)))`` bytes) do. A batch is as
    many states as keep its ``batch * moves`` child keys within
    ``BATCH_BYTES``, at least one and at most the largest bit-count layer; a
    chunk is as many keys as keep their ``chunk * n!`` relabelings within
    ``BATCH_BYTES``, at least one and at most 2^(n(n-1)). Each batch and
    chunk allocates its temporaries afresh and frees them when it is done.
    The search runs on one thread; ``threads`` is accepted for callers that
    pass 1, and any other value raises ValueError. Raises SearchStalled when
    a move leaves a state the objective does not hold on unchanged.

    numpy is imported on the first call, not with this module, so ``import
    dynnet.cli`` and every command that does not search run without it.
    """
    if spec.n > SEARCH_GUARD:
        raise ValueError(f"exact search guarded to n <= {SEARCH_GUARD}, got n={spec.n}")
    if spec.model is Model.K_ROOTED:
        walk = comb(spec.n, spec.k) * (spec.n ** max(spec.n - 2, 0)) ** spec.k
        if walk > K_ROOTED_WALK_GUARD:
            raise ValueError(
                f"k-rooted exact search guarded to at most {K_ROOTED_WALK_GUARD:,} "
                f"k-tuples of rooted trees (n=5, k=3), got {walk:,} "
                f"at n={spec.n}, k={spec.k}"
            )
    if threads != 1:
        raise ValueError(f"exact search runs on one thread, got threads={threads}")
    if mem_cap_bytes < 0:
        raise ValueError(f"memory budget must be at least 0 bytes, got {mem_cap_bytes}")
    if objective.k > spec.n:
        raise ValueError("objective k exceeds n")
    import numpy as np

    search = _Search(spec, objective, mem_cap_bytes)
    start = search.pack(identity(spec.n).out_rows)
    value = search.value(start)

    seq_rounds = _reconstruct(search, start)
    seq = RoundSequence(spec, seq_rounds)
    states = int(np.count_nonzero(search.values))
    return SearchResult(
        value, seq, states, search.expanded_states * len(search.moves) - (states - 1),
        search.expanded_states, search.expanded_orbits,
    )


def _reconstruct(search: _Search, start: int) -> list[Graph]:
    """One maximizing play: at each state pick the first (smallest
    serialized) move whose child still needs value-1 rounds."""
    import numpy as np

    out: list[Graph] = []
    key = start
    remaining = int(search.values[key]) - 1
    while remaining > 0:
        succ = search._gather(np.array([key], dtype=KEY_DTYPE))[0]
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
    moves = family_moves(spec)

    def f(rows: tuple[int, ...]) -> int:
        if objective.witness(rows) is not None:
            return 0
        best = 0
        for mv in moves:
            child = compose_rows(rows, mv)
            if child == rows:
                raise SearchStalled("adversary move without progress")
            best = max(best, f(child))
        return best + 1

    return f(identity(spec.n).out_rows)
