"""Run a round sequence, maintain the cumulative product, and decide the
three objectives: broadcast, cover of size k, k-broadcast."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice
from operator import and_
from typing import Iterable, Iterator, Optional, Sequence

from .families import Model, ModelSpec, random_graph, validate_member
from .graphs import (
    Graph,
    ProductTrace,
    _once,
    _transpose,
    bits,
    full_mask,
    graph_from_in_rows,
    prefix_products,
)


@dataclass(frozen=True)
class Objective:
    kind: str  # "broadcast" | "cover" | "kbroadcast"
    k: int = 1

    @classmethod
    def broadcast(cls) -> "Objective":
        return cls("broadcast", 1)

    @classmethod
    def cover(cls, k: int) -> "Objective":
        return cls("cover", k)

    @classmethod
    def k_broadcast(cls, k: int) -> "Objective":
        return cls("kbroadcast", k)

    def __post_init__(self) -> None:
        if self.kind not in ("broadcast", "cover", "kbroadcast"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("objective k must be >= 1")
        if self.kind == "broadcast" and self.k != 1:
            raise ValueError("broadcast has no k parameter")

    def witness(
        self, rows: Optional[Sequence[int]] = None, cols: Optional[Sequence[int]] = None
    ) -> Optional[tuple[int, ...]]:
        """The objective's witness on the product with out-rows ``rows`` and
        in-rows ``cols`` (give either or both; a missing side is transposed
        from the other when it is needed), or None when it does not hold.

        Broadcast and k-broadcast: the k smallest broadcasters (k = 1 for
        broadcast). x is a broadcaster exactly when every in-row holds x,
        so they are the set bits of the AND of ``cols``. Cover: the cover
        ``cover_achieved`` reports on ``rows``, given ``cols``."""
        if self.kind == "cover":
            if rows is None:
                rows = _transpose(len(cols), cols)
            w = cover_achieved(rows, self.k, cols)
            return tuple(w) if w is not None else None
        if cols is None:
            cols = _transpose(len(rows), rows)
        everyone = reduce(and_, cols)
        if everyone.bit_count() < self.k:
            return None
        return tuple(islice(bits(everyone), self.k))


class ObjectiveNotReached(Exception):
    """Sequence exhausted before the objective held; carries the final
    cumulative product for diagnosis."""

    def __init__(self, objective: Objective, rounds_used: int, final_product: Graph):
        super().__init__(
            f"{objective.kind} (k={objective.k}) not reached after {rounds_used} rounds"
        )
        self.objective = objective
        self.rounds_used = rounds_used
        self.final_product = final_product


def _cover_exists(
    rows: Sequence[int], cols: Sequence[int], uncovered: int, budget: int,
    allowed: int, most: int,
) -> bool:
    """Exact decision: can ``uncovered`` be covered by at most ``budget`` of
    the rows whose indices are set in the mask ``allowed``? ``cols`` is the
    transpose of ``rows`` and ``most`` the largest bit count of any row.

    Budget 1 intersects the columns of the uncovered elements. Above that,
    it branches on the uncovered element with the fewest candidate rows,
    the allowed set bits of its column, which makes infeasibility proofs
    cheap. A chosen row is disjoint from what it leaves uncovered, so it is
    never a candidate again and ``allowed`` passes down unchanged."""
    if most * budget < uncovered.bit_count():
        return False  # even perfectly disjoint largest rows fall short
    if budget == 1:
        while uncovered:
            low = uncovered & -uncovered
            allowed &= cols[low.bit_length() - 1]
            if not allowed:
                return False
            uncovered ^= low
        return True
    # the candidates: the allowed rows that hold the rarest uncovered element
    cands, fewest = allowed, allowed.bit_count()
    rest = uncovered
    while rest and fewest > 1:
        low = rest & -rest
        col = cols[low.bit_length() - 1] & allowed
        if col.bit_count() < fewest:
            cands, fewest = col, col.bit_count()
        rest ^= low
    while cands:
        low = cands & -cands
        rest = uncovered & ~rows[low.bit_length() - 1]
        if not rest or _cover_exists(rows, cols, rest, budget - 1, allowed, most):
            return True
        cands ^= low
    return False


def _first_cover(
    rows: Sequence[int], cols: Sequence[int], uncovered: int, budget: int,
    lo: int, most: int,
) -> list[int]:
    """The lexicographically smallest ascending list of ``budget`` indices
    >= lo whose rows cover ``uncovered``. ``cols`` is the transpose of
    ``rows`` and ``most`` the largest bit count of any row.

    The caller has proven that ``budget`` rows cover it and fewer do not,
    so such a list exists and every row of it leaves something for the
    next. Rows are taken in index order: at budget 1 the first row that
    holds ``uncovered``; above it the first row whose remainder the rows
    after it are decided (``_cover_exists``) to cover within the budget
    left, so no dead end is searched through, and the search goes on from
    the next row."""
    end = len(rows)
    if budget == 1:
        return [next(i for i in range(lo, end) if rows[i] & uncovered == uncovered)]
    fm = full_mask(end)
    i = next(
        i for i in range(lo, end)
        if _cover_exists(rows, cols, uncovered & ~rows[i], budget - 1, fm ^ ((2 << i) - 1), most)
    )
    return [i] + _first_cover(rows, cols, uncovered & ~rows[i], budget - 1, i + 1, most)


def cover_achieved(
    rows: Sequence[int], k: int, cols: Optional[Sequence[int]] = None
) -> Optional[list[int]]:
    """A set I of at most k nodes whose out-rows ``rows`` jointly cover [n],
    n = len(rows), if one exists; None otherwise. The witness is the
    lexicographically smallest cover of the minimum size. ``rows`` is a list
    or tuple, and no row has a bit at index >= n (``graph_from_rows``
    checks this), so a row covers [n] exactly when it equals the full mask.
    ``cols``, when given, is the transpose of ``rows`` (the product's
    in-rows, which ``run`` holds anyway).

    Size 1 is that membership test, a scan in C. Without ``cols``, size 2
    is one scan over pairs in lexicographic order: each row r is tried
    against the slice of rows after it, iterated directly with a running
    index, and for the same reason a pair covers exactly when r | q is the
    full mask. Rows before r need no test: one that completed r would have
    been returned already as the first member of that pair, so the first
    hit for r lies after it. The first pair met is the witness, and when
    none is met there is no cover of size 2. The scan reads no bit counts
    and needs no transpose; the rows are transposed only if size 3 is
    reached. Each other size is decided exactly by branching on the
    columns (``_cover_exists``), and at the first size that holds the
    witness is found by one ordered search (``_first_cover``) that the
    same decision guides row by row."""
    if k < 1:
        raise ValueError("cover size must be >= 1")
    n = len(rows)
    fm = (1 << n) - 1  # full_mask(n), inlined: the search calls this once a state
    if fm in rows:
        return [rows.index(fm)]
    if k == 1:
        return None
    first = 2
    if cols is None:
        i = 1  # one past the row r
        for r in rows:
            j = i
            for q in rows[i:]:
                if q | r == fm:
                    return [i - 1, j]
                j += 1
            i += 1
        if k == 2:
            return None
        cols = _transpose(n, rows)
        first = 3
    most = max(map(int.bit_count, rows))
    if most * k < n:
        return None  # k rows cannot reach n elements yet
    for size in range(first, min(k, n) + 1):
        if _cover_exists(rows, cols, fm, size, fm, most):
            return _first_cover(rows, cols, fm, size, 0, most)
    return None


def _members(spec: ModelSpec, rounds: Iterable[Graph]) -> Iterator[Graph]:
    """Yield the rounds, raising ValueError at the first that is not a
    member of spec's family. A repeated graph object is checked once."""
    valid = _once(partial(validate_member, spec))
    for t, g in enumerate(rounds, start=1):
        if not valid(g):
            raise ValueError(f"round {t} is not a valid {spec.model.value} member")
        yield g


class RoundSequence:
    """A validated sequence of raw adversary graphs under one model."""

    __slots__ = ("spec", "rounds", "_trace")

    def __init__(self, spec: ModelSpec, rounds: list[Graph]):
        self.spec = spec
        self.rounds = list(_members(spec, rounds))
        self._trace = ProductTrace(spec.n, self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def trace(self) -> ProductTrace:
        """The sequence's one trace: ``run`` and the certificates share its prefixes."""
        return self._trace


@dataclass(frozen=True)
class RunResult:
    objective: Objective
    time: int
    witness: tuple[int, ...]
    final_product: Graph

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective.kind,
            "k": self.objective.k,
            "time": self.time,
            "witness": list(self.witness),
        }


_CANONICAL = {
    Model.TREES: "broadcast",
    Model.K_FORESTS: "cover",
    Model.K_ROOTED: "kbroadcast",
}


def run(seq: RoundSequence, objective: Objective) -> RunResult:
    """Smallest t at which the objective holds on the cumulative product
    G(t); t = 0 is legal (e.g. a cover of size n holds before any round).

    Raises ObjectiveNotReached when the sequence is exhausted first. Running
    an objective against a non-matching model is allowed but warned about.
    """
    n = seq.spec.n
    if objective.k > n:
        raise ValueError(f"objective k={objective.k} exceeds n={n}")
    if objective.kind != _CANONICAL[seq.spec.model]:
        warnings.warn(
            f"objective {objective.kind!r} evaluated on a "
            f"{seq.spec.model.value} sequence",
            stacklevel=2,
        )
    elif objective.kind != "broadcast" and objective.k > seq.spec.k:
        warnings.warn(
            f"objective k={objective.k} exceeds the model parameter k={seq.spec.k}",
            stacklevel=2,
        )
    return _first_hit(n, map(seq.trace().prefix, range(len(seq) + 1)), objective)


def sampled_run(spec: ModelSpec, seeds: Iterable[int]) -> RunResult:
    """``run`` of spec's own objective on ``random_graph(spec, s)`` for s in
    seeds, drawing and checking each round only when the run reaches it."""
    rounds = _members(spec, (random_graph(spec, s) for s in seeds))
    objective = Objective(_CANONICAL[spec.model], spec.k)
    return _first_hit(spec.n, prefix_products(spec.n, rounds), objective)


def _first_hit(n: int, prefixes: Iterable[tuple[int, ...]], objective: Objective) -> RunResult:
    """The first prefix product, given as in-rows from the identity on, that
    meets the objective; none is read past it. ``Objective.witness``
    decides broadcast and k-broadcast on the in-rows themselves, and only a
    cover transposes each prefix it decides; the product reported in the
    result or the exception is transposed once."""
    for t, cols in enumerate(prefixes):
        witness = objective.witness(cols=cols)
        if witness is not None:
            return RunResult(objective, t, witness, graph_from_in_rows(n, cols))
    raise ObjectiveNotReached(objective, t, graph_from_in_rows(n, cols))
