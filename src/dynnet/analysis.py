"""Bound formulas and the two proof certificates computed on concrete runs:
the rounds graph (broadcast / k-broadcast) and the backward strict-sets
construction with its strict rounds graph (cover).

The bounds are ceilings of irrational numbers, computed exactly in Python
integers: sqrt(2) n through ``math.isqrt``, and pi through the 60-digit
bracket [P, P + 1] / 10^60."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .families import Model, ModelSpec, forest_roots, roots_reaching_all
from .graphs import ProductTrace, _once, bits, compose_out_rows, full_mask, identity, row_image

BETA = (math.pi ** 2 + 6) / 6  # float view; exact comparisons go through P

_D = 10 ** 60
P = 3141592653589793238462643383279502884197169399375105820974944  # floor(pi * _D)
# beta = (pi^2 + 6) / 6 lies in [_BETA_LO, _BETA_HI] / _BETA_DEN
_BETA_DEN = 6 * _D * _D
_BETA_LO = P * P + _BETA_DEN
_BETA_HI = (P + 1) ** 2 + _BETA_DEN


def ceil_sqrt2(n: int) -> int:
    """ceil(sqrt(2) * n), exactly: sqrt(2) n is irrational for n > 0."""
    return math.isqrt(2 * n * n) + (n > 0)


def ceil_one_plus_sqrt2(n: int) -> int:
    """ceil((1 + sqrt(2)) * n), exactly."""
    return n + ceil_sqrt2(n)


def ceil_beta(n: int) -> int:
    """ceil((pi^2 + 6) / 6 * n), exactly: both ends of the bracket agree."""
    lo, hi = _ceil_div(_BETA_LO * n, _BETA_DEN), _ceil_div(_BETA_HI * n, _BETA_DEN)
    if lo != hi:  # pragma: no cover - 60 digits leave no room for this
        raise ArithmeticError(f"beta * {n} straddles an integer at 60 digits")
    return lo


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _float_down(num: int, den: int) -> float:
    """The largest double <= num / den, for positive num and den."""
    f = num / den  # correctly rounded, so at most one ulp too high
    a, b = f.as_integer_ratio()
    return math.nextafter(f, 0.0) if a * den > num * b else f


def _sqrt2_floor(n: int) -> int:
    """floor(sqrt(2) * n * 10^60)."""
    return math.isqrt(2 * (n * _D) ** 2)


@dataclass(frozen=True)
class Bounds:
    model: Model
    n: int
    k: int
    lower: int
    upper_real: float
    upper_int: int


def bounds_values(model: Model, n: int, k: int = 1) -> Bounds:
    """Worst-case time brackets: integer lower bound and the real upper
    bound with its exact ceiling. The real bound is the largest double at
    or below it. Pure formula evaluation, so n may exceed the simulator's
    64-node cap."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"bad bounds parameters n={n}, k={k}")
    if model is Model.TREES:
        lower = _ceil_div(3 * n - 1, 2) - 2
        upper_real = _float_down(n * _D + _sqrt2_floor(n), _D)
        upper_int = ceil_one_plus_sqrt2(n)
    elif model is Model.K_FORESTS:
        lower = _ceil_div(3 * (n - k), 2) - 1
        upper_real = _float_down(_BETA_LO * n + _BETA_DEN, _BETA_DEN)
        upper_int = ceil_beta(n) + 1
    else:
        lower = _ceil_div(3 * (n - 3 * k), 2) + 2
        upper_real = _float_down((n + k - 1) * _D + _sqrt2_floor(n), _D)
        upper_int = ceil_one_plus_sqrt2(n) + k - 1
    return Bounds(model, n, k, lower, upper_real, upper_int)


def bounds_for(spec: ModelSpec) -> Bounds:
    return bounds_values(spec.model, spec.n, spec.k)


def alpha(s: int, k: int) -> int:
    """Weighted out-degree of vertex s in the strict rounds graph, in closed
    form: the sum of the weights of ``StrictRoundsGraph.edges()`` out of s."""
    if s <= k:
        raise ValueError(f"alpha needs s >= k + 1, got s={s}, k={k}")
    m = s - k
    if m % 2 == 1:
        return ((m + 1) // 2) ** 2
    return (m // 2) ** 2 + m // 2


# ---------------------------------------------------------------------------
# Rounds graph (broadcast / k-broadcast certificate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundsGraphWitness:
    """A process of largest out-degree in a rounds graph."""

    process: int
    degree: int


@dataclass
class RoundsGraph:
    """Bipartite-ish certificate over process nodes and round nodes.

    Round t gets an in-edge from every non-avoided process that the round's
    chosen root has heard of before t; early rounds additionally point at
    later rounds whose roots heard them. Overloading some out-degree to n is
    what witnesses a broadcaster. A round never has more out-edges than its
    root: the root is not avoided, so every later round whose root heard it
    also has an in-edge from it.
    """

    n: int
    avoid: frozenset[int]
    round_count: int
    threshold: int                      # round -> round edges only from t < threshold
    roots: tuple[int, ...]              # roots[t-1] is the chosen root of round t
    process_edges: tuple[tuple[int, int], ...]  # (process, round)
    round_edges: tuple[tuple[int, int], ...]    # (round, later round)

    def node_count(self) -> int:
        return self.n + self.round_count

    def process_out_degrees(self) -> list[int]:
        deg = [0] * self.n
        for p, _ in self.process_edges:
            deg[p] += 1
        return deg

    def round_in_degrees(self) -> list[int]:
        deg = [0] * (self.round_count + 1)
        for _, t in self.process_edges:
            deg[t] += 1
        for _, t2 in self.round_edges:
            deg[t2] += 1
        return deg

    def to_dot(self) -> str:
        lines = ["digraph rounds_graph {"]
        for p in range(self.n):
            shape = "doublecircle" if p in self.avoid else "circle"
            lines.append(f'  p{p} [label="p{p}", shape={shape}];')
        for t in range(1, self.round_count + 1):
            lines.append(f'  t{t} [label="r{t}={self.roots[t - 1]}", shape=box];')
        for p, t in self.process_edges:
            lines.append(f"  p{p} -> t{t};")
        for t, t2 in self.round_edges:
            lines.append(f"  t{t} -> t{t2};")
        lines.append("}")
        return "\n".join(lines)


def build_rounds_graph(trace: ProductTrace, avoid: frozenset[int] = frozenset()) -> RoundsGraph:
    """Construct the certificate from a trace of rooted rounds; the trace
    must be at least ceil((1+sqrt2) n) + |avoid| rounds long. The chosen
    root of each round is the smallest root outside the avoided set; the
    roots of a round object that the trace repeats are searched once, and
    each round's heard row is read once. Only the trace's prefixes before
    round_count are read, so after ``run`` only the later ones are composed."""
    n = trace.n
    outside = sorted(v for v in avoid if not 0 <= v < n)
    if outside:
        raise ValueError(f"avoided ids {outside} outside [0, {n})")
    round_count = ceil_one_plus_sqrt2(n) + len(avoid)
    threshold = ceil_sqrt2(n) + len(avoid)
    if len(trace) < round_count:
        raise ValueError(
            f"trace too short: {len(trace)} rounds, need {round_count}"
        )
    roots = []
    round_roots = _once(roots_reaching_all)
    for t in range(1, round_count + 1):
        candidates = round_roots(trace.rounds[t - 1]) - avoid
        if not candidates:
            raise ValueError(f"round {t} has no root outside the avoided set")
        roots.append(min(candidates))
    # heard[t-1]: the processes round t's root has heard of before round t
    heard = [trace.prefix(t)[r] for t, r in enumerate(roots)]
    kept = full_mask(n) & ~sum(1 << v for v in avoid)
    process_edges = [(p, t) for t, h in enumerate(heard, 1) for p in bits(h & kept)]
    # hearers[r]: the rounds, ascending, whose root has heard of process r
    hearers = {
        r: [t2 for t2, h in enumerate(heard, 1) if h >> r & 1]
        for r in set(roots[: threshold - 1])
    }
    round_edges = []
    for t in range(1, min(threshold, round_count + 1)):
        later = hearers[roots[t - 1]]
        round_edges += [(t, t2) for t2 in later[bisect_right(later, t):]]
    return RoundsGraph(
        n, frozenset(avoid), round_count, threshold, tuple(roots),
        tuple(process_edges), tuple(round_edges),
    )


def max_out_degree_witness(rg: RoundsGraph) -> RoundsGraphWitness:
    """The smallest process outside the avoided set of largest out-degree.
    No round node has more out-edges than its root (see ``RoundsGraph``),
    so it has the largest out-degree of the whole graph. The pigeonhole
    argument guarantees degree at least n on full-length traces."""
    degrees = rg.process_out_degrees()
    process = max((p for p in range(rg.n) if p not in rg.avoid), key=degrees.__getitem__)
    return RoundsGraphWitness(process, degrees[process])


# ---------------------------------------------------------------------------
# Strict sets (cover certificate)
# ---------------------------------------------------------------------------


Pair = tuple[int, int]  # (process, round)


@dataclass
class StrictSetsTrace:
    """The backward cover construction: sets A_s of (process, round) pairs
    shrinking from |A_n| = n down to |A_k| = k, with the rounds t^(s) at
    which strictness first fails and the gaps Delta_s between them."""

    k: int
    n: int
    t_prime: int
    complete: bool
    sets: dict[int, tuple[Pair, ...]]   # s -> sorted pairs
    t_marks: dict[int, int]             # s -> t^(s)
    pivots: dict[int, int]              # s -> pivot process p_s
    trace: ProductTrace = field(repr=False)

    @property
    def deltas(self) -> dict[int, int]:
        return {
            s: self.t_marks[s] - self.t_marks[s - 1]
            for s in range(self.k + 1, self.n + 1)
            if s in self.t_marks and s - 1 in self.t_marks
        }


def build_strict_sets(trace: ProductTrace, k: int, t_prime: int) -> StrictSetsTrace:
    """Run the backward construction on a k-forest trace.

    Each level is one backward pass: every member starts at {a_i} and
    takes each round from its own t_i down, and from min(t_i) + 1 down the
    pairwise-disjointness of the in-sets is re-checked after each round;
    the largest failing round becomes t^(s), the smallest process seen by
    two members becomes the pivot. If some A_{s+1} is still strict at
    round 1 the run was too short and the result is flagged incomplete.
    """
    n = trace.n
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if not 1 <= t_prime <= len(trace):
        raise ValueError(f"t_prime {t_prime} outside trace of length {len(trace)}")
    # kept sorted so the pivot's (i, j) choice is canonical, not an
    # artifact of earlier removals
    pairs: list[Pair] = sorted((i, t_prime) for i in range(n))
    in_rows = [g.in_rows for g in trace.rounds[:t_prime]]
    sets = {n: tuple(pairs)}
    t_marks = {n: t_prime}
    pivots: dict[int, int] = {}
    complete = True
    for s in range(n - 1, k - 1, -1):
        t_scan = min(t for _, t in pairs) + 1
        # after round t, masks[i] is In(t, t_i, a_i), which is {a_i} while t > t_i
        masks = [1 << a_i for a_i, _ in pairs]
        for t in range(max(t for _, t in pairs), 0, -1):
            rows = in_rows[t - 1]
            masks = [m | row_image(rows, m) if t <= t_i else m for m, (_, t_i) in zip(masks, pairs)]
            if t <= t_scan:
                run = dup = 0
                for m in masks:
                    dup |= run & m
                    run |= m
                if dup:
                    break
        else:
            complete = False
            break
        t_mark = t
        pivot = (dup & -dup).bit_length() - 1
        hit = [i for i, m in enumerate(masks) if m >> pivot & 1]
        i, j = hit[0], hit[1]
        pivot_pair = (pivot, t_mark - 1)
        new_pairs = list(pairs)
        if pivot_pair in pairs:
            # drop one of the two intersecting members, never the pivot pair
            drop = pairs[i] if pairs[i] != pivot_pair else pairs[j]
            new_pairs.remove(drop)
        else:
            new_pairs.remove(pairs[i])
            new_pairs.remove(pairs[j])
            new_pairs.append(pivot_pair)
        pairs = sorted(new_pairs)
        sets[s] = tuple(pairs)
        t_marks[s] = t_mark
        pivots[s] = pivot
    return StrictSetsTrace(k, n, t_prime, complete, sets, t_marks, pivots, trace)


@dataclass(frozen=True)
class StrictRoundsGraph:
    """Weighted digraph on vertices k+1..n with vertex weights Delta_s and
    the weighted edges of ``edges()``."""

    k: int
    n: int
    weights: tuple[int, ...]  # Delta_s for s = k+1 .. n

    @classmethod
    def from_trace(cls, tr: StrictSetsTrace) -> "StrictRoundsGraph":
        deltas = tr.deltas
        return cls(tr.k, tr.n, tuple(deltas[s] for s in range(tr.k + 1, tr.n + 1)))

    def weight(self, s: int) -> int:
        return self.weights[s - self.k - 1]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, s, weight) triples, grouped by target s: an edge (u, s)
        of weight 2s-k-u whenever s <= u <= min(2s-k-1, n)."""
        for s in range(self.k + 1, self.n + 1):
            for u in range(s, min(2 * s - self.k - 1, self.n) + 1):
                yield (u, s, 2 * s - self.k - u)

    def weighted_out_degree(self, u: int) -> int:
        return sum(w for uu, _, w in self.edges() if uu == u)

    def to_dot(self) -> str:
        lines = ["digraph strict_rounds {"]
        for s in range(self.k + 1, self.n + 1):
            lines.append(f'  v{s} [label="s={s}, w={self.weight(s)}"];')
        for u, s, w in self.edges():
            lines.append(f'  v{u} -> v{s} [label="{w}"];')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"{'check'.ljust(width)}  result  detail"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name.ljust(width)}  {status}    {c.detail}")
        return "\n".join(lines)


def _member_reach(tr: StrictSetsTrace) -> dict[Pair, int]:
    """Out(t_i + 1, t', a_i) of every distinct member (a_i, t_i) of every
    level, read off the suffix out-rows Out(t, t', .) of one backward sweep
    down from t', one ``graphs.compose_out_rows`` step a round."""
    n = tr.n
    starts: dict[int, set[int]] = {}
    for pairs in tr.sets.values():
        for a_i, t_i in pairs:
            if not (0 <= a_i < n and 0 <= t_i <= tr.t_prime):
                raise ValueError(f"member {(a_i, t_i)} outside [0, {n}) x [0, {tr.t_prime}]")
            starts.setdefault(t_i + 1, set()).add(a_i)
    reach: dict[Pair, int] = {}
    rows = identity(n).out_rows
    for t in range(tr.t_prime + 1, min(starts, default=tr.t_prime + 1) - 1, -1):
        if t <= tr.t_prime:
            rows = compose_out_rows(rows, tr.trace.rounds[t - 1])
        for a_i in starts.get(t, ()):
            reach[a_i, t - 1] = rows[a_i]
    return reach


def verify_strict_inequalities(
    tr: StrictSetsTrace, samples: int = 16, seed: int = 0
) -> VerificationReport:
    """Evaluate every certificate inequality on a concrete strict-sets trace
    and report both sides; a failure falsifies the implementation, not the
    bound. The cover unions of every level come from one backward sweep of
    the suffix out-rows (``_member_reach``), one ``graphs.compose_out_rows``
    step a round: a scatter of each node's row into its parent's on a forest
    round, one OR per edge on any other. Each
    pairwise intersection of levels is the popcount of an AND of their
    member bitmasks."""
    checks: list[CheckResult] = []
    k, n = tr.k, tr.n
    fm = full_mask(n)

    checks.append(CheckResult(
        "complete", tr.complete, {"levels": sorted(tr.sets)},
    ))
    for s, pairs in sorted(tr.sets.items()):
        checks.append(CheckResult(
            f"cardinality[s={s}]", len(pairs) == s and len(set(pairs)) == s,
            {"size": len(pairs)},
        ))
    reach = _member_reach(tr)
    for s, pairs in sorted(tr.sets.items()):
        covered = 0
        for pair in pairs:
            covered |= reach[pair]
        checks.append(CheckResult(
            f"cover[s={s}]", covered == fm,
            {"covered": covered.bit_count(), "needed": n},
        ))
    marks = tr.t_marks
    order_ok = all(
        marks[s] <= marks[s + 1] for s in sorted(marks) if s + 1 in marks
    )
    checks.append(CheckResult("t_marks_monotone", order_ok, {"t_marks": dict(sorted(marks.items()))}))
    for s, pairs in sorted(tr.sets.items()):
        if s not in marks:
            continue
        ok = all(marks[s] <= t_i + 1 for _, t_i in pairs)
        checks.append(CheckResult(
            f"mark_below_members[s={s}]", ok,
            {"t_mark": marks[s], "max_allowed": min(t for _, t in pairs) + 1 if pairs else None},
        ))
    levels = sorted(tr.sets)
    # each level as a bitmask over the distinct members of all levels
    index: dict[Pair, int] = {}
    member_masks = {
        s: sum(1 << index.setdefault(pair, len(index)) for pair in set(pairs))
        for s, pairs in tr.sets.items()
    }
    bad_pairs = []
    for si in levels:
        for u in levels:
            if si > u:
                continue
            inter = (member_masks[si] & member_masks[u]).bit_count()
            if inter < 2 * si - u:
                bad_pairs.append({"s": si, "u": u, "have": inter, "need": 2 * si - u})
    checks.append(CheckResult(
        "intersections", not bad_pairs,
        {"pairs_checked": len(levels) * (len(levels) + 1) // 2, "violations": bad_pairs},
    ))

    deltas = tr.deltas
    if tr.complete:
        # the in-edges of each target s, weighted by their sources' gaps
        window = dict.fromkeys(range(k + 1, n + 1), 0)
        for u, s, w in StrictRoundsGraph.from_trace(tr).edges():
            window[s] += w * deltas[u]
        for s, lhs in window.items():
            checks.append(CheckResult(
                f"window_sum[s={s}]", lhs <= n, {"lhs": lhs, "rhs": n},
            ))
        # alpha_u is u's weighted out-degree, so this is also the
        # edge-weighted volume of the sources <= u
        lhs = 0
        for u in range(k + 1, n + 1):
            lhs += deltas[u] * alpha(u, k)
            checks.append(CheckResult(
                f"volume_prefix[u={u}]", lhs <= (u - k) * n,
                {"lhs": lhs, "rhs": (u - k) * n},
            ))
        total = sum(deltas.values())
        # total is an integer and beta*n irrational: total <= beta*n iff below its ceiling
        beta_n = _float_down(_BETA_LO * n, _BETA_DEN)
        checks.append(CheckResult(
            "total_gap", total < ceil_beta(n), {"sum": total, "beta_n": beta_n},
        ))
        checks.extend(_strict_increment_spot_checks(tr, samples, seed))
    return VerificationReport(checks)


def _strict_increment_spot_checks(
    tr: StrictSetsTrace, samples: int, seed: int
) -> list[CheckResult]:
    """Sample strict (A_s, t) pairs and confirm that, apart from at most k
    exceptions, every member's in-set strictly grows one round earlier."""
    rnd = random.Random(seed)
    trace = tr.trace
    out: list[CheckResult] = []
    eligible = [
        s for s in sorted(tr.sets)
        if s in tr.t_marks and tr.t_marks[s] + 1 >= 2
    ]
    if not eligible:
        return [CheckResult("strict_increments", True, {"sampled": 0})]
    failures = 0
    tried = 0
    for _ in range(samples):
        s = rnd.choice(eligible)
        pairs = tr.sets[s]
        hi = min(t for _, t in pairs) + 1
        lo = tr.t_marks[s] + 1
        if lo > hi:
            continue
        t = rnd.randint(lo, hi)
        tried += 1
        idx = [i for i, (_, t_i) in enumerate(pairs) if t <= t_i + 1]
        roots = forest_roots(trace.rounds[t - 2])
        grown = 0
        ok = True
        for i in idx:
            a_i, t_i = pairs[i]
            cur = trace.in_mask(t, t_i, a_i)
            if any(cur >> r & 1 for r in roots):
                continue
            grown += 1
            prev = trace.in_mask(t - 1, t_i, a_i)
            if prev.bit_count() <= cur.bit_count():
                ok = False
        if grown < len(idx) - tr.k or not ok:
            failures += 1
    return [CheckResult(
        "strict_increments", failures == 0, {"sampled": tried, "failures": failures},
    )]


# ---------------------------------------------------------------------------
# Pointwise neighborhood properties, sampled on concrete traces
# ---------------------------------------------------------------------------


def check_duality(trace: ProductTrace, rnd: random.Random, samples: int) -> int:
    """Violations of: x in Out(t,t2,y) iff y is in In(t,t2,x)."""
    n, T = trace.n, len(trace)
    bad = 0
    for _ in range(samples):
        t2 = rnd.randint(0, T)
        t = rnd.randint(0, min(t2 + 2, T + 1))
        x, y = rnd.randrange(n), rnd.randrange(n)
        if (trace.out_mask(t, t2, y) >> x & 1) != (trace.in_mask(t, t2, x) >> y & 1):
            bad += 1
    return bad


def check_transitivity(trace: ProductTrace, rnd: random.Random, samples: int) -> int:
    """Violations of the three relay clauses, e.g. reaching y by round t'
    and y reaching z afterwards means x reaches z overall."""
    n, T = trace.n, len(trace)
    bad = 0
    for _ in range(samples):
        t = rnd.randint(0, T)
        tp = rnd.randint(max(0, t - 1), T)
        tpp = rnd.randint(max(0, tp), T)
        x, y, z = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
        out_x = trace.out_mask(t, tp, x)
        out_y = trace.out_mask(tp + 1, tpp, y)
        full_out_x = trace.out_mask(t, tpp, x)
        if (out_x >> y & 1) and (out_y >> z & 1) and not (full_out_x >> z & 1):
            bad += 1
        in_y = trace.in_mask(t, tp, y)
        if (in_y >> x & 1) and (out_y >> z & 1) and not (full_out_x >> z & 1):
            bad += 1
        in_z = trace.in_mask(tp + 1, tpp, z)
        if (in_y >> x & 1) and (in_z >> y & 1) and not (full_out_x >> z & 1):
            bad += 1
    return bad


def check_monotonicity(trace: ProductTrace, rnd: random.Random, samples: int) -> int:
    """Violations of interval widening: neighborhoods over [t2, t3] are
    contained in those over [t1, t4] whenever t1 <= t2 and t3 <= t4."""
    n, T = trace.n, len(trace)
    bad = 0
    for _ in range(samples):
        t1 = rnd.randint(0, T)
        t2 = rnd.randint(t1, T + 1)
        t3 = rnd.randint(-1, T)
        t4 = rnd.randint(t3, T)
        x = rnd.randrange(n)
        inner_in = trace.in_mask(t2, t3, x)
        outer_in = trace.in_mask(t1, t4, x)
        inner_out = trace.out_mask(t2, t3, x)
        outer_out = trace.out_mask(t1, t4, x)
        if inner_in & ~outer_in or inner_out & ~outer_out:
            bad += 1
    return bad


def check_propagation(
    trace: ProductTrace, roots: list[int], rnd: random.Random, samples: int
) -> int:
    """Violations of the two growth clauses on rooted rounds: a missing
    round-root strictly grows the in-set one round earlier, and reaching a
    later round's root strictly grows the out-set there (until full)."""
    n, T = trace.n, len(trace)
    fm = full_mask(n)
    bad = 0
    for _ in range(samples):
        t = rnd.randint(1, T)
        tp = rnd.randint(t, T)
        x = rnd.randrange(n)
        narrow = trace.in_mask(t + 1, tp, x)
        if not (narrow >> roots[t - 1] & 1):
            wide = trace.in_mask(t, tp, x)
            if wide.bit_count() <= narrow.bit_count():
                bad += 1
        before = trace.out_mask(t, tp - 1, x)
        if (before >> roots[tp - 1] & 1) and before != fm:
            after = trace.out_mask(t, tp, x)
            if after.bit_count() <= before.bit_count():
                bad += 1
    return bad


def check_root_counting(
    trace: ProductTrace, roots: list[int], rnd: random.Random, samples: int
) -> int:
    """Violations of: the number of rounds in [t1, t2] whose root is missing
    from the in-set, plus one, never exceeds the in-set size."""
    n, T = trace.n, len(trace)
    bad = 0
    for _ in range(samples):
        t1 = rnd.randint(1, T)
        t2 = rnd.randint(t1, T)
        x = rnd.randrange(n)
        known = trace.in_mask(t1, t2, x)
        missing = sum(
            1 for t in range(t1, t2 + 1) if not (known >> roots[t - 1] & 1)
        )
        if missing + 1 > known.bit_count():
            bad += 1
    return bad


def smallest_roots(trace: ProductTrace) -> list[int]:
    """Smallest root of each round: the root ``build_rounds_graph`` picks
    when it avoids nothing. The lemma spot checks (``check_propagation``,
    ``check_root_counting``) read it; the strict-sets checks read
    ``forest_roots`` instead."""
    return [min(roots_reaching_all(g)) for g in trace.rounds]
