"""The four benchmark workloads.

A workload turns a seed into jobs. A job is a fixed list of operations;
each operation calls into ``dynnet`` and checks its output, raising
:class:`CheckFailed` when the output is wrong. Operations call the library
through module attributes (``families.random_graph``, ``dissemination.run``,
...) so that the traced run sees them through the wrappers in ``layers``.

- ``sample``: seeded random adversary sequences for all three families,
  validated and run to the family's guarantee horizon (the traffic of
  ``dynnet verify``). Mostly the ``families`` generation layer.
- ``search-tree``: exact worst-case broadcast search over rooted trees at
  n=5. The memo recursion and successor expansion; no cover decisions.
- ``search-cover``: exact worst-case cover search over 2-forests at n=5,
  the one place where ``cover_achieved`` does most of the work.
- ``certify``: lower-bound schedules up to n=64, serialized, replayed and
  certified, plus strict-sets certificates on seeded k-forest traces. Few
  calls on long traces, mostly ``ProductTrace`` construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from dynnet import analysis, constructions, dissemination, families, search, seqfile
from dynnet.dissemination import Objective, ObjectiveNotReached
from dynnet.families import Model, ModelSpec
from dynnet.graphs import full_mask


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


Op = Callable[[], None]

# (model, k) pairs covered by the sample and certify workloads
COMBOS = [(Model.TREES, 1)] + [(m, k) for m in (Model.K_FORESTS, Model.K_ROOTED) for k in (1, 2, 3)]


def objective_for(model: Model, k: int) -> Objective:
    if model is Model.TREES:
        return Objective.broadcast()
    if model is Model.K_FORESTS:
        return Objective.cover(k)
    return Objective.k_broadcast(k)


def _run(seq: dissemination.RoundSequence, objective: Objective, what: str) -> int:
    try:
        return dissemination.run(seq, objective).time
    except ObjectiveNotReached as exc:
        raise CheckFailed(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def sample_op(spec: ModelSpec, horizon: int, base_seed: int) -> Op:
    """One random adversary sequence of ``horizon`` rounds; the objective
    must hold within it."""
    objective = objective_for(spec.model, spec.k)

    def op() -> None:
        rounds = [families.random_graph(spec, base_seed + t) for t in range(horizon)]
        seq = dissemination.RoundSequence(spec, rounds)
        time = _run(seq, objective, f"sample {spec}")
        if time > horizon:
            raise CheckFailed(f"sample {spec}: time {time} beyond horizon {horizon}")

    return op


@dataclass(frozen=True)
class SampleWorkload:
    """One sequence per (model, k) pair and size in ``sizes``. Small sizes
    dominate the count, as in the verify grid; the large ones keep every
    family exercised up to n=64."""

    sizes: tuple[int, ...] = tuple(range(3, 17)) + (20, 24, 32, 48, 64)

    def job(self, seed: int, index: int) -> list[Op]:
        rnd = random.Random(f"sample/{seed}/{index}")
        ops = []
        for model, k in COMBOS:
            for n in self.sizes:
                spec = ModelSpec(model, n, k)
                horizon = analysis.bounds_for(spec).upper_int
                ops.append(sample_op(spec, horizon, rnd.getrandbits(48)))
        return ops

    def warmup(self) -> Op:
        spec = ModelSpec(Model.TREES, 8)
        return sample_op(spec, analysis.bounds_for(spec).upper_int, 0)


# ---------------------------------------------------------------------------
# search-tree, search-cover
# ---------------------------------------------------------------------------


def search_op(spec: ModelSpec, objective: Objective, expected: int) -> Op:
    """Exact worst-case search; the value must match the known one and the
    reported optimal sequence must replay to it."""

    def op() -> None:
        res = search.exact_worst_case(spec, objective, threads=1)
        if res.value != expected:
            raise CheckFailed(f"search {spec}: value {res.value}, expected {expected}")
        replay = _run(res.optimal_sequence, objective, f"search {spec} replay")
        if replay != res.value:
            raise CheckFailed(f"search {spec}: optimal sequence replays to {replay}, not {res.value}")

    return op


@dataclass(frozen=True)
class SearchWorkload:
    """A single exact search per job. The search space is fixed by the
    family, n and objective, so the seed does not change the work; it is
    recorded with the result like every other run's."""

    model: Model
    n: int
    k: int
    expected: int
    warmup_n: int
    warmup_expected: int

    def job(self, seed: int, index: int) -> list[Op]:
        spec = ModelSpec(self.model, self.n, self.k)
        return [search_op(spec, objective_for(self.model, self.k), self.expected)]

    def warmup(self) -> Op:
        spec = ModelSpec(self.model, self.warmup_n, self.k)
        return search_op(spec, objective_for(self.model, self.k), self.warmup_expected)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _check_strict_sets(trace, k: int, t_prime: int, seed: int, what: str) -> None:
    tr = analysis.build_strict_sets(trace, k, t_prime)
    if not tr.complete:
        raise CheckFailed(f"{what}: strict sets incomplete")
    report = analysis.verify_strict_inequalities(tr, seed=seed)
    if not report.all_passed:
        raise CheckFailed(f"{what}: failed {[c.name for c in report.failures()]}")


def _check_rounds_graph(trace, avoid: frozenset[int], what: str) -> None:
    rg = analysis.build_rounds_graph(trace, avoid)
    wit = analysis.max_out_degree_witness(rg)
    final = trace.product_at(rg.round_count)
    if wit.degree < trace.n or wit.process in avoid or final.out_rows[wit.process] != full_mask(trace.n):
        raise CheckFailed(f"{what}: rounds-graph witness {wit} is not a broadcaster")


def schedule_op(model: Model, n: int, k: int, seed: int) -> Op:
    """Build the lower-bound schedule, round-trip it through the sequence
    file format, replay it and certify the trace."""
    what = f"schedule {model.value} n={n} k={k}"
    objective = objective_for(model, k)
    upper = analysis.bounds_values(model, n, k).upper_int
    avoid = frozenset(random.Random(seed).sample(range(n), k - 1))

    def op() -> None:
        out = constructions.build(model, n, k)
        text = seqfile.dumps(out.seq, seed)
        seq = seqfile.loads(text)
        if seqfile.dumps(seq, seed) != text:
            raise CheckFailed(f"{what}: sequence file round trip is not byte-stable")
        time = _run(seq, objective, what)
        if not out.claimed_time <= time <= upper:
            raise CheckFailed(f"{what}: time {time} outside [{out.claimed_time}, {upper}]")
        trace = seq.trace()
        if model is Model.K_FORESTS:
            _check_strict_sets(trace, k, len(trace), seed, what)
        else:
            _check_rounds_graph(trace, avoid, what)

    return op


def forest_trace_op(n: int, k: int, base_seed: int, seed: int) -> Op:
    """Strict-sets certificate on a seeded random k-forest sequence run to
    the cover guarantee horizon."""
    spec = ModelSpec(Model.K_FORESTS, n, k)
    horizon = analysis.bounds_for(spec).upper_int
    what = f"forest trace n={n} k={k} seed={base_seed}"

    def op() -> None:
        rounds = [families.random_graph(spec, base_seed + t) for t in range(horizon)]
        seq = dissemination.RoundSequence(spec, rounds)
        _check_strict_sets(seq.trace(), k, horizon, seed, what)

    return op


@dataclass(frozen=True)
class CertifyWorkload:
    """Schedules for every (model, k) pair, with k >= 2 for the multi-root
    families, at each size in ``schedule_sizes``, plus seeded k-forest
    traces at ``forest_sizes``. Every job has the same sizes, so the
    latency percentiles compare the same operations from run to run."""

    schedule_sizes: tuple[int, ...] = (16, 32, 64)
    forest_sizes: tuple[tuple[int, int], ...] = tuple((n, k) for n in (16, 32) for k in (1, 2, 3)) + ((64, 2),)

    def job(self, seed: int, index: int) -> list[Op]:
        rnd = random.Random(f"certify/{seed}/{index}")
        ops = []
        for model, k in COMBOS:
            if model is not Model.TREES and k == 1:
                continue
            for n in self.schedule_sizes:
                ops.append(schedule_op(model, n, k, rnd.getrandbits(32)))
        for n, k in self.forest_sizes:
            ops.append(forest_trace_op(n, k, rnd.getrandbits(48), rnd.getrandbits(32)))
        return ops

    def warmup(self) -> Op:
        return schedule_op(Model.TREES, 8, 1, 0)


WORKLOADS = {
    "sample": SampleWorkload(),
    "search-tree": SearchWorkload(Model.TREES, 5, 1, expected=5, warmup_n=4, warmup_expected=4),
    "search-cover": SearchWorkload(Model.K_FORESTS, 5, 2, expected=4, warmup_n=4, warmup_expected=2),
    "certify": CertifyWorkload(),
}
