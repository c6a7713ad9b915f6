"""Acceptance gates. Each test enforces one criterion at its stated
tolerance and prints one pass/fail line (use ``pytest -s`` to see them as
they run)."""

import math
import random
import time

import pytest

from dynnet.analysis import (
    BETA,
    StrictRoundsGraph,
    alpha,
    bounds_values,
    build_rounds_graph,
    build_strict_sets,
    ceil_beta,
    ceil_one_plus_sqrt2,
    check_duality,
    check_monotonicity,
    check_propagation,
    check_root_counting,
    check_transitivity,
    max_out_degree_witness,
    smallest_roots,
    verify_strict_inequalities,
)
from dynnet.constructions import cover_lower_bound, kroot_lower_bound, trees_lower_bound
from dynnet.dissemination import Objective, ObjectiveNotReached, run, sampled_run
from dynnet.families import Model, ModelSpec, random_graph
from dynnet.graphs import ProductTrace, full_mask, graph_from_rows, product
from dynnet.search import exact_worst_case

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _gate(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    line = (
        f"{'PASS' if ok and elapsed < budget else 'FAIL'} {name}: {detail} "
        f"[{elapsed:.1f}s / {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _adherence(cells, samples: int, stride: int) -> tuple[int, int]:
    """(runs, misses) of ``samples`` sampled runs for each cell (spec, horizon,
    start): from the seeds start, start + stride, ..., each of horizon rounds."""
    runs = misses = 0
    for spec, horizon, start in cells:
        for base in range(start, start + samples * stride, stride):
            runs += 1
            try:
                sampled_run(spec, range(base, base + horizon))
            except ObjectiveNotReached:
                misses += 1
    return runs, misses


def test_criterion_1_tree_upper_bound_adherence():
    t0 = time.time()
    cells = [(ModelSpec(Model.TREES, n), ceil_one_plus_sqrt2(n), n * 1_000_000)
             for n in range(3, 21)]
    runs, misses = _adherence(cells, 1000, 977)
    _gate("criterion-1 tree-upper-bound", misses == 0, time.time() - t0, 60,
          f"runs={runs} misses={misses}")


def test_criterion_2_forest_upper_bound_adherence():
    t0 = time.time()
    cells = [(ModelSpec(Model.K_FORESTS, n, k), ceil_beta(n) + 1, (n * 13 + k) * 1_000_000)
             for n in range(4, 17) for k in (1, 2, 3)]
    runs, misses = _adherence(cells, 500, 613)
    _gate("criterion-2 forest-upper-bound", misses == 0, time.time() - t0, 120,
          f"runs={runs} misses={misses}")


def test_criterion_3_k_rooted_upper_bound_adherence():
    t0 = time.time()
    cells = [(ModelSpec(Model.K_ROOTED, n, k), ceil_one_plus_sqrt2(n) + k - 1,
              (n * 17 + k) * 1_000_000)
             for n in range(4, 15) for k in (1, 2, 3)]
    runs, misses = _adherence(cells, 500, 331)
    _gate("criterion-3 k-rooted-upper-bound", misses == 0, time.time() - t0, 120,
          f"runs={runs} misses={misses}")


def test_criterion_4_exact_search_sandwich():
    t0 = time.time()
    values = {}
    ok = True
    for n in (2, 3, 4, 5):
        spec = ModelSpec(Model.TREES, n)
        res = exact_worst_case(spec, Objective.broadcast(), mem_cap_bytes=2 << 30)
        b = bounds_values(Model.TREES, n)
        values[n] = res.value
        ok &= b.lower <= res.value <= b.upper_int
        ok &= run(res.optimal_sequence, Objective.broadcast()).time == res.value
    ok &= values[2] == 1
    _gate("criterion-4 exact-search-sandwich", ok, time.time() - t0, 600,
          f"values={values}")


def test_criterion_5_construction_lower_bounds():
    t0 = time.time()
    bad = []
    for n in range(4, 61):
        out = trees_lower_bound(n)
        t = run(out.seq, Objective.broadcast()).time
        ub = bounds_values(Model.TREES, n).upper_int
        if not out.claimed_time <= t <= ub:
            bad.append(("tree", n, 1, t))
    for k in (2, 3):
        for n in range(6, 61):
            out = cover_lower_bound(n, k)
            t = run(out.seq, Objective.cover(k)).time
            ub = bounds_values(Model.K_FORESTS, n, k).upper_int
            if not out.claimed_time <= t <= ub:
                bad.append(("forest", n, k, t))
    for k in (2, 3):
        for n in range(9, 61):
            if n < 3 * k + 3:
                continue
            out = kroot_lower_bound(n, k)
            t = run(out.seq, Objective.k_broadcast(k)).time
            ub = bounds_values(Model.K_ROOTED, n, k).upper_int
            if not out.claimed_time <= t <= ub:
                bad.append(("digraph", n, k, t))
    _gate("criterion-5 construction-lower-bounds", not bad, time.time() - t0, 120,
          f"violations={bad[:5]}")


def test_criterion_6_strict_sets_certificate():
    t0 = time.time()
    bad = []
    runs = 0
    combos = [(n, k) for n in range(4, 17) for k in (1, 2, 3)]
    i = 0
    while runs < 200:
        n, k = combos[i % len(combos)]
        i += 1
        spec = ModelSpec(Model.K_FORESTS, n, k)
        horizon = ceil_beta(n) + 1
        base = 5_000_000 + runs * 7919
        trace = ProductTrace(
            n, [random_graph(spec, base + t) for t in range(horizon)]
        )
        runs += 1
        tr = build_strict_sets(trace, k, horizon)
        if not tr.complete:
            bad.append((n, k, "incomplete"))
            continue
        report = verify_strict_inequalities(tr)
        if not report.all_passed:
            bad.append((n, k, [c.name for c in report.failures()]))
        if sum(tr.deltas.values()) > BETA * n:
            bad.append((n, k, "gap-sum"))
    _gate("criterion-6 strict-sets-certificate", not bad, time.time() - t0, 180,
          f"runs={runs} violations={bad[:4]}")


def test_criterion_7_rounds_graph_pigeonhole():
    t0 = time.time()
    bad = []
    runs = 0
    for n in range(3, 13):
        spec = ModelSpec(Model.TREES, n)
        horizon = ceil_one_plus_sqrt2(n)
        for i in range(20):
            base = 9_000_000 + (n * 20 + i) * 1009
            trace = ProductTrace(
                n, [random_graph(spec, base + t) for t in range(horizon)]
            )
            runs += 1
            wit = max_out_degree_witness(build_rounds_graph(trace))
            final = trace.product_at(horizon)
            if wit.degree < n or final.out_rows[wit.process] != full_mask(n):
                bad.append(("tree", n, i))
    rnd = random.Random(123)
    for i in range(100):
        n = rnd.randint(5, 12)
        k = rnd.randint(2, 3)
        avoid = frozenset(rnd.sample(range(n), k - 1))
        spec = ModelSpec(Model.K_ROOTED, n, k)
        horizon = ceil_one_plus_sqrt2(n) + len(avoid)
        base = 11_000_000 + i * 2003
        trace = ProductTrace(
            n, [random_graph(spec, base + t) for t in range(horizon)]
        )
        runs += 1
        wit = max_out_degree_witness(build_rounds_graph(trace, avoid))
        final = trace.product_at(horizon)
        if (
            wit.degree < n
            or wit.process in avoid
            or final.out_rows[wit.process] != full_mask(n)
        ):
            bad.append(("digraph", n, i))
    _gate("criterion-7 rounds-graph-pigeonhole", not bad, time.time() - t0, 60,
          f"traces={runs} violations={bad[:4]}")


def test_criterion_8_lemma_micro_properties():
    t0 = time.time()
    rnd = random.Random(2024)
    per_lemma = {"duality": 0, "transitivity": 0, "monotonicity": 0,
                 "propagation": 0, "root-counting": 0}
    violations = dict.fromkeys(per_lemma, 0)
    target = 10_000
    trace_idx = 0
    while min(per_lemma.values()) < target:
        n = rnd.randint(3, 8)
        spec = ModelSpec(Model.TREES, n)
        length = rnd.randint(8, 3 * n)
        base = 13_000_000 + trace_idx * 4999
        trace_idx += 1
        trace = ProductTrace(
            n, [random_graph(spec, base + t) for t in range(length)]
        )
        roots = smallest_roots(trace)
        chunk = 500
        violations["duality"] += check_duality(trace, rnd, chunk)
        violations["transitivity"] += check_transitivity(trace, rnd, chunk)
        violations["monotonicity"] += check_monotonicity(trace, rnd, chunk)
        violations["propagation"] += check_propagation(trace, roots, rnd, chunk)
        violations["root-counting"] += check_root_counting(trace, roots, rnd, chunk)
        for key in per_lemma:
            per_lemma[key] += chunk

    # relational composition against the cubic oracle
    product_bad = 0
    for i in range(1000):
        n = rnd.randint(2, 8)
        rows_a = [rnd.randrange(1 << n) for _ in range(n)]
        rows_b = [rnd.randrange(1 << n) for _ in range(n)]
        a, b = graph_from_rows(n, rows_a), graph_from_rows(n, rows_b)
        expect = set()
        for x in range(n):
            for y in range(n):
                if any(a.has_edge(x, z) and b.has_edge(z, y) for z in range(n)):
                    expect.add((x, y))
        if set(product(a, b).edges()) != expect:
            product_bad += 1
    ok = all(v == 0 for v in violations.values()) and product_bad == 0
    _gate("criterion-8 lemma-micro-properties", ok, time.time() - t0, 120,
          f"samples={per_lemma} violations={violations} product_bad={product_bad}")


def test_criterion_9_alpha_beta_anchors():
    t0 = time.time()
    alpha_ok = True
    for k in (1, 2, 3, 5):
        srg = StrictRoundsGraph(k, k + 12, tuple([0] * 12))
        for s in range(k + 1, k + 13):
            alpha_ok &= srg.weighted_out_degree(s) == alpha(s, k)

    L = 200_000
    partial_sq = math.fsum(1.0 / (l * l) for l in range(L, 0, -1))
    partial_tel = math.fsum(1.0 / (l * l + l) for l in range(L, 0, -1))
    estimate = (
        partial_sq + (1.0 / (L + 1) + 1.0 / L) / 2 + partial_tel + 1.0 / (L + 1)
    )
    beta_ok = abs(estimate - BETA) <= 1e-9

    table_ok = True
    for model in Model:
        for n in range(2, 201):
            ks = [1] if model is Model.TREES else range(1, min(n, 8) + 1)
            for k in ks:
                b = bounds_values(model, n, k)
                table_ok &= b.lower <= b.upper_int
    ok = alpha_ok and beta_ok and table_ok
    _gate("criterion-9 alpha-beta-anchors", ok, time.time() - t0, 60,
          f"alpha_ok={alpha_ok} beta_err={abs(estimate - BETA):.2e} table_ok={table_ok}")
