import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from dynnet import graphs, seqfile
from dynnet.analysis import (
    BETA,
    P,
    RoundsGraph,
    StrictRoundsGraph,
    StrictSetsTrace,
    alpha,
    bounds_for,
    bounds_values,
    build_rounds_graph,
    build_strict_sets,
    ceil_beta,
    ceil_one_plus_sqrt2,
    ceil_sqrt2,
    check_duality,
    max_out_degree_witness,
    smallest_roots,
    verify_strict_inequalities,
)
from dynnet.constructions import build
from dynnet.dissemination import Objective, RoundSequence, run
from dynnet.families import Model, ModelSpec, random_graph, reach_mask, roots_reaching_all
from dynnet.graphs import (
    ProductTrace,
    bits,
    full_mask,
    graph_from_rows,
    identity,
    make_graph,
    product,
    row_image,
)


def machin_pi(digits):
    """floor(pi * 10^digits) in integers, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), with 20 guard digits."""
    one = 10 ** (digits + 20)

    def arctan_inv(x):
        # sum of (-1)^i / ((2i + 1) x^(2i + 1)), each term truncated
        total, power, i = 0, one // x, 0
        while power:
            total += (-1) ** i * (power // (2 * i + 1))
            power //= x * x
            i += 1
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) // 10 ** 20


def tree_trace(n, length, seed):
    spec = ModelSpec(Model.TREES, n)
    return ProductTrace(
        n, [random_graph(spec, seed * 7919 + t) for t in range(length)]
    )


def forest_trace(n, k, length, seed):
    spec = ModelSpec(Model.K_FORESTS, n, k)
    return ProductTrace(
        n, [random_graph(spec, seed * 104729 + t) for t in range(length)]
    )


class TestBounds:
    def test_trees_n2(self):
        b = bounds_for(ModelSpec(Model.TREES, 2))
        assert b.lower == 1 and b.upper_int == 5

    def test_trees_n5_upper(self):
        assert bounds_for(ModelSpec(Model.TREES, 5)).upper_int == 13

    def test_forests_upper_real(self):
        b = bounds_for(ModelSpec(Model.K_FORESTS, 6, 2))
        assert b.upper_real == pytest.approx(math.pi ** 2 + 7, abs=1e-9)
        assert b.upper_int == 17

    def test_k_rooted_upper(self):
        b = bounds_for(ModelSpec(Model.K_ROOTED, 10, 3))
        assert b.upper_int == ceil_one_plus_sqrt2(10) + 2

    def test_sandwich_over_full_grid(self):
        for model in Model:
            for n in range(2, 201):
                for k in (range(1, min(n, 8) + 1) if model is not Model.TREES else [1]):
                    b = bounds_values(model, n, k)
                    assert b.lower <= b.upper_int, (model, n, k)

    def test_exact_ceilings_consistent(self):
        pi80, one = machin_pi(80), 10 ** 160
        # exact past the doubles too: above 2^53 a float ceiling is off
        for n in [*range(1, 300), 2 ** 53 - 1, 2 ** 64 + 1, 10 ** 20 + 7, 10 ** 40 + 3]:
            m = ceil_sqrt2(n)
            # ceil(sqrt2 n) = m iff (m-1)^2 < 2n^2 < m^2, checked in integers
            assert (m - 1) ** 2 < 2 * n * n < m * m
            assert ceil_one_plus_sqrt2(n) == n + m
            # ceil(beta n) = c iff c - 1 < (pi^2 + 6) n / 6 < c, with pi to 80 digits
            c = ceil_beta(n)
            assert (c - 1) * 6 * one < (pi80 ** 2 + 6 * one) * n
            assert ((pi80 + 1) ** 2 + 6 * one) * n < c * 6 * one
        for n in range(1, 300):
            assert 0 < ceil_beta(n) - BETA * n < 1

    def test_pi_bracket(self):
        # the bracket [P, P + 1] / 10^60 holds pi, checked against Machin's formula
        assert P == machin_pi(60)

    def test_pinned_values(self):
        # every bound to the bit, and the three ceilings, are byte-stable
        doc = [
            (model.value, n, k, b.lower, b.upper_real.hex(), b.upper_int)
            for model in Model
            for n in range(1, 201)
            for k in range(1, min(n, 8) + 1)
            for b in [bounds_values(model, n, k)]
        ]
        doc.append([(ceil_sqrt2(n), ceil_one_plus_sqrt2(n), ceil_beta(n)) for n in range(2001)])
        digest = hashlib.sha256(repr(doc).encode()).hexdigest()
        assert digest == "010d09d1098f7dc5459cf2f703678531cfbe920ef52eeb273229001e77bbf3b1"


class TestAlpha:
    def test_small_values(self):
        assert alpha(3, 2) == 1   # gap 1, odd
        assert alpha(4, 2) == 2   # gap 2, even
        assert alpha(5, 2) == 4
        assert alpha(6, 2) == 6

    def test_rejects_low_s(self):
        with pytest.raises(ValueError):
            alpha(2, 2)

    @pytest.mark.parametrize("k", range(1, 64))
    def test_matches_weighted_out_degree(self, k):
        for n in range(k + 1, 65):
            srg = StrictRoundsGraph(k, n, tuple([0] * (n - k)))
            for u in range(k + 1, n + 1):
                assert srg.weighted_out_degree(u) == alpha(u, k), (u, k, n)

    def test_reciprocal_sum_below_beta(self):
        # the gaps n / alpha_s meet every volume prefix with equality; their
        # total over n, a partial sum of beta's series, stays below beta
        for k in range(1, 64):
            total = Fraction(0)
            for n in range(k + 1, 65):
                total += Fraction(1, alpha(n, k))
                assert total < BETA, (k, n)

    def test_all_edge_weights_positive(self):
        srg = StrictRoundsGraph(2, 12, tuple([0] * 10))
        assert all(w >= 1 for _, _, w in srg.edges())


class TestRoundsGraph:
    def test_node_count_formula(self):
        n = 4
        trace = tree_trace(n, ceil_one_plus_sqrt2(n), seed=0)
        rg = build_rounds_graph(trace)
        assert rg.node_count() == 2 * n + ceil_sqrt2(n) == 14

    def test_repeated_star_round_indegree(self):
        n = 5
        star = make_graph(n, [(0, v) for v in range(1, n)])
        trace = ProductTrace(n, [star] * ceil_one_plus_sqrt2(n))
        rg = build_rounds_graph(trace)
        in_deg = rg.round_in_degrees()
        for t in range(1, rg.threshold + 1):
            assert in_deg[t] >= t

    def test_pigeonhole_degree(self):
        for seed in range(5):
            n = 6 + seed
            trace = tree_trace(n, ceil_one_plus_sqrt2(n), seed=seed)
            wit = max_out_degree_witness(build_rounds_graph(trace))
            assert wit.degree >= n
            # the mapped process has broadcast by the end of the window
            g = trace.product_at(ceil_one_plus_sqrt2(n))
            assert g.out_rows[wit.process] == full_mask(n)

    def test_avoided_nodes_excluded(self):
        n, k = 6, 3
        spec = ModelSpec(Model.K_ROOTED, n, k)
        length = ceil_one_plus_sqrt2(n) + 2
        trace = ProductTrace(
            n, [random_graph(spec, 31 + t) for t in range(length)]
        )
        avoid = frozenset({0, 1})
        rg = build_rounds_graph(trace, avoid)
        assert rg.round_count == ceil_one_plus_sqrt2(n) + 2
        assert all(r not in avoid for r in rg.roots)
        assert all(p not in avoid for p, _ in rg.process_edges)
        wit = max_out_degree_witness(rg)
        assert wit.process not in avoid

    def test_short_trace_rejected(self):
        trace = tree_trace(5, 3, seed=1)
        with pytest.raises(ValueError):
            build_rounds_graph(trace)

    @pytest.mark.parametrize("avoid", [{-1}, {6}, {2, 99}])
    def test_avoided_ids_outside_the_nodes_rejected(self, avoid):
        # a long enough trace, so only the ids can be at fault
        trace = tree_trace(6, ceil_one_plus_sqrt2(6) + 10, seed=3)
        with pytest.raises(ValueError, match="outside"):
            build_rounds_graph(trace, frozenset(avoid))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24])
    def test_round_never_outpoints_its_root(self, n):
        # round t points at later rounds whose root heard round t's root,
        # and that root, outside the avoided set, points at each of them
        # too; so the witness is a process of the whole graph's largest
        # out-degree
        rnd = random.Random(n)
        traces = [(build(model, n, k).seq.trace(), frozenset(range(k - 1)))
                  for model, k in [(Model.TREES, 1), (Model.K_ROOTED, 2), (Model.K_ROOTED, 3)]
                  if n >= 8]
        for model, k in [(Model.TREES, 1), (Model.K_ROOTED, 1), (Model.K_ROOTED, 2),
                         (Model.K_ROOTED, 3)]:
            if k > n:
                continue
            spec = ModelSpec(model, n, k)
            for _ in range(4):
                avoid = frozenset(rnd.sample(range(n), rnd.randint(0, k - 1)))
                length = ceil_one_plus_sqrt2(n) + len(avoid) + rnd.randint(0, 5)
                seed = rnd.getrandbits(32)
                trace = ProductTrace(n, [random_graph(spec, seed + t) for t in range(length)])
                traces.append((trace, avoid))
        for trace, avoid in traces:
            rg = build_rounds_graph(trace, avoid)
            process_edges = set(rg.process_edges)
            assert all((rg.roots[t - 1], t2) in process_edges for t, t2 in rg.round_edges)
            degrees = rg.process_out_degrees()
            for t in range(1, rg.round_count + 1):
                out_degree = sum(1 for t1, _ in rg.round_edges if t1 == t)
                assert out_degree <= degrees[rg.roots[t - 1]]
            wit = max_out_degree_witness(rg)
            assert wit.degree == max(degrees[p] for p in range(n) if p not in avoid)

    def test_dot_export(self):
        n = 4
        trace = tree_trace(n, ceil_one_plus_sqrt2(n), seed=2)
        text = build_rounds_graph(trace).to_dot()
        assert text.startswith("digraph") and "p0" in text


def reference_rounds_graph(trace, avoid):
    """The rounds graph's roots and edges, recomputed from the plain
    ``product`` chain over the looped rounds and read through out-rows."""
    n = trace.n
    round_count = ceil_one_plus_sqrt2(n) + len(avoid)
    threshold = ceil_sqrt2(n) + len(avoid)
    chain = [identity(n)]
    for g in trace.rounds[:round_count]:
        looped = graph_from_rows(n, [row | 1 << x for x, row in enumerate(g.out_rows)])
        chain.append(product(chain[-1], looped))
    roots = [
        min(x for x in range(n) if x not in avoid and reach_mask(g, x) == full_mask(n))
        for g in trace.rounds[:round_count]
    ]
    process_edges = [
        (p, t)
        for t in range(1, round_count + 1)
        for p in range(n)
        if p not in avoid and chain[t - 1].has_edge(p, roots[t - 1])
    ]
    round_edges = [
        (t, t2)
        for t in range(1, min(threshold, round_count + 1))
        for t2 in range(t + 1, round_count + 1)
        if chain[t2 - 1].has_edge(roots[t - 1], roots[t2 - 1])
    ]
    return tuple(roots), tuple(process_edges), tuple(round_edges)


@pytest.mark.parametrize("model,k,avoid", [
    (Model.TREES, 1, frozenset()),
    (Model.K_ROOTED, 2, frozenset({5})),
])
def test_rounds_graph_matches_product_chain(model, k, avoid):
    trace = build(model, 16, k).seq.trace()
    rg = build_rounds_graph(trace, avoid)
    assert (rg.roots, rg.process_edges, rg.round_edges) == reference_rounds_graph(trace, avoid)


@pytest.mark.parametrize("model,k,objective,time", [
    (Model.TREES, 1, Objective.broadcast(), 94),
    (Model.K_ROOTED, 3, Objective.k_broadcast(3), 85),
], ids=["trees", "3-rooted"])
def test_run_and_rounds_graph_compose_each_prefix_once(monkeypatch, model, k, objective, time):
    # run reads the prefixes 0..time of the sequence's trace and the
    # certificate 0..round_count-1 of the same trace, so max(time,
    # round_count - 1) prefixes are composed, each by one in-row step
    # whichever way that step composes the round
    calls = []
    compose = graphs.compose_in_rows

    def counted(cols, g):
        calls.append(None)
        return compose(cols, g)

    for name, module in list(sys.modules.items()):
        if name.startswith("dynnet") and vars(module).get("compose_in_rows") is compose:
            monkeypatch.setattr(module, "compose_in_rows", counted)
    seq = build(model, 64, k).seq
    assert seq.trace() is seq.trace()
    assert run(seq, objective).time == time
    rg = build_rounds_graph(seq.trace())
    assert (rg.round_count, len(calls)) == (155, 154)


def certificate_digest(trace, model, k):
    """SHA-256 of the strict-sets certificate (its report, sets, marks and
    pivots) of a k-forest trace, or of the rounds graph (roots and edges,
    avoiding processes 0..k-2) of any other trace."""
    if model is Model.K_FORESTS:
        tr = build_strict_sets(trace, k, len(trace))
        doc = [verify_strict_inequalities(tr).to_json_dict(), sorted(tr.sets.items()),
               sorted(tr.t_marks.items()), sorted(tr.pivots.items())]
    else:
        rg = build_rounds_graph(trace, frozenset(range(k - 1)))
        doc = [rg.roots, rg.process_edges, rg.round_edges]
    return hashlib.sha256(repr(doc).encode()).hexdigest()


class TestPinnedCertificates:
    """The certificates of the benchmark's schedules at n = 16 and 32, of
    the same schedules read back from their sequence files at n = 16, 32
    and 64, and of one seeded random k-forest trace, are byte-stable."""

    @pytest.mark.parametrize("model,k,n,expected", [
        (Model.TREES, 1, 16, "504ae5388eb63fe269606d2f4b5e73bf188845e1082f62d10b5e993dc73d5e0d"),
        (Model.TREES, 1, 32, "860dc6b5aa732274bb4cfa60a8cba27a8c5026dcdb6ac0f01320c81b147fb26e"),
        (Model.K_FORESTS, 2, 16, "6b85ead3826aefe48cdad9f8aae47057052fa8dd184107b18b96d6e01ce3e5d2"),
        (Model.K_FORESTS, 2, 32, "44df27835428a1cae230c8a18f4ca6480706d43759db7c8477b6ecdcd2fe6a1f"),
        (Model.K_FORESTS, 3, 16, "1dcbf7dcc688099a332e4df25d033cb8c03fb4ddaa48c5dcf727ac1499c2a631"),
        (Model.K_FORESTS, 3, 32, "102fbb6ad198c28d94fb5d104a55ff0adc5ed199f7b7833f2a69ac427e103578"),
        (Model.K_ROOTED, 2, 16, "f5d2b98dc1df1eeeff37fa0db1e71d2a0c660bda0cf51dd25e071592a101133e"),
        (Model.K_ROOTED, 2, 32, "7bc4d02faebfdf19e8f8958790a1df0299183e1fa3bfc8783e6660ff5761a0c8"),
        (Model.K_ROOTED, 3, 16, "d558616f449907e6d2aed2db4f6196c83ae256699b498e7d7b3c5726f7d07bb0"),
        (Model.K_ROOTED, 3, 32, "a84a5e9092200c39137fc4f95305b47920979ea6d20ad1fa088f2391e36a9d44"),
    ])
    def test_schedule(self, model, k, n, expected):
        assert certificate_digest(build(model, n, k).seq.trace(), model, k) == expected

    @pytest.mark.parametrize("model,k,n,expected", [
        (Model.TREES, 1, 16, "504ae5388eb63fe269606d2f4b5e73bf188845e1082f62d10b5e993dc73d5e0d"),
        (Model.TREES, 1, 32, "860dc6b5aa732274bb4cfa60a8cba27a8c5026dcdb6ac0f01320c81b147fb26e"),
        (Model.TREES, 1, 64, "07a69a4e1d58ee3e2fb75a3e9f03ad9f730b71c582c1773094acd40b55c8c0e7"),
        (Model.K_FORESTS, 2, 16, "6b85ead3826aefe48cdad9f8aae47057052fa8dd184107b18b96d6e01ce3e5d2"),
        (Model.K_FORESTS, 2, 32, "44df27835428a1cae230c8a18f4ca6480706d43759db7c8477b6ecdcd2fe6a1f"),
        (Model.K_FORESTS, 2, 64, "0924c060b444441b18827437cca23ad58cc353583aa8147319b99642c44da099"),
        (Model.K_FORESTS, 3, 16, "1dcbf7dcc688099a332e4df25d033cb8c03fb4ddaa48c5dcf727ac1499c2a631"),
        (Model.K_FORESTS, 3, 32, "102fbb6ad198c28d94fb5d104a55ff0adc5ed199f7b7833f2a69ac427e103578"),
        (Model.K_FORESTS, 3, 64, "cbeb138de88da1077765d89393f5ed6265c0c8d2a6721226f47612f262093a7e"),
        (Model.K_ROOTED, 2, 16, "f5d2b98dc1df1eeeff37fa0db1e71d2a0c660bda0cf51dd25e071592a101133e"),
        (Model.K_ROOTED, 2, 32, "7bc4d02faebfdf19e8f8958790a1df0299183e1fa3bfc8783e6660ff5761a0c8"),
        (Model.K_ROOTED, 2, 64, "3c7a428e7bbe1b9e9987ecaad522ef96c48fed69a69d0d914222c75f54036790"),
        (Model.K_ROOTED, 3, 16, "d558616f449907e6d2aed2db4f6196c83ae256699b498e7d7b3c5726f7d07bb0"),
        (Model.K_ROOTED, 3, 32, "a84a5e9092200c39137fc4f95305b47920979ea6d20ad1fa088f2391e36a9d44"),
        (Model.K_ROOTED, 3, 64, "0ad1acea6ffc4bf7f20ef45d2fbbe820fa09f9ef6c2387dde73921bf3164b1c8"),
    ])
    def test_loaded_schedule(self, model, k, n, expected):
        # the same certificates through a sequence-file round trip, up to n = 64
        trace = seqfile.loads(seqfile.dumps(build(model, n, k).seq)).trace()
        assert certificate_digest(trace, model, k) == expected

    def test_random_forest_trace(self):
        spec = ModelSpec(Model.K_FORESTS, 32, 3)
        horizon = bounds_for(spec).upper_int
        seq = RoundSequence(spec, [random_graph(spec, 20221118 + t) for t in range(horizon)])
        digest = certificate_digest(seq.trace(), Model.K_FORESTS, 3)
        assert (horizon, digest) == (86, "cb1b3c3924fbf284abad39193aea650add9f96effeca932d2472b92bca73dcd4")


class TestStrictSets:
    def test_top_level_definition(self):
        n, k = 8, 2
        length = ceil_beta(n) + 1
        trace = forest_trace(n, k, length, seed=11)
        tr = build_strict_sets(trace, k, length)
        assert tr.sets[n] == tuple((i, length) for i in range(n))
        assert tr.t_marks[n] == length

    def test_cardinalities(self):
        n, k = 9, 2
        length = ceil_beta(n) + 1
        tr = build_strict_sets(forest_trace(n, k, length, seed=5), k, length)
        for s, pairs in tr.sets.items():
            assert len(pairs) == s

    def test_complete_run_and_inequalities(self):
        n, k = 12, 1
        length = ceil_beta(n) + 1
        tr = build_strict_sets(forest_trace(n, k, length, seed=6), k, length)
        assert tr.complete
        report = verify_strict_inequalities(tr)
        assert report.all_passed, [c.name for c in report.failures()]
        assert sum(tr.deltas.values()) <= BETA * n

    def test_partial_on_short_run(self):
        # one round cannot be enough to lose strictness all the way down
        n, k = 8, 1
        trace = forest_trace(n, k, 1, seed=7)
        tr = build_strict_sets(trace, k, 1)
        assert not tr.complete

    def test_t_prime_validation(self):
        trace = forest_trace(6, 2, 5, seed=8)
        with pytest.raises(ValueError):
            build_strict_sets(trace, 2, 9)

    def test_report_serializes(self):
        n, k = 8, 2
        length = ceil_beta(n) + 1
        tr = build_strict_sets(forest_trace(n, k, length, seed=9), k, length)
        report = verify_strict_inequalities(tr)
        doc = report.to_json_dict()
        assert doc["all_passed"] == report.all_passed
        assert "pass" in report.to_table() or "FAIL" in report.to_table()

    def test_k_equals_n_is_vacuous(self):
        n = 5
        trace = forest_trace(n, n, 3, seed=13)
        tr = build_strict_sets(trace, n, 3)
        assert tr.complete and tr.deltas == {}
        assert verify_strict_inequalities(tr).all_passed

    @pytest.mark.parametrize("total, passed", [(10, True), (11, False)])
    def test_total_gap_splits_at_the_ceiling(self, total, passed):
        # a synthetic complete trace whose delta sum is t_marks[4] - t_marks[1];
        # beta * 4 is 10.58, so a sum of ceil_beta(4) - 1 = 10 is the largest allowed
        n, k, length = 4, 1, 12
        assert ceil_beta(n) - 1 == 10
        tr = StrictSetsTrace(
            k=k, n=n, t_prime=length, complete=True,
            sets={s: tuple((i, length) for i in range(s)) for s in range(k, n + 1)},
            t_marks={1: 0, 2: 3, 3: 6, 4: total},
            pivots={},
            trace=ProductTrace(n, [make_graph(n, [])] * length),
        )
        report = verify_strict_inequalities(tr, samples=0)
        gap = [c for c in report.checks if c.name == "total_gap"]
        assert [(c.passed, c.detail["sum"]) for c in gap] == [(passed, total)]

    @pytest.mark.parametrize("member", [(-1, 3), (4, 3), (0, -1), (0, 4)])
    def test_member_outside_the_run_rejected(self, member):
        # t' = 3 on a 5-round trace: a member must be a node at a round in [0, t']
        n, k = 4, 1
        sets = {s: tuple((i, 3) for i in range(s)) for s in range(k, n + 1)}
        sets[2] = ((0, 3), member)
        tr = StrictSetsTrace(k, n, 3, False, sets, {n: 3}, {}, forest_trace(n, k, 5, seed=4))
        with pytest.raises(ValueError, match="outside"):
            verify_strict_inequalities(tr, samples=0)

    def test_strict_increments_fail_when_an_in_set_stops_growing(self):
        # the 2-cycle 0 <-> 1 is no forest: no node is a root, yet the in-set
        # {0, 1} is closed under it, so it does not grow one round earlier
        n, k, length = 2, 1, 4
        cycle = make_graph(n, [(0, 1), (1, 0)])
        tr = StrictSetsTrace(
            k=k, n=n, t_prime=length, complete=True,
            sets={2: ((0, length), (1, length)), 1: ((0, length),)},
            t_marks={1: 1, 2: 1},
            pivots={},
            trace=ProductTrace(n, [cycle] * length),
        )
        (check,) = _checks_named(verify_strict_inequalities(tr, samples=16), "strict_increments")
        assert not check["passed"]
        assert check["detail"]["sampled"] == 16 and check["detail"]["failures"] > 0

    def test_strict_rounds_graph_dot(self):
        n, k = 8, 2
        length = ceil_beta(n) + 1
        tr = build_strict_sets(forest_trace(n, k, length, seed=10), k, length)
        srg = StrictRoundsGraph.from_trace(tr)
        assert srg.to_dot().startswith("digraph")


class TestBetaAnchor:
    def test_partial_sums_with_tail_bound(self):
        # beta = sum 1/l^2 + sum 1/(l^2+l). The first tail lies strictly
        # between 1/(L+1) and 1/L; the second series telescopes, so its
        # partial sum is 1 - 1/(L+1) with the tail known exactly.
        L = 200_000
        partial_sq = math.fsum(1.0 / (l * l) for l in range(L, 0, -1))
        tail_lo, tail_hi = 1.0 / (L + 1), 1.0 / L
        partial_tel = math.fsum(1.0 / (l * l + l) for l in range(L, 0, -1))
        estimate = partial_sq + (tail_lo + tail_hi) / 2 + partial_tel + 1.0 / (L + 1)
        half_width = (tail_hi - tail_lo) / 2
        assert half_width < 1e-9
        assert abs(estimate - BETA) <= 1e-9


def test_check_helpers_clean_on_valid_trace():
    rnd = random.Random(0)
    trace = tree_trace(7, 20, seed=12)
    assert check_duality(trace, rnd, 300) == 0
    roots = smallest_roots(trace)
    assert len(roots) == 20


# ---------------------------------------------------------------------------
# Differential tests: the certificate builders and checks against plain
# reference versions that walk every interval query on its own
# ---------------------------------------------------------------------------


def plain_rounds_graph(trace, avoid):
    """The rounds graph with each heard row read per round pair."""
    n = trace.n
    round_count = ceil_one_plus_sqrt2(n) + len(avoid)
    threshold = ceil_sqrt2(n) + len(avoid)
    roots = []
    for t in range(1, round_count + 1):
        candidates = roots_reaching_all(trace.rounds[t - 1]) - avoid
        if not candidates:
            raise ValueError(f"round {t} has no root outside the avoided set")
        roots.append(min(candidates))
    process_edges = []
    for t in range(1, round_count + 1):
        heard = trace.prefix(t - 1)[roots[t - 1]]
        for p in bits(heard):
            if p not in avoid:
                process_edges.append((p, t))
    round_edges = []
    for t in range(1, min(threshold, round_count + 1)):
        rt = roots[t - 1]
        for t2 in range(t + 1, round_count + 1):
            if trace.prefix(t2 - 1)[roots[t2 - 1]] >> rt & 1:
                round_edges.append((t, t2))
    return RoundsGraph(
        n, frozenset(avoid), round_count, threshold, tuple(roots),
        tuple(process_edges), tuple(round_edges),
    )


def plain_strict_sets(trace, k, t_prime):
    """The backward construction with every in-mask taken through
    ``ProductTrace.in_mask``."""
    n = trace.n
    pairs = sorted((i, t_prime) for i in range(n))
    sets, t_marks, pivots, complete = {n: tuple(pairs)}, {n: t_prime}, {}, True
    for s in range(n - 1, k - 1, -1):
        t_scan = min(t for _, t in pairs) + 1
        masks = [trace.in_mask(t_scan, t_i, a_i) for a_i, t_i in pairs]
        found = None
        t = t_scan
        while t >= 1:
            run = dup = 0
            for m in masks:
                dup |= run & m
                run |= m
            if dup:
                found = (t, dup)
                break
            t -= 1
            if t >= 1:
                rows = trace.rounds[t - 1].in_rows
                masks = [m | row_image(rows, m) for m in masks]
        if found is None:
            complete = False
            break
        t_mark, dup = found
        pivot = (dup & -dup).bit_length() - 1
        hit = [i for i, m in enumerate(masks) if m >> pivot & 1]
        i, j = hit[0], hit[1]
        pivot_pair = (pivot, t_mark - 1)
        new_pairs = list(pairs)
        if pivot_pair in pairs:
            new_pairs.remove(pairs[i] if pairs[i] != pivot_pair else pairs[j])
        else:
            new_pairs.remove(pairs[i])
            new_pairs.remove(pairs[j])
            new_pairs.append(pivot_pair)
        pairs = sorted(new_pairs)
        sets[s], t_marks[s], pivots[s] = tuple(pairs), t_mark, pivot
    return complete, sets, t_marks, pivots


def plain_cover_checks(tr):
    """cover[s], with one out-mask walk per member and level."""
    out = []
    for s, pairs in sorted(tr.sets.items()):
        covered = 0
        for a_i, t_i in pairs:
            covered |= tr.trace.out_mask(t_i + 1, tr.t_prime, a_i)
        out.append({"name": f"cover[s={s}]", "passed": covered == full_mask(tr.n),
                    "detail": {"covered": covered.bit_count(), "needed": tr.n}})
    return out


def plain_intersections_check(tr):
    """intersections, with two sets built per pair of levels."""
    levels = sorted(tr.sets)
    bad = []
    for si in levels:
        for u in levels:
            if si <= u:
                inter = len(set(tr.sets[si]) & set(tr.sets[u]))
                if inter < 2 * si - u:
                    bad.append({"s": si, "u": u, "have": inter, "need": 2 * si - u})
    detail = {"pairs_checked": len(levels) * (len(levels) + 1) // 2, "violations": bad}
    return [{"name": "intersections", "passed": not bad, "detail": detail}]


def plain_prefix_checks(tr):
    """volume_prefix[u], each sum taken afresh for every u."""
    k, n, deltas = tr.k, tr.n, tr.deltas
    if not tr.complete:
        return []
    out = []
    for u in range(k + 1, n + 1):
        lhs = sum(deltas[s] * alpha(s, k) for s in range(k + 1, u + 1))
        out.append({"name": f"volume_prefix[u={u}]", "passed": lhs <= (u - k) * n,
                    "detail": {"lhs": lhs, "rhs": (u - k) * n}})
    return out


def plain_window_checks(tr):
    """window_sum[s]: the paper's sum over the sets u = s .. 2s - k - 1 of
    (2s - k - u) Delta_u, taken afresh for every target s."""
    k, n, deltas = tr.k, tr.n, tr.deltas
    if not tr.complete:
        return []
    out = []
    for s in range(k + 1, n + 1):
        lhs = sum((2 * s - k - u) * deltas[u] for u in range(s, n + 1) if u <= 2 * s - k - 1)
        out.append({"name": f"window_sum[s={s}]", "passed": lhs <= n,
                    "detail": {"lhs": lhs, "rhs": n}})
    return out


def _checks_named(report, *prefixes):
    return [c.to_json_dict() for c in report.checks if c.name.split("[")[0] in prefixes]


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return "error", str(exc)


DIFFERENTIAL_SIZES = [*range(3, 21), 32]


class TestCertificatesMatchPlainVersions:
    """Seeded random traces: every set, mark, pivot, root, edge and check
    equals the plain reference's."""

    @pytest.mark.parametrize("n", DIFFERENTIAL_SIZES)
    def test_strict_sets_and_checks(self, n):
        incomplete = 0
        for k in range(1, min(n, 3) + 1):
            spec = ModelSpec(Model.K_FORESTS, n, k)
            horizon = bounds_for(spec).upper_int
            seed = 1000 * n + k
            trace = ProductTrace(n, [random_graph(spec, seed + t) for t in range(horizon)])
            # the horizon, and the longest prefix whose run is incomplete
            t_primes = [horizon]
            short = [t for t in range(1, horizon) if not build_strict_sets(trace, k, t).complete]
            if short:
                t_primes.append(short[-1])
                incomplete += 1
            for t_prime in t_primes:
                tr = build_strict_sets(trace, k, t_prime)
                assert (tr.complete, tr.sets, tr.t_marks, tr.pivots) == \
                    plain_strict_sets(trace, k, t_prime), (n, k, t_prime)
                report = verify_strict_inequalities(tr, seed=seed)
                assert _checks_named(report, "cover") == plain_cover_checks(tr)
                assert _checks_named(report, "intersections") == plain_intersections_check(tr)
                assert _checks_named(report, "window_sum") == plain_window_checks(tr)
                assert _checks_named(report, "volume_prefix") == \
                    plain_prefix_checks(tr)
        # on these seeds an incomplete prefix exists for every k from n = 6
        # on, and for k = 1 only below that
        assert incomplete == (1 if n < 6 else 3), n

    @pytest.mark.parametrize("n", [3, 4, 6, 9, 12, 16])
    def test_strict_sets_at_every_t_prime(self, n):
        # the pinned digests read t' = the trace length only
        for k in range(1, min(n, 3) + 1):
            trace = forest_trace(n, k, bounds_values(Model.K_FORESTS, n, k).upper_int, seed=n + 10 * k)
            for t_prime in range(1, len(trace) + 1):
                tr = build_strict_sets(trace, k, t_prime)
                assert (tr.complete, tr.sets, tr.t_marks, tr.pivots) == \
                    plain_strict_sets(trace, k, t_prime), (n, k, t_prime)

    @pytest.mark.parametrize("n", [3, 8, 13, 32])
    def test_checks_on_arbitrary_levels(self, n):
        # random members and marks, so intersections are violated and every
        # delta differs from zero, which no built trace shows
        rnd = random.Random(n)
        for k in range(1, min(n, 3) + 1):
            t_prime = rnd.randint(1, 2 * n)
            trace = forest_trace(n, k, t_prime + rnd.randint(0, 3), seed=n + k)
            pool = [(a, t) for a in range(n) for t in range(t_prime + 1)]
            sets = {s: tuple(sorted(rnd.sample(pool, s))) for s in range(k, n + 1)}
            marks = dict(zip(range(k, n + 1), sorted(rnd.sample(range(3 * n * n), n - k + 1))))
            tr = StrictSetsTrace(k, n, t_prime, True, sets, marks, {}, trace)
            report = verify_strict_inequalities(tr, samples=0)
            assert _checks_named(report, "cover") == plain_cover_checks(tr)
            assert _checks_named(report, "intersections") == plain_intersections_check(tr)
            assert _checks_named(report, "window_sum") == plain_window_checks(tr)
            assert _checks_named(report, "volume_prefix") == \
                plain_prefix_checks(tr)

    @pytest.mark.parametrize("n", DIFFERENTIAL_SIZES)
    def test_rounds_graph(self, n):
        rnd = random.Random(n)
        for model, k in [(Model.TREES, 1), (Model.K_ROOTED, 1), (Model.K_ROOTED, 2), (Model.K_ROOTED, 3)]:
            if k > n:
                continue
            spec = ModelSpec(model, n, k)
            # with k = 1 a round's one root is avoided now and then, which both refuse
            avoid = frozenset(rnd.sample(range(n), rnd.randint(0, k - 1 if k > 1 else 1)))
            length = ceil_one_plus_sqrt2(n) + len(avoid) + rnd.randint(0, 5)
            seed = rnd.getrandbits(32)
            trace = ProductTrace(n, [random_graph(spec, seed + t) for t in range(length)])
            assert _outcome(build_rounds_graph, trace, avoid) == \
                _outcome(plain_rounds_graph, trace, avoid), (model, n, k, avoid)
