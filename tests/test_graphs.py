import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynnet import constructions, seqfile
from dynnet.analysis import _member_reach, build_strict_sets
from dynnet.families import Model, ModelSpec, forest_parents, random_graph
from dynnet.graphs import (
    Graph,
    ProductTrace,
    _transpose,
    bits,
    compose_in_rows,
    compose_out_rows,
    compose_rows,
    full_mask,
    graph_from_in_rows,
    graph_from_parents,
    graph_from_rows,
    identity,
    make_graph,
    product,
    to_dot,
)


def brute_force_product(a: Graph, b: Graph) -> set[tuple[int, int]]:
    """Triple-loop oracle: (x, y) iff some z relays between them."""
    edges = set()
    for x in range(a.n):
        for y in range(a.n):
            for z in range(a.n):
                if a.has_edge(x, z) and b.has_edge(z, y):
                    edges.add((x, y))
    return edges


def with_loops(g: Graph) -> Graph:
    """``g`` with a self-loop added at every node."""
    return graph_from_rows(g.n, [row | 1 << x for x, row in enumerate(g.out_rows)])


def random_digraph(n: int, rnd: random.Random, density: float = 0.3) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(n) if rnd.random() < density
    ]
    return make_graph(n, edges)


class TestMakeGraph:
    def test_basic(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.out_rows == (0b010, 0b100, 0)
        assert g.in_rows == (0, 0b001, 0b010)

    def test_single_node(self):
        g = make_graph(1, [])
        assert g.n == 1 and g.edge_count() == 0

    def test_duplicate_edges_collapse(self):
        g = make_graph(4, [(0, 1), (0, 1)])
        assert g.edge_count() == 1

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            make_graph(0, [])
        with pytest.raises(ValueError):
            make_graph(65, [])

    def test_transpose_invariant(self):
        rnd = random.Random(0)
        for _ in range(25):
            g = random_digraph(6, rnd)
            for u in range(6):
                for v in range(6):
                    assert g.has_edge(u, v) == (g.in_rows[v] >> u & 1)

    def test_equality_and_hash_ignore_read_transpose(self):
        g = make_graph(5, [(0, 1), (1, 2), (4, 0), (3, 3)])
        assert g.in_rows == (1 << 4, 1 << 0, 1 << 1, 1 << 3, 0)
        fresh = graph_from_rows(5, g.out_rows)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert len({g, fresh}) == 1
        assert g != make_graph(5, [(0, 1)])


class TestConstructorRejections:
    """Each malformed input raises ValueError with its message; where an
    input has several faults, the first node or row in order is named."""

    @pytest.mark.parametrize("n,parents,message", [
        (3, [-1, 0], "parent array has length 2, expected 3"),
        (3, [-1, 0, 1, 1], "parent array has length 4, expected 3"),
        (0, [], "node count must be in [1, 64], got 0"),
        (65, [-1] + list(range(64)), "node count must be in [1, 64], got 65"),
        (4, [-1, 0, -2, 1], "node 2 has parent -2, not -1 or another node's id"),
        (4, [-1, 4, 0, 1], "node 1 has parent 4, not -1 or another node's id"),
        (4, [-1, 0, 2, 1], "node 2 has parent 2, not -1 or another node's id"),
        (4, [-1, 1, -2, 4], "node 1 has parent 1, not -1 or another node's id"),
        (4, [-1, 0, 9, -5], "node 2 has parent 9, not -1 or another node's id"),
    ])
    def test_graph_from_parents(self, n, parents, message):
        with pytest.raises(ValueError) as exc:
            graph_from_parents(n, parents)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n,rows,message", [
        (4, [0, 1 << 4, 0, 0], "row 1 has bits beyond node 3"),
        (4, [0, 0, -1, 0], "row 2 has bits beyond node 3"),
        (4, [1, -8, 1 << 70, 0], "row 1 has bits beyond node 3"),
        (64, [0] * 63 + [1 << 64], "row 63 has bits beyond node 63"),
        (4, [0, 0, 0], "expected 4 rows, got 3"),
        (4, [0] * 5, "expected 4 rows, got 5"),
        (0, [], "node count must be in [1, 64], got 0"),
        (65, [0] * 65, "node count must be in [1, 64], got 65"),
    ])
    def test_graph_from_rows(self, n, rows, message):
        with pytest.raises(ValueError) as exc:
            graph_from_rows(n, rows)
        assert str(exc.value) == message


def per_bit_transpose(n: int, rows) -> tuple[int, ...]:
    """Reference transpose: one test per (u, v) bit."""
    cols = [0] * n
    for u in range(n):
        for v in range(n):
            if rows[u] >> v & 1:
                cols[v] |= 1 << u
    return tuple(cols)


class TestTranspose:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_per_bit_loop(self, n):
        # every packing width and its padding, on the structured matrices
        # and on seeded random ones from nearly empty to nearly full
        fm = full_mask(n)
        rnd = random.Random(n)
        cases = [(0,) * n, (fm,) * n, identity(n).out_rows]
        for u in sorted({0, n // 2, n - 1}):
            cases.append(tuple(fm if x == u else 0 for x in range(n)))
            cases.append(tuple(rnd.getrandbits(n) if x == u else 0 for x in range(n)))
        for density in (0.02, 0.1, 0.5, 0.9):
            for _ in range(3):
                cases.append(tuple(
                    sum(1 << v for v in range(n) if rnd.random() < density) for _ in range(n)
                ))
        for rows in cases:
            cols = _transpose(n, rows)
            assert cols == per_bit_transpose(n, rows), (n, rows)
            assert _transpose(n, cols) == rows, (n, rows)


class TestComposeRows:
    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 2)],
                             ids=["trees", "forests", "rooted"])
    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_raw_round_composes_with_its_self_loops(self, model, k, n):
        # on the identity and on every prefix product of a seeded draw
        spec = ModelSpec(model, n, k)
        rows = identity(n).out_rows
        for seed in range(2 * n):
            raw = random_graph(spec, seed)
            looped = compose_rows(rows, with_loops(raw))
            assert compose_rows(rows, raw) == looped, seed
            rows = looped


class TestProduct:
    def test_one_relay(self):
        a = with_loops(make_graph(3, [(0, 1)]))
        b = with_loops(make_graph(3, [(1, 2)]))
        p = product(a, b)
        assert p.has_edge(0, 2) and p.has_edge(0, 1) and p.has_edge(1, 2)

    def test_identity_laws(self):
        rnd = random.Random(1)
        for _ in range(10):
            g = random_digraph(5, rnd)
            assert product(identity(5), g) == g
            assert product(g, identity(5)) == g

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            product(identity(3), identity(4))

    def test_against_brute_force(self):
        rnd = random.Random(2)
        for _ in range(50):
            a, b = random_digraph(6, rnd), random_digraph(6, rnd)
            assert set(product(a, b).edges()) == brute_force_product(a, b)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, n, data):
        masks = st.lists(st.integers(0, full_mask(n)), min_size=n, max_size=n)
        from dynnet.graphs import graph_from_rows

        a = graph_from_rows(n, data.draw(masks))
        b = graph_from_rows(n, data.draw(masks))
        c = graph_from_rows(n, data.draw(masks))
        assert product(product(a, b), c) == product(a, product(b, c))


def random_tree_trace(n: int, length: int, seed: int) -> ProductTrace:
    spec = ModelSpec(Model.TREES, n)
    return ProductTrace(n, [random_graph(spec, seed * 977 + t) for t in range(length)])


class TestProductTrace:
    def test_prefix_zero_is_identity(self):
        trace = random_tree_trace(5, 8, 0)
        assert trace.product_at(0) == identity(5)

    def test_prefix_products_grow(self):
        trace = random_tree_trace(6, 12, 1)
        for t in range(1, len(trace) + 1):
            prev, cur = trace.product_at(t - 1), trace.product_at(t)
            for x in range(6):
                assert prev.out_rows[x] & ~cur.out_rows[x] == 0

    def test_prefix_product_recurrence(self):
        trace = random_tree_trace(5, 9, 2)
        for t in range(1, len(trace) + 1):
            looped = with_loops(trace.rounds[t - 1])
            assert trace.product_at(t) == product(trace.product_at(t - 1), looped)

    def test_rooted_round_adds_edge_until_broadcast(self):
        # with a root present every round, the product gains an edge per
        # round as long as nobody has broadcast
        trace = random_tree_trace(6, 15, 3)
        fm = full_mask(6)
        for t in range(1, len(trace) + 1):
            if any(r == fm for r in trace.product_at(t - 1).out_rows):
                break
            assert trace.product_at(t).edge_count() > trace.product_at(t - 1).edge_count()

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError):
            ProductTrace(3, [identity(4)])

    # 8 rounds have the prefixes 0..8; a negative t must not index from the end
    @pytest.mark.parametrize("read", ["prefix", "product_at"])
    @pytest.mark.parametrize("t", [-1, 9])
    def test_rejects_rounds_outside_the_trace(self, read, t):
        trace = random_tree_trace(5, 8, 0)
        with pytest.raises(ValueError, match=f"round {t} outside trace of length 8"):
            getattr(trace, read)(t)


def product_chain(trace: ProductTrace) -> list[Graph]:
    """Reference prefixes: the plain ``product`` fold over the rounds, each
    with its self-loops added."""
    chain = [identity(trace.n)]
    for g in trace.rounds:
        chain.append(product(chain[-1], with_loops(g)))
    return chain


FAMILY_SIZES = [
    (model, k, n)
    for model, k in ((Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 3))
    for n in (1, 2, 5, 16, 64)
    if k <= n
]


class TestPrefixDifferential:
    """The column-wise prefixes agree with the plain ``product`` chain."""

    @pytest.mark.parametrize("model,k,n", FAMILY_SIZES)
    @pytest.mark.parametrize("length", [0, 1, "long"])
    def test_prefixes_match_product_chain(self, model, k, n, length):
        spec = ModelSpec(model, n, k)
        if length == "long":
            length = 2 * n + 3
        seed = 1000 * n + 10 * k + length
        trace = ProductTrace(n, [random_graph(spec, seed + t) for t in range(length)])
        chain = product_chain(trace)
        assert len(trace) + 1 == len(chain) == length + 1
        for t, ref in enumerate(chain):
            assert trace.product_at(t) == ref
            assert trace.prefix(t) == ref.in_rows


def out_row_prefixes(n: int, rounds: list[Graph]) -> list[tuple[int, ...]]:
    """Reference prefixes on out-rows: ``compose_rows`` round by round."""
    rows = identity(n).out_rows
    prefixes = [rows]
    for g in rounds:
        rows = compose_rows(rows, g)
        prefixes.append(rows)
    return prefixes


class TestPrefixesOnFirstRead:
    """Whichever is read first, a prefix's in-rows (``prefix``) or its Graph
    (``product_at``), both give the out-row oracle's prefixes, in any order
    of reads; a bad round fails in the constructor."""

    @pytest.mark.parametrize("model,k", [
        (Model.TREES, 1), (Model.K_FORESTS, 1), (Model.K_FORESTS, 2), (Model.K_FORESTS, 3),
        (Model.K_ROOTED, 1), (Model.K_ROOTED, 2), (Model.K_ROOTED, 3),
    ])
    # "prefix_in_rows": the in-rows, through ``prefix``, are read first
    @pytest.mark.parametrize("first", ["prefix_in_rows", "product_at"])
    def test_match_out_row_oracle(self, model, k, first):
        for n in (1, 3, 8, 33, 64):
            if k > n:
                continue
            spec = ModelSpec(model, n, k)
            rounds = [random_graph(spec, 500 * n + 7 * k + t) for t in range(n + 5)]
            ref = out_row_prefixes(n, rounds)
            trace = ProductTrace(n, rounds)
            order = list(range(len(ref)))
            random.Random(n).shuffle(order)
            for t in order:
                if first == "product_at":
                    assert trace.product_at(t).out_rows == ref[t]
                assert trace.prefix(t) == _transpose(n, ref[t])
                assert trace.product_at(t).out_rows == ref[t]
            assert len(trace) + 1 == len(ref)

    def test_late_round_of_the_wrong_size_raises_at_once(self):
        spec = ModelSpec(Model.TREES, 5)
        rounds = [random_graph(spec, t) for t in range(4)] + [identity(6)]
        with pytest.raises(ValueError, match="node count mismatch"):
            ProductTrace(5, rounds)


class TestLoopedRoundsChangeNothing:
    """Rounds are composed with their implied self-loops, so a trace of the
    raw rounds equals one of looped copies on every prefix and interval."""

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 2)],
                             ids=["trees", "forests", "rooted"])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_every_interval(self, model, k, n):
        spec = ModelSpec(model, n, k)
        rounds = [random_graph(spec, 100 * n + t) for t in range(n + 4)]
        raw = ProductTrace(n, rounds)
        looped = ProductTrace(n, [with_loops(g) for g in rounds])
        assert raw.rounds == rounds
        T = len(rounds)
        for t in range(T + 1):
            assert raw.prefix(t) == looped.prefix(t), t
        for t in range(T + 2):
            for t2 in range(-1, T + 1):
                for x in range(n):
                    assert raw.in_mask(t, t2, x) == looped.in_mask(t, t2, x), (t, t2, x)
                    assert raw.out_mask(t, t2, x) == looped.out_mask(t, t2, x), (t, t2, x)


class TestIntervalNeighborhoods:
    def test_empty_and_singleton_conventions(self):
        trace = random_tree_trace(5, 6, 4)
        for x in range(5):
            assert trace.in_mask(4, 3, x) == 1 << x
            assert trace.out_mask(4, 3, x) == 1 << x
            assert trace.in_mask(5, 3, x) == 0
            assert trace.out_mask(6, 3, x) == 0

    def test_star_single_round(self):
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        trace = ProductTrace(4, [star])
        for x in range(1, 4):
            assert set(bits(trace.in_mask(1, 1, x))) == {x, 0}
        assert set(bits(trace.in_mask(1, 1, 0))) == {0}

    def test_path_flooding(self):
        n = 6
        path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        trace = ProductTrace(n, [path] * (n - 1))
        assert set(bits(trace.out_mask(1, n - 1, 0))) == set(range(n))
        assert set(bits(trace.out_mask(1, n - 2, 0))) == set(range(n - 1))

    def test_matches_prefix_products(self):
        trace = random_tree_trace(6, 10, 5)
        for t2 in range(len(trace) + 1):
            g = trace.product_at(t2)
            for x in range(6):
                assert trace.in_mask(1, t2, x) == g.in_rows[x]
                assert trace.out_mask(1, t2, x) == g.out_rows[x]

    @pytest.mark.parametrize("model, k", [(Model.TREES, 1), (Model.K_FORESTS, 2),
                                          (Model.K_ROOTED, 2)])
    def test_every_interval_matches_composed_rounds(self, model, k):
        # out_mask is row x of compose_rows folded over rounds t..t2 from
        # the identity, in_mask is its column x; shorter intervals are empty
        for n, seed in [(3, 1), (5, 2), (6, 3)]:
            spec = ModelSpec(model, n, k)
            trace = ProductTrace(n, [random_graph(spec, seed * 100 + t) for t in range(7)])
            T = len(trace)
            for t in range(T + 2):
                for t2 in range(-1, T + 1):
                    rows = identity(n).out_rows
                    for tau in range(max(t, 1), t2 + 1):
                        rows = compose_rows(rows, trace.rounds[tau - 1])
                    for x in range(n):
                        col = sum(1 << y for y in range(n) if rows[y] >> x & 1)
                        want_out, want_in = (rows[x], col) if t <= t2 + 1 else (0, 0)
                        assert trace.out_mask(t, t2, x) == want_out, (n, t, t2, x)
                        assert trace.in_mask(t, t2, x) == want_in, (n, t, t2, x)

    def test_interval_zero_start_is_identity_padding(self):
        trace = random_tree_trace(5, 6, 6)
        for x in range(5):
            assert trace.in_mask(0, 4, x) == trace.in_mask(1, 4, x)

    def test_out_of_range_queries(self):
        trace = random_tree_trace(4, 3, 7)
        with pytest.raises(ValueError):
            trace.in_mask(1, 2, 9)
        with pytest.raises(ValueError):
            trace.out_mask(1, 5, 0)


class TestDot:
    def test_prints_the_edges_as_they_are(self):
        g = make_graph(3, [(0, 1), (2, 1)])
        assert to_dot(g, name="r") == "\n".join(
            ["digraph r {", "  0;", "  1;", "  2;", "  0 -> 1;", "  2 -> 1;", "}"]
        )

    def test_keeps_the_loops_of_a_graph_that_has_them(self):
        text = to_dot(with_loops(make_graph(3, [(0, 1)])))
        assert [line for line in text.splitlines() if "->" in line] == [
            "  0 -> 0;", "  0 -> 1;", "  1 -> 1;", "  2 -> 2;",
        ]


def test_bits_roundtrip():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


# the 15 lower-bound schedules of the benchmark's certify workload
CERTIFY_SCHEDULES = [
    (model, k, n)
    for model, k in ((Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_FORESTS, 3),
                     (Model.K_ROOTED, 2), (Model.K_ROOTED, 3))
    for n in (16, 32, 64)
]


def random_row_table(n: int, rnd: random.Random) -> tuple[int, ...]:
    """n arbitrary masks on [n], each holding its own bit like a product's rows."""
    return tuple(rnd.getrandbits(n) | 1 << x for x in range(n))


def edge_parents(g: Graph):
    """Reference parent array, read edge by edge: y's one in-neighbor or -1,
    None at a self-loop or a second in-neighbor."""
    parents = [-1] * g.n
    for u, v in g.edges():
        if u == v or parents[v] != -1:
            return None
        parents[v] = u
    return tuple(parents)


def in_row_step(cols: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    """Reference in-row step: the out-row step ``compose_rows`` between
    two transposes."""
    return _transpose(g.n, compose_rows(_transpose(g.n, cols), g))


def out_row_step(rows: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    """Reference out-row step: plain composition of g, its self-loops
    added, with the relation whose out-rows are ``rows``."""
    return product(with_loops(g), graph_from_rows(g.n, rows)).out_rows


def assert_steps_exact(g: Graph, table: tuple[int, ...]) -> None:
    """Both composition steps agree with their references on ``table``,
    through the gather and the scatter where g has a parent array and
    through the OR loop elsewhere, and the array is the one read off the
    edges."""
    assert g.parents == edge_parents(g), g
    assert compose_in_rows(table, g) == in_row_step(table, g), g
    assert compose_out_rows(table, g) == out_row_step(table, g), g


class TestParentArrayRounds:
    """Every graph's ``parents`` is read off its edges (``graph_from_parents``
    starts with the array it was given), so equal graphs have equal arrays
    whichever constructor built them. The in-row and out-row steps take
    the gather and the scatter where the array is not None and the OR loop
    elsewhere; either way they agree with the ``compose_rows``/``product``
    references."""

    def test_equal_edges_give_equal_parents(self):
        g = graph_from_parents(4, [-1, 0, 0, 2])
        assert g.parents == (-1, 0, 0, 2)
        assert g.in_rows == _transpose(4, g.out_rows) == (0, 1, 1, 4)
        rnd = random.Random(4)
        tables = [random_row_table(4, rnd) for _ in range(5)]
        for other in (make_graph(4, g.edges()), graph_from_rows(4, g.out_rows),
                      graph_from_in_rows(4, g.in_rows), graph_from_parents(4, g.parents)):
            assert other == g and hash(other) == hash(g)
            assert other.parents == g.parents and other.in_rows == g.in_rows
            for table in tables:
                assert compose_in_rows(table, other) == compose_in_rows(table, g)
                assert compose_out_rows(table, other) == compose_out_rows(table, g)

    def test_every_three_node_graph(self):
        # all 512 graphs on 3 nodes, self-loops included: the array is the
        # one read edge by edge, and it rebuilds the graph
        rnd = random.Random(3)
        with_array = 0
        for code in range(1 << 9):
            g = graph_from_rows(3, [code >> 3 * x & 7 for x in range(3)])
            assert_steps_exact(g, random_row_table(3, rnd))
            if g.parents is not None:
                with_array += 1
                assert graph_from_parents(3, g.parents) == g
                assert make_graph(3, g.edges()).parents == g.parents
        # each node has no in-neighbor or one of the other two
        assert with_array == 3 ** 3

    @pytest.mark.parametrize("n,edges", [
        (3, [(0, 0), (0, 1), (1, 2)]),
        (3, [(0, 2), (1, 2), (0, 1)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 3)]),
        (5, [(u, v) for u in range(5) for v in range(5) if u != v]),
    ], ids=["root-self-loop", "two-in-neighbors", "leaf-self-loop", "complete"])
    def test_no_array(self, n, edges):
        g = make_graph(n, edges)
        assert g.parents is None and forest_parents(g) is None
        rnd = random.Random(n)
        for _ in range(5):
            assert_steps_exact(g, random_row_table(n, rnd))
        assert [ProductTrace(n, [g] * n).prefix(t) for t in range(n + 1)] == [
            _transpose(n, rows) for rows in out_row_prefixes(n, [g] * n)]

    @pytest.mark.parametrize("model,k,n", CERTIFY_SCHEDULES)
    def test_certify_schedules(self, model, k, n):
        # fresh from the construction, and read back from its sequence
        # file as the benchmark replays it: equal rounds, equal arrays,
        # equal prefixes, each step exact on the prefix it extends
        built = constructions.build(model, n, k).seq
        read = seqfile.loads(seqfile.dumps(built))
        assert read.rounds == built.rounds
        reference = [_transpose(n, rows) for rows in out_row_prefixes(n, built.rounds)]
        for seq in (built, read):
            trace = seq.trace()
            for t, g in enumerate(seq.rounds):
                if model is not Model.K_ROOTED:
                    assert g.parents is not None
                assert_steps_exact(g, trace.prefix(t))
                assert trace.prefix(t + 1) == reference[t + 1], t + 1
        assert [g.parents for g in built.rounds] == [g.parents for g in read.rounds]

    def test_seeded_forests(self):
        rnd = random.Random(7)
        for n in range(2, 65):
            for k in range(1, min(n, 3) + 1):
                spec = ModelSpec(Model.K_FORESTS, n, k)
                for seed in range(3):
                    g = random_graph(spec, 100 * n + 10 * k + seed)
                    assert g.parents is not None
                    assert_steps_exact(g, random_row_table(n, rnd))
                    assert_steps_exact(g, identity(n).out_rows)

    @pytest.mark.parametrize("n,parents", [
        (3, [-1, 2, 1]),
        (4, [-1, -1, 3, 2]),
        (2, [1, 0]),
        (5, [1, 2, 3, 4, 0]),
        (6, [-1, 0, 3, 4, 2, 4]),
    ], ids=["tree-2-cycle", "forest-2-cycle", "pair", "5-cycle", "cycle-with-tail"])
    def test_parent_arrays_with_a_cycle(self, n, parents):
        # a cycle keeps its array, but is no forest
        g = graph_from_parents(n, parents)
        assert g.in_rows == _transpose(n, g.out_rows)
        assert make_graph(n, g.edges()).parents == g.parents == tuple(parents)
        assert forest_parents(g) is None
        rnd = random.Random(n)
        for _ in range(5):
            assert_steps_exact(g, random_row_table(n, rnd))
        # the same rounds with their loops drawn in take the OR loop
        for rounds in ([g] * n, [with_loops(g)] * n):
            assert [ProductTrace(n, rounds).prefix(t) for t in range(n + 1)] == [
                _transpose(n, rows) for rows in out_row_prefixes(n, [g] * n)]

    @pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (16, 1), (16, 3), (32, 2), (64, 3)])
    def test_strict_sets_reach_table(self, n, k):
        spec = ModelSpec(Model.K_FORESTS, n, k)
        rounds = [random_graph(spec, 31 * n + t) for t in range(3 * n)]
        tr = build_strict_sets(ProductTrace(n, rounds), k, len(rounds))
        # the same rounds with their loops drawn in have no array, so this
        # sweep takes the OR loop
        looped = dataclasses.replace(tr, trace=ProductTrace(n, map(with_loops, rounds)))
        reach = _member_reach(tr)
        assert reach == _member_reach(looped)
        # each entry is Out(t_i + 1, t', a_i), the reachable set of a_i
        for (a_i, t_i), mask in reach.items():
            assert mask == tr.trace.out_mask(t_i + 1, tr.t_prime, a_i), (a_i, t_i)
        members = {pair for pairs in tr.sets.values() for pair in pairs}
        assert set(reach) == members
