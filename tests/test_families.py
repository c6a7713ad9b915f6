import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from dynnet import seqfile
from dynnet.families import (
    ENUM_GUARD,
    EXTRA_EDGE_DENSITY,
    EXTRA_EDGE_THRESHOLD,
    Model,
    ModelSpec,
    _forest_from_code,
    _forest_parents_from_code,
    _prufer_parents,
    _random_k_rooted,
    _rooted_tree_parents,
    enumerate_k_forests,
    forest_parents,
    forest_roots,
    is_k_rooted,
    random_graph,
    reach_mask,
    roots_reaching_all,
    validate_member,
)
from dynnet.dissemination import RoundSequence
from dynnet.graphs import _transpose, graph_from_parents, graph_from_rows, make_graph
from dynnet.search import family_moves

# the sizes of the ``sample`` benchmark workload
SAMPLE_SIZES = tuple(range(3, 17)) + (20, 24, 32, 48, 64)


def _digest(graphs) -> str:
    return hashlib.sha256(repr([g.out_rows for g in graphs]).encode()).hexdigest()


def tree_root(g):
    """The root of g if g is a rooted tree, else None: the one definition,
    ``validate_member``, then the one parentless node."""
    if not validate_member(ModelSpec(Model.TREES, g.n), g):
        return None
    [root] = forest_roots(g)
    return root


class TestRootedTreeValidator:
    def test_star(self):
        assert tree_root(make_graph(4, [(0, 1), (0, 2), (0, 3)])) == 0

    def test_cycle_rejected(self):
        assert tree_root(make_graph(3, [(0, 1), (1, 2), (2, 0)])) is None

    def test_cycle_beside_a_root_rejected(self):
        # every in-degree is at most 1 and node 0 is the one root
        g = make_graph(3, [(1, 2), (2, 1)])
        assert forest_parents(g) is None
        assert tree_root(g) is None

    def test_disconnected_rejected(self):
        assert tree_root(make_graph(4, [(0, 1), (2, 3)])) is None

    def test_self_loop_rejected(self):
        g = make_graph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        assert tree_root(g) is None

    def test_single_node(self):
        assert tree_root(make_graph(1, [])) == 0

    def test_wrong_direction_rejected(self):
        # edges toward the root give in-degree 0 at a leaf and 2 elsewhere
        assert tree_root(make_graph(3, [(1, 0), (1, 2), (2, 0)])) is None


def is_forest(g, k) -> bool:
    return validate_member(ModelSpec(Model.K_FORESTS, g.n, k), g)


class TestForestValidator:
    def test_two_paths(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert is_forest(g, 2) and forest_roots(g) == [0, 2]

    def test_single_tree_is_not_two_forest(self):
        assert not is_forest(make_graph(3, [(0, 1), (0, 2)]), 2)

    def test_all_singletons(self):
        g = make_graph(4, [])
        assert is_forest(g, 4) and forest_roots(g) == [0, 1, 2, 3]

    def test_edge_count_invariant(self):
        rnd = random.Random(3)
        for _ in range(40):
            n = rnd.randint(2, 10)
            k = rnd.randint(1, n)
            g = random_graph(ModelSpec(Model.K_FORESTS, n, k), rnd.randrange(10**6))
            assert g.edge_count() == n - k

    def test_forest_roots_are_parentless_nodes(self):
        assert forest_roots(make_graph(5, [(0, 1), (3, 4)])) == [0, 2, 3]
        rnd = random.Random(5)
        for k in (1, 2, 3):
            g = random_graph(ModelSpec(Model.K_FORESTS, 9, k), rnd.randrange(1 << 30))
            parents = forest_parents(g)
            assert forest_roots(g) == [v for v, p in enumerate(parents) if p == -1]
            assert len(forest_roots(g)) == k


class TestRootsReachingAll:
    def test_complete(self):
        n = 4
        g = make_graph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        assert roots_reaching_all(g) == set(range(n))

    def test_path_head_only(self):
        assert roots_reaching_all(make_graph(3, [(0, 1), (1, 2)])) == {0}

    def test_two_forest_has_none(self):
        assert roots_reaching_all(make_graph(4, [(0, 1), (2, 3)])) == set()

    def test_rooted_tree_has_exactly_its_root(self):
        rnd = random.Random(4)
        for _ in range(30):
            n = rnd.randint(2, 9)
            g = random_graph(ModelSpec(Model.TREES, n), rnd.randrange(10**6))
            assert roots_reaching_all(g) == {tree_root(g)}

    def test_matches_search_from_every_node(self):
        rnd = random.Random(11)
        nonempty = 0
        for _ in range(400):
            n = rnd.randint(1, 12)
            density = rnd.choice((0.05, 0.15, 0.3, 0.6))
            g = make_graph(n, [(u, v) for u in range(n) for v in range(n) if rnd.random() < density])
            if rnd.random() < 0.5:
                g = graph_from_rows(n, [row | 1 << x for x, row in enumerate(g.out_rows)])
            expected = {x for x in range(n) if reach_mask(g, x) == (1 << n) - 1}
            assert roots_reaching_all(g) == expected
            for k in range(1, n + 1):
                assert is_k_rooted(g, k) == (len(expected) >= k)
            nonempty += bool(expected)
        assert 50 < nonempty < 350

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_rooted_members_at_scale(self, k):
        for seed in range(5):
            g = random_graph(ModelSpec(Model.K_ROOTED, 64, k), seed)
            expected = {x for x in range(64) if reach_mask(g, x) == (1 << 64) - 1}
            assert len(expected) >= k
            assert roots_reaching_all(g) == expected


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625), (6, 7776)])
    def test_cayley_counts(self, n, count):
        trees = [g.out_rows for g in enumerate_k_forests(n, 1)]
        assert len(trees) == len(set(trees)) == count

    def test_all_members_valid(self):
        # every 1-forest is a rooted tree, and each root has n^(n-2) trees
        for n in (2, 3, 4, 5):
            roots = Counter(tree_root(g) for g in enumerate_k_forests(n, 1))
            assert roots == {r: n ** (n - 2) for r in range(n)}

    def test_root_split_partitions(self):
        # the trees of root r are exactly the 1-forests rooted at r: one per
        # code on the n labels, decoded and re-rooted at r
        for n in (2, 3, 4, 5):
            forests = list(enumerate_k_forests(n, 1))
            for r in range(n):
                part = {graph_from_parents(n, _rooted_tree_parents(n, r, code)).out_rows
                        for code in itertools.product(range(n), repeat=n - 2)}
                assert part == {g.out_rows for g in forests if forest_roots(g) == [r]}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_k_forest_counts(self, n):
        for k in range(1, n + 1):
            forests = list(enumerate_k_forests(n, k))
            assert len({g.out_rows for g in forests}) == len(forests)
            assert len(forests) == math.comb(n - 1, k - 1) * n ** (n - k)
            assert all(is_forest(g, k) for g in forests)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_k_forests_follow_the_filtered_codes(self, n):
        # the definition: every code on n+1 labels in lexicographic order,
        # kept when it holds label 0 exactly k-1 times
        for k in range(1, n + 1):
            codes = [c for c in itertools.product(range(n + 1), repeat=n - 1) if c.count(0) == k - 1]
            assert ([g.out_rows for g in enumerate_k_forests(n, k)]
                    == [_forest_from_code(n, c).out_rows for c in codes]), k

    def test_one_forests_are_the_rooted_trees(self):
        # every parent array with one root and no cycle, as validated
        for n in (1, 2, 3, 4, 5):
            trees = set()
            for parents in itertools.product(range(-1, n), repeat=n):
                if parents.count(-1) == 1 and all(p != v for v, p in enumerate(parents)):
                    g = graph_from_parents(n, parents)
                    if tree_root(g) is not None:
                        trees.add(g.out_rows)
            assert {g.out_rows for g in enumerate_k_forests(n, 1)} == trees

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_k_forests(ENUM_GUARD + 1, 1))
        with pytest.raises(ValueError):
            list(enumerate_k_forests(4, 5))


def _reference_prufer_parents(n: int, code) -> list[int]:
    """Smallest-leaf elimination with a degree decrement and re-test at
    every step, rooted at label n-1."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    parents = [-1] * n
    ptr = 0
    leaf = -1
    for v in code:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        parents[leaf] = v
        degree[leaf] -= 1
        degree[v] -= 1
        leaf = v if degree[v] == 1 and v < ptr else -1
    if leaf < 0:
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
    parents[leaf] = n - 1
    return parents


def _reference_forest_parents(n: int, code) -> list[int]:
    """The forest on [n] cut from the tree on n+1 labels with ``code``:
    re-rooted at label 0, which is dropped."""
    parents = _reference_prufer_parents(n + 1, code)
    prev, v = -1, 0
    while v != -1:
        parents[v], prev, v = prev, v, parents[v]
    return [p - 1 for p in parents[1:]]


def _reference_rooted_tree_parents(n: int, root: int, code) -> list[int]:
    """The tree rooted at ``root`` with code ``code``, as the forest code
    ``(root+1, code+1)``: label 0 hangs below label root+1."""
    return _reference_forest_parents(n, (root + 1,) + tuple(v + 1 for v in code))


def _random_codes(labels: int, length: int, count: int, seed: int):
    rnd = random.Random(f"codes/{labels}/{length}/{seed}")
    return [tuple(rnd.randrange(labels) for _ in range(length)) for _ in range(count)]


class TestDecoders:
    """The decoders give the parent arrays of the plain references, on
    every code for n <= 6 and on seeded codes up to n = 64."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_code(self, n):
        for code in itertools.product(range(n), repeat=n - 2):
            assert _prufer_parents(n, code) == _reference_prufer_parents(n, code), code
            for root in range(n):
                assert (_rooted_tree_parents(n, root, code)
                        == _reference_rooted_tree_parents(n, root, code)), (root, code)
        for code in itertools.product(range(n + 1), repeat=n - 1):
            assert _forest_parents_from_code(n, code) == _reference_forest_parents(n, code), code

    @pytest.mark.parametrize("n", [7, 8, 11, 16, 24, 32, 47, 63, 64])
    def test_seeded_codes(self, n):
        for code in _random_codes(n, n - 2, 60, 0):
            assert _prufer_parents(n, code) == _reference_prufer_parents(n, code), code
            for root in (0, n // 2, n - 1, code[0]):
                assert (_rooted_tree_parents(n, root, code)
                        == _reference_rooted_tree_parents(n, root, code)), (root, code)
        for code in _random_codes(n + 1, n - 1, 60, 1):
            assert _forest_parents_from_code(n, code) == _reference_forest_parents(n, code), code


class TestRandomGraph:
    def test_deterministic_per_seed(self):
        spec = ModelSpec(Model.TREES, 5)
        assert random_graph(spec, 42) == random_graph(spec, 42)
        spec = ModelSpec(Model.K_ROOTED, 6, 3)
        assert random_graph(spec, 7) == random_graph(spec, 7)

    def test_validator_closure(self):
        # the adherence gates' cells, down to n = 2 and up to k = 4, and the largest sizes
        for model, stop in ((Model.TREES, 21), (Model.K_FORESTS, 17), (Model.K_ROOTED, 15)):
            ks = [1] if model is Model.TREES else range(1, 5)
            for n, k, seed in itertools.product([*range(2, stop), 32, 48, 64], ks, range(50)):
                if k <= n:
                    spec = ModelSpec(model, n, k)
                    assert validate_member(spec, random_graph(spec, seed)), (model, n, k, seed)

    def test_k_rooted_has_k_roots(self):
        spec = ModelSpec(Model.K_ROOTED, 6, 3)
        for seed in range(25):
            g = random_graph(spec, seed)
            assert len(roots_reaching_all(g)) >= 3
            assert is_k_rooted(g, 3)

    def test_tree_distribution_hits_every_tree(self):
        # n=3 has 9 rooted trees; a uniform sampler should see them all
        spec = ModelSpec(Model.TREES, 3)
        counts = Counter(random_graph(spec, seed).out_rows for seed in range(900))
        assert len(counts) == 9
        assert min(counts.values()) > 40

    def test_forest_distribution_hits_every_forest(self):
        # 2-forests on 3 nodes: 3 choices of singleton x 2 orientations
        spec = ModelSpec(Model.K_FORESTS, 3, 2)
        counts = Counter(random_graph(spec, seed).out_rows for seed in range(600))
        assert len(counts) == 6
        assert min(counts.values()) > 50


def _reference_k_rooted(n: int, k: int, rnd: random.Random):
    """The k-rooted generator as plain calls: k trees decoded from
    ``randrange`` letters, then one ``random()`` per off-diagonal cell."""
    roots = rnd.sample(range(n), k)
    trees = [_forest_from_code(n, (r + 1,) + tuple(rnd.randrange(n) + 1 for _ in range(n - 2)))
             for r in roots] if n > 1 else []
    rows = [0] * n
    for tree in trees:
        rows = [r | t for r, t in zip(rows, tree.out_rows)]
    for u in range(n):
        for v in range(n):
            if u != v and rnd.random() < EXTRA_EDGE_DENSITY:
                rows[u] |= 1 << v
    return graph_from_rows(n, rows)


def _reference_random_graph(spec: ModelSpec, seed: int):
    """``random_graph`` drawn one ``randrange`` or ``random()`` at a time."""
    rnd = random.Random(seed)
    n, k = spec.n, spec.k
    if spec.model is Model.K_ROOTED:
        return _reference_k_rooted(n, k, rnd)
    positions = set(rnd.sample(range(n - 1), k - 1))
    code = tuple(0 if i in positions else rnd.randrange(1, n + 1) for i in range(n - 1))
    return _forest_from_code(n, code)


class _GivenWords(random.Random):
    """A generator that hands out the given 32-bit words in order, the way
    ``random.Random`` hands out its own: ``getrandbits`` takes one word per
    32 bits (the top bits of one word below 32), least significant first,
    and ``random()`` takes two."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        if k <= 32:
            return self.words.pop(0) >> (32 - k)
        assert k % 32 == 0
        taken, self.words = self.words[:k // 32], self.words[k // 32:]
        return sum(w << 32 * i for i, w in enumerate(taken))

    def random(self):
        a, b = self.getrandbits(32), self.getrandbits(32)
        return ((a >> 5) * 2**26 + (b >> 6)) / 2**53


class TestBulkDraws:
    """The bulk draws give the graph of the plain calls, seed for seed."""

    @pytest.mark.parametrize("model", list(Model))
    def test_equals_the_plain_generator(self, model):
        for n in range(1, 65):
            for k in sorted({1, 2, 3, n}) if model is not Model.TREES else [1]:
                if k <= n:
                    spec = ModelSpec(model, n, k)
                    for seed in range(4):
                        assert random_graph(spec, seed) == _reference_random_graph(spec, seed), \
                            (spec, seed)

    def test_threshold_is_exact(self):
        for m in (EXTRA_EDGE_THRESHOLD - 1, EXTRA_EDGE_THRESHOLD, EXTRA_EDGE_THRESHOLD + 1):
            assert (m < EXTRA_EDGE_THRESHOLD) == (m / 2**53 < EXTRA_EDGE_DENSITY), m

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_extra_edge_at_the_threshold(self, offset):
        # n = 2, k = 1: one word for the root, then the two cells (0, 1)
        # and (1, 0), both at m; the tree gives 0 -> 1 and the extra edge
        # 1 -> 0 exists iff random() < EXTRA_EDGE_DENSITY. The bits that
        # random() drops are set, so they must be dropped here too.
        m = EXTRA_EDGE_THRESHOLD + offset
        a, b = (m >> 26) << 5 | 0x1F, (m & (2**26 - 1)) << 6 | 0x3F
        words = [0, a, b, a, b]
        assert _GivenWords([a, b]).random() == m / 2**53
        g = _random_k_rooted(2, 1, _GivenWords(words))
        assert g == _reference_k_rooted(2, 1, _GivenWords(words))
        assert g.out_rows == (0b10, 0b01 if offset < 0 else 0)


class TestPinnedOutputs:
    """Digests of the enumerated move lists and of seeded draws; a change
    to how a family is enumerated or sampled must leave them as they are."""

    @pytest.mark.parametrize("model,k,expected", [
        (Model.TREES, 1, "92c97b4a5f004feea34e883701c25e97eda435717335bf8ba89b9c21e2bbdd74"),
        (Model.K_FORESTS, 2, "1f45974f64be2c2560e900a8e901b59f63ca9ef9f071e682db45214d76f563e6"),
    ])
    def test_family_moves_n5(self, model, k, expected):
        assert _digest(family_moves(ModelSpec(model, 5, k))) == expected

    @pytest.mark.parametrize("model,k,expected", [
        (Model.TREES, 1, "c3b19a1effd8d7e66e9289d090685bba3b168488abd207c6239fc56f4e4d052d"),
        (Model.K_FORESTS, 1, "c3b19a1effd8d7e66e9289d090685bba3b168488abd207c6239fc56f4e4d052d"),
        (Model.K_FORESTS, 2, "cee02d888fd528b525a28fbeb2852cbc7beb3e5c163591326fb70e490836d77e"),
        (Model.K_FORESTS, 3, "69b5925d2c6106590185e5777d9df22e2aa55b52e07e1aa17db6b76996c891d3"),
        (Model.K_ROOTED, 1, "bb484e75986f631bf6a1900269d38caae4a6c243f5066ad86c29fcc9a3547c99"),
        (Model.K_ROOTED, 2, "f5b8633e2dc2ecbb2923f3195466a62c957f607cf5bb7bb8c6ab1279a2883108"),
        (Model.K_ROOTED, 3, "e62074fe2de30580e34d76f9cfc399fbf20597cb2f8b5fc2fe51b928d4e78fd2"),
    ])
    def test_random_graph_sample_sizes(self, model, k, expected):
        draws = [random_graph(ModelSpec(model, n, k), s) for n in SAMPLE_SIZES for s in range(20)]
        assert _digest(draws) == expected


def _parents_by_scan(g) -> list[int]:
    """Parent array of a forest read edge by edge from its out-rows."""
    parents = [-1] * g.n
    for u, v in g.edges():
        parents[v] = u
    return parents


def _forest_members_and_draws():
    """Every k-forest for n <= 5, then seeded tree, forest and k-rooted
    draws up to n = 64, each with its spec."""
    for n in range(1, 6):
        for k in range(1, n + 1):
            spec = ModelSpec(Model.K_FORESTS, n, k)
            for g in enumerate_k_forests(n, k):
                yield spec, g
    for model in Model:
        for n in (1, 2, 3, 7, 16, 64):
            for k in [1] if model is Model.TREES else range(1, min(n, 3) + 1):
                spec = ModelSpec(model, n, k)
                for seed in range(5):
                    yield spec, random_graph(spec, seed)


class TestParentArrays:
    """A forest and its parent array describe one graph, whichever way it
    was built."""

    def test_in_rows_are_the_transpose(self):
        for spec, g in _forest_members_and_draws():
            assert g.in_rows == _transpose(g.n, g.out_rows), (spec, g)

    def test_forests_round_trip_through_parent_arrays(self):
        by_spec: dict = {}
        for spec, g in _forest_members_and_draws():
            if spec.model is Model.K_ROOTED:
                continue
            p = forest_parents(g)
            assert p == _parents_by_scan(g), (spec, g)
            assert forest_parents(graph_from_parents(g.n, p)) == p
            assert graph_from_parents(g.n, p) == g
            by_spec.setdefault(spec, []).append(g)
        for spec, rounds in by_spec.items():
            doc = seqfile.sequence_to_json_dict(RoundSequence(spec, rounds))
            assert doc["rounds"] == [_parents_by_scan(g) for g in rounds], spec
            assert seqfile.from_json_dict(doc).rounds == rounds, spec


class TestSamplerWithinEnumeration:
    """The sampler and the exact search's move list describe one family."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_trees_and_forests_are_moves(self, n):
        for model, ks in ((Model.TREES, [1]), (Model.K_FORESTS, range(1, n + 1))):
            for k in ks:
                spec = ModelSpec(model, n, k)
                moves = {g.out_rows for g in family_moves(spec)}
                for seed in range(30):
                    assert random_graph(spec, seed).out_rows in moves, (spec, seed)

    # n=5 stops at k=2: k >= 3 means 10 x 125^3 unions of trees to enumerate
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(1, n + 1)]
                             + [(5, 1), (5, 2)])
    def test_k_rooted_draws_contain_a_move(self, n, k):
        spec = ModelSpec(Model.K_ROOTED, n, k)
        moves = [g.out_rows for g in family_moves(spec)]
        for seed in range(30):
            rows = random_graph(spec, seed).out_rows
            assert any(all(m & ~r == 0 for m, r in zip(move, rows)) for move in moves), seed


class TestModelSpec:
    def test_tree_k_must_be_one(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.TREES, 5, 2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.K_FORESTS, 3, 4)
        with pytest.raises(ValueError):
            ModelSpec(Model.K_ROOTED, 3, 0)
