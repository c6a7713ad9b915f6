import random
from collections import Counter

import pytest

from dynnet.families import (
    ENUM_GUARD,
    Model,
    ModelSpec,
    enumerate_rooted_trees,
    forest_roots,
    is_k_forest,
    is_k_rooted,
    is_rooted_tree,
    random_graph,
    reach_mask,
    roots_reaching_all,
    validate_member,
)
from dynnet.graphs import add_self_loops, make_graph


class TestRootedTreeValidator:
    def test_star(self):
        ok, root = is_rooted_tree(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert ok and root == 0

    def test_cycle_rejected(self):
        ok, root = is_rooted_tree(make_graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert not ok and root is None

    def test_disconnected_rejected(self):
        assert not is_rooted_tree(make_graph(4, [(0, 1), (2, 3)]))[0]

    def test_self_loop_rejected(self):
        g = add_self_loops(make_graph(3, [(0, 1), (1, 2)]))
        assert not is_rooted_tree(g)[0]

    def test_single_node(self):
        assert is_rooted_tree(make_graph(1, [])) == (True, 0)

    def test_wrong_direction_rejected(self):
        # edges toward the root give in-degree 0 at a leaf and 2 elsewhere
        assert not is_rooted_tree(make_graph(3, [(1, 0), (1, 2), (2, 0)]))[0]


class TestForestValidator:
    def test_two_paths(self):
        ok, roots = is_k_forest(make_graph(4, [(0, 1), (2, 3)]), 2)
        assert ok and roots == [0, 2]

    def test_single_tree_is_not_two_forest(self):
        assert not is_k_forest(make_graph(3, [(0, 1), (0, 2)]), 2)[0]

    def test_all_singletons(self):
        ok, roots = is_k_forest(make_graph(4, []), 4)
        assert ok and roots == [0, 1, 2, 3]

    def test_edge_count_invariant(self):
        rnd = random.Random(3)
        for _ in range(40):
            n = rnd.randint(2, 10)
            k = rnd.randint(1, n)
            g = random_graph(ModelSpec(Model.K_FORESTS, n, k), rnd.randrange(10**6))
            assert g.edge_count() == n - k

    def test_forest_roots_with_loops(self):
        raw = make_graph(5, [(0, 1), (3, 4)])
        assert forest_roots(raw) == [0, 2, 3]
        assert forest_roots(add_self_loops(raw)) == [0, 2, 3]


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
            ok, root = is_rooted_tree(g)
            assert ok
            assert roots_reaching_all(g) == {root}

    def test_matches_search_from_every_node(self):
        rnd = random.Random(11)
        nonempty = 0
        for _ in range(400):
            n = rnd.randint(1, 12)
            density = rnd.choice((0.05, 0.15, 0.3, 0.6))
            g = make_graph(n, [(u, v) for u in range(n) for v in range(n) if rnd.random() < density])
            if rnd.random() < 0.5:
                g = add_self_loops(g)
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
        seen = {g.out_rows for g in enumerate_rooted_trees(n)}
        assert len(seen) == count

    def test_all_members_valid(self):
        for n in (2, 3, 4, 5):
            for g in enumerate_rooted_trees(n):
                assert is_rooted_tree(g)[0]

    def test_root_split_partitions(self):
        full = {g.out_rows for g in enumerate_rooted_trees(4)}
        split = set()
        for r in range(4):
            part = {g.out_rows for g in enumerate_rooted_trees(4, root=r)}
            assert all(is_rooted_tree_root(rows) == r for rows in part)
            split |= part
        assert split == full

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_rooted_trees(ENUM_GUARD + 1))


def is_rooted_tree_root(rows: tuple[int, ...]) -> int:
    from dynnet.graphs import graph_from_rows

    return is_rooted_tree(graph_from_rows(len(rows), rows))[1]


class TestRandomGraph:
    def test_deterministic_per_seed(self):
        spec = ModelSpec(Model.TREES, 5)
        assert random_graph(spec, 42) == random_graph(spec, 42)
        spec = ModelSpec(Model.K_ROOTED, 6, 3)
        assert random_graph(spec, 7) == random_graph(spec, 7)

    def test_validator_closure(self):
        rnd = random.Random(5)
        for _ in range(60):
            n = rnd.randint(2, 12)
            k = rnd.randint(1, min(n, 4))
            for model in Model:
                spec = ModelSpec(model, n, 1 if model is Model.TREES else k)
                g = random_graph(spec, rnd.randrange(10**6))
                assert validate_member(spec, g), (model, n, k)

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


class TestModelSpec:
    def test_tree_k_must_be_one(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.TREES, 5, 2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.K_FORESTS, 3, 4)
        with pytest.raises(ValueError):
            ModelSpec(Model.K_ROOTED, 3, 0)
