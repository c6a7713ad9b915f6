import random
import sys
import warnings

import pytest

from dynnet import search as search_module
from dynnet.analysis import bounds_for
from dynnet.dissemination import Objective, run
from dynnet.families import Model, ModelSpec, validate_member
from dynnet.graphs import add_self_loops, compose_rows, graph_from_rows, identity
from dynnet.search import (
    MemoryBudgetExceeded,
    Policy,
    exact_worst_case,
    family_moves,
    greedy_adversary,
    worst_case_reference,
)


class TestFamilyMoves:
    def test_tree_move_count(self):
        assert len(family_moves(ModelSpec(Model.TREES, 4))) == 64

    def test_forest_moves_valid_and_distinct(self):
        spec = ModelSpec(Model.K_FORESTS, 4, 2)
        moves = family_moves(spec)
        assert len({g.out_rows for g in moves}) == len(moves)
        assert all(validate_member(spec, g) for g in moves)
        # 2-forests on 4 nodes: 4 singleton splits x 9 trees + 3 pair splits x 4
        assert len(moves) == 48

    def test_k_rooted_moves_valid(self):
        spec = ModelSpec(Model.K_ROOTED, 3, 2)
        moves = family_moves(spec)
        assert all(validate_member(spec, g) for g in moves)
        assert len({g.out_rows for g in moves}) == len(moves)

    def test_moves_sorted_by_serialization(self):
        moves = family_moves(ModelSpec(Model.TREES, 3))
        assert [g.out_rows for g in moves] == sorted(g.out_rows for g in moves)


class TestExactWorstCase:
    @pytest.mark.parametrize(
        "spec, objective, value, states, hits",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast(), 4, 2044, 10141),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2), 2, 805, 228),
            (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2), 3, 1595, 24865),
        ],
        ids=["trees-broadcast", "forests-cover", "rooted-kbroadcast"],
    )
    def test_pinned_counts(self, spec, objective, value, states, hits):
        # the counts depend only on the reachable state space and the
        # deduplicated successor sets, not on how the engine stores them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, objective)
            replay = run(res.optimal_sequence, objective)
        assert (res.value, res.states_visited, res.memo_hits) == (value, states, hits)
        assert replay.time == value

    def test_single_node_needs_no_round(self):
        res = exact_worst_case(ModelSpec(Model.TREES, 1), Objective.broadcast())
        assert (res.value, res.states_visited) == (0, 1)
        assert res.optimal_sequence.rounds == []

    def test_trees_n2_is_one(self):
        res = exact_worst_case(ModelSpec(Model.TREES, 2), Objective.broadcast())
        assert res.value == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_reference(self, n):
        spec = ModelSpec(Model.TREES, n)
        assert (
            worst_case_reference(spec, Objective.broadcast())
            == exact_worst_case(spec, Objective.broadcast()).value
        )

    def test_forest_reference_agreement(self):
        spec = ModelSpec(Model.K_FORESTS, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert (
                worst_case_reference(spec, Objective.cover(2))
                == exact_worst_case(spec, Objective.cover(2)).value
            )

    def test_trees_n4_sandwich_and_replay(self):
        spec = ModelSpec(Model.TREES, 4)
        res = exact_worst_case(spec, Objective.broadcast())
        b = bounds_for(spec)
        assert b.lower <= res.value <= b.upper_int
        replay = run(res.optimal_sequence, Objective.broadcast())
        assert replay.time == res.value

    def test_forests_n4_cover_bounded(self):
        spec = ModelSpec(Model.K_FORESTS, 4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, Objective.cover(2))
            replay = run(res.optimal_sequence, Objective.cover(2))
        assert res.value <= bounds_for(spec).upper_int == 12
        assert replay.time == res.value

    def test_k_rooted_n3_kbroadcast(self):
        spec = ModelSpec(Model.K_ROOTED, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, Objective.k_broadcast(2))
            replay = run(res.optimal_sequence, Objective.k_broadcast(2))
        assert replay.time == res.value
        assert res.value <= bounds_for(spec).upper_int

    def test_value_at_least_construction(self):
        from dynnet.constructions import cover_lower_bound, trees_lower_bound

        spec = ModelSpec(Model.TREES, 4)
        res = exact_worst_case(spec, Objective.broadcast())
        measured = run(trees_lower_bound(4).seq, Objective.broadcast()).time
        assert res.value >= measured

        spec = ModelSpec(Model.K_FORESTS, 4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, Objective.cover(2))
            measured = run(cover_lower_bound(4, 2).seq, Objective.cover(2)).time
        assert res.value >= measured

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_worst_case(ModelSpec(Model.TREES, 7), Objective.broadcast())

    def test_broadcast_against_forests_stalls(self):
        # a 2-forest whose trees are already saturated adds no product edge
        with pytest.raises(RuntimeError, match="without progress"):
            exact_worst_case(ModelSpec(Model.K_FORESTS, 3, 2), Objective.broadcast())

    def test_memory_cap(self):
        with pytest.raises(MemoryBudgetExceeded):
            exact_worst_case(
                ModelSpec(Model.TREES, 4), Objective.broadcast(), mem_cap_bytes=5_000
            )

    def test_value_table_over_budget_raises_before_enumerating(self, monkeypatch):
        # trees at n=7 would need a 2^42-byte value table
        def enumerate_moves(spec):
            pytest.fail("moves enumerated before the budget check")

        monkeypatch.setattr(search_module, "family_moves", enumerate_moves)
        with pytest.raises(MemoryBudgetExceeded):
            exact_worst_case(
                ModelSpec(Model.TREES, 7), Objective.broadcast(), allow_large=True
            )

    def test_threads_agree(self):
        # memo_hits is counted without a lock; everything else must match
        spec = ModelSpec(Model.TREES, 4)
        single = exact_worst_case(spec, Objective.broadcast())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (2, 4):
                res = exact_worst_case(spec, Objective.broadcast(), threads=threads)
                assert (res.value, res.states_visited) == (single.value, single.states_visited)
                assert [g.out_rows for g in res.optimal_sequence.rounds] == [
                    g.out_rows for g in single.optimal_sequence.rounds
                ]
                assert run(res.optimal_sequence, Objective.broadcast()).time == res.value
        finally:
            sys.setswitchinterval(interval)

    def test_optimal_sequence_validates(self):
        res = exact_worst_case(ModelSpec(Model.TREES, 3), Objective.broadcast())
        spec = res.optimal_sequence.spec
        assert all(validate_member(spec, g) for g in res.optimal_sequence.rounds)


class TestSupergraphDominance:
    def test_extra_edges_never_slow_dissemination(self):
        # k-rooted search restricts to unions of k spanning trees; adding
        # edges to a move can only shrink the remaining worst-case time
        spec = ModelSpec(Model.K_ROOTED, 4, 2)
        objective = Objective.k_broadcast(2)
        moves = family_moves(spec)
        rnd = random.Random(0)

        from dynnet.search import _Search

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            search = _Search(spec, objective, 2 << 30)
            start = search.pack(identity(4).out_rows)
            search.value(start)

            for _ in range(200):
                key = rnd.choice(list(search.memo))
                if search.memo[key] == 0:
                    continue
                state = tuple(search.unpack(key))
                mv = add_self_loops(rnd.choice(moves))
                rows = list(mv.out_rows)
                for _ in range(rnd.randint(1, 3)):
                    u, v = rnd.randrange(4), rnd.randrange(4)
                    rows[u] |= 1 << v
                superset = graph_from_rows(4, rows)
                base_child = search.pack(compose_rows(state, mv))
                sup_child = search.pack(compose_rows(state, superset))
                assert search.value(sup_child) <= search.value(base_child)


class TestGreedyAdversary:
    def test_forced_on_two_nodes(self):
        spec = ModelSpec(Model.TREES, 2)
        for policy in Policy:
            res = greedy_adversary(spec, Objective.broadcast(), 3, policy)
            assert run(res.sequence, Objective.broadcast()).time == 1

    def test_metrics_recompute_from_trace(self):
        spec = ModelSpec(Model.TREES, 5)
        res = greedy_adversary(spec, Objective.broadcast(), 12, Policy.MIN_NEW_EDGES)
        rows = identity(5).out_rows
        for mv, reported in zip(res.sequence.rounds, res.metrics):
            before = sum(r.bit_count() for r in rows)
            rows = compose_rows(rows, add_self_loops(mv))
            assert sum(r.bit_count() for r in rows) - before == reported

    def test_max_row_policy_metric(self):
        spec = ModelSpec(Model.TREES, 5)
        res = greedy_adversary(spec, Objective.broadcast(), 8, Policy.MIN_MAX_OUT_ROW)
        rows = identity(5).out_rows
        for mv, reported in zip(res.sequence.rounds, res.metrics):
            rows = compose_rows(rows, add_self_loops(mv))
            assert max(r.bit_count() for r in rows) == reported

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_within_upper_bound(self, n, policy):
        # adversarial sequences still broadcast inside the guarantee window
        spec = ModelSpec(Model.TREES, n)
        ub = bounds_for(spec).upper_int
        res = greedy_adversary(spec, Objective.broadcast(), ub, policy, samples=80)
        t = run(res.sequence, Objective.broadcast()).time
        assert 1 <= t <= ub

    def test_sampled_mode_deterministic(self):
        spec = ModelSpec(Model.K_ROOTED, 6, 2)
        a = greedy_adversary(spec, Objective.k_broadcast(2), 4,
                             Policy.MIN_NEW_EDGES, samples=20, seed=9)
        b = greedy_adversary(spec, Objective.k_broadcast(2), 4,
                             Policy.MIN_NEW_EDGES, samples=20, seed=9)
        assert [g.out_rows for g in a.sequence.rounds] == [g.out_rows for g in b.sequence.rounds]

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            greedy_adversary(ModelSpec(Model.TREES, 3), Objective.broadcast(), 0,
                             Policy.MIN_NEW_EDGES)
