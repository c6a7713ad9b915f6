import hashlib
import random
import re
import tracemalloc
import warnings
from functools import reduce
from itertools import combinations, permutations
from itertools import product as iproduct
from math import factorial
from operator import or_

import numpy as np
import pytest

from dynnet import search as search_module
from dynnet import seqfile
from dynnet.analysis import bounds_for
from dynnet.dissemination import Objective, cover_achieved, run
from dynnet.families import (
    Model,
    ModelSpec,
    enumerate_k_forests,
    forest_roots,
    validate_member,
)
from dynnet.graphs import compose_rows, graph_from_rows, identity
from dynnet.search import (
    MemoryBudgetExceeded,
    exact_worst_case,
    family_moves,
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

    @pytest.mark.parametrize(
        "n, k, count", [(3, 2, 20), (3, 3, 18), (4, 2, 792), (4, 3, 1875)],
        ids=["n3-k2", "n3-k3", "n4-k2", "n4-k3"],
    )
    def test_k_rooted_move_count(self, n, k, count):
        # distinct unions of k rooted trees with distinct roots
        assert len(family_moves(ModelSpec(Model.K_ROOTED, n, k))) == count

    def test_moves_sorted_by_serialization(self):
        moves = family_moves(ModelSpec(Model.TREES, 3))
        assert [g.out_rows for g in moves] == sorted(g.out_rows for g in moves)

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 5) for k in range(1, n + 1)] + [(5, 2)],
    )
    def test_k_rooted_moves_match_tuple_unions(self, n, k):
        # the union of every k-tuple of trees with distinct roots
        trees_by_root = [[] for _ in range(n)]
        for tree in enumerate_k_forests(n, 1):
            trees_by_root[forest_roots(tree)[0]].append(tree)
        unions = {
            tuple(reduce(or_, column) for column in zip(*(tree.out_rows for tree in combo)))
            for roots in combinations(range(n), k)
            for combo in iproduct(*(trees_by_root[r] for r in roots))
        }
        moves = family_moves(ModelSpec(Model.K_ROOTED, n, k))
        assert [g.out_rows for g in moves] == sorted(unions)


class TestExactWorstCase:
    @pytest.mark.parametrize(
        "spec, objective, value, states, hits",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast(), 4, 2044, 10141),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2), 2, 805, 228),
            (ModelSpec(Model.K_FORESTS, 5, 2), Objective.cover(2), 4, 558_511, 1_660_730),
            (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2), 3, 1595, 24865),
            # the one search whose cover decisions reach size 3
            (ModelSpec(Model.K_FORESTS, 5, 3), Objective.cover(3), 2, 6841, 1470),
            # a cover of size 1 is a broadcast, and a 1-forest a tree
            (ModelSpec(Model.K_FORESTS, 4, 1), Objective.cover(1), 4, 2044, 10141),
        ],
        ids=["trees-broadcast", "forests-cover", "forests-cover-n5", "rooted-kbroadcast",
             "3-forests-cover-n5", "1-forests-cover"],
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

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Model.TREES, 6),
            ModelSpec(Model.K_FORESTS, 6, 2),
            ModelSpec(Model.K_ROOTED, 6, 2),
            ModelSpec(Model.TREES, 7),
        ],
        ids=["tree-6", "forest-6", "digraph-6", "tree-7"],
    )
    def test_guard(self, monkeypatch, spec):
        def enumerate_moves(spec):
            pytest.fail("moves enumerated above the guard")

        monkeypatch.setattr(search_module, "family_moves", enumerate_moves)
        with pytest.raises(ValueError, match="n <= 5"):
            exact_worst_case(spec, Objective.broadcast())

    @pytest.mark.parametrize("k, walk", [(4, "1,220,703,125"), (5, "30,517,578,125")])
    def test_k_rooted_walk_guard(self, monkeypatch, k, walk):
        def enumerate_trees(n, k):
            pytest.fail("trees enumerated above the k-rooted walk guard")

        monkeypatch.setattr(search_module, "enumerate_k_forests", enumerate_trees)
        spec = ModelSpec(Model.K_ROOTED, 5, k)
        with pytest.raises(ValueError, match=f"got {walk} at n=5, k={k}"):
            exact_worst_case(spec, Objective.k_broadcast(k))

    def test_every_other_k_rooted_cell_passes_the_walk_guard(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def enumerate_moves(spec):
            raise Enumerated

        monkeypatch.setattr(search_module, "family_moves", enumerate_moves)
        cells = [(n, k) for n in range(1, 6) for k in range(1, n + 1) if (n, k) < (5, 4)]
        for n, k in cells:
            with pytest.raises(Enumerated):
                exact_worst_case(ModelSpec(Model.K_ROOTED, n, k), Objective.k_broadcast(k))

    def test_broadcast_against_forests_stalls(self):
        # a 2-forest whose trees are already saturated adds no product edge
        with pytest.raises(RuntimeError, match="without progress"):
            exact_worst_case(ModelSpec(Model.K_FORESTS, 3, 2), Objective.broadcast())

    def test_stall_leaves_reached_states_unsolved(self):
        spec = ModelSpec(Model.K_FORESTS, 3, 2)
        solved = search_module._Search(spec, Objective.broadcast(), 2 << 30)
        start = solved.pack(identity(3).out_rows)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="without progress"):
                solved.value(start)
        assert set(solved.memo.values()) <= {0}

    def test_memory_cap(self):
        with pytest.raises(MemoryBudgetExceeded):
            exact_worst_case(
                ModelSpec(Model.TREES, 4), Objective.broadcast(), mem_cap_bytes=5_000
            )

    def test_negative_memory_cap_raises_before_charging(self, monkeypatch):
        def charge(what, nbytes, mem_cap_bytes):
            pytest.fail(f"{what} charged against a negative budget")

        monkeypatch.setattr(search_module, "_charge", charge)
        with pytest.raises(ValueError, match="memory budget must be at least 0 bytes, got -1"):
            exact_worst_case(ModelSpec(Model.TREES, 3), Objective.broadcast(), mem_cap_bytes=-1)

    def test_value_table_over_budget_raises_before_enumerating(self, monkeypatch):
        # trees at n=5 need a 2^20-byte value table, one byte more than the cap
        def enumerate_moves(spec):
            pytest.fail("moves enumerated before the budget check")

        monkeypatch.setattr(search_module, "family_moves", enumerate_moves)
        with pytest.raises(MemoryBudgetExceeded, match="value table: 1048576 bytes"):
            exact_worst_case(
                ModelSpec(Model.TREES, 5), Objective.broadcast(), mem_cap_bytes=2**20 - 1
            )

    def test_charge_covers_successor_and_move_tables(self):
        # trees at n=4: 4,096 table bytes + 64 moves * 2^4 for the uint8
        # move table + 4 * 2^3 * (64 + 4!) * 4 for the int32 successor and
        # relabeling tables + 4 * 2^3 * 64 for one successor row's uint8
        # temporaries + 6 * 512 rows * 64 * 4 for a batch's temporaries
        # + 5 * 1,365 keys * 4! * 4 for a chunk's temporaries
        res = exact_worst_case(
            ModelSpec(Model.TREES, 4), Objective.broadcast(), mem_cap_bytes=1_460_064
        )
        assert (res.value, res.states_visited) == (4, 2044)

    def test_successor_tables_over_budget_raise_before_building(self, monkeypatch):
        def build_tables(moves, n):
            pytest.fail("successor tables built before the budget check")

        monkeypatch.setattr(search_module, "_successor_tables", build_tables)
        with pytest.raises(MemoryBudgetExceeded):
            exact_worst_case(
                ModelSpec(Model.TREES, 4), Objective.broadcast(), mem_cap_bytes=1_460_063
            )

    def test_relabel_tables_over_budget_raise_before_building(self, monkeypatch):
        def build_tables(n):
            pytest.fail("relabeling tables built before the budget check")

        monkeypatch.setattr(search_module, "_relabel_tables", build_tables)
        with pytest.raises(MemoryBudgetExceeded, match="relabeling tables"):
            exact_worst_case(
                ModelSpec(Model.TREES, 4), Objective.broadcast(), mem_cap_bytes=1_460_063
            )

    @pytest.mark.parametrize(
        "n, total, orbit_bytes",
        [
            # 64 table bytes + 9 moves * 2^3 + 3 * 2^2 * (9 + 3!) * 4
            # + 4 * 2^2 * 9 + 6 * 20 rows * 9 * 4 + 5 * 64 keys * 3! * 4: a
            # chunk is at most every key
            (3, 13_000, 1_536),
            (4, 1_460_064, 131_040),
            # the README's sum for the 625 trees: 2^20 + 625 * 2^5
            # + 5 * 2^4 * 625 * 4 + 5 * 2^4 * 5! * 4 + 4 * 2^4 * 625
            # + 6 * 52 * 625 * 4 + 5 * 273 keys * 5! * 4
            (5, 2_782_176, 131_040),
        ],
        ids=["n3", "n4", "n5"],
    )
    def test_charges_one_successor_table_per_row(self, monkeypatch, n, total, orbit_bytes):
        spec = ModelSpec(Model.TREES, n)
        built = search_module._Search(spec, Objective.broadcast(), total)
        assert built.succ.nbytes == n * 2 ** (n - 1) * len(built.moves) * 4
        # one chunk's relabelings
        assert built.chunk * factorial(n) * 4 == orbit_bytes <= search_module.BATCH_BYTES

        def build_tables(moves, n):
            pytest.fail("successor tables built before the budget check")

        monkeypatch.setattr(search_module, "_successor_tables", build_tables)
        with pytest.raises(MemoryBudgetExceeded):
            search_module._Search(spec, Objective.broadcast(), total - 1)

    def test_k_rooted_n5_charge(self, monkeypatch):
        # 2-rooted at n=5, 54,244 moves: 2^20 + 54,244 * 2^5
        # + 5 * 2^4 * (54,244 + 5!) * 4 + 4 * 2^4 * 54,244
        # + 6 * 1 row * 54,244 * 4 + 5 * 273 keys * 5! * 4; a batch is at
        # least one state
        class Built(Exception):
            pass

        def build_tables(moves, n):
            raise Built

        monkeypatch.setattr(search_module, "_successor_tables", build_tables)
        spec = ModelSpec(Model.K_ROOTED, 5, 2)
        with pytest.raises(Built):
            search_module._Search(spec, Objective.k_broadcast(2), 25_609_536)
        with pytest.raises(MemoryBudgetExceeded):
            search_module._Search(spec, Objective.k_broadcast(2), 25_609_535)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(Model.TREES, 5), ModelSpec(Model.K_ROOTED, 4, 2)],
        ids=["tree-5", "digraph-4"],
    )
    def test_successor_tables_peak_within_charge(self, spec):
        # the move table, the successor tables and one row's four uint8
        # temporaries, as charged; array headers and the uint64 row-key
        # index arrays are a few hundred bytes each
        moves = family_moves(spec)
        n, count = spec.n, len(moves)
        charged = count * 2**n + n * 2 ** (n - 1) * count * 4 + 4 * 2 ** (n - 1) * count
        # a first build also allocates numpy's one-off caches, which are not
        # the tables'
        search_module._successor_tables(moves, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            search_module._successor_tables(moves, n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert charged <= peak <= charged + 4096

    def test_relabel_tables_peak(self):
        # the 38,400 bytes of int32 tables, the 3,840-byte uint8 image table
        # and one row's uint8 temporaries
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            search_module._relabel_tables(5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    @pytest.mark.parametrize(
        "spec, objective",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast()),
            (ModelSpec(Model.TREES, 5), Objective.broadcast()),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2)),
            (ModelSpec(Model.K_FORESTS, 5, 2), Objective.cover(2)),
            (ModelSpec(Model.K_FORESTS, 5, 3), Objective.cover(3)),
            (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2)),
        ],
        ids=["trees-n4", "trees-n5", "forests-cover-n4", "forests-cover-n5",
             "3-forests-cover-n5", "rooted-kbroadcast-n4"],
    )
    def test_search_peak_within_charge(self, monkeypatch, spec, objective):
        # everything the search allocates, the cover decisions' unpacked rows
        # included, fits the total it charges; the moves are built beforehand,
        # as their Graph objects are not charged
        moves = family_moves(spec)
        monkeypatch.setattr(search_module, "family_moves", lambda spec: moves)
        # the value table fits, so the second charge names the total
        with pytest.raises(MemoryBudgetExceeded, match="relabeling tables") as refused:
            search_module._Search(spec, objective, 2 ** (spec.n * (spec.n - 1)))
        total = int(re.search(r"(\d+) bytes needed", str(refused.value)).group(1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                # key 0 is the identity
                search_module._Search(spec, objective, total).value(0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= total

    def test_more_than_one_thread_rejected(self):
        with pytest.raises(ValueError, match="one thread"):
            exact_worst_case(ModelSpec(Model.TREES, 3), Objective.broadcast(), threads=2)

    def test_optimal_sequence_validates(self):
        res = exact_worst_case(ModelSpec(Model.TREES, 3), Objective.broadcast())
        spec = res.optimal_sequence.spec
        assert all(validate_member(spec, g) for g in res.optimal_sequence.rounds)


def solve_recorded(monkeypatch, spec, objective):
    """``exact_worst_case`` and the ``_Search`` it solved in."""
    built = []

    class Recorded(search_module._Search):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with monkeypatch.context() as patched, warnings.catch_warnings():
        patched.setattr(search_module, "_Search", Recorded)
        warnings.simplefilter("ignore")
        res = exact_worst_case(spec, objective)
    (solved,) = built
    return res, solved


class TestPinnedTables:
    """SHA-256 of the solved value table and of the optimal sequence's
    sequence-file text, from the identity. They pin the engine's output
    byte for byte, whatever order it solves the states in."""

    CASES = [
        (ModelSpec(Model.TREES, 4), Objective.broadcast(),
         "1a1dd42db534dbdc0a5dcc8aa0e603289a82bde80a66e16edbefd3e4d502308f",
         "d3ca5461793019a4b6f4ec7c9b58444aca233a036bc66b50cba0af7355586c11"),
        (ModelSpec(Model.TREES, 5), Objective.broadcast(),
         "a68afe066edfeabd36728c51d2e27d6cb25cd13b227ce53c97cd638a9cbfa992",
         "f2fd4ae3268028e1013fba7b70cb0b7586842a46dbf5b8a5ad66b8e3c484c434"),
        (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2),
         "42468449120c347c0295bfe74aa35fa193d08e0ec4d68af86f9e7aaa85c2e1ff",
         "fc3d3e13f987a8080c86651ff4aa5c46bdc4d02c0d2fdcaa71f1a01c4702b4dd"),
        (ModelSpec(Model.K_FORESTS, 5, 2), Objective.cover(2),
         "7fc6399bf3ed97e6880d49dbea2e138a369749ad4914d8db649a160f62c8575c",
         "75136ab4a737de822ba6f82f7dcd7205fb8b22224c3268c1ba4cf6523aae8706"),
        (ModelSpec(Model.K_FORESTS, 5, 3), Objective.cover(3),
         "c25188755b1c8f47b564e12eb082ef33e89c25c3318edc0527b89f76675a2496",
         "348f4a7deab28348bcad0eb98652e5d98f43a0396fae411c6d1716326e087072"),
        (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2),
         "658886ef73a706799e37cb895157bfea3078208928235b6b9c9a61d96eb50d47",
         "96cea35333d31d32c9e6cfbeb3cc2154b548aae3c39ebe099d6fda775c46d786"),
    ]

    @pytest.mark.parametrize(
        "spec, objective, table_sha, sequence_sha", CASES,
        ids=["trees-n4", "trees-n5", "forests-cover-n4", "forests-cover-n5",
             "3-forests-cover-n5", "rooted-kbroadcast-n4"],
    )
    def test_value_table_and_sequence(self, monkeypatch, spec, objective, table_sha,
                                      sequence_sha):
        res, solved = solve_recorded(monkeypatch, spec, objective)
        assert hashlib.sha256(solved.values.tobytes()).hexdigest() == table_sha
        text = seqfile.dumps(res.optimal_sequence)
        assert hashlib.sha256(text.encode()).hexdigest() == sequence_sha


class TestOneRootedIsTrees:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_moves_table_and_sequence(self, monkeypatch, n):
        # a 1-rooted graph contains a spanning tree, and a 1-broadcast is a
        # broadcast, so the two searches are one search
        rooted, rooted_search = solve_recorded(
            monkeypatch, ModelSpec(Model.K_ROOTED, n, 1), Objective.k_broadcast(1)
        )
        trees, trees_search = solve_recorded(
            monkeypatch, ModelSpec(Model.TREES, n), Objective.broadcast()
        )
        assert [g.out_rows for g in rooted_search.moves] == [g.out_rows for g in trees_search.moves]
        assert (hashlib.sha256(rooted_search.values.tobytes()).digest()
                == hashlib.sha256(trees_search.values.tobytes()).digest())
        assert ([g.out_rows for g in rooted.optimal_sequence.rounds]
                == [g.out_rows for g in trees.optimal_sequence.rounds])
        assert (rooted.value, rooted.states_visited, rooted.memo_hits) == (
            trees.value, trees.states_visited, trees.memo_hits
        )


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
                mv = rnd.choice(moves)
                rows = list(mv.out_rows)
                for _ in range(rnd.randint(1, 3)):
                    u, v = rnd.randrange(4), rnd.randrange(4)
                    rows[u] |= 1 << v
                superset = graph_from_rows(4, rows)
                base_child = search.pack(compose_rows(state, mv))
                sup_child = search.pack(compose_rows(state, superset))
                assert search.value(sup_child) <= search.value(base_child)


class TestTerminalMatchesWitness:
    OBJECTIVES = (
        [Objective.broadcast()]
        + [Objective.cover(k) for k in range(1, 5)]
        + [Objective.k_broadcast(k) for k in range(1, 5)]
    )

    @pytest.mark.parametrize(
        "spec, objective",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast()),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2)),
        ],
        ids=["trees-broadcast", "forests-cover"],
    )
    def test_every_solved_state(self, spec, objective):
        # the search's array decision agrees with the row-level witness on
        # every state the n=4 searches solve, for every objective
        solved = search_module._Search(spec, objective, 2 << 30)
        solved.value(solved.pack(identity(4).out_rows))
        keys = np.array(sorted(solved.memo), dtype=np.int64)
        for other in self.OBJECTIVES:
            decided = search_module._Search(spec, other, 2 << 30)._terminal(keys).tolist()
            expected = [other.witness(solved.unpack(key)) is not None for key in keys.tolist()]
            assert decided == expected, other


class TestGatherMatchesCompose:
    @pytest.mark.parametrize(
        "spec",
        [
            # a row takes one key bit
            ModelSpec(Model.TREES, 2),
            ModelSpec(Model.K_ROOTED, 2, 2),
            ModelSpec(Model.TREES, 3),
            ModelSpec(Model.K_FORESTS, 3, 2),
            ModelSpec(Model.K_ROOTED, 3, 2),
            ModelSpec(Model.TREES, 4),
            ModelSpec(Model.K_FORESTS, 4, 2),
            ModelSpec(Model.K_ROOTED, 4, 2),
            ModelSpec(Model.TREES, 5),
        ],
        ids=["trees-n2", "rooted-n2", "trees-n3", "forests-n3", "rooted-n3", "trees-n4",
             "forests-n4", "rooted-n4", "trees-n5"],
    )
    def test_every_move_on_sampled_states(self, spec):
        # states reached by random play from the identity
        search = search_module._Search(spec, Objective.broadcast(), 2 << 30)
        moves = search.moves
        rnd = random.Random(spec.n)
        states = []
        for _ in range(16):
            rows = identity(spec.n).out_rows
            for _ in range(rnd.randrange(spec.n + 1)):
                rows = compose_rows(rows, rnd.choice(moves))
            states.append(rows)
        keys = np.array([search.pack(rows) for rows in states], dtype=search_module.KEY_DTYPE)
        expected = [[search.pack(compose_rows(rows, mv)) for mv in moves] for rows in states]
        # a batch is at most the largest bit-count layer, 2 states at n=2
        parts = search_module._parts(search.batch, keys)
        assert [row for part in parts for row in search._gather(part).tolist()] == expected


def relabel_rows(rows, perm):
    """``rows`` with every edge (x, y) moved to (perm[x], perm[y])."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in range(len(rows)):
            if row >> y & 1:
                out[perm[x]] |= 1 << perm[y]
    return tuple(out)


def orbit_closed(search):
    """Whether every entry of the value table equals the entries of all the
    relabelings of its key."""
    values = search.values
    keys = np.flatnonzero(values).astype(search_module.KEY_DTYPE)
    return all(
        (values[search._relabelings(part)] == values[part][:, None]).all()
        for part in search_module._parts(search.chunk, keys)
    )


class TestRelabeling:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_equal_per_edge_relabeling(self, n):
        search = search_module._Search(ModelSpec(Model.TREES, n), Objective.broadcast(), 2 << 30)
        perms = list(permutations(range(n)))
        width = n - 1
        # entry [x, c, p]: the key of the state whose only edges off the
        # diagonal are row x's, relabeled by the p-th permutation
        for x in range(n):
            for c in range(1 << width):
                rows = [1 << y for y in range(n)]
                rows[x] = search_module._insert_bit(c, x)
                expected = [search.pack(relabel_rows(rows, perm)) for perm in perms]
                assert search.relabel[x, c].tolist() == expected
        # whole keys, drawn from the key range
        rnd = random.Random(n)
        keys = np.array([rnd.getrandbits(n * width) for _ in range(16)], dtype=search_module.KEY_DTYPE)
        expected = [[search.pack(relabel_rows(search.unpack(key), perm)) for perm in perms]
                    for key in keys.tolist()]
        parts = search_module._parts(search.chunk, keys)
        got = [row for part in parts for row in search._relabelings(part).tolist()]
        assert got == expected

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Model.TREES, 3),
            ModelSpec(Model.K_FORESTS, 4, 2),
            ModelSpec(Model.K_ROOTED, 4, 2),
            ModelSpec(Model.TREES, 5),
            ModelSpec(Model.K_FORESTS, 5, 3),
        ],
        ids=["trees-n3", "forests-n4", "rooted-n4", "trees-n5", "3-forests-n5"],
    )
    def test_relabeling_commutes_with_the_step(self, spec):
        # relabel(G o H) = relabel(G) o relabel(H), and relabel(H) is a move
        n = spec.n
        search = search_module._Search(spec, Objective.broadcast(), 2 << 30)
        moves = {g.out_rows for g in search.moves}
        perms = list(permutations(range(n)))
        rnd = random.Random(n)
        for _ in range(64):
            rows = identity(n).out_rows
            for _ in range(rnd.randrange(n + 1)):
                rows = compose_rows(rows, rnd.choice(search.moves))
            mv = rnd.choice(search.moves)
            p = rnd.randrange(len(perms))
            moved = relabel_rows(mv.out_rows, perms[p])
            assert moved in moves
            child = search.pack(compose_rows(rows, mv))
            expected = search.pack(
                compose_rows(relabel_rows(rows, perms[p]), graph_from_rows(n, moved))
            )
            assert search._relabelings(np.array([child], dtype=search_module.KEY_DTYPE))[0, p] == expected

    def test_reach_keeps_one_sorted_row_per_orbit(self):
        # one chunk: the identity (its own orbit), two keys fixed by the
        # transposition (0 1) only, one of them terminal (two full rows), and
        # two relabelings of a path that no relabeling but the identity fixes
        search = search_module._Search(ModelSpec(Model.TREES, 4), Objective.broadcast(), 2 << 30)
        search.layers = [[] for _ in range(4 * 3 + 1)]
        path = (0b0011, 0b0110, 0b1100, 0b1000)
        states = [identity(4).out_rows, (0b1111, 0b1111, 0b1100, 0b1000),
                  (0b0011, 0b0011, 0b1100, 0b1000), path, relabel_rows(path, (3, 2, 1, 0))]
        orbits = [{search.pack(relabel_rows(rows, perm)) for perm in permutations(range(4))}
                  for rows in states]
        assert [len(orbit) for orbit in orbits] == [1, 12, 12, 24, 24]
        # the last state is in the path's orbit
        assert orbits.pop() == orbits[3]
        decided = []
        terminal = search._terminal

        def recorded(keys):
            decided.extend(keys.tolist())
            return terminal(keys)

        search._terminal = recorded
        search._reach(np.array([search.pack(rows) for rows in states], dtype=search_module.KEY_DTYPE))
        # every member of every orbit is decided, and once
        assert sorted(decided) == sorted(set().union(*orbits))
        # the queued representatives are the minima of the non-terminal
        # orbits, each once and in the layer of its bit count
        queued = sorted((key, c) for c, layer in enumerate(search.layers) for part in layer
                        for key in part.tolist())
        reps = [min(orbits[i]) for i in (0, 2, 3)]
        assert queued == sorted((rep, rep.bit_count()) for rep in reps)
        # a terminal orbit holds 1, and every member of a queued orbit,
        # its representative too, REACHED
        expected = dict.fromkeys(orbits[1], 1)
        for i in (0, 2, 3):
            expected.update(dict.fromkeys(orbits[i], search_module.REACHED))
        assert search.memo == {key: entry - 1 for key, entry in expected.items()}

    def test_trees_n5_values_constant_on_orbits(self):
        solved = search_module._Search(ModelSpec(Model.TREES, 5), Objective.broadcast(), 2 << 30)
        solved.value(solved.pack(identity(5).out_rows))
        assert np.count_nonzero(solved.values) == 442_702
        assert orbit_closed(solved)

    @pytest.mark.parametrize(
        "spec, objective, states, orbits",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast(), 613, 30),
            (ModelSpec(Model.TREES, 5), Objective.broadcast(), 200_661, 1_757),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2), 25, 2),
            (ModelSpec(Model.K_FORESTS, 5, 2), Objective.cover(2), 8_941, 81),
            (ModelSpec(Model.K_FORESTS, 5, 3), Objective.cover(3), 61, 2),
            (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2), 1_272, 64),
        ],
        ids=["trees-n4", "trees-n5", "forests-cover-n4", "forests-cover-n5",
             "3-forests-cover-n5", "rooted-kbroadcast-n4"],
    )
    def test_expanded_states_and_orbits(self, spec, objective, states, orbits):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, objective)
        assert (res.expanded_states, res.expanded_orbits) == (states, orbits)

    def test_stall_resets_reached_orbits(self, monkeypatch):
        # 2-rooted digraphs at n=4 stall a 3-broadcast after reaching
        # orbits; only the terminal orbits keep their entries, and they stay
        # whole. No state is valued before the descending sweep, so none
        # has entry 2
        markers = []
        expand = search_module._Search._expand

        def counted(self, keys):
            markers.append(np.count_nonzero(self.values == search_module.REACHED))
            return expand(self, keys)

        monkeypatch.setattr(search_module._Search, "_expand", counted)
        spec = ModelSpec(Model.K_ROOTED, 4, 3)
        solved = search_module._Search(spec, Objective.k_broadcast(4), 2 << 30)
        with pytest.raises(RuntimeError, match="without progress"):
            solved.value(solved.pack(identity(4).out_rows))
        assert markers[-1] > 0
        assert np.bincount(solved.values).tolist() == [4096 - 1, 1]
        assert orbit_closed(solved)


class TestSweepsMatchRecursion:
    CASES = [
        (ModelSpec(Model.TREES, 4), Objective.broadcast()),
        (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2)),
        (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2)),
        # odd n; against 2-forests the identity itself needs one round
        (ModelSpec(Model.TREES, 3), Objective.broadcast()),
        (ModelSpec(Model.K_FORESTS, 3, 2), Objective.cover(2)),
        (ModelSpec(Model.K_ROOTED, 3, 2), Objective.k_broadcast(2)),
    ]

    @staticmethod
    def recursion(spec, objective):
        """Value of every state reachable from the identity through states
        the objective does not hold on, by plain memoized recursion."""
        moves = family_moves(spec)
        memo = {}

        def f(rows):
            if rows not in memo:
                if objective.witness(rows) is not None:
                    memo[rows] = 0
                else:
                    memo[rows] = 1 + max(f(compose_rows(rows, mv)) for mv in moves)
            return memo[rows]

        f(identity(spec.n).out_rows)
        return memo

    @pytest.mark.parametrize("spec, objective", CASES,
                             ids=["trees-broadcast", "forests-cover", "rooted-kbroadcast",
                                  "trees-broadcast-n3", "forests-cover-n3",
                                  "rooted-kbroadcast-n3"])
    def test_table_equals_recursion(self, spec, objective):
        # the solved keys are exactly the reachable states, each with its value
        expected = self.recursion(spec, objective)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solved = search_module._Search(spec, objective, 2 << 30)
            solved.value(solved.pack(identity(spec.n).out_rows))
        assert solved.memo == {solved.pack(rows): v for rows, v in expected.items()}

    @pytest.mark.parametrize(
        "spec, objective, states",
        [
            (ModelSpec(Model.TREES, 4), Objective.broadcast(), 2_044),
            (ModelSpec(Model.K_ROOTED, 4, 2), Objective.k_broadcast(2), 1_595),
            (ModelSpec(Model.K_FORESTS, 4, 2), Objective.cover(2), 805),
        ],
        ids=["trees-broadcast", "rooted-kbroadcast", "forests-cover"],
    )
    def test_each_reached_state_decided_once(self, monkeypatch, spec, objective, states):
        decided = []
        terminal = search_module._Search._terminal

        def recorded(self, keys):
            decided.append(keys.copy())
            return terminal(self, keys)

        monkeypatch.setattr(search_module._Search, "_terminal", recorded)
        res, solved = solve_recorded(monkeypatch, spec, objective)
        keys = np.concatenate(decided)
        # no key is decided twice, and the decided keys are the solved ones
        assert keys.size == np.unique(keys).size == res.states_visited == states
        assert np.sort(keys).tolist() == np.flatnonzero(solved.values).tolist()

    def test_each_state_decided_once(self, monkeypatch):
        calls = []

        def counted(rows, k):
            calls.append(tuple(rows))
            return cover_achieved(rows, k)

        monkeypatch.setattr(search_module, "cover_achieved", counted)
        spec = ModelSpec(Model.K_FORESTS, 4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = exact_worst_case(spec, Objective.cover(2))
        assert len(calls) == res.states_visited == 805
        # the decided rows are exactly the unpacked solved keys
        decided = sorted(calls)
        solved = search_module._Search(spec, Objective.cover(2), 2 << 30)
        solved.value(solved.pack(identity(4).out_rows))
        assert decided == sorted(tuple(solved.unpack(key)) for key in solved.memo)

