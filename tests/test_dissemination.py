import hashlib
import itertools
import random
import warnings

import numpy as np
import pytest

from dynnet import constructions, seqfile
from dynnet import search as search_module
from dynnet.analysis import bounds_for
from dynnet.dissemination import (
    Objective,
    ObjectiveNotReached,
    RoundSequence,
    cover_achieved,
    run,
    sampled_run,
)
from dynnet.families import Model, ModelSpec, enumerate_k_forests, random_graph
from dynnet.graphs import (
    _transpose,
    compose_rows,
    full_mask,
    graph_from_parents,
    graph_from_rows,
    identity,
    make_graph,
)


def brute_force_cover(g, k):
    """First covering subset in (size, lex) order, or None."""
    fm = full_mask(g.n)
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(g.n), size):
            acc = 0
            for i in combo:
                acc |= g.out_rows[i]
            if acc == fm:
                return list(combo)
    return None


def both_entries(rows, k):
    """``cover_achieved`` on the rows alone and on the rows with their
    transpose, as ``run`` calls it; the two must agree."""
    found = cover_achieved(rows, k)
    assert cover_achieved(rows, k, _transpose(len(rows), rows)) == found, (rows, k)
    return found


def pair_scan_rows(kind, n, rnd):
    """Rows on [n] for the size-2 scan: sparse rows (about a quarter of
    the bits and the diagonal), which rarely hold a pair, with a covering
    pair, a full row or repeated values planted as ``kind`` says."""
    fm = full_mask(n)
    rows = [rnd.getrandbits(n) & rnd.getrandbits(n) | 1 << x for x in range(n)]
    half = rnd.getrandbits(n) & (fm >> 1)  # never the full row
    if kind == "repeated":
        pool = [half, fm ^ half, rows[0], rows[-1]]
        rows = [rnd.choice(pool) for _ in range(n)]
    elif kind == "full-row-after-pair":
        i, j, full = sorted(rnd.sample(range(n), 3))
        rows[i], rows[j], rows[full] = half, fm ^ half, fm
    elif kind == "completer-before-row":
        # row a completes row i, and so does row j after it: (a, i) is first
        a, i, j = sorted(rnd.sample(range(n), 3))
        rows[a], rows[i], rows[j] = fm ^ half, half, fm ^ half
    return rows


def random_loopy_graph(n, rnd, density=0.35):
    rows = [1 << x for x in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and rnd.random() < density:
                rows[u] |= 1 << v
    return graph_from_rows(n, rows)


def broadcasters(rows):
    """Every node whose out-row is full, by a plain scan."""
    return [x for x, r in enumerate(rows) if r == full_mask(len(rows))]


BROADCAST = Objective.broadcast()


class TestBroadcastAchieved:
    def test_identity_has_none(self):
        assert BROADCAST.witness(identity(3).out_rows) is None

    def test_complete_has_all(self):
        n = 4
        g = make_graph(n, [(u, v) for u in range(n) for v in range(n)])
        assert BROADCAST.witness(g.out_rows) == (0,)
        assert Objective.k_broadcast(n).witness(g.out_rows) == tuple(range(n))

    def test_star_after_one_round(self):
        star = make_graph(4, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)])
        assert BROADCAST.witness(star.out_rows) == (0,)
        assert Objective.k_broadcast(2).witness(star.out_rows) is None

    def test_n_equals_one(self):
        assert BROADCAST.witness(identity(1).out_rows) == (0,)


class TestCoverAchieved:
    def test_identity_covered_by_everyone(self):
        n = 5
        assert both_entries(identity(n).out_rows, n) == list(range(n))

    def test_k1_matches_broadcast(self):
        rnd = random.Random(0)
        for _ in range(40):
            g = random_loopy_graph(6, rnd)
            w = both_entries(g.out_rows, 1)
            bs = broadcasters(g.out_rows)
            assert w == (bs[:1] or None)

    def test_two_block_example(self):
        g = graph_from_rows(4, [0b0011, 0b0010, 0b1100, 0b1000])
        assert both_entries(g.out_rows, 2) == [0, 2]

    def test_matches_brute_force(self):
        rnd = random.Random(1)
        for _ in range(120):
            n = rnd.randint(2, 12)
            g = random_loopy_graph(n, rnd, density=rnd.uniform(0.05, 0.5))
            for k in range(1, n + 1):
                assert both_entries(g.out_rows, k) == brute_force_cover(g, k), (g, k)

    def test_sparse_needs_many(self):
        n = 6
        g = identity(n)
        assert both_entries(g.out_rows, n - 1) is None
        assert both_entries(g.out_rows, n) == list(range(n))

    def test_witness_search_skips_dead_ends(self):
        # 55 decoy rows each hold half of a 32-element block plus one more of
        # its elements, so any choice of them leaves something for the next;
        # no cover uses a decoy, and the only cover of size 9 is the blocks
        n = 64
        blocks = [(1 << 32) - 1] + [0b1111 << (32 + 4 * j) for j in range(8)]
        decoys = [0xFFFF | 1 << (16 + d % 16) for d in range(n - len(blocks))]
        g = graph_from_rows(n, decoys + blocks)
        assert both_entries(g.out_rows, 8) is None
        assert both_entries(g.out_rows, 9) == list(range(55, 64))

    def test_every_state_of_the_forest_cover_search(self):
        # the products the exact search decides: every state solved by the
        # 2-forest cover search at n=4, for every cover size
        spec = ModelSpec(Model.K_FORESTS, 4, 2)
        solved = search_module._Search(spec, Objective.cover(2), 2 << 30)
        solved.value(solved.pack(identity(4).out_rows))
        assert len(solved.memo) == 805
        for key in sorted(solved.memo):
            g = graph_from_rows(4, solved.unpack(key))
            for k in range(1, 5):
                assert both_entries(g.out_rows, k) == brute_force_cover(g, k), (g, k)

    @pytest.mark.parametrize(
        "kind, outcomes",
        [
            ("sparse", {None}),
            ("repeated", {(2, False), (2, True)}),
            ("full-row-after-pair", {(1, True)}),
            ("completer-before-row", {(2, False), (2, True)}),
        ],
    )
    def test_pair_scan_matches_brute_force(self, kind, outcomes):
        # the rows-only size-2 scan tests each row against the rows after
        # it only; its witness must still be the first pair in order. The
        # outcomes (None, or the witness size and whether it starts after
        # row 0) must all be met
        rnd = random.Random(f"pair-scan-{kind}")
        planted = kind in ("full-row-after-pair", "completer-before-row")
        seen = set()
        for n in range(3 if planted else 2, 65):
            for _ in range(4):
                rows = pair_scan_rows(kind, n, rnd)
                expected = brute_force_cover(graph_from_rows(n, rows), 2)
                for kind_of in (list, tuple):
                    assert both_entries(kind_of(rows), 2) == expected, rows
                seen.add(None if expected is None else (len(expected), expected[0] > 0))
        assert outcomes <= seen

    def test_witnesses_of_the_n5_forest_cover_search(self):
        # the benchmark's search-cover traffic: every state solved by the
        # 2-forest cover search at n=5, for cover sizes 1 to 3; the digest
        # was taken before sizes 1 and 2 got their own decisions
        spec = ModelSpec(Model.K_FORESTS, 5, 2)
        solved = search_module._Search(spec, Objective.cover(2), 2 << 30)
        solved.value(solved.pack(identity(5).out_rows))
        keys = np.flatnonzero(solved.values)
        assert keys.size == 558_511
        digest = hashlib.sha256()
        for rows in solved.unpack_all(keys):
            for size in (1, 2, 3):
                digest.update(repr(cover_achieved(rows, size)).encode())
        assert digest.hexdigest() == (
            "d255c83209d8b60ea367b2dc6ea69304fc6c1346d40657cdbaa831927c485bcf"
        )

    @pytest.mark.parametrize("entry", ["rows", "rows-and-cols"])
    def test_products_of_the_forest_schedules(self, entry):
        # the certify workload's cover traffic: every per-round product of
        # the paper's k-forest schedules, decided for cover sizes 1 to 4;
        # mostly infeasible decisions on dense n=64 products
        digest = hashlib.sha256()
        for n in (16, 32, 64):
            for k in (2, 3):
                trace = constructions.build(Model.K_FORESTS, n, k).seq.trace()
                for t in range(len(trace) + 1):
                    rows = trace.product_at(t).out_rows
                    cols = trace.prefix(t) if entry == "rows-and-cols" else None
                    for size in range(1, 5):
                        digest.update(repr(cover_achieved(rows, size, cols)).encode())
        assert digest.hexdigest() == (
            "246ac1aeb700a195500ec3f340c88c548665ff2c6985f8299a21cedd32393e94"
        )

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize(
        "rows, k, expected",
        [
            ([0b0011, 0b0110, 0b1100, 0b1001], 1, None),
            ([0b0011, 0b0110, 0b1100, 0b1001], 2, [0, 2]),
            ([0b00011, 0b00110, 0b01100, 0b11000, 0b11111], 1, [4]),
            ([0b00011, 0b00110, 0b01100, 0b11000, 0b11111], 5, [4]),
            ([0b1], 1, [0]),
            ([0b1], 3, [0]),
            ([0b001, 0b010, 0b100], 7, [0, 1, 2]),
            ([0b0011, 0b0010, 0b0100, 0b1100], 9, [0, 3]),
            ([0b00011, 0b00110, 0b00101, 0b00111, 0b11000], 2, [3, 4]),
            ([0b00011, 0b00110, 0b00101, 0b00111, 0b01000], 2, None),
        ],
        ids=["k1-no-full-row", "pair", "full-row-last-k1", "full-row-last-k5", "n1-k1",
             "n1-k3", "k-beyond-n", "k-beyond-n-pair", "pair-from-last-but-one",
             "no-pair-from-last-but-one"],
    )
    def test_edge_cases(self, kind, rows, k, expected):
        assert both_entries(kind(rows), k) == expected

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize(
        "n, diagonal", [(1, False), (2, False), (3, False), (4, True)],
        ids=["n1", "n2", "n3", "n4-diagonal"],
    )
    def test_every_small_matrix(self, kind, n, diagonal):
        # every row matrix at n <= 3, with or without its diagonal, and every
        # n = 4 matrix with its diagonal set, for every cover size up to n + 1;
        # all-zero rows and rows without their own bit are among them
        choices = [
            [r for r in range(1 << n) if not diagonal or r >> x & 1] for x in range(n)
        ]
        for rows in itertools.product(*choices):
            g = graph_from_rows(n, rows)
            for k in range(1, n + 2):
                assert both_entries(kind(rows), k) == brute_force_cover(g, k), (rows, k)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_late_rounds_of_sampled_forests(self, n, k):
        # the last products before a sampled sequence reaches its cover are
        # large and mostly infeasible: the cases where the decision branches
        spec = ModelSpec(Model.K_FORESTS, n, k)
        horizon = bounds_for(spec).upper_int
        for seed in range(3):
            seq = RoundSequence(spec, [random_graph(spec, seed * 1000 + t) for t in range(horizon)])
            reached = run(seq, Objective.cover(k)).time
            trace = seq.trace()
            for t in range(max(0, reached - 3), reached + 1):
                g = trace.product_at(t)
                for size in range(1, 4):
                    w = both_entries(g.out_rows, size)
                    assert w == brute_force_cover(g, size), (seed, t, size)


class TestKBroadcastAchieved:
    def test_complete(self):
        n = 4
        g = make_graph(n, [(u, v) for u in range(n) for v in range(n)])
        assert Objective.k_broadcast(n).witness(g.out_rows) == tuple(range(n))

    def test_k1_matches_broadcast(self):
        rnd = random.Random(2)
        for _ in range(40):
            g = random_loopy_graph(5, rnd)
            bs = broadcasters(g.out_rows)
            assert Objective.k_broadcast(1).witness(g.out_rows) == BROADCAST.witness(g.out_rows)
            for k in range(1, 6):
                w = Objective.k_broadcast(k).witness(g.out_rows)
                assert w == (tuple(bs[:k]) if len(bs) >= k else None)

    def test_identity_absent(self):
        assert Objective.k_broadcast(1).witness(identity(3).out_rows) is None


def tree_seq(n, rounds):
    return RoundSequence(ModelSpec(Model.TREES, n), rounds)


CANONICAL = {
    Model.TREES: lambda k: Objective.broadcast(),
    Model.K_FORESTS: Objective.cover,
    Model.K_ROOTED: Objective.k_broadcast,
}


def out_row_run(n, rounds, objective):
    """The run loop on out-rows: ``compose_rows`` then ``Objective.witness``
    each round. Returns the time, the witness (None if not reached) and the
    final out-rows."""
    rows = identity(n).out_rows
    witness = objective.witness(rows)
    t = 0
    for raw in rounds:
        if witness is not None:
            break
        t += 1
        rows = compose_rows(rows, raw)
        witness = objective.witness(rows)
    return t, witness, rows


def assert_run_matches_out_rows(seq, objective):
    """``run`` gives what the out-row loop gives; returns whether it reached
    the objective."""
    t, witness, rows = out_row_run(seq.spec.n, seq.rounds, objective)
    if witness is None:
        with pytest.raises(ObjectiveNotReached) as exc:
            run(seq, objective)
        assert exc.value.rounds_used == t
        assert exc.value.final_product.out_rows == rows
        return False
    res = run(seq, objective)
    assert (res.time, res.witness, res.final_product.out_rows) == (t, witness, rows)
    return True


class TestRun:
    def test_repeated_path_takes_n_minus_one(self):
        for n in (2, 3, 5, 8):
            path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
            res = run(tree_seq(n, [path] * (n - 1)), Objective.broadcast())
            assert res.time == n - 1
            assert res.witness == (0,)

    def test_repeated_star_takes_one(self):
        star = make_graph(5, [(0, v) for v in range(1, 5)])
        res = run(tree_seq(5, [star] * 3), Objective.broadcast())
        assert res.time == 1

    def test_n2_all_sequences_take_one(self):
        trees = list(enumerate_k_forests(2, 1))
        for a in trees:
            for b in trees:
                assert run(tree_seq(2, [a, b]), Objective.broadcast()).time == 1

    def test_cover_time_zero_when_k_is_n(self):
        n = 4
        spec = ModelSpec(Model.K_FORESTS, n, 2)
        seq = RoundSequence(spec, [random_graph(spec, s) for s in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run(seq, Objective.cover(n))
        assert res.time == 0
        assert res.witness == tuple(range(n))

    def test_minimality_of_reported_time(self):
        rnd = random.Random(3)
        for trial in range(25):
            n = rnd.randint(3, 8)
            spec = ModelSpec(Model.TREES, n)
            rounds = [random_graph(spec, trial * 100 + t) for t in range(3 * n)]
            res = run(RoundSequence(spec, rounds), Objective.broadcast())
            trace = RoundSequence(spec, rounds).trace()
            assert BROADCAST.witness(trace.product_at(res.time).out_rows) is not None
            if res.time >= 1:
                assert BROADCAST.witness(trace.product_at(res.time - 1).out_rows) is None

    def test_witness_recheck_on_final_product(self):
        spec = ModelSpec(Model.K_FORESTS, 6, 2)
        res = sampled_run(spec, range(40))
        fm = full_mask(6)
        acc = 0
        for x in res.witness:
            acc |= res.final_product.out_rows[x]
        assert acc == fm

    def test_objective_not_reached_carries_product(self):
        path = make_graph(5, [(i, i + 1) for i in range(4)])
        with pytest.raises(ObjectiveNotReached) as exc:
            run(tree_seq(5, [path] * 2), Objective.broadcast())
        assert exc.value.rounds_used == 2
        assert exc.value.final_product.out_rows[0] == 0b111

    def test_mismatched_objective_warns(self):
        spec = ModelSpec(Model.TREES, 3)
        seq = RoundSequence(spec, [make_graph(3, [(0, 1), (0, 2)])])
        with pytest.warns(UserWarning):
            run(seq, Objective.cover(1))

    def test_oversize_k_rejected(self):
        spec = ModelSpec(Model.TREES, 3)
        seq = RoundSequence(spec, [make_graph(3, [(0, 1), (0, 2)])])
        with pytest.raises(ValueError):
            run(seq, Objective.k_broadcast(4))

    def test_cover_equals_broadcast_time_for_k1(self):
        spec = ModelSpec(Model.K_FORESTS, 6, 1)
        for seed in range(10):
            rounds = [random_graph(spec, seed * 50 + t) for t in range(25)]
            seq = RoundSequence(spec, rounds)
            t_cover = run(seq, Objective.cover(1)).time
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t_bc = run(seq, Objective.broadcast()).time
                t_kb = run(seq, Objective.k_broadcast(1)).time
            assert t_cover == t_bc == t_kb


    @pytest.mark.parametrize("model,kind,n,k", [
        (Model.TREES, "broadcast", 2, 1), (Model.TREES, "broadcast", 7, 1),
        (Model.K_FORESTS, "cover", 6, 1), (Model.K_FORESTS, "cover", 7, 3),
        (Model.K_ROOTED, "kbroadcast", 5, 2), (Model.K_ROOTED, "kbroadcast", 9, 3),
    ])
    def test_sampled_run_matches_eager_run(self, model, kind, n, k):
        spec = ModelSpec(model, n, k)
        for base in range(0, 2000, 100):
            seeds = range(base, base + 3 * n, 3)
            seq = RoundSequence(spec, [random_graph(spec, s) for s in seeds])
            eager = run(seq, Objective(kind, k))
            assert sampled_run(spec, seeds) == eager
            # no seeds, and seeds that stop one round before the objective holds
            for short in (range(0), seeds[:eager.time - 1]):
                with pytest.raises(ObjectiveNotReached) as exc:
                    sampled_run(spec, short)
                assert exc.value.rounds_used == len(short)
                assert exc.value.final_product == seq.trace().product_at(len(short))


class TestRunMatchesOutRowLoop:
    """``run`` composes on in-rows and transposes each round; the out-row
    loop it replaced is the oracle."""

    @pytest.mark.parametrize("model,k", [
        (Model.TREES, 1), (Model.K_FORESTS, 1), (Model.K_FORESTS, 2), (Model.K_FORESTS, 3),
        (Model.K_ROOTED, 1), (Model.K_ROOTED, 2), (Model.K_ROOTED, 3),
    ])
    def test_seeded_sequences(self, model, k):
        for n in (1, 2, 3, 5, 8, 9, 16, 17, 33, 64):
            if k > n:
                continue
            spec = ModelSpec(model, n, k)
            horizon = bounds_for(spec).upper_int
            rounds = [random_graph(spec, 1000 * n + t) for t in range(horizon)]
            assert assert_run_matches_out_rows(RoundSequence(spec, rounds), CANONICAL[model](k))

    @pytest.mark.parametrize("model,k", [
        (Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_FORESTS, 3),
        (Model.K_ROOTED, 2), (Model.K_ROOTED, 3),
    ])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_certify_schedules(self, model, k, n):
        seq = constructions.build(model, n, k).seq
        assert assert_run_matches_out_rows(seq, CANONICAL[model](k))

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 3)])
    def test_not_reached(self, model, k):
        # the schedule cut one round short, and with no rounds at all
        seq = constructions.build(model, 40, k).seq
        time = run(seq, CANONICAL[model](k)).time
        for cut in (seq.rounds[:time - 1], []):
            short = RoundSequence(seq.spec, cut)
            assert not assert_run_matches_out_rows(short, CANONICAL[model](k))

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 2)])
    def test_sampled_run_reads_exactly_time_rounds(self, model, k):
        spec = ModelSpec(model, 12, k)
        for base in range(0, 500, 100):
            drawn = []

            def seeds():
                for s in range(base, base + 100):
                    drawn.append(s)
                    yield s

            res = sampled_run(spec, seeds())
            assert len(drawn) == res.time >= 1


def scanned_row_run(n, rounds, objective):
    """Reference run for broadcast and k-broadcast: every prefix is
    composed on out-rows by ``compose_rows`` (no in-row step, gather or
    transpose), and its full out-rows are found by a plain scan, not by
    ``Objective.witness``. Returns the time, the witness (None if not
    reached) and the last out-rows read."""
    rows = identity(n).out_rows
    for t in range(len(rounds) + 1):
        if t:
            rows = compose_rows(rows, rounds[t - 1])
        found = broadcasters(rows)
        if len(found) >= objective.k:
            return t, tuple(found[:objective.k]), rows
    return t, None, rows


class TestRunDecidesBroadcastOnInRows:
    """``run`` decides broadcast and k-broadcast on the in-rows and
    transposes only the product it reports; the scanned out-row loop is
    the oracle, on reached and unreached runs alike."""

    @staticmethod
    def assert_matches(seq, objective):
        t, witness, rows = scanned_row_run(seq.spec.n, seq.rounds, objective)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # objectives off the model's own are meant here
            if witness is None:
                with pytest.raises(ObjectiveNotReached) as exc:
                    run(seq, objective)
                assert exc.value.rounds_used == t
                assert exc.value.final_product.out_rows == rows
                assert exc.value.final_product == graph_from_rows(seq.spec.n, rows)
                return False
            res = run(seq, objective)
        assert (res.time, res.witness, res.final_product.out_rows) == (t, witness, rows)
        return True

    @pytest.mark.parametrize("model,k,n", [
        (model, k, n)
        for model, k in ((Model.TREES, 1), (Model.K_FORESTS, 1), (Model.K_FORESTS, 2),
                         (Model.K_FORESTS, 3), (Model.K_ROOTED, 1), (Model.K_ROOTED, 2),
                         (Model.K_ROOTED, 3))
        for n in (1, 2, 3, 5, 16, 64)
        if k <= n
    ])
    def test_seeded_sequences(self, model, k, n):
        spec = ModelSpec(model, n, k)
        horizon = bounds_for(spec).upper_int
        rounds = [random_graph(spec, 7000 * n + t) for t in range(horizon)]
        for length in (0, 1, horizon // 2, horizon):
            seq = RoundSequence(spec, rounds[:length])
            for kb in range(1, min(k, n) + 1):
                self.assert_matches(seq, Objective.k_broadcast(kb))
            self.assert_matches(seq, Objective.broadcast())

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_ROOTED, 2), (Model.K_ROOTED, 3)])
    @pytest.mark.parametrize("n", [16, 64])
    def test_schedules_read_from_files(self, model, k, n):
        # and the same schedules fresh from the construction
        built = constructions.build(model, n, k).seq
        objective = Objective.broadcast() if k == 1 else Objective.k_broadcast(k)
        for seq in (seqfile.loads(seqfile.dumps(built)), built):
            assert self.assert_matches(seq, objective)
            time = run(seq, objective).time
            assert not self.assert_matches(RoundSequence(seq.spec, seq.rounds[:time - 1]), objective)

    def test_n_one_and_two(self):
        one = RoundSequence(ModelSpec(Model.TREES, 1), [])
        assert self.assert_matches(one, Objective.broadcast())
        assert run(one, Objective.broadcast()).witness == (0,)
        pair = graph_from_parents(2, [-1, 0])
        seq = RoundSequence(ModelSpec(Model.TREES, 2), [pair])
        assert run(seq, Objective.broadcast()).witness == (0,)
        assert not self.assert_matches(seq, Objective.k_broadcast(2))
        assert self.assert_matches(seq, Objective.broadcast())

    def test_witness_from_either_side(self):
        rnd = random.Random(4)
        for _ in range(40):
            g = random_loopy_graph(6, rnd)
            for objective in [Objective.broadcast()] + [Objective.k_broadcast(k) for k in (1, 2, 4)]:
                want = objective.witness(g.out_rows)
                assert objective.witness(cols=g.in_rows) == want
                assert objective.witness(g.out_rows, g.in_rows) == want
            for k in (1, 2, 3):
                cover = Objective.cover(k)
                assert cover.witness(cols=g.in_rows) == cover.witness(g.out_rows)


class TestRoundSequenceValidation:
    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            tree_seq(3, [make_graph(3, [(0, 1)])])  # forest, not a tree

    def test_accepts_valid_rounds(self):
        spec = ModelSpec(Model.K_ROOTED, 5, 2)
        rounds = [random_graph(spec, s) for s in range(4)]
        assert len(RoundSequence(spec, rounds)) == 4
