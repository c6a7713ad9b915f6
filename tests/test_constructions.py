import hashlib
import json
import random
import warnings

import pytest

from dynnet import seqfile
from dynnet.analysis import bounds_for
from dynnet.constructions import (
    build,
    cover_lower_bound,
    cycle_schedule,
    kroot_lower_bound,
    trees_lower_bound,
)
from dynnet.dissemination import Objective, RoundSequence, run
from dynnet.families import (Model, ModelSpec, is_k_rooted, random_graph, roots_reaching_all,
                             validate_member)


class TestClaimedTime:
    def test_is_the_lower_bound_in_every_cell(self):
        # every cell ``build`` accepts up to n = 64; the cycle claims n-1
        cells = 0
        for model in Model:
            for n in range(1, 65):
                for k in [1] if model is Model.TREES else range(1, n + 1):
                    try:
                        out = build(model, n, k)
                    except ValueError:  # no schedule for this (n, k)
                        continue
                    cycle = model is Model.K_ROOTED and n < 3 * k + 3
                    expected = n - 1 if cycle else bounds_for(out.seq.spec).lower
                    assert out.claimed_time == expected, (model, n, k)
                    cells += 1
        assert cells == 4095


class TestTreesLowerBound:
    def test_n4_meets_formula(self):
        out = trees_lower_bound(4)
        assert out.claimed_time == 4
        assert run(out.seq, Objective.broadcast()).time >= 4

    def test_n10_meets_formula(self):
        out = trees_lower_bound(10)
        assert out.claimed_time == 13
        assert run(out.seq, Objective.broadcast()).time >= 13

    def test_all_rounds_are_rooted_trees(self):
        for n in (3, 4, 7, 12):
            out = trees_lower_bound(n)
            assert all(validate_member(ModelSpec(Model.TREES, n), g) for g in out.seq.rounds)

    def test_guard(self):
        with pytest.raises(ValueError):
            trees_lower_bound(2)


class TestCoverLowerBound:
    def test_n6_k2(self):
        out = cover_lower_bound(6, 2)
        assert out.claimed_time == 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(out.seq, Objective.cover(2)).time >= 5

    def test_smallest_instance_validates(self):
        for k in (1, 2, 3):
            out = cover_lower_bound(k + 2, k)
            spec = ModelSpec(Model.K_FORESTS, k + 2, k)
            assert all(validate_member(spec, g) for g in out.seq.rounds)

    def test_isolated_vertices_forced_into_witness(self):
        n, k = 8, 3
        out = cover_lower_bound(n, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run(out.seq, Objective.cover(k))
        isolated = set(range(n - k + 1, n))
        assert isolated <= set(res.witness)

    def test_guard(self):
        with pytest.raises(ValueError):
            cover_lower_bound(3, 2)


class TestKRootLowerBound:
    def test_n9_k2(self):
        out = kroot_lower_bound(9, 2)
        assert out.claimed_time == 7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(out.seq, Objective.k_broadcast(2)).time >= 7

    def test_every_round_has_k_roots(self):
        out = kroot_lower_bound(12, 3)
        for g in out.seq.rounds:
            assert len(roots_reaching_all(g)) >= 3
            assert is_k_rooted(g, 3)

    def test_k1_reduces_to_tree_schedule(self):
        n = 8
        flat = kroot_lower_bound(n, 1)
        tree = trees_lower_bound(n)
        assert [g.out_rows for g in flat.seq.rounds] == [
            g.out_rows for g in tree.seq.rounds
        ]
        assert flat.claimed_time == tree.claimed_time

    def test_guard(self):
        with pytest.raises(ValueError):
            kroot_lower_bound(8, 2)


class TestCycleSchedule:
    def test_time_is_n_minus_one(self):
        # k-broadcast time is monotone in k, so k = 1 and k = n bound every k
        for n in range(1, 65):
            for k in (1, n):
                assert run(cycle_schedule(n, k).seq, Objective.k_broadcast(k)).time == n - 1

    def test_build_gives_cycle_below_paper_schedule(self):
        cells = 0
        for n in range(1, 65):
            for k in range(1, n + 1):
                if n < 3 * k + 3:
                    out = build(Model.K_ROOTED, n, k)  # every round validated
                    assert out.seq.spec == ModelSpec(Model.K_ROOTED, n, k)
                    assert out.claimed_time == n - 1
                    cells += 1
        assert cells == 1470

    @pytest.mark.parametrize("model,n,k", [
        (Model.TREES, 6, 2), (Model.K_FORESTS, 5, 6), (Model.K_ROOTED, 5, 6), (Model.K_ROOTED, 5, 0),
    ])
    def test_build_checks_model_spec(self, model, n, k):
        with pytest.raises(ValueError):
            build(model, n, k)


class TestSandwich:
    @pytest.mark.parametrize("n", [4, 5, 9, 16, 25])
    def test_trees(self, n):
        out = trees_lower_bound(n)
        t = run(out.seq, Objective.broadcast()).time
        assert out.claimed_time <= t <= bounds_for(out.seq.spec).upper_int

    @pytest.mark.parametrize("n,k", [(6, 2), (9, 3), (14, 2)])
    def test_forests(self, n, k):
        out = cover_lower_bound(n, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = run(out.seq, Objective.cover(k)).time
        assert out.claimed_time <= t <= bounds_for(out.seq.spec).upper_int

    @pytest.mark.parametrize("n,k", [(9, 2), (12, 3), (15, 2)])
    def test_k_rooted(self, n, k):
        out = kroot_lower_bound(n, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = run(out.seq, Objective.k_broadcast(k)).time
        assert out.claimed_time <= t <= bounds_for(out.seq.spec).upper_int


class TestPinnedFiles:
    """The sequence-file text of every construction is byte-stable. The
    k-rooted paper schedule exists for n >= 3k+3, and ``build`` gives the
    cycle below that; the "cycle" row pins those files on their own."""

    @pytest.mark.parametrize("model,cells,expected", [
        (Model.TREES, 7, "085bd5eadc39f27ce462d0a320545a5f92b0054543973c68c8a14d333b79705d"),
        (Model.K_FORESTS, 118, "ab832889467e471cf9e19929716eca25c3680182bf214a4480eeab68b0d1c0a8"),
        (Model.K_ROOTED, 34, "6809c7c46645301967fd23d671029c5bdc92a8a7ac1c8a88adcce1c32bacfd29"),
        ("cycle", 98, "ea2d8118e14aee017755966e9343e7a85eb23e4f6bd72fc68fcd3a56379919a6"),
    ])
    def test_construction_files(self, model, cells, expected):
        digest = hashlib.sha256()
        built = 0
        for text in construction_files(model):
            digest.update(text.encode())
            built += 1
        assert (built, digest.hexdigest()) == (cells, expected)


def construction_files(model):
    """The sequence-file text of every construction of ``model`` at
    n in {3, 4, 5, 8, 16, 32, 64}; for ``Model.K_ROOTED`` the paper's
    schedules only, and for "cycle" the k-rooted cells below n = 3k+3."""
    cycle = model == "cycle"
    if cycle:
        model = Model.K_ROOTED
    for n in (3, 4, 5, 8, 16, 32, 64):
        for k in [1] if model is Model.TREES else range(1, n + 1):
            if model is Model.K_ROOTED and (n < 3 * k + 3) != cycle:
                continue
            try:
                out = build(model, n, k)
            except ValueError:  # no schedule for this (n, k)
                continue
            yield seqfile.dumps(out.seq)


def loaded_and_decoded_alone(text):
    """The rounds of a sequence file as loaded, and each round record of
    it decoded on its own."""
    doc = json.loads(text)
    model = Model(doc["model"])
    alone = [seqfile._record_to_round(model, doc["n"], rec) for rec in doc["rounds"]]
    return seqfile.from_json_dict(doc).rounds, alone


class TestRecordsDecodeAlone:
    """Loading a file gives, round by round, the graphs its records decode
    to one at a time, although equal records load as one Graph."""

    @pytest.mark.parametrize("model", [Model.TREES, Model.K_FORESTS, Model.K_ROOTED, "cycle"])
    def test_construction_files(self, model):
        for text in construction_files(model):
            loaded, alone = loaded_and_decoded_alone(text)
            assert loaded == alone

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1)] + [
        (m, k) for m in (Model.K_FORESTS, Model.K_ROOTED) for k in (1, 2, 3)])
    def test_random_files(self, model, k):
        for n in (3, 4, 5, 8, 16, 32, 64):
            spec = ModelSpec(model, n, k)
            rnd = random.Random(f"{model.value}/{n}/{k}")
            # a few graphs drawn once and repeated, as a schedule's phases are
            pool = [random_graph(spec, rnd.getrandbits(32)) for _ in range(4)]
            seq = RoundSequence(spec, [rnd.choice(pool) for _ in range(24)])
            text = seqfile.dumps(seq)
            loaded, alone = loaded_and_decoded_alone(text)
            assert loaded == alone == seq.rounds
