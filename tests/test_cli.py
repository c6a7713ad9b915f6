import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dynnet
from dynnet import analysis, seqfile
from dynnet.cli import main
from dynnet.constructions import build, trees_lower_bound
from dynnet.dissemination import RoundSequence
from dynnet.families import Model, ModelSpec, random_graph
from dynnet.graphs import graph_from_rows, make_graph


@pytest.fixture()
def tree_file(tmp_path):
    out = trees_lower_bound(6)
    path = tmp_path / "t6.json"
    seqfile.save(str(path), out.seq)
    return str(path), out


class TestSequenceFiles:
    def test_round_trip_byte_stable(self, tmp_path):
        spec = ModelSpec(Model.K_FORESTS, 6, 2)
        seq = RoundSequence(spec, [random_graph(spec, s) for s in range(7)])
        text = seqfile.dumps(seq)
        again = seqfile.dumps(seqfile.loads(text))
        assert text == again

    def test_seeded_round_trip(self):
        # the seed is checked on load but not kept, so it is passed again
        spec = ModelSpec(Model.TREES, 5)
        text = seqfile.dumps(RoundSequence(spec, [random_graph(spec, s) for s in range(3)]), 7)
        assert '"seed":7' in text
        assert seqfile.dumps(seqfile.loads(text), 7) == text

    def test_round_trip_all_models(self):
        for model, k in [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 2)]:
            spec = ModelSpec(model, 5, k)
            seq = RoundSequence(spec, [random_graph(spec, s) for s in range(4)])
            parsed = seqfile.loads(seqfile.dumps(seq))
            assert [g.out_rows for g in parsed.rounds] == [g.out_rows for g in seq.rounds]
            assert parsed.spec == spec

    def test_repeat_block_materializes(self):
        doc = {
            "n": 3,
            "model": "tree",
            "k": 1,
            "rounds": [[-1, 0, 1], [1, -1, 1]],
            "repeat": {"from": 0, "to": 0, "times": 3},
        }
        seq = seqfile.from_json_dict(doc)
        assert len(seq) == 4
        assert seq.rounds[0] == seq.rounds[1] == seq.rounds[2]

    def test_bad_repeat_rejected(self):
        doc = {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
               "repeat": {"from": 0, "to": 5, "times": 2}}
        with pytest.raises(ValueError):
            seqfile.from_json_dict(doc)

    def test_repeat_past_the_round_cap_rejected(self):
        # one round repeated to one more than the cap; refused before the
        # expanded list is built
        doc = {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
               "repeat": {"from": 0, "to": 0, "times": seqfile.MAX_ROUNDS + 1}}
        with pytest.raises(ValueError, match="repeat block expands"):
            seqfile.from_json_dict(doc)

    def test_cyclic_parent_array_rejected(self):
        doc = {"n": 3, "model": "tree", "rounds": [[1, 0, -1]]}
        with pytest.raises(ValueError):
            seqfile.from_json_dict(doc)

    def test_invalid_member_rejected(self):
        # a 2-forest offered as a tree round
        doc = {"n": 3, "model": "tree", "rounds": [[-1, 0, -1]]}
        with pytest.raises(ValueError):
            seqfile.from_json_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "repeat": {"from": 0, "times": 2}},
        {"n": 3, "model": "tree", "rounds": 5},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "repeat": 7},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "repeat": None},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "repeat": [0, 0, 2]},
        {"n": None, "model": "tree", "rounds": []},
        {"n": 3, "model": "digraph", "k": 1, "rounds": [[5]]},
        [],
        None,
        {"n": 3, "model": "tree", "rounds": [[-1, 1, 1]]},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 3]]},
        {"n": 3, "model": "tree", "rounds": [[-2, 0, 1]]},
        {"n": 3, "model": "tree", "rounds": [[-1, 0]]},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1, 2]]},
        {"n": 3.9, "k": 1.7, "model": "tree", "rounds": [[-1, 0.6, 1.2]]},
        {"n": 3.0, "model": "tree", "rounds": [[-1, 0, 1]]},
        {"n": "3", "model": "tree", "rounds": [[-1, 0, 1]]},
        {"n": 3, "k": True, "model": "tree", "rounds": [[-1, 0, 1]]},
        {"n": 3, "model": "tree", "rounds": [[-1, 0.0, 1]]},
        {"n": 3, "model": "tree", "rounds": [[-1, "0", 1]]},
        {"n": 3, "model": "tree", "rounds": [[-1, False, 1]]},
        {"n": 3, "model": "digraph", "k": 1, "rounds": [[[0, 1.0], [1, 2]]]},
        {"n": 3, "model": "digraph", "k": 1, "rounds": [[[0, 1], ["1", 2]]]},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
         "repeat": {"from": 0, "to": 0.5, "times": 2}},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
         "repeat": {"from": 0, "to": 0, "times": "2"}},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "seed": 3.5},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "seed": "x"},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "seed": None},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "seed": True},
        {"n": 3, "model": "tree", "rounds": ""},
        {"n": 3, "model": "tree", "rounds": {}},
        {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
         "repeat": {"from": 0, "to": 0, "times": 2, "x": 1}},
        {"n": 3, "model": "digraph", "k": 1, "rounds": [[[0, 0], [0, 1], [1, 2]]]},
    ], ids=["repeat-without-to", "rounds-not-a-list", "repeat-not-an-object",
            "repeat-null", "repeat-a-list", "n-null", "edge-not-a-pair", "list", "null",
            "self-parent", "parent-out-of-range", "parent-minus-two",
            "parents-too-short", "parents-too-long",
            "truncatable-floats", "integral-float-n", "string-n", "bool-k",
            "float-parent", "string-parent", "bool-parent", "float-endpoint",
            "string-endpoint", "float-repeat", "string-repeat",
            "float-seed", "string-seed", "null-seed", "bool-seed",
            "rounds-a-string", "rounds-an-object", "repeat-unknown-key", "self-loop-edge"])
    def test_malformed_document_is_a_value_error(self, doc):
        with pytest.raises(ValueError):
            seqfile.from_json_dict(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            seqfile.from_json_dict({"n": 2, "model": "tree", "rounds": [], "zz": 1})

    @pytest.mark.parametrize("model,first,second", [
        ("tree", [-1, 0, 1], [-1, 0, True]),
        ("tree", [-1, 0, 1], [-1, 0, 1.0]),
        ("tree", [-1, 0, 1], [-1, 0, "1"]),
        ("digraph", [[0, 1], [1, 2]], [[0, True], [1, 2]]),
        ("digraph", [[0, 1], [1, 2]], [[0, 1.0], [1, 2]]),
        ("digraph", [[0, 1], [1, 2]], [[0, "1"], [1, 2]]),
    ], ids=["parent-true", "parent-float", "parent-string",
            "endpoint-true", "endpoint-float", "endpoint-string"])
    def test_record_equal_to_an_earlier_one_still_checked(self, model, first, second):
        # the second record compares equal to the first (or is its string
        # form), but it is no JSON integer array, so it is decoded and refused
        text = json.dumps({"n": 3, "model": model, "k": 1, "rounds": [first, second]})
        seqfile.loads(json.dumps({"n": 3, "model": model, "k": 1, "rounds": [first, first]}))
        with pytest.raises(ValueError, match="expected an integer"):
            seqfile.loads(text)

    def test_equal_records_load_as_one_graph(self):
        doc = {"n": 3, "model": "tree", "rounds": [[-1, 0, 1], [1, -1, 1], [-1, 0, 1]],
               "repeat": {"from": 1, "to": 2, "times": 2}}
        rounds = seqfile.from_json_dict(doc).rounds
        assert len(rounds) == 5
        assert len({id(g) for g in rounds}) == 2
        assert rounds[0] is rounds[2] is rounds[4]

    @pytest.mark.parametrize("model,k", [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 2)])
    def test_dumps_is_the_sorted_key_json(self, model, k):
        # repeated Graph objects next to equal but distinct ones
        rnd = random.Random(f"{model.value}/{k}")
        for n in (3, 5, 16):
            spec = ModelSpec(model, n, k)
            pool = [random_graph(spec, rnd.getrandbits(32)) for _ in range(3)]
            rounds = [rnd.choice(pool) for _ in range(12)]
            rounds += [graph_from_rows(n, g.out_rows) for g in rounds[:4]]
            rnd.shuffle(rounds)
            seq = RoundSequence(spec, rounds)
            for seed in (None, rnd.getrandbits(40)):
                want = json.dumps(seqfile.sequence_to_json_dict(seq, seed), sort_keys=True,
                                  separators=(",", ":")) + "\n"
                assert seqfile.dumps(seq, seed) == want, (model, n, seed)

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_writer_refuses_the_seeds_the_reader_refuses(self, seed, tmp_path):
        seq = trees_lower_bound(4).seq
        with pytest.raises(ValueError, match="expected an integer"):
            seqfile.dumps(seq, seed)
        with pytest.raises(ValueError, match="expected an integer"):
            seqfile.sequence_to_json_dict(seq, seed)
        with pytest.raises(ValueError, match="expected an integer"):
            seqfile.save(str(tmp_path / "s.json"), seq, seed)

    @pytest.mark.parametrize("seed", [None, 0, -1, 2 ** 70])
    def test_integer_seeds_round_trip(self, seed):
        text = seqfile.dumps(trees_lower_bound(4).seq, seed)
        assert (f'"seed":{seed}' in text) is (seed is not None)
        assert seqfile.dumps(seqfile.loads(text), seed) == text

    def test_equal_edge_lists_share_a_graph_whatever_their_sharing(self):
        # one record repeats one inner list object, the other spells it twice
        edge = [0, 1]
        doc = {"n": 3, "model": "digraph", "k": 1,
               "rounds": [[edge, edge, [1, 2]], [[0, 1], [0, 1], [1, 2]]]}
        rounds = seqfile.from_json_dict(doc).rounds
        assert rounds[0] is rounds[1]
        assert rounds[0] == make_graph(3, [(0, 1), (1, 2)])

    def test_record_marshal_cannot_write_is_a_value_error(self):
        doc = {"n": 3, "model": "tree", "rounds": [[-1, 0, 1], [-1, 0, object()]]}
        with pytest.raises(ValueError):
            seqfile.from_json_dict(doc)

    def test_non_forest_round_not_written(self):
        # a sequence validates its rounds when it is built; a tree round
        # replaced by a cycle afterwards still has no parent array
        spec = ModelSpec(Model.TREES, 3)
        seq = RoundSequence(spec, [make_graph(3, [(0, 1), (1, 2)])])
        seq.rounds[0] = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="not a forest"):
            seqfile.dumps(seq)

    def test_looped_digraph_round_not_written(self):
        spec = ModelSpec(Model.K_ROOTED, 3, 1)
        seq = RoundSequence(spec, [make_graph(3, [(0, 0), (0, 1), (1, 2)])])
        with pytest.raises(ValueError, match="self-loop"):
            seqfile.dumps(seq)

    def test_digraph_edge_lists(self):
        spec = ModelSpec(Model.K_ROOTED, 4, 2)
        seq = RoundSequence(spec, [random_graph(spec, 3)])
        doc = seqfile.sequence_to_json_dict(seq)
        assert isinstance(doc["rounds"][0][0], list)
        assert seqfile.from_json_dict(json.loads(json.dumps(doc))).spec == spec


class TestCliExitCodes:
    def test_simulate_reached(self, tree_file, capsys):
        path, out = tree_file
        assert main(["simulate", "--seq", path, "--objective", "broadcast"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["time"] >= out.claimed_time

    def test_simulate_not_reached(self, tmp_path, capsys):
        spec = ModelSpec(Model.TREES, 5)
        path = make_graph(5, [(i, i + 1) for i in range(4)])
        seq = RoundSequence(spec, [path] * 2)
        f = tmp_path / "short.json"
        seqfile.save(str(f), seq)
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 3

    def test_simulate_validation_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"n": 3, "model": "tree", "rounds": [[1, 0, -1]]}\n')
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 2

    @pytest.mark.parametrize("repeat", ["null", "7", "[0, 0, 2]"])
    def test_simulate_repeat_not_an_object(self, tmp_path, repeat):
        f = tmp_path / "repeat.json"
        f.write_text('{"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "repeat": %s}\n' % repeat)
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 2

    @pytest.mark.parametrize("text", [
        '{"n":3,"model":"tree","rounds":[[1,2,-1]],"rounds":[[-1,0,1]]}',
        '{"n":3,"model":"tree","n":3,"rounds":[[-1,0,1]]}',
        '{"n":3,"model":"tree","rounds":[[-1,0,1]],"repeat":{"from":0,"to":0,"to":0,"times":2}}',
    ], ids=["rounds", "n", "repeat-to"])
    def test_simulate_repeated_key_exits_2(self, tmp_path, text, capsys):
        f = tmp_path / "repeated.json"
        f.write_text(text + "\n")
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 2
        assert capsys.readouterr().err.startswith("error: sequence file repeats the key ")

    @pytest.mark.parametrize("seed", ["3.5", '"x"', "null", "true"])
    def test_simulate_non_integer_seed(self, tmp_path, seed):
        f = tmp_path / "seeded.json"
        f.write_text('{"n": 3, "model": "tree", "rounds": [[-1, 0, 1]], "seed": %s}\n' % seed)
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 2

    @pytest.mark.parametrize("k, message", [
        ("0", "objective k must be >= 1"),
        ("2", "broadcast has no k parameter"),
        ("3", "broadcast has no k parameter"),
    ])
    def test_simulate_broadcast_refuses_k(self, tree_file, k, message, capsys):
        # the refusal is Objective("broadcast", k)'s own
        path, _ = tree_file
        assert main(["simulate", "--seq", path, "--objective", "broadcast", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_simulate_broadcast_k1_is_broadcast(self, tree_file, capsys):
        path, _ = tree_file
        assert main(["simulate", "--seq", path, "--objective", "broadcast"]) == 0
        plain = capsys.readouterr().out
        assert main(["simulate", "--seq", path, "--objective", "broadcast", "--k", "1"]) == 0
        assert capsys.readouterr().out == plain

    def test_simulate_table(self, tree_file, capsys):
        path, _ = tree_file
        assert main(["simulate", "--seq", path, "--objective", "broadcast",
                     "--table"]) == 0
        assert "witness" in capsys.readouterr().out

    def test_construct_then_simulate_pipeline(self, tmp_path, capsys):
        f = tmp_path / "c.json"
        assert main(["construct", "--model", "forest", "--n", "8", "--k", "2",
                     "--out", str(f)]) == 0
        claimed = json.loads(capsys.readouterr().out)["claimed_time"]
        assert main(["simulate", "--seq", str(f), "--objective", "cover",
                     "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["time"] >= claimed

    def test_search_cli(self, capsys):
        assert main(["search", "--model", "tree", "--n", "3",
                     "--objective", "broadcast"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 2
        # 7 expanded states in 2 orbits: the identity, and the 6 relabelings
        # of a path's product
        assert (doc["expanded_states"], doc["expanded_orbits"]) == (7, 2)
        parsed = seqfile.from_json_dict(doc["optimal_sequence"])
        assert len(parsed) == 2

    def test_search_guard_exit(self, capsys):
        assert main(["search", "--model", "tree", "--n", "9",
                     "--objective", "broadcast"]) == 2

    def test_search_mem_cap_exit(self, capsys):
        assert main(["search", "--model", "tree", "--n", "4",
                     "--objective", "broadcast", "--mem-cap", "5000"]) == 1

    def test_search_zero_mem_cap_exits_1(self, capsys):
        assert main(["search", "--model", "tree", "--n", "3",
                     "--objective", "broadcast", "--mem-cap", "0"]) == 1
        assert "over the budget of 0" in capsys.readouterr().err

    def test_search_negative_mem_cap_exits_2(self, capsys):
        assert main(["search", "--model", "tree", "--n", "3",
                     "--objective", "broadcast", "--mem-cap", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: memory budget must be at least 0 bytes, got -5\n"

    def test_search_negative_mem_cap_from_environment_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("DYNNET_MEM_CAP", "-3")
        assert main(["search", "--model", "tree", "--n", "3", "--objective", "broadcast"]) == 2
        assert capsys.readouterr().err == "error: memory budget must be at least 0 bytes, got -3\n"

    def test_search_stall_exits_3_without_traceback(self, capsys):
        # a 2-forest can leave every node's broadcast unchanged, forever
        assert main(["search", "--model", "forest", "--n", "3", "--k", "2",
                     "--objective", "broadcast"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: adversary move without progress")
        assert captured.err.count("\n") == 1

    def test_mem_cap_from_environment(self, tmp_path, monkeypatch, capsys):
        search = ["search", "--model", "tree", "--n", "3", "--objective", "broadcast"]
        monkeypatch.setenv("DYNNET_MEM_CAP", "1e9")
        assert main(["construct", "--model", "tree", "--n", "5",
                     "--out", str(tmp_path / "t.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(search)
        assert exc.value.code == 2
        assert "--mem-cap" in capsys.readouterr().err
        assert main(search + ["--mem-cap", "100000"]) == 0
        monkeypatch.setenv("DYNNET_MEM_CAP", "1000")
        assert main(search) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--model", "tree", "--n", "3", "--objective", "broadcast"],
            ["verify", "--grid", "n=3..4"],
        ],
        ids=["search", "verify"],
    )
    def test_threads_option_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 2

    def test_greedy_command_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["greedy", "--model", "tree", "--n", "4", "--objective", "broadcast",
                  "--horizon", "6", "--policy", "min-new-edges"])
        assert exc.value.code == 2

    def test_search_forest_small_value(self, capsys):
        assert main(["search", "--model", "forest", "--n", "4", "--k", "2",
                     "--objective", "cover"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] <= 8

    def test_path_file_simulates_to_n_minus_one(self, tmp_path, capsys):
        doc = {"n": 5, "model": "tree", "k": 1,
               "rounds": [[-1, 0, 1, 2, 3]], "repeat": {"from": 0, "to": 0, "times": 4}}
        f = tmp_path / "path.json"
        f.write_text(json.dumps(doc))
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 0
        assert json.loads(capsys.readouterr().out)["time"] == 4

    def test_star_file_simulates_to_one(self, tmp_path, capsys):
        doc = {"n": 5, "model": "tree", "k": 1, "rounds": [[-1, 0, 0, 0, 0]]}
        f = tmp_path / "star.json"
        f.write_text(json.dumps(doc))
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 0
        assert json.loads(capsys.readouterr().out)["time"] == 1

    def test_construct_tree_n10_pipeline(self, tmp_path, capsys):
        f = tmp_path / "t10.json"
        assert main(["construct", "--model", "tree", "--n", "10",
                     "--out", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"out", "rounds", "claimed_time"} and doc["claimed_time"] == 13
        assert main(["simulate", "--seq", str(f), "--objective", "broadcast"]) == 0
        assert json.loads(capsys.readouterr().out)["time"] >= 13

    def test_analyze_rounds_graph(self, tree_file, tmp_path, capsys):
        path, _ = tree_file
        dot = tmp_path / "rg.dot"
        assert main(["analyze", "--seq", path, "--certificate", "rounds-graph",
                     "--dot", str(dot)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree_at_least_n"] is True
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("value, part, message", [
        ("1,1", "1", "repeats process 1"),
        ("0,2,02", "02", "repeats process 2"),
        ("a", "a", "is not a process id"),
        ("1,a", "a", "is not a process id"),
        ("", "", "is not a process id"),
        ("1,,2", "", "is not a process id"),
        ("1,", "", "is not a process id"),
        (",1", "", "is not a process id"),
    ], ids=["repeated", "repeated-leading-zero", "letter", "letter-after-id", "empty",
            "empty-inner", "empty-last", "empty-first"])
    def test_analyze_refuses_a_malformed_avoid(self, tmp_path, capsys, value, part, message):
        # on an 8-node tree "1,1" was read as {1}, and then failed as a
        # trace too short for two avoided processes
        f, dot = tmp_path / "t8.json", tmp_path / "rg.dot"
        seqfile.save(str(f), trees_lower_bound(8).seq)
        assert main(["analyze", "--seq", str(f), "--certificate", "rounds-graph",
                     "--avoid", value, "--dot", str(dot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not dot.exists()
        assert captured.err == f"error: --avoid {value!r}: part {part!r} {message}\n"

    def test_analyze_reads_avoided_ids(self, tmp_path, capsys):
        f = tmp_path / "d8.json"
        seqfile.save(str(f), build(Model.K_ROOTED, 8, 3).seq)
        assert main(["analyze", "--seq", str(f), "--certificate", "rounds-graph",
                     "--avoid", "1,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rg = analysis.build_rounds_graph(seqfile.load(str(f)).trace(), frozenset({0, 1}))
        assert doc["round_count"] == rg.round_count == 22
        assert doc["witness"]["process"] not in (0, 1)

    def test_analyze_strict_sets(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        assert main(["construct", "--model", "forest", "--n", "8", "--k", "2",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--seq", str(f), "--certificate", "strict-sets",
                     "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True and doc["complete"] is True

    def test_analyze_strict_sets_refuses_k_rooted_rounds(self, tmp_path, capsys):
        # the construction is defined on forest rounds; a tree file is a 1-forest
        f, dot = tmp_path / "d.json", tmp_path / "ss.dot"
        assert main(["construct", "--model", "digraph", "--n", "12", "--k", "2",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--seq", str(f), "--certificate", "strict-sets",
                     "--dot", str(dot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not dot.exists()

    @pytest.fixture()
    def forest12(self, tmp_path, capsys):
        """The 2-forest schedule at n=12, 33 rounds."""
        f = tmp_path / "forest12.json"
        assert main(["construct", "--model", "forest", "--n", "12", "--k", "2",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        return str(f)

    def test_analyze_strict_sets_refuses_k_below_the_files(self, forest12, monkeypatch, capsys):
        # rounds of 2 trees are forests of at most k trees for k >= 2 only
        for k in ("2", "3"):
            assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                         "--k", k]) == 0
            assert json.loads(capsys.readouterr().out)["all_passed"] is True

        def build(*args):
            pytest.fail("strict sets built for a k below the file's")

        monkeypatch.setattr(analysis, "build_strict_sets", build)
        assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                     "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --k 1 is below the file's k=2: "
                                "its rounds are forests of 2 trees\n")

    def test_analyze_strict_sets_dot_and_table(self, forest12, tmp_path, capsys):
        dot = tmp_path / "ss.dot"
        assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                     "--dot", str(dot), "--table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["check", "result", "detail"]
        # the 58 checks of the report, one line each, all passing
        assert len(lines) == 1 + 58
        assert all(line.split()[1] == "pass" for line in lines[1:])
        text = dot.read_text()
        # the strict rounds graph on the levels s = 3 .. 12
        assert text.startswith("digraph strict_rounds {")
        assert [line.split()[0] for line in text.splitlines() if "label=\"s=" in line] == \
            [f"v{s}" for s in range(3, 13)]

    def test_analyze_strict_sets_from_an_earlier_round(self, forest12, capsys):
        # the construction scans back from round t' = 15 of 33, so A_12 is
        # the 12 pairs at round 15
        assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                     "--tprime", "15"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True and doc["complete"] is True
        (marks,) = [c for c in doc["checks"] if c["name"] == "t_marks_monotone"]
        assert marks["detail"]["t_marks"]["12"] == 15

    @pytest.mark.parametrize("t_prime", ["0", "-1", "34"])
    def test_analyze_tprime_outside_the_file_exits_2(self, forest12, t_prime, capsys):
        assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                     "--tprime", t_prime]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: t_prime {t_prime} outside trace of length 33\n"

    @pytest.mark.parametrize("t_prime, strict", [("1", 7), ("5", 4), ("13", 3), ("14", 3)])
    def test_analyze_prefix_too_short_exits_2(self, forest12, t_prime, strict, tmp_path, capsys):
        # the cover time is 14, so the construction from round 14 or before
        # never finds the last intersection; that is an input error, not a
        # falsified check
        dot = tmp_path / "ss.dot"
        assert main(["analyze", "--seq", forest12, "--certificate", "strict-sets",
                     "--tprime", t_prime, "--dot", str(dot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the strict-sets construction from round t'={t_prime} is incomplete: "
            f"A_{strict} is still strict at round 1, so a prefix of {t_prime} rounds "
            f"is too short for it\n")
        assert not dot.exists()

    def test_analyze_strict_sets_on_a_tree_file(self, tree_file, capsys):
        path, _ = tree_file
        assert main(["analyze", "--seq", path, "--certificate", "strict-sets"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True and doc["complete"] is True

    @pytest.mark.parametrize("certificate, option", [
        ("rounds-graph", ["--k", "2"]),
        ("rounds-graph", ["--tprime", "3"]),
        ("rounds-graph", ["--table"]),
        ("rounds-graph", ["--k", "2", "--tprime", "3", "--table"]),
        ("strict-sets", ["--avoid", "99"]),
        ("strict-sets", ["--avoid", "0"]),
        ("strict-sets", ["--avoid", ""]),
    ])
    def test_analyze_refuses_an_option_its_certificate_does_not_read(
        self, tree_file, certificate, option, tmp_path, capsys
    ):
        path, _ = tree_file
        dot = tmp_path / "c.dot"
        assert main(["analyze", "--seq", path, "--certificate", certificate,
                     "--dot", str(dot)] + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {certificate} certificate takes no {option[0]}\n"
        assert not dot.exists()

    def test_verify_small_grid(self, tmp_path, capsys):
        csv = tmp_path / "v.csv"
        assert main(["verify", "--grid", "n=3..6,k=1..2", "--samples", "3",
                     "--seed", "2", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "all passed" in out
        assert csv.read_text().startswith("check,passed,detail")

    @pytest.mark.parametrize("argv", [
        ["construct", "--model", "tree", "--n", "6", "--k", "2"],
        ["construct", "--model", "digraph", "--n", "5", "--k", "6"],
        ["construct", "--model", "digraph", "--n", "8", "--k", "0"],
        ["verify", "--samples", "-3"],
        ["verify", "--samples", "0"],
        ["verify", "--grid", "n=20..3"],
        ["verify", "--grid", "n=3..6,k=3..1"],
        ["verify", "--grid", "n=3..4,k=5..6", "--samples", "1"],
        ["verify", "--grid", "n=3..4,K=1..2", "--samples", "1"],
        ["verify", "--grid", "n=3..4,n=9", "--samples", "1"],
        ["verify", "--grid", "n=63..65", "--samples", "1"],
        ["verify", "--grid", "n=0..3", "--samples", "1"],
        ["verify", "--grid", "n=3..4,k=0..1", "--samples", "1"],
        ["search", "--model", "forest", "--n", "3", "--k", "0", "--objective", "cover"],
        ["search", "--model", "tree", "--n", "6", "--objective", "broadcast"],
    ], ids=["construct-tree-k", "construct-k-over-n", "construct-k-zero",
            "verify-negative-samples", "verify-zero-samples", "verify-empty-n", "verify-empty-k",
            "verify-k-over-n", "verify-unknown-key", "verify-repeated-key", "verify-n-over-64",
            "verify-n-below-1", "verify-k-below-1", "search-k-zero", "search-tree-n6"])
    def test_invalid_request_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "c.json"
        argv = argv + ["--out", str(out)] if argv[0] == "construct" else argv
        assert main(argv) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("grid, part", [("n=3..", "n=3.."), ("n=3..4,k=2..", "k=2.."),
                                            ("n=..5", "n=..5"), ("n=a..4", "n=a..4"),
                                            ("n=3..4,k=1..b", "k=1..b")],
                             ids=["n", "k", "no-start", "letter-start", "letter-end"])
    def test_grid_range_without_end_exits_2(self, grid, part, capsys):
        # a range without an end, or with a bound that is not an integer,
        # is refused with the grid and the range named
        assert main(["verify", "--grid", grid, "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(part) in captured.err and repr(grid) in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seq", "{tree}", "--objective", "cover", "--k", "9"],
        ["analyze", "--seq", "{tree}", "--certificate", "rounds-graph", "--avoid", "x"],
        ["analyze", "--seq", "{tree}", "--certificate", "rounds-graph", "--avoid", "99"],
        ["export-dot", "--seq", "{tree}", "--round", "999"],
        ["export-dot", "--seq", "{tree}", "--round", "0"],
        ["simulate", "--seq", "{missing}", "--objective", "broadcast"],
    ] + [
        argv + [f"{{{bad}}}"]
        for bad in ("no_to", "int_rounds", "cyclic_tree", "cyclic_forest")
        for argv in (
            ["simulate", "--objective", "broadcast", "--seq"],
            ["analyze", "--certificate", "strict-sets", "--seq"],
            ["export-dot", "--seq"],
        )
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, tree_file, tmp_path, capsys):
        bad_docs = {
            "no_to": {"n": 3, "model": "tree", "rounds": [[-1, 0, 1]],
                      "repeat": {"from": 0, "times": 2}},
            "int_rounds": {"n": 3, "model": "tree", "rounds": 5},
            # a cycle beside a root: the right root count, and no forest
            "cyclic_tree": {"n": 3, "model": "tree", "rounds": [[-1, 2, 1]]},
            "cyclic_forest": {"n": 4, "model": "forest", "k": 2, "rounds": [[-1, -1, 3, 2]]},
        }
        paths = {"tree": tree_file[0], "missing": str(tmp_path / "none.json")}
        for name, doc in bad_docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_export_dot(self, tree_file, capsys):
        path, _ = tree_file
        assert main(["export-dot", "--seq", path, "--round", "1"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_simulate_has_no_json_option(self, tree_file, capsys):
        # JSON is the only default; --table alone selects another format
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seq", tree_file[0], "--objective", "broadcast", "--json"])
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err

    def test_search_has_no_allow_large_option(self, capsys):
        # the n <= 5 guard has no override
        with pytest.raises(SystemExit) as exc:
            main(["search", "--model", "tree", "--n", "6", "--objective", "broadcast",
                  "--allow-large"])
        assert exc.value.code == 2
        assert "--allow-large" in capsys.readouterr().err

    def test_export_dot_has_no_self_loops_option(self, tree_file, capsys):
        # no file round carries a loop, so there is none to select
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", "--seq", tree_file[0], "--self-loops"])
        assert exc.value.code == 2
        assert "--self-loops" in capsys.readouterr().err


def test_public_names():
    # one public name per definition: families are told apart by
    # ``validate_member`` and objectives by ``Objective.witness``, and the
    # interval queries are ``ProductTrace.in_mask`` and ``out_mask``
    assert sorted(dynnet.__all__) == [
        "Graph", "Model", "ModelSpec", "Objective", "ObjectiveNotReached", "ProductTrace",
        "RoundSequence", "RunResult", "cover_achieved", "make_graph", "product",
        "random_graph", "run", "sampled_run",
    ]
    namespace = {}
    exec("from dynnet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dynnet.__all__)


def fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(dynnet.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


# the bounds are exact in integers, and numpy is loaded only by the exact
# search and the k-rooted draws; a fresh interpreter shows what loads
@pytest.mark.parametrize("module", ["mpmath", "numpy"])
def test_cli_import_leaves_module_out(module):
    out = fresh_interpreter(f"import sys, dynnet.cli; print({module!r} in sys.modules)")
    assert out.strip() == "False"


def test_numpy_loads_with_the_first_k_rooted_draw():
    code = """
import sys
from dynnet.families import Model, ModelSpec, random_graph
for n in range(3, 65):
    random_graph(ModelSpec(Model.TREES, n), n)
    random_graph(ModelSpec(Model.K_FORESTS, n, 2), n)
print("numpy" in sys.modules)
random_graph(ModelSpec(Model.K_ROOTED, 3, 1), 0)
print("numpy" in sys.modules)
"""
    assert fresh_interpreter(code).split() == ["False", "True"]


def test_numpy_loads_with_the_first_search(tmp_path):
    code = f"""
import contextlib, io, sys
from dynnet.cli import main
d = {str(tmp_path)!r}
commands = [
    ["construct", "--model", "tree", "--n", "12", "--out", d + "/tree.json"],
    ["simulate", "--seq", d + "/tree.json", "--objective", "broadcast"],
    ["analyze", "--seq", d + "/tree.json", "--certificate", "rounds-graph"],
    ["construct", "--model", "forest", "--n", "12", "--k", "2", "--out", d + "/forest.json"],
    ["simulate", "--seq", d + "/forest.json", "--objective", "cover", "--k", "2"],
    ["analyze", "--seq", d + "/forest.json", "--certificate", "strict-sets"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(codes, "numpy" in sys.modules)
from dynnet.dissemination import Objective
from dynnet.families import Model, ModelSpec
from dynnet.search import exact_worst_case
res = exact_worst_case(ModelSpec(Model.TREES, 3), Objective.broadcast())
print(res.value, "numpy" in sys.modules)
"""
    assert fresh_interpreter(code).splitlines() == ["[0, 0, 0, 0, 0, 0] False", "2 True"]
