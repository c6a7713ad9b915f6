"""The sequence-file reader's decoder against ``json.loads``, the reference:
every valid text decodes to the same document, and every text json refuses
is refused with ValueError."""

import json
import random
import re
import time

import pytest

from dynnet import constructions, seqfile
from dynnet.dissemination import RoundSequence
from dynnet.families import Model, ModelSpec, forest_parents, random_graph
from dynnet.graphs import graph_from_parents

# one JSON token: a string, a number or constant, or a punctuation mark
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s{}\[\],:"]+|[{}\[\],:]')


def schedule_texts():
    texts = []
    for model, ks in [(Model.TREES, (1,)), (Model.K_FORESTS, (2, 3)), (Model.K_ROOTED, (2, 3))]:
        for k in ks:
            for n in (16, 64):
                texts.append(seqfile.dumps(constructions.build(model, n, k).seq, n * k))
    return texts


def random_texts():
    # every round a fresh draw, so no record repeats
    rnd = random.Random("seqfile/random")
    texts = []
    for model, k in [(Model.TREES, 1), (Model.K_FORESTS, 2), (Model.K_ROOTED, 3)]:
        for n in (3, 9, 64):
            spec = ModelSpec(model, n, k)
            rounds = [random_graph(spec, rnd.getrandbits(32)) for _ in range(12)]
            texts.append(seqfile.dumps(RoundSequence(spec, rounds), rnd.getrandbits(64)))
    return texts


SCHEDULES = schedule_texts()
RANDOM = random_texts()
SHORT = [text for text in SCHEDULES + RANDOM if len(text) < 2000]
ODD = [
    '{"n": NaN, "seed": -Infinity, "rounds": [[NaN, 1e400], [Infinity]]}',
    '{"seed": 123456789012345678901234567890, "rounds": [[-1, 98765432109876543210987654321]]}',
    '{"rounds": 5}',
    '{"rounds": [5, "x", null, true, {"a": [1]}, [], 5]}',
    '{"rounds": [[[0, 1]], [[0, [1, 2]], [3]], [[[0]]], [[0, 1]]]}',
    '{"rounds": [["]"], ["]]"], [["]"]], ["]"], [1, 2], [1, 2]]}',
    '{"rounds": [[[0, 1] ], [1, 2], [[0, 1] ], [1, 2]]}',
    '{"rounds": [[0], [[0], 1], [[0], 1], [0]], "k": {"to": [], "from": {}}}',
    '{"rounds": [], "repeat": {"from": 0, "to": 0, "times": 2}}',
    '{"rounds": [[]], "model": "tree"}',
    '{}',
    ' \t\n\r{ } \n',
]


def spaced(text, rnd):
    """``text`` with whitespace between every two tokens."""
    tokens = TOKEN.findall(text)
    gaps = ["".join(rnd.choice(" \t\n\r") for _ in range(rnd.randint(1, 3))) for _ in tokens]
    return "".join(gap + token for gap, token in zip(gaps, tokens)) + "\n"


def shuffled(text, rnd):
    """``text`` with the keys of every object in a new order."""
    def shuffle(obj):
        if isinstance(obj, dict):
            items = list(obj.items())
            rnd.shuffle(items)
            return {key: shuffle(value) for key, value in items}
        if isinstance(obj, list):
            return [shuffle(value) for value in obj]
        return obj

    return json.dumps(shuffle(json.loads(text)), separators=(",", ":"))


def variants(text):
    rnd = random.Random(text)
    yield text
    yield json.dumps(json.loads(text), indent=1)
    yield json.dumps(json.loads(text), indent="\t")
    yield json.dumps(json.loads(text))
    yield spaced(text, rnd)
    yield shuffled(text, rnd)
    yield text.replace('"rounds"', '"rou\\u006eds"')


def same(got, want):
    # repr also tells NaN from NaN and 1 from 1.0, and sees the key order
    assert repr(got) == repr(want)


class TestAgainstJsonLoads:
    @pytest.mark.parametrize("which", ["schedules", "random", "odd"])
    def test_every_valid_text_decodes_alike(self, which):
        texts = {"schedules": SCHEDULES, "random": RANDOM, "odd": ODD}[which]
        for text in texts:
            for variant in variants(text):
                same(seqfile._decode(variant), json.loads(variant))

    @pytest.mark.parametrize("text", SHORT + ODD, ids=lambda text: text[:24])
    def test_every_truncation_is_refused(self, text):
        body = text.strip()
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                seqfile._decode(body[:cut])

    @pytest.mark.parametrize("extra", ["x", "{}", "]", "}", ",", '"', "0", "[1]", "\n{"])
    def test_extra_data_is_refused(self, extra):
        for text in SCHEDULES[:2] + RANDOM[:2] + ODD:
            with pytest.raises(ValueError):
                json.loads(text + extra)
            with pytest.raises(ValueError):
                seqfile._decode(text + extra)

    @pytest.mark.parametrize("mark", [",", ":", "]"])
    def test_a_missing_mark_is_refused_as_json_refuses_it(self, mark):
        # dropping a ',' between two digits joins them into one valid number,
        # so the reference decides which texts are refused
        refused = 0
        # SCHEDULES[6] is the 2-rooted n=16 schedule, whose records nest
        for text in SHORT + SCHEDULES[6:7] + ODD:
            for variant in (text, json.dumps(json.loads(text), indent=1)):
                for at in [m.start() for m in re.finditer(re.escape(mark), variant)]:
                    broken = variant[:at] + variant[at + 1:]
                    try:
                        want = json.loads(broken)
                    except ValueError:
                        refused += 1
                        with pytest.raises(ValueError):
                            seqfile._decode(broken)
                    else:
                        same(seqfile._decode(broken), want)
        assert refused > 100

    def test_loads_does_not_call_json_loads(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("json.loads called")

        want = [seqfile.from_json_dict(json.loads(text)).rounds for text in SCHEDULES + RANDOM]
        monkeypatch.setattr(json, "loads", refuse)
        assert [seqfile.loads(text).rounds for text in SCHEDULES + RANDOM] == want

    @pytest.mark.parametrize("text", ["[1]", "[[0, 1], [0, 1]]", "5", '"x"', "null"])
    def test_a_text_that_is_not_an_object_is_refused(self, text):
        with pytest.raises(ValueError, match="must hold a JSON object"):
            seqfile.loads(text)

    def test_a_long_flat_array_stops_guessing(self):
        # each item's guess runs to the array's end; after the first wrong
        # one the rest is scanned where it stands, where guessing on would
        # slice the rest of the array for every item
        text = '{"rounds":[' + ",".join(map(str, range(200_000))) + "]}"
        start = time.perf_counter()
        got = seqfile._decode(text)
        elapsed = time.perf_counter() - start
        same(got, json.loads(text))
        assert elapsed < 2.0


def sharing(rounds):
    """Each round's first index among the rounds that are the same object."""
    first: dict = {}
    return [first.setdefault(id(g), i) for i, g in enumerate(rounds)]


class TestSharing:
    def test_equal_record_texts_are_one_list(self):
        rounds = seqfile._decode('{"rounds":[[-1,0,1],[1,-1,1],[-1,0,1],[-1, 0, 1]]}')["rounds"]
        assert rounds[0] is rounds[2]
        assert rounds[0] is not rounds[3] and rounds[0] == rounds[3]
        assert rounds[1] is not rounds[0]

    def test_equal_records_of_unequal_text_load_as_one_graph(self):
        seq = seqfile.loads('{"n":3,"model":"tree","rounds":[[-1,0,1],[-1, 0, 1],[1,-1,1]]}')
        assert seq.rounds[0] is seq.rounds[1]
        assert seq.rounds[2] is not seq.rounds[0]

    @pytest.mark.parametrize("text", SCHEDULES, ids=lambda text: text[:40])
    def test_schedules_share_as_before(self, text):
        # one list per distinct record text, one Graph per distinct record,
        # and the file comes back byte for byte
        doc = json.loads(text)
        records = seqfile._decode(text)["rounds"]
        distinct = {json.dumps(rec) for rec in doc["rounds"]}
        assert len({id(rec) for rec in records}) == len(distinct)
        rounds = seqfile.loads(text).rounds
        assert sharing(rounds) == sharing(seqfile.from_json_dict(doc).rounds)
        assert len(set(sharing(rounds))) == len(distinct)
        assert seqfile.dumps(seqfile.loads(text), doc["seed"]) == text


class TestRepeatedKeys:
    @pytest.mark.parametrize("text", [
        '{"n":3,"model":"tree","rounds":[[1,2,-1]],"rounds":[[-1,0,1]]}',
        '{"n":3,"model":"tree","n":3,"rounds":[[-1,0,1]]}',
        '{"n":3,"model":"tree","rounds":[[-1,0,1]],"n":4}',
        '{"n":3,"model":"tree","rou\\u006eds":[[-1,0,1]],"rounds":[[-1,0,1]]}',
        '{"n":3,"model":"tree","rounds":[[-1,0,1]],"repeat":{"from":0,"to":0,"times":2,"times":3}}',
        '{"n":3,"model":"tree","rounds":[[-1,0,1]],"repeat":{"from":0,"from":0,"to":0,"times":2}}',
    ], ids=["top-rounds", "top-n", "top-n-last", "top-escaped", "repeat-times", "repeat-from"])
    def test_a_repeated_key_is_refused(self, text):
        with pytest.raises(ValueError, match="repeats the key"):
            seqfile.loads(text)

    def test_a_repeated_key_inside_a_record_is_refused(self):
        with pytest.raises(ValueError, match="repeats the key 'a'"):
            seqfile._decode('{"rounds":[[1],[{"a":1,"a":2}]]}')


class TestCyclicParentArrays:
    """A parent array with a cycle beside a root has the right root count
    and no node that is its own parent, so ``graph_from_parents`` builds it;
    it is still no forest, and a file or a sequence with it is refused."""

    @pytest.mark.parametrize("model,k,n,cyclic", [
        (Model.TREES, 1, 3, [-1, 2, 1]),
        (Model.K_FORESTS, 2, 4, [-1, -1, 3, 2]),
    ], ids=["tree", "2-forest"])
    def test_refused_by_the_reader_and_the_sequence(self, model, k, n, cyclic):
        spec = ModelSpec(model, n, k)
        g = graph_from_parents(n, cyclic)
        assert g.parents.count(-1) == k and forest_parents(g) is None
        ok = random_graph(spec, 0)
        for rounds, bad in (([cyclic], 1), ([forest_parents(ok), cyclic], 2)):
            doc = {"n": n, "model": model.value, "rounds": rounds}
            if model is Model.K_FORESTS:
                doc["k"] = k
            with pytest.raises(ValueError, match=f"round {bad} is not a valid {model.value} member"):
                seqfile.loads(json.dumps(doc))
        with pytest.raises(ValueError, match=f"round 2 is not a valid {model.value} member"):
            RoundSequence(spec, [ok, g])


class TestOnePassReachesAFixedPoint:
    """``dumps(loads(x)) == x`` holds for a file that ``dumps`` wrote with
    no seed. Any other valid file comes back rewritten once (edges sorted,
    a repeated edge dropped, ``k`` written, a repeat block unrolled, the
    seed dropped, the layout made compact), and the rewritten text is a
    fixed point."""

    TREE = '{"k":1,"model":"tree","n":3,"rounds":[[-1,0,1]]}\n'
    DIGRAPH = '{"k":1,"model":"digraph","n":3,"rounds":[[[0,1],[1,2]]]}\n'

    @pytest.mark.parametrize("text,once", [
        ('{"k":1,"model":"digraph","n":3,"rounds":[[[1,2],[0,1]]]}\n', DIGRAPH),
        ('{"k":1,"model":"digraph","n":3,"rounds":[[[1,2],[0,1],[0,1]]]}\n', DIGRAPH),
        ('{"model":"tree","n":3,"rounds":[[-1,0,1]]}\n', TREE),
        ('{"k":1,"model":"tree","n":3,"repeat":{"from":0,"to":0,"times":2},"rounds":[[-1,0,1]]}\n',
         '{"k":1,"model":"tree","n":3,"rounds":[[-1,0,1],[-1,0,1]]}\n'),
        ('{"k":1,"model":"tree","n":3,"rounds":[[-1,0,1]],"seed":5}\n', TREE),
        ('{"n": 3, "model": "tree", "k": 1, "rounds": [[-1, 0, 1]]}', TREE),
    ], ids=["unsorted-edges", "repeated-edge", "no-k", "repeat-block", "seed", "layout"])
    def test_rewritten_once(self, text, once):
        assert seqfile.dumps(seqfile.loads(text)) == once != text
        assert seqfile.dumps(seqfile.loads(once)) == once
