"""Round-sequence files: canonical JSON with parent-array rounds for trees
and forests (family validity is then near-syntactic) and edge lists for
k-rooted rounds. An optional repeat block encodes phase schedules without
spelling every round out.

A forest round is written as ``families.forest_parents`` of its graph and
read back through ``graphs.graph_from_parents``. Every number in a file is
a JSON integer: floats, numeric strings and booleans are rejected, never
truncated. No round carries a self-loop: every composition step implies
them. No JSON object in a file may repeat a key.

The lower-bound schedules repeat a few phase graphs many times, so each
distinct round is handled once. The writer derives and JSON-encodes one
record per distinct Graph object and repeats its text. The reader is
json's own decoder with one array hook, ``_records``, so it decodes every
text as ``json.loads`` does, apart from refusing a repeated key. Each
array that json's Python scanner meets (the top-level value, or a value
of an object outside any array) is read by ``json.decoder.JSONArray``,
whose items json's C scanner decodes once per distinct item text: a
record whose text was seen before is the list decoded then. The json
internals it relies on are the decoder's ``parse_array`` and
``scan_once`` attributes, ``json.scanner.py_make_scanner``, which reads
``parse_array``, and ``json.decoder.JSONArray``. ``from_json_dict`` then
builds one Graph per record object, and one per distinct record value
(keyed on its ``marshal`` bytes), which ``RoundSequence`` validates
once."""

from __future__ import annotations

import json
import marshal
from functools import partial
from typing import Optional

from .dissemination import RoundSequence
from .families import Model, ModelSpec, forest_parents
from .graphs import Graph, _once, graph_from_parents, make_graph

FORMAT_KEYS = {"n", "model", "k", "rounds", "repeat", "seed"}
REPEAT_KEYS = {"from", "to", "times"}
MAX_ROUNDS = 1 << 20  # rounds a repeat block may expand a file to
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode


def _int(value) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean is
    refused rather than cast."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _round_to_record(model: Model, g: Graph):
    if model is Model.K_ROOTED:
        if any(row >> v & 1 for v, row in enumerate(g.out_rows)):
            raise ValueError("graph has a self-loop; cannot emit edge list")
        return [[u, v] for u, v in g.edges()]
    parents = forest_parents(g)
    if parents is None:
        raise ValueError("graph is not a forest; cannot emit parent array")
    return parents


def _record_to_round(model: Model, n: int, record) -> Graph:
    if model is Model.K_ROOTED:
        edges = [(_int(u), _int(v)) for u, v in record]
        for u, v in edges:
            if u == v:
                raise ValueError(f"edge ({u}, {v}) is a self-loop")
        return make_graph(n, edges)
    return graph_from_parents(n, [_int(p) for p in record])


def _record_key(record) -> bytes:
    return marshal.dumps(record, 0)


def sequence_to_json_dict(seq: RoundSequence, seed: Optional[int] = None) -> dict:
    """Rounds are always written out in full; the repeat block is accepted
    on input only. A Graph object that repeats in the sequence gets one
    record, and every round it fills refers to that same list. The seed
    must be an integer, as the reader requires."""
    spec = seq.spec
    record = _once(partial(_round_to_record, spec.model))
    out: dict = {
        "n": spec.n,
        "model": spec.model.value,
        "k": spec.k,
        "rounds": [record(g) for g in seq.rounds],
    }
    if seed is not None:
        out["seed"] = _int(seed)
    return out


def dumps(seq: RoundSequence, seed: Optional[int] = None) -> str:
    """Canonical serialization: sorted keys, no floats, newline-terminated;
    the text of ``json.dumps(sequence_to_json_dict(seq, seed),
    sort_keys=True, separators=(",", ":"))``. Each distinct record object
    is encoded once and its text repeated wherever the record is."""
    doc = sequence_to_json_dict(seq, seed)
    record = _once(_COMPACT)
    fields = {key: _COMPACT(value) for key, value in doc.items() if key != "rounds"}
    fields["rounds"] = "[" + ",".join([record(rec) for rec in doc["rounds"]]) + "]"
    return "{" + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}\n"


def save(path: str, seq: RoundSequence, seed: Optional[int] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(seq, seed))


def from_json_dict(doc: dict) -> RoundSequence:
    """Parse a decoded sequence file; any malformed document raises
    ValueError. The ``seed`` must be an integer and is not kept: a seeded
    file is reproduced by ``dumps(loads(text), seed)``. A ``repeat`` key,
    where present, must hold an object; ``null`` is refused like any other
    non-object.

    Equal records load as one Graph. They are matched on their
    ``marshal.dumps(record, 0)`` bytes: version 0 writes no
    back-references, so equal bytes mean equal values of equal types, and
    ``1``, ``1.0``, ``True`` and ``"1"`` key apart. A record is therefore
    reused only where decoding it again would give the same Graph. A
    record holding an object that marshal cannot write raises ValueError.
    A record object met again (``loads`` returns one list for each
    distinct record text) gets its Graph back by ``id``, before any
    ``marshal`` key is built."""
    if not isinstance(doc, dict):
        raise ValueError("sequence file must hold a JSON object")
    unknown = set(doc) - FORMAT_KEYS
    if unknown:
        raise ValueError(f"unknown sequence-file keys: {sorted(unknown)}")
    try:
        n = _int(doc["n"])
        model = Model(doc["model"])
        spec = ModelSpec(model, n, _int(doc.get("k", 1)))
        if "seed" in doc:
            _int(doc["seed"])
        records = doc["rounds"]
        if not isinstance(records, list):
            raise ValueError(f"rounds must be an array, got {type(records).__name__}")
        decode = _once(_once(partial(_record_to_round, model, n), key=_record_key))
        rounds = [decode(rec) for rec in records]
        if "repeat" in doc:
            repeat = doc["repeat"]
            if not isinstance(repeat, dict):
                raise ValueError(f"repeat must be an object, got {repeat!r}")
            unknown = set(repeat) - REPEAT_KEYS
            if unknown:
                raise ValueError(f"unknown repeat keys: {sorted(unknown)}")
            lo, hi, times = _int(repeat["from"]), _int(repeat["to"]), _int(repeat["times"])
            if not (0 <= lo <= hi < len(rounds)) or times < 1:
                raise ValueError(f"bad repeat block {repeat}")
            expanded = len(rounds) + (hi + 1 - lo) * (times - 1)
            if expanded > MAX_ROUNDS:
                raise ValueError(f"repeat block expands to {expanded} rounds, over {MAX_ROUNDS}")
            rounds = rounds[:lo] + rounds[lo : hi + 1] * times + rounds[hi + 1 :]
    except KeyError as exc:
        raise ValueError(f"sequence file missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed sequence file: {exc}") from exc
    return RoundSequence(spec, rounds)


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a key that it repeats raises ValueError."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"sequence file repeats the key {key!r}")
        obj[key] = value
    return obj


def _records(s_and_end: tuple[str, int], scan_once) -> tuple[list, int]:
    """json's ``JSONArray`` over the array whose ``[`` is just before
    ``s_and_end[1]``, with every item scanned by ``_SCAN`` and equal item
    texts decoded once into one shared list. An item's text is guessed
    to run to its first ``]``, or to its first ``]]`` when it opens with
    ``[[``, and looked up; a text not seen before is scanned, and kept only
    if the scan ended where the guess did. After the first wrong guess every
    later item is scanned where it stands, so no stretch of text is searched
    twice over."""
    decoded: dict = {}
    guess = True

    def item(text: str, idx: int) -> tuple[object, int]:
        nonlocal guess
        if not guess:
            return _SCAN(text, idx)
        end = text.find("]]", idx) + 2 if text.startswith("[[", idx) else text.find("]", idx) + 1
        record = text[idx:end]
        value = decoded.get(record)
        if value is not None:
            return value, end
        value, stop = _SCAN(text, idx)
        if stop == end:
            decoded[record] = value
        else:
            guess = False
        return value, stop

    return json.decoder.JSONArray(s_and_end, item)


# ``_decode`` is json's ``decode`` with ``_records`` for each array: only
# the Python scanner reads ``parse_array``, so it replaces ``scan_once``,
# and the C scanner the decoder was built with is kept as ``_SCAN``.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_SCAN = _DECODER.scan_once
_DECODER.parse_array = _records
_DECODER.scan_once = json.scanner.py_make_scanner(_DECODER)
_decode = _DECODER.decode


def loads(text: str) -> RoundSequence:
    return from_json_dict(_decode(text))


def load(path: str) -> RoundSequence:
    with open(path) as fh:
        return loads(fh.read())
