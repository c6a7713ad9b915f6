"""Round-sequence files: canonical JSON with parent-array rounds for trees
and forests (family validity is then near-syntactic) and edge lists for
k-rooted rounds. An optional repeat block encodes phase schedules without
spelling every round out."""

from __future__ import annotations

import json
from typing import Optional

from .dissemination import RoundSequence
from .families import Model, ModelSpec
from .graphs import Graph, make_graph

FORMAT_KEYS = {"n", "model", "k", "rounds", "repeat", "seed"}


def _parents_to_graph(n: int, parents: list[int]) -> Graph:
    if len(parents) != n:
        raise ValueError(f"parent array has length {len(parents)}, expected {n}")
    edges = []
    for child, par in enumerate(parents):
        if par == -1:
            continue
        if not 0 <= par < n:
            raise ValueError(f"parent id {par} out of range")
        if par == child:
            raise ValueError(f"node {child} is its own parent")
        edges.append((par, child))
    return make_graph(n, edges)


def _graph_to_parents(g: Graph) -> list[int]:
    parents = []
    for v in range(g.n):
        row = g.in_rows[v] & ~(1 << v)
        if row.bit_count() > 1:
            raise ValueError("graph is not a forest; cannot emit parent array")
        parents.append(row.bit_length() - 1 if row else -1)
    return parents


def _round_to_record(model: Model, g: Graph):
    if model is Model.K_ROOTED:
        return [[u, v] for u, v in g.edges()]
    return _graph_to_parents(g)


def _record_to_round(model: Model, n: int, record) -> Graph:
    if model is Model.K_ROOTED:
        return make_graph(n, [(int(u), int(v)) for u, v in record])
    return _parents_to_graph(n, [int(p) for p in record])


def sequence_to_json_dict(seq: RoundSequence, seed: Optional[int] = None) -> dict:
    """Rounds are always written out in full; the repeat block is accepted
    on input only, so serialize(parse(x)) is byte-stable."""
    spec = seq.spec
    out: dict = {
        "n": spec.n,
        "model": spec.model.value,
        "k": spec.k,
        "rounds": [_round_to_record(spec.model, g) for g in seq.rounds],
    }
    if seed is not None:
        out["seed"] = seed
    return out


def dumps(seq: RoundSequence, seed: Optional[int] = None) -> str:
    """Canonical serialization: sorted keys, no floats, newline-terminated."""
    return json.dumps(sequence_to_json_dict(seq, seed), sort_keys=True,
                      separators=(",", ":")) + "\n"


def save(path: str, seq: RoundSequence, seed: Optional[int] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(seq, seed))


def from_json_dict(doc: dict) -> RoundSequence:
    """Parse a decoded sequence file; any malformed document raises
    ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("sequence file must hold a JSON object")
    unknown = set(doc) - FORMAT_KEYS
    if unknown:
        raise ValueError(f"unknown sequence-file keys: {sorted(unknown)}")
    try:
        n = int(doc["n"])
        model = Model(doc["model"])
        spec = ModelSpec(model, n, int(doc.get("k", 1)))
        rounds = [_record_to_round(model, n, rec) for rec in doc["rounds"]]
        repeat = doc.get("repeat")
        if repeat is not None:
            lo, hi, times = int(repeat["from"]), int(repeat["to"]), int(repeat["times"])
            if not (0 <= lo <= hi < len(rounds)) or times < 1:
                raise ValueError(f"bad repeat block {repeat}")
            rounds = rounds[:lo] + rounds[lo : hi + 1] * times + rounds[hi + 1 :]
    except KeyError as exc:
        raise ValueError(f"sequence file missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed sequence file: {exc}") from exc
    return RoundSequence(spec, rounds)


def loads(text: str) -> RoundSequence:
    return from_json_dict(json.loads(text))


def load(path: str) -> RoundSequence:
    with open(path) as fh:
        return loads(fh.read())
