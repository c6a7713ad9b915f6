"""The layer boundaries the traced run wraps, and the per-layer metrics
derived from its spans.

Layers are the ``dynnet`` modules. Each span is named after the module that
owns the wrapped function, wherever the call comes from: ``cover_achieved``
is ``dissemination`` code whether ``search`` or ``run`` calls it. Every time
metric is self time, so a span's time is not counted again in its parent's.

Which end-to-end metric each layer metric should move, and where:

- ``search.*``: ``wall_s`` and ``peak_rss_mib`` on both search workloads,
  nothing on ``sample`` or ``certify``.
- ``dissemination.cover_achieved.*``: ``wall_s`` on ``search-cover``; little
  on ``certify`` and ``sample``; zero calls on ``search-tree``.
- ``families.*``: ``ops_per_s`` and ``op_p50_ms`` on ``sample``; nothing on
  the search workloads.
- ``dissemination.run.*``: ``sample`` and ``certify``.
- ``graphs.trace.*``, ``seqfile.*``, ``constructions.*``, ``analysis.*``:
  ``wall_s`` on ``certify``.
"""

from __future__ import annotations

from dynnet import analysis, constructions, dissemination, families, search, seqfile

from tracing import Tracer


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    rs = dissemination.RoundSequence
    tracer.wrap(search, "exact_worst_case", "search.exact_worst_case",
                lambda r: (("search.states", r.states_visited), ("search.memo_hits", r.memo_hits)))
    tracer.wrap(search, "family_moves", "search.family_moves")

    def found(witness):
        return (("dissemination.cover_achieved.found", witness is not None),)

    tracer.wrap(search, "cover_achieved", "dissemination.cover_achieved", found)
    tracer.wrap(dissemination, "cover_achieved", "dissemination.cover_achieved", found)
    tracer.wrap(dissemination, "run", "dissemination.run", lambda r: (("dissemination.run.rounds", r.time),))
    tracer.wrap(rs, "__init__", "families.validate")
    tracer.wrap(rs, "trace", "graphs.trace", lambda t: (("graphs.trace.rounds", len(t)),))
    tracer.wrap(families, "random_graph", "families.random_graph")
    tracer.wrap(seqfile, "dumps", "seqfile.dumps", lambda text: (("seqfile.bytes", len(text)),))
    tracer.wrap(seqfile, "loads", "seqfile.loads")
    tracer.wrap(constructions, "build", "constructions.build")
    tracer.wrap(analysis, "build_rounds_graph", "analysis.build_rounds_graph",
                lambda rg: (("analysis.checks", 1),))
    tracer.wrap(analysis, "build_strict_sets", "analysis.build_strict_sets")
    tracer.wrap(analysis, "verify_strict_inequalities", "analysis.verify_strict_inequalities",
                lambda rep: (("analysis.checks", len(rep.checks)),))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced job, in the order of
    ``BENCHMARK.json``; ``wall_s`` is the job's traced wall time."""
    stats = tracer.layer_stats()
    counts = tracer.counts

    def self_s(span: str) -> float:
        st = stats.get(span)
        return st.self_ns / 1e9 if st else 0.0

    def calls(span: str) -> int:
        st = stats.get(span)
        return st.calls if st else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    states, hits = counts["search.states"], counts["search.memo_hits"]
    cover_calls = calls("dissemination.cover_achieved")
    return {
        "search.exact_worst_case.self_s": self_s("search.exact_worst_case"),
        "search.family_moves.s": self_s("search.family_moves"),
        "search.states": states,
        "search.memo_hits": hits,
        "search.hit_ratio": ratio(hits, hits + states),
        "dissemination.cover_achieved.calls": cover_calls,
        "dissemination.cover_achieved.s": self_s("dissemination.cover_achieved"),
        "dissemination.cover_achieved.found_ratio": ratio(counts["dissemination.cover_achieved.found"], cover_calls),
        "families.random_graph.calls": calls("families.random_graph"),
        "families.random_graph.s": self_s("families.random_graph"),
        "families.validate.s": self_s("families.validate"),
        "dissemination.run.s": self_s("dissemination.run"),
        "dissemination.run.rounds": counts["dissemination.run.rounds"],
        "graphs.trace.s": self_s("graphs.trace"),
        "graphs.trace.rounds": counts["graphs.trace.rounds"],
        "seqfile.dumps.s": self_s("seqfile.dumps"),
        "seqfile.loads.s": self_s("seqfile.loads"),
        "seqfile.bytes": counts["seqfile.bytes"],
        "constructions.build.s": self_s("constructions.build"),
        "analysis.build_rounds_graph.s": self_s("analysis.build_rounds_graph"),
        "analysis.build_strict_sets.s": self_s("analysis.build_strict_sets"),
        "analysis.verify_strict_inequalities.s": self_s("analysis.verify_strict_inequalities"),
        "analysis.checks": counts["analysis.checks"],
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer),
    }
