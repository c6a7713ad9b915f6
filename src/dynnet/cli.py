"""Command-line front end: simulate, search, construct, verify, analyze.

Exit codes: 0 success / objective reached, 2 validation or usage error,
3 objective not reached (a sequence ran out first, or a search met an
adversary move that makes no progress, so the objective can be delayed
forever), 1 verification failures or memory budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings

from . import analysis, constructions, seqfile
from .dissemination import Objective, ObjectiveNotReached, run, sampled_run
from .families import Model, ModelSpec, random_graph
from .graphs import MAX_NODES, ProductTrace, to_dot
from .search import DEFAULT_MEM_CAP, MemoryBudgetExceeded, SearchStalled, exact_worst_case

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NOT_REACHED = 3


def _objective_from_args(name: str, k: int | None) -> Objective:
    """The objective ``name`` of size k; broadcast takes no k but 1."""
    if k is None:
        if name != "broadcast":
            raise ValueError(f"objective {name!r} needs --k")
        k = 1
    return Objective(name, k)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def cmd_simulate(args: argparse.Namespace) -> int:
    seq = seqfile.load(args.seq)
    objective = _objective_from_args(args.objective, args.k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run(seq, objective)
    if args.table:
        print(f"objective  {result.objective.kind} (k={result.objective.k})")
        print(f"time       {result.time}")
        print(f"witness    {' '.join(map(str, result.witness))}")
    else:
        _print_json(result.to_json_dict())
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    spec = ModelSpec(Model(args.model), args.n, 1 if args.k is None else args.k)
    # --k is the model's k, and the size of a cover or k-broadcast objective
    objective = _objective_from_args(args.objective, None if args.objective == "broadcast" else spec.k)
    res = exact_worst_case(spec, objective, mem_cap_bytes=args.mem_cap)
    doc = {
        "value": res.value,
        "states_visited": res.states_visited,
        "memo_hits": res.memo_hits,
        "expanded_states": res.expanded_states,
        "expanded_orbits": res.expanded_orbits,
        "optimal_sequence": seqfile.sequence_to_json_dict(res.optimal_sequence),
    }
    _print_json(doc)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    out = constructions.build(Model(args.model), args.n, 1 if args.k is None else args.k)
    seqfile.save(args.out, out.seq)
    _print_json({
        "out": args.out,
        "rounds": len(out.seq),
        "claimed_time": out.claimed_time,
    })
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    # each certificate refuses the options only the other one reads
    if args.certificate == "rounds-graph":
        unread = {"--k": args.k is not None, "--tprime": args.tprime is not None,
                  "--table": args.table}
    else:
        unread = {"--avoid": args.avoid is not None}
    for option, given in unread.items():
        if given:
            raise ValueError(f"the {args.certificate} certificate takes no {option}")
    seq = seqfile.load(args.seq)
    if args.certificate == "strict-sets":
        if seq.spec.model is Model.K_ROOTED:
            raise ValueError("the strict-sets certificate needs tree or forest rounds, "
                             "not k-rooted digraphs")
        # a round of k trees is a forest of at most k' trees only when k' >= k
        if args.k is not None and args.k < seq.spec.k:
            raise ValueError(f"--k {args.k} is below the file's k={seq.spec.k}: "
                             f"its rounds are forests of {seq.spec.k} trees")
    trace = seq.trace()
    if args.certificate == "rounds-graph":
        avoid = frozenset(int(x) for x in args.avoid.split(",") if x) if args.avoid else frozenset()
        rg = analysis.build_rounds_graph(trace, avoid)
        wit = analysis.max_out_degree_witness(rg)
        doc = {
            "certificate": "rounds-graph",
            "round_count": rg.round_count,
            "threshold": rg.threshold,
            # the witness is always a process node, so it is its own process
            "witness": {"kind": "process", "node": wit.process, "degree": wit.degree,
                        "process": wit.process},
            "degree_at_least_n": wit.degree >= trace.n,
        }
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(rg.to_dot())
        _print_json(doc)
        return EXIT_OK if wit.degree >= trace.n else EXIT_FAIL
    k = args.k if args.k is not None else seq.spec.k
    t_prime = args.tprime if args.tprime is not None else len(seq)
    tr = analysis.build_strict_sets(trace, k, t_prime)
    # a prefix too short for the construction is an input, not a falsified check
    if not tr.complete:
        raise ValueError(f"the strict-sets construction from round t'={t_prime} is "
                         f"incomplete: A_{min(tr.sets)} is still strict at round 1, so "
                         f"a prefix of {t_prime} rounds is too short for it")
    report = analysis.verify_strict_inequalities(tr)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(analysis.StrictRoundsGraph.from_trace(tr).to_dot())
    if args.table:
        print(report.to_table())
    else:
        doc = report.to_json_dict()
        doc["certificate"] = "strict-sets"
        doc["complete"] = tr.complete
        _print_json(doc)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def _parse_grid(text: str) -> tuple[range, range]:
    """Parse "n=3..20,k=1..3" into the two inclusive ranges."""
    spans = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("n", "k") or key in spans:
            raise ValueError(f"grid {text!r}: unknown or repeated key {key!r}")
        lo, dots, hi = val.partition("..")
        if dots and not hi.strip():
            raise ValueError(f"grid {text!r}: range {part!r} has no end")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise ValueError(f"grid {text!r}: empty range {part!r}")
        spans[key] = span
    if "n" not in spans:
        raise ValueError(f"grid {text!r} needs at least n=lo..hi")
    return spans["n"], spans.get("k", range(1, 4))


def _verify_rows(ns: range, ks: range, samples: int, seed: int):
    """Yield (name, ok, detail) rows for the whole invariant grid."""
    bad_bounds = []
    for model in Model:
        for n in range(2, 201):
            for k in range(1, min(n, 8) + 1):
                if model is Model.TREES and k > 1:
                    continue
                b = analysis.bounds_values(model, n, k)
                if b.lower > b.upper_int:
                    bad_bounds.append((model.value, n, k))
    yield ("bounds-sandwich", not bad_bounds, f"violations={bad_bounds[:5]}")

    for model in Model:
        cells = [
            (n, k)
            for n in ns
            for k in (ks if model is not Model.TREES else [1])
            if k <= n
        ]
        misses = 0
        for cell, (n, k) in enumerate(cells):
            spec = ModelSpec(model, n, k)
            horizon = analysis.bounds_values(model, n, k).upper_int
            for i in range(samples):
                base = seed + 7919 * (cell * samples + i)
                try:
                    sampled_run(spec, range(base, base + 13 * horizon, 13))
                except ObjectiveNotReached:
                    misses += 1
        yield (
            f"upper-bound-adherence[{model.value}]",
            misses == 0,
            f"runs={len(cells) * samples} misses={misses}",
        )

    rnd = random.Random(seed)
    spec = ModelSpec(Model.TREES, 7)
    trace = ProductTrace(7, [random_graph(spec, seed + t) for t in range(25)])
    roots = analysis.smallest_roots(trace)
    checks = {
        "duality": analysis.check_duality(trace, rnd, 2000),
        "transitivity": analysis.check_transitivity(trace, rnd, 2000),
        "monotonicity": analysis.check_monotonicity(trace, rnd, 2000),
        "propagation": analysis.check_propagation(trace, roots, rnd, 2000),
        "root-counting": analysis.check_root_counting(trace, roots, rnd, 2000),
    }
    for name, violations in checks.items():
        yield (f"lemma[{name}]", violations == 0, f"violations={violations}")

    sandwich_fail = []
    for n in range(4, max(ns.stop, 21), 7):
        out = constructions.trees_lower_bound(n)
        t = run(out.seq, Objective.broadcast()).time
        ub = analysis.bounds_for(out.seq.spec).upper_int
        if not out.claimed_time <= t <= ub:
            sandwich_fail.append((n, t))
    yield ("construction-sandwich[tree]", not sandwich_fail, f"violations={sandwich_fail}")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    ns, ks = _parse_grid(args.grid)
    if ks.start > ns[-1]:
        raise ValueError(f"grid {args.grid!r}: every k exceeds every n")
    if ns[0] < 1 or ns[-1] > MAX_NODES:
        raise ValueError(f"grid {args.grid!r}: n outside [1, {MAX_NODES}]")
    if ks.start < 1:
        raise ValueError(f"grid {args.grid!r}: k below 1")
    rows = []
    ok_all = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, ok, detail in _verify_rows(ns, ks, args.samples, args.seed):
            rows.append((name, ok, detail))
            ok_all &= ok
            print(f"{'pass' if ok else 'FAIL'}  {name}  {detail}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("check,passed,detail\n")
            for name, ok, detail in rows:
                fh.write(f"{name},{int(ok)},\"{detail}\"\n")
    print(f"verify: {'all passed' if ok_all else 'FAILURES'} (seed={args.seed})")
    return EXIT_OK if ok_all else EXIT_FAIL


def cmd_export_dot(args: argparse.Namespace) -> int:
    seq = seqfile.load(args.seq)
    if not 1 <= args.round <= len(seq):
        raise ValueError(f"--round must be in 1..{len(seq)}, got {args.round}")
    g = seq.rounds[args.round - 1]
    print(to_dot(g, name=f"round_{args.round}"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynnet",
        description="Dissemination on adversarial dynamic networks: "
                    "simulate, search, construct, verify, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a sequence file against an objective")
    p.add_argument("--seq", required=True)
    p.add_argument("--objective", required=True,
                   choices=["broadcast", "cover", "kbroadcast"])
    p.add_argument("--k", type=int)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", help="exact worst-case time over a family")
    p.add_argument("--model", required=True, choices=[m.value for m in Model])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--objective", required=True,
                   choices=["broadcast", "cover", "kbroadcast"])
    # argparse converts a string default with ``type`` only when the search
    # command runs, so a malformed DYNNET_MEM_CAP is a usage error there alone
    p.add_argument("--mem-cap", type=int,
                   default=os.environ.get("DYNNET_MEM_CAP", DEFAULT_MEM_CAP))
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("construct", help="emit a worst-case schedule file")
    p.add_argument("--model", required=True, choices=[m.value for m in Model])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the invariant grid")
    p.add_argument("--grid", default="n=3..20,k=1..3")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="build and check a certificate on a run")
    p.add_argument("--seq", required=True)
    p.add_argument("--certificate", required=True,
                   choices=["rounds-graph", "strict-sets"])
    p.add_argument("--avoid", help="comma-separated process ids")
    p.add_argument("--k", type=int)
    p.add_argument("--tprime", type=int)
    p.add_argument("--dot", help="also write the certificate graph as DOT")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export-dot", help="print one round of a sequence as DOT")
    p.add_argument("--seq", required=True)
    p.add_argument("--round", type=int, default=1)
    p.set_defaults(func=cmd_export_dot)

    return parser


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ObjectiveNotReached, SearchStalled) as exc:
        return _error(exc, EXIT_NOT_REACHED)
    except MemoryBudgetExceeded as exc:
        return _error(exc, EXIT_FAIL)
    except (ValueError, OSError) as exc:
        return _error(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
