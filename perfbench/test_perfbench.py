"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.add_source_path()

import layers  # noqa: E402
import workloads  # noqa: E402
from dynnet import dissemination, search  # noqa: E402
from dynnet.families import Model, ModelSpec  # noqa: E402
from clock import PROBE_NOMINAL_S, LoadClock, Timeline  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]

# the benchmark's workloads, shrunk so each traced job takes well under a second
SMALL = {
    "sample": workloads.SampleWorkload(sizes=(3, 5, 8, 13)),
    "search-tree": workloads.SearchWorkload(Model.TREES, 4, 1, expected=4, warmup_n=3, warmup_expected=2),
    "search-cover": workloads.SearchWorkload(Model.K_FORESTS, 4, 2, expected=2, warmup_n=3, warmup_expected=1),
    "certify": workloads.CertifyWorkload(schedule_sizes=(16,), forest_sizes=((8, 2),)),
}


def _traced_metrics(wl, seed):
    tracer, wall, attempted, failed = run.traced(wl, seed)
    assert attempted > 0 and failed == 0
    return layers.layer_metrics(tracer, wall)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name):
    first = _traced_metrics(SMALL[name], seed=5)
    second = _traced_metrics(SMALL[name], seed=5)
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    assert first["trace.spans"] > 0


def test_layers_seen_where_expected():
    tree = _traced_metrics(SMALL["search-tree"], seed=0)
    assert tree["search.states"] == 2044 and tree["dissemination.cover_achieved.calls"] == 0
    cover = _traced_metrics(SMALL["search-cover"], seed=0)
    assert cover["dissemination.cover_achieved.calls"] >= cover["search.states"] > 0
    assert 0 < cover["dissemination.cover_achieved.found_ratio"] < 1
    sample = _traced_metrics(SMALL["sample"], seed=0)
    assert sample["families.random_graph.calls"] > 0 and sample["search.states"] == 0
    certify = _traced_metrics(SMALL["certify"], seed=0)
    assert certify["graphs.trace.rounds"] > 0 and certify["seqfile.bytes"] > 0
    assert certify["analysis.checks"] > 0


def test_seed_changes_sample_inputs():
    a = _traced_metrics(SMALL["sample"], seed=1)
    b = _traced_metrics(SMALL["sample"], seed=2)
    assert a["dissemination.run.rounds"] != b["dissemination.run.rounds"]


def test_wrong_outputs_count_as_failed():
    wrong_value = workloads.search_op(ModelSpec(Model.TREES, 4), workloads.objective_for(Model.TREES, 1), 3)
    assert not run.attempt(wrong_value)
    spec = ModelSpec(Model.TREES, 8)
    too_short = workloads.sample_op(spec, horizon=1, base_seed=0)
    assert not run.attempt(too_short)
    assert run.attempt(workloads.sample_op(spec, horizon=20, base_seed=0))


def test_tracer_restores_wrapped_attributes():
    originals = (search.cover_achieved, dissemination.run, dissemination.RoundSequence.__init__)
    with Tracer() as tracer:
        layers.instrument(tracer)
        assert search.cover_achieved is not originals[0]
    assert (search.cover_achieved, dissemination.run, dissemination.RoundSequence.__init__) == originals


def test_self_time_excludes_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    with Tracer() as tracer:
        tracer.wrap(ns, "inner", "inner")
        tracer.wrap(ns, "outer", "outer")
        ns.outer()
    stats = tracer.layer_stats()
    assert stats["inner"].calls == 3 and stats["outer"].calls == 1
    assert stats["outer"].self_ns == stats["outer"].total_ns - stats["inner"].total_ns
    assert stats["inner"].self_ns == stats["inner"].total_ns


def test_timeline_removes_probes_and_rescales_by_their_speed():
    p = PROBE_NOMINAL_S
    # probes at nominal speed, then twice as slow from the third one on
    starts = [0.0, 1.0, 2.0, 3.0]
    durs = [p, p, 2 * p, 2 * p]
    tl = Timeline(starts, [s + d for s, d in zip(starts, durs)])
    assert tl.span(starts[0], starts[1]) == pytest.approx(1.0 - p)
    assert tl.span(starts[2] + 2 * p, starts[3]) == pytest.approx((1.0 - 2 * p) / 2)
    assert tl.span(starts[1] + p, starts[2]) == pytest.approx((1.0 - p) / 1.5)
    assert tl.span(starts[3], starts[3] + 2 * p) == 0.0
    raw = Timeline(starts, [s + d for s, d in zip(starts, durs)], corrected=False)
    assert raw.span(starts[2], starts[3]) == pytest.approx(1.0 - 2 * p)


def test_load_clock_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with LoadClock() as clk:
        sum(range(200000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clk.starts) >= 2 and clk.timeline().span(clk.starts[0], clk.ends[-1]) > 0
    assert clk.corrected


def test_benchmark_json_names_every_workload_and_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    produced = _traced_metrics(SMALL["sample"], seed=0)
    assert list(produced) == [m["name"] for m in BENCHMARK["per_layer"]]


def _run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_metric(trace, section):
    proc = _run_cli("--workload", "sample", "--seed", "3", "--seconds", "0.1", "--trace", trace, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[0].removeprefix("run-record "))
    assert record["seed"] == 3 and {"python", "numpy", "nproc", "git_commit"} <= set(record)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
