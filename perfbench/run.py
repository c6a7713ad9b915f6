"""Benchmark for dynnet.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload sample --seed 1 --seconds 10 --trace 0

or all four, each untraced and then traced, with a summary::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in a fresh interpreter, one operation at a time, on one
thread (``threads=1`` for the exact search). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: import of ``dynnet`` plus one warm-up operation, the median
  of this process and ``SETUP_SAMPLES - 1`` fresh interpreters;
- ``wall_s``: median wall time of the workload's job, which is repeated
  with fresh seeded inputs until ``--seconds`` have passed (always at least
  once; an exact search is one job and cannot be cut short);
- ``ops_per_s``: operations per second over all jobs;
- ``op_p50_ms``, ``op_p99_ms``: per-operation latency over all jobs; the
  report line also names the highest percentile with ten samples beyond it;
- ``peak_rss_mib``: peak resident memory of the workload process.

Every time is corrected for the load of other tenants of the host, see
``clock.py``. The share of failed operations is ``failed / attempted``.

With ``--trace 1`` the run executes the first job once with every layer
boundary wrapped (see ``layers.py``) and reports per-layer metrics. Counts
repeat exactly for a fixed seed. The spans are written to
``.perfbench/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sample", "search-tree", "search-cover", "certify")
DEFAULT_SEED = 1
# Not used while the benchmark was written: validate claims on it too.
HELDOUT_SEED = 20221118
SETUP_SAMPLES = 9


class SourceMissing(RuntimeError):
    pass


def add_source_path() -> None:
    """Make ``dynnet`` importable from this checkout's ``src`` only."""
    if not (SRC / "dynnet" / "__init__.py").is_file():
        raise SourceMissing(f"no dynnet source under {SRC}")
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(name: str):
    """Import the library and run one warm-up operation; returns the
    elapsed corrected seconds and the workload."""
    from clock import LoadClock

    with LoadClock() as clk:
        t0 = time.perf_counter()
        add_source_path()
        import dynnet
        import workloads

        if not Path(dynnet.__file__).resolve().is_relative_to(SRC):
            raise SourceMissing(f"dynnet was imported from {dynnet.__file__}, not from {SRC}")
        wl = workloads.WORKLOADS[name]
        wl.warmup()()
        t1 = time.perf_counter()
    return clk.timeline().span(t0, t1), wl


def attempt(op) -> bool:
    """Run one operation; False if its output failed a check or it raised."""
    from workloads import CheckFailed

    try:
        op()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    except Exception:
        traceback.print_exc()
        return False
    return True


def setup_probe(name: str) -> float:
    """Set-up time of ``name`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def latency_summary(lat_ms: list[float]) -> tuple[float, float, str]:
    """Median, 99th percentile and a note naming the sample count and the
    highest percentile that has at least ten samples beyond it."""
    n = len(lat_ms)
    if n == 1:
        return lat_ms[0], lat_ms[0], "1 op: p50 only"
    cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
    note = f"{n} ops, {n * 0.01:.1f} beyond p99"
    supported = int(100 * (1 - 10 / n))
    if 0 < supported < 99:
        note += f"; p{supported}={cuts[supported - 1]:.3f} ms has 10 beyond it"
    return statistics.median(lat_ms), cuts[98], note


def run_record(args: argparse.Namespace) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dynnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git`` directory, read directly so
    nothing outside the checkout is searched; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl, seed: int, seconds: float) -> tuple[dict, int, int, str]:
    """Repeat the job with fresh inputs until ``seconds`` have passed."""
    from clock import LoadClock

    jobs: list[tuple[float, float]] = []
    ops: list[tuple[float, float]] = []
    failed = 0
    start = time.perf_counter()
    with LoadClock() as clk:
        while not jobs or time.perf_counter() - start < seconds:
            job = wl.job(seed, len(jobs))
            t_job = time.perf_counter()
            for op in job:
                t0 = time.perf_counter()
                failed += not attempt(op)
                ops.append((t0, time.perf_counter()))
            jobs.append((t_job, time.perf_counter()))
    tl = clk.timeline()
    job_s = [tl.span(*ab) for ab in jobs]
    lat_ms = [tl.span(*ab) * 1e3 for ab in ops]
    p50, p99, note = latency_summary(lat_ms)
    metrics = {
        "wall_s": statistics.median(job_s),
        "ops_per_s": len(lat_ms) / sum(job_s),
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not clk.corrected:
        note += "; times NOT corrected for host load: work ran on more than one CPU"
    return metrics, len(ops), failed, f"{len(jobs)} jobs, {note}"


def traced(wl, seed: int):
    """Run the first job once under the tracer; returns the tracer (its
    times corrected), the job's wall time and the operations attempted
    and failed."""
    import layers
    from clock import LoadClock
    from tracing import Tracer

    failed = 0
    with Tracer() as tracer, LoadClock() as clk:
        layers.instrument(tracer)
        ops = wl.job(seed, 0)
        t_job = time.perf_counter()
        for op in ops:
            failed += not attempt(op)
        t_end = time.perf_counter()
    tl = clk.timeline()
    tracer.retime(tl)
    return tracer, tl.span(t_job, t_end), len(ops), failed


def run_one(args: argparse.Namespace) -> int:
    setup_s, wl = setup(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    record = run_record(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        import layers

        tracer, wall, attempted, failed = traced(wl, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
        tracer.write(str(spans_path))
        metrics = layers.layer_metrics(tracer, wall)
        note = f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}"
    else:
        samples = [setup_s] + [setup_probe(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        metrics, attempted, failed, note = measure(wl, args.seed, args.seconds)
        metrics = {"setup_s": statistics.median(samples), **metrics}
    print("run-record " + json.dumps(record, sort_keys=True))
    print(f"{args.workload}: {note}; attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g}")
    for name, value in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<44} {shown} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, untraced then traced."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
        plain, with_trace = results
        overhead = with_trace["metrics"]["trace.wall_s"]["value"] / plain["metrics"]["wall_s"]["value"] - 1
        summary.append(f"{name}: failed_frac={plain['failed'] / plain['attempted']:.4g} "
                       f"tracing overhead {overhead:+.1%} of wall_s")
    print("\n".join(summary))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}); check claimed gains on {HELDOUT_SEED} too")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One thread, as the load model says. dynnet does no BLAS work, so
    # numpy's BLAS pool would only spin at import, and CPU time beyond wall
    # time makes the load clock fall back to raw time for set-up.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
