"""Benchmark driver: set-up, timed closed-loop body, traced pass, report.

``run.py`` pins the BLAS thread count and then calls :func:`main`.  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run manifest and the detailed report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import PACKAGE, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_FIRST = 2  # set-ups before the body; the untraced body adds one per round


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, e.g. the package sources are absent."""


def fresh_import() -> SimpleNamespace:
    """Import the package from the checkout's ``src``, dropping any earlier import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no {PACKAGE} sources under {SRC}")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=pkg,
        runner=importlib.import_module(f"{PACKAGE}.runner"),
        serialization=importlib.import_module(f"{PACKAGE}.serialization"),
        battery=importlib.import_module(f"{PACKAGE}.battery"),
    )


class Body:
    """Set-ups and rounds of one workload, with their timings and job outcomes.

    Set-up is timed from a fresh import each time and repeated through the
    untraced body, one before every round, so its median spans the same
    stretch of time as the body's.
    """

    def __init__(self, workload):
        self.workload = workload
        self.qb: SimpleNamespace | None = None
        self.setup_samples: list[float] = []
        self.round_rates: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self) -> None:
        """Import, build the inputs' objects and warm up."""
        start = time.perf_counter()
        qb = fresh_import()
        self.workload.setup(qb)
        self.setup_samples.append(time.perf_counter() - start)
        self.qb = qb

    def run_round(self, i: int) -> float:
        start = time.perf_counter()
        items, jobs = self.workload.round(self.qb, i)
        for name, job in jobs:
            self.attempted += 1
            try:
                failures = job()
            except Exception as exc:  # a failing job counts against error_rate; the run goes on
                failures = [f"{type(exc).__name__}: {exc}"]
            if failures:
                self.failed += 1
                self.failures.extend(f"round {i} {name}: {f}" for f in failures[:3])
        wall = time.perf_counter() - start
        self.round_rates.append(items / wall)
        self.items += items
        return wall

    def for_seconds(self, seconds: float) -> float:
        """Set-up plus round, repeated until ``seconds`` have passed; returns the rounds' wall."""
        start = time.perf_counter()
        wall = 0.0
        i = 0
        while True:
            self.setup()
            wall += self.run_round(i)
            i += 1
            if time.perf_counter() - start >= seconds:
                return wall

    def traced_rounds(self, rounds: int, tracer: Tracer) -> tuple[float, float]:
        """Each round untraced, then again traced; returns (untraced, traced) wall."""
        untraced = traced = 0.0
        for i in range(rounds):
            untraced += self.run_round(i)
            tracer.install()
            try:
                traced += self.run_round(i)
            finally:
                tracer.uninstall()
        return untraced, traced


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else 'unknown'."""
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
    return "unknown"


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def manifest(args, workload, qb) -> dict:
    return {
        "git_commit": git_commit(),
        "qbattery_version": getattr(qb.package, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sizes": workload.sizes(),
        "loop": "closed, one client, one process",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="qbattery benchmark: one workload, one process")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured body length (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    body = Body(workload)
    try:
        for _ in range(SETUP_FIRST):
            body.setup()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report: dict = {}
    if args.trace:
        # Fixed round counts, so calls and computed counts repeat exactly;
        # untraced and traced passes alternate so both see the same machine.
        tracer = Tracer()
        untraced, traced = body.traced_rounds(workload.trace_rounds, tracer)
        metrics = tracer.layer_metrics(traced)
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = traced - untraced
        report["missing_hooks"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload.name}-{args.seed}.json"
        with open(span_file, "w") as fh:
            json.dump({"manifest": manifest(args, workload, body.qb), **tracer.span_records()}, fh)
        report["span_file"] = str(span_file.relative_to(ROOT))
    else:
        wall = body.for_seconds(args.seconds)
        metrics = {
            "items_per_s": statistics.median(body.round_rates),
            "setup_s": statistics.median(body.setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "pass_rate": 1.0 - body.failed / body.attempted,
        }
        report.update(
            body_wall_s=wall,
            items_per_s_overall=body.items / wall,
            round_rates=body.round_rates,
        )
    report.update(
        rounds=len(body.round_rates),
        items=body.items,
        attempted=body.attempted,
        failed=body.failed,
        error_rate=body.failed / body.attempted,
        failures=body.failures[:20],
        setup_s_samples=body.setup_samples,
    )
    print(json.dumps({"manifest": manifest(args, workload, body.qb), "report": report}))
    result = {
        "correct": body.failed == 0,
        "attempted": body.attempted,
        "failed": body.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


UNITS = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "share": "ratio",
    "count": "count",
    "values": "count",
    "bytes_computed": "B",
    "gflop_computed": "GFLOP",
    "us_per_unitary": "us",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "overhead_s": "s",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or STAT_UNITS[name.rsplit(".", 1)[1]]
