"""The repository benchmark: exhaustive verification, cold exploration, serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # one row per workload

Workloads (see ``perfbench/README.md`` for why each one is there):

* ``verify-large`` - the adaptive exhaustive pipeline at the ``large``
  bound on the 36-model space, with a run directory, stopped after its
  first 4,000 checked tests and repeated;
* ``explore-cold`` - rounds of Figure 4 plus the 90-model table, each round
  a fresh process and fresh sessions (explicit deps, explicit no_deps, sat
  deps);
* ``serve-mix`` - a ``repro serve --port`` subprocess under a seeded
  request mix from two connections.

``wall_s`` is the median over the repetitions of each workload's unit of
work: a pipeline unit; each exploration request, summed over the round;
1,000 consecutive closed-loop serve requests.  The benchmark and the
program run on one CPU (``common.one_cpu``), and ``setup_s`` and
``wall_s`` are scaled to the nominal speed of a yardstick, a fixed
pure-Python loop sampled on that CPU throughout the run
(``common.at_nominal_speed``), because the shared host's speed drifts by
up to half for minutes at a time.  The measured times are in the run
record too.

Every run checks its outputs (a failed check exits 1) and prints, as its
last stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it is the run record (kernel,
Python, nproc, seed, commit); ``--record FILE`` also saves it for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
import oracles
import tracing

WORKLOADS = ("verify-large", "explore-cold", "serve-mix")
#: set-up samples per run for the subprocess workloads
PROBES = 5

#: the gated end-to-end metrics (BENCHMARK.json ``end_to_end``)
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s"}
#: printed and recorded for serve-mix, not gated
SERVE_UNITS = {"serve_p50_ms": "ms", "serve_p99_ms": "ms", "serve_capacity_rps": "1/s"}


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------
class Worker:
    """A ``worker.py`` process, timed from start to its ``ready`` line
    (``setup_s``); ``yardstick`` is the sample it takes right after."""

    def __init__(self, task: str, *args: str) -> None:
        argv = [sys.executable, os.path.join(common.HERE, "worker.py"), task, *args]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.finish()
            raise common.BenchError(f"worker {task} did not start: {line!r}")
        self.yardstick = float(self.process.stdout.readline().split()[1])

    def finish(self, timeout: float = 170.0) -> float:
        """Wait for the exit; returns the peak RSS in MB."""
        rest = self.process.stdout.read()
        self.process.stdout.close()
        rusage = common.reap(self.process, timeout)
        if self.process.returncode != 0:
            raise common.BenchError(f"worker exited with {self.process.returncode}: {rest}")
        return rusage.ru_maxrss / 1024.0


def _probe_setups(count: int, setups: List[float], yardsticks: List[float]) -> None:
    for _ in range(count):
        worker = Worker("probe")
        worker.finish()
        setups.append(worker.setup_s)
        yardsticks.append(worker.yardstick)


def _run_worker(task: str, tmp: str, label: str, trace: bool, *args: str):
    """A worker process: (result, the Worker, rss_mb, spans path)."""
    out = os.path.join(tmp, f"{label}.json")
    spans = os.path.join(tmp, f"{label}.spans") if trace else None
    extra = list(args) + (["--trace", spans] if spans else [])
    worker = Worker(task, "--out", out, *extra)
    rss = worker.finish()
    with open(out) as handle:
        result = json.load(handle)
    return result, worker, rss, spans


# ----------------------------------------------------------------------
# workloads: each returns a Measurement
# ----------------------------------------------------------------------
class Measurement:
    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, object] = {}  # failed_share and other table-only values
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.kernel = ""
        self.spans: List[str] = []
        self.engine: Dict[str, int] = {}
        self.report: Dict[str, object] = {}
        self.run_dir_bytes = 0


def verify_large(tmp: str, seed: int, seconds: float, trace: bool, bound: str) -> Measurement:
    """Adaptive pipeline units over a prefix of the bound, in one process.

    Each unit stops after the bound's checked-test limit
    (:data:`oracles.VERIFY_EXPECTED`); ``wall_s`` is the median unit.
    """
    m = Measurement()
    setups: List[float] = []
    yardsticks: List[float] = []
    if not trace:
        _probe_setups(PROBES, setups, yardsticks)
    limit = oracles.VERIFY_EXPECTED[bound]["limit"]
    args = ["--run-dir", os.path.join(tmp, "verify"), "--bound", bound,
            "--seconds", str(seconds)] + (["--limit", str(limit)] if limit else [])
    result, worker, rss, spans = _run_worker("verify", tmp, "verify", trace, *args)
    setups.append(worker.setup_s)
    yardsticks.append(worker.yardstick)
    units = result["units"]
    for unit in units:
        m.failures += oracles.check_verify(unit["report"], unit["run_dir"], bound)
        yardsticks += unit["yardsticks"]
    # traced: the last unit is the traced one, the first its warm-up
    timed = units[-1:] if trace else units
    walls = [unit["wall_s"] for unit in timed]
    report = timed[-1]["report"]
    m.kernel = result["kernel"]
    m.report = report
    m.engine = report["stats"]
    m.run_dir_bytes = common.dir_bytes(timed[-1]["run_dir"])
    m.spans = [spans] if spans else []
    m.attempted = len(units)
    m.metrics = {
        "setup_s": common.at_nominal_speed(common.median(setups), yardsticks),
        "peak_rss_mb": rss,
        "wall_s": common.at_nominal_speed(common.median(walls), yardsticks),
    }
    m.extra = {"units": len(walls), "raw_tests": report["raw_tests"],
               "measured_setup_s": common.median(setups),
               "measured_wall_s": common.median(walls),
               "yardstick_s": common.median(yardsticks),
               "yardstick_mean_s": sum(yardsticks) / len(yardsticks)}
    return m


def explore_cold(tmp: str, seed: int, seconds: float, trace: bool, bound: str) -> Measurement:
    """Cold exploration rounds, each in a fresh process, until ``seconds``.

    ``wall_s`` is the median time of each of the round's requests, summed
    over the round's requests.
    """
    m = Measurement()
    setups: List[float] = []
    yardsticks: List[float] = []
    if not trace:
        _probe_setups(PROBES, setups, yardsticks)
    rounds, rss = [], []
    by_request: Dict[Tuple[str, str], List[float]] = {}
    engine: Dict[str, int] = {}
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        result, worker, peak, spans = _run_worker("explore", tmp, f"explore-{index}", trace)
        setups.append(worker.setup_s)
        yardsticks.append(worker.yardstick)
        rounds.append(result["wall_s"])
        rss.append(peak)
        for request in result["requests"]:
            key = (request["backend"], request["space"])
            by_request.setdefault(key, []).append(request["wall_s"])
            yardsticks += request["yardsticks"]
            for name, value in request["stats"].items():
                if isinstance(value, int):
                    engine[name] = engine.get(name, 0) + value
        m.failures += oracles.check_explore(result["requests"])
        m.kernel = result["kernel"]
        if spans:
            m.spans.append(spans)
        m.attempted += len(result["requests"])
        index += 1
    m.engine = engine
    wall = sum(common.median(walls) for walls in by_request.values())
    m.metrics = {
        "setup_s": common.at_nominal_speed(common.median(setups), yardsticks),
        "peak_rss_mb": max(rss),
        "wall_s": common.at_nominal_speed(wall, yardsticks),
    }
    m.extra = {"rounds": len(rounds), "measured_setup_s": common.median(setups),
               "measured_wall_s": wall, "measured_round_s": common.median(rounds),
               "yardstick_s": common.median(yardsticks),
               "yardstick_mean_s": sum(yardsticks) / len(yardsticks)}
    return m


def serve_mix(tmp: str, seed: int, seconds: float, trace: bool, bound: str) -> Measurement:
    import serve_mix as workload

    m = Measurement()
    result = workload.run(common.ROOT, tmp, seed, seconds, trace, bound)
    m.attempted = result["attempted"]
    m.failed = result["failed"]
    m.failures = oracles.check_serve(result["mismatches"])
    m.kernel = result["kernel"]
    m.engine = result["engine"]
    m.spans = result["trace_paths"]
    latencies = result["latencies_ms"]
    yardsticks = result["yardsticks"]
    m.metrics = {
        "setup_s": common.at_nominal_speed(common.median(result["setup_samples"]), yardsticks),
        "peak_rss_mb": common.median(result["rss_samples"]),
        "wall_s": common.at_nominal_speed(common.median(result["stretch_s"]), yardsticks),
    }
    m.extra = {
        "serve_p50_ms": common.percentile(latencies, 50),
        "serve_p99_ms": common.median(result["slice_p99_ms"]),
        "serve_capacity_rps": common.median(result["closed_rates"]),
        "failed_share": result["failed"] / result["attempted"],
        "failed_by_kind": result["failed_kinds"],
        "pooled_p99_ms": common.percentile(latencies, 99),
        "max_ms": max(value for value in latencies if math.isfinite(value)),
        "warmup_s": common.median(result["warm_samples"]),
        "server_cpu_s": common.median(result["cpu_samples"]),
        "measured_setup_s": common.median(result["setup_samples"]),
        "measured_wall_s": common.median(result["stretch_s"]),
        "yardstick_s": common.median(yardsticks),
        "yardstick_mean_s": sum(yardsticks) / len(yardsticks),
        "generator_late_ms": common.percentile(result["late_ms"], 99),
        "queue_depths": result["queue_depths"],
        "checks_sent": result["checks_sent"],
    }
    return m


RUNNERS = {"verify-large": verify_large, "explore-cold": explore_cold, "serve-mix": serve_mix}


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
#: EngineStats counters reported beside the layer times
ENGINE_COUNTS = (
    "checks_performed", "derived_verdicts", "native_searches", "fallback_searches",
    "verdict_cache_hits", "verdict_cache_misses",
)


def per_layer_names() -> List[str]:
    names = []
    for layer in tracing.layer_names():
        names += [f"{layer}.s", f"{layer}.calls"]
    names += [
        "pipeline.adaptive.skip_ratio", "pipeline.adaptive.checked_share",
        "pipeline.run.run_dir_bytes", "cache.hit_ratio", "serve.queue_depth",
        "serve.generator_late_ms", "serve.fast_path_share",
    ]
    names += [f"engine.{count}" for count in ENGINE_COUNTS]
    names += ["trace.unattributed_s", "trace.overhead_s", "trace.spans",
              "trace.counter_disagreements"]
    return names


def counter_checks(workload: str, summary: dict, m: Measurement) -> List[Tuple[str, int, int]]:
    """(what, the benchmark's count, the program's count) pairs that should agree."""
    calls = {name: entry["calls"] for name, entry in summary["layers"].items()}
    inside = summary["within"]
    stats = m.engine
    checks = [
        ("compile.compiled calls vs EngineStats.models_compiled",
         calls.get("compile.compiled", 0), stats.get("models_compiled", 0)),
    ]
    if workload == "verify-large":
        report = m.report
        models = len(report["model_names"])
        checks += [
            ("engine.check_column calls x models vs report checks_performed",
             calls.get("engine.check_column", 0) * models, report["checks_performed"]),
            ("native.search calls inside check_column vs native + fallback searches",
             inside.get("native.search", 0),
             stats["native_searches"] + stats["fallback_searches"]),
            ("engine.context calls inside check_column vs executions_evaluated",
             inside.get("engine.context", 0), stats["executions_evaluated"]),
            ("pipeline.report.fold_row calls vs unique_tests",
             calls.get("pipeline.report.fold_row", 0), report["unique_tests"]),
            ("pipeline.adaptive.profile calls vs raw_tests",
             calls.get("pipeline.adaptive.profile", 0), report["raw_tests"]),
            ("EngineStats.compile_cache_hits vs compile lookups (compile.compiled calls)",
             stats["compile_cache_hits"], calls.get("compile.compiled", 0)),
        ]
    else:
        checks += [
            ("native.search calls vs native + fallback searches",
             calls.get("native.search", 0),
             stats.get("native_searches", 0) + stats.get("fallback_searches", 0)),
            ("engine.context calls vs executions_evaluated + context_cache_hits",
             calls.get("engine.context", 0),
             stats.get("executions_evaluated", 0) + stats.get("context_cache_hits", 0)),
            ("sat.solve calls vs solver_calls + synth_solver_calls",
             calls.get("sat.solve", 0),
             stats.get("solver_calls", 0) + stats.get("synth_solver_calls", 0)),
        ]
    return checks


def per_layer(workload: str, m: Measurement, untraced: Measurement) -> Dict[str, float]:
    summary = tracing.summarize(m.spans, within="engine.check_column")
    values: Dict[str, float] = {name: 0.0 for name in per_layer_names()}
    for layer, entry in summary["layers"].items():
        if f"{layer}.s" in values:
            values[f"{layer}.s"] = entry["s"]
            values[f"{layer}.calls"] = entry["calls"]
    if workload == "verify-large":
        report = m.report
        raw = report["raw_tests"]
        values["pipeline.adaptive.skip_ratio"] = (
            report["profile_skips"] + report["frontier_skips"]) / raw
        values["pipeline.adaptive.checked_share"] = report["unique_tests"] / raw
        values["pipeline.run.run_dir_bytes"] = m.run_dir_bytes
    lookups = m.engine.get("verdict_cache_hits", 0) + m.engine.get("verdict_cache_misses", 0)
    if lookups:
        values["cache.hit_ratio"] = m.engine["verdict_cache_hits"] / lookups
    if workload == "serve-mix":
        depths = m.extra["queue_depths"]
        values["serve.queue_depth"] = sum(depths) / len(depths) if depths else 0.0
        values["serve.generator_late_ms"] = m.extra["generator_late_ms"]
        slow_checks = summary["layers"].get("api.session.run.check", {}).get("calls", 0)
        values["serve.fast_path_share"] = 1.0 - slow_checks / m.extra["checks_sent"]
    for count in ENGINE_COUNTS:
        values[f"engine.{count}"] = m.engine.get(count, 0)
    checks = counter_checks(workload, summary, m)
    disagreements = [(what, ours, theirs) for what, ours, theirs in checks if ours != theirs]
    for what, ours, theirs in disagreements:
        print(f"counter disagreement: {what}: benchmark {ours}, program {theirs}")
    values["trace.unattributed_s"] = summary["unattributed_s"]
    values["trace.overhead_s"] = m.metrics["wall_s"] - untraced.metrics["wall_s"]
    values["trace.spans"] = summary["spans"]
    values["trace.counter_disagreements"] = len(disagreements)
    return values


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def run_record(workload: str, seed: int, seconds: float, trace: bool, m: Measurement,
               metrics: Dict[str, float]) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "kernel": m.kernel,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": common.commit(),
        "correct": not m.failures,
        "metrics": metrics,
        "extra": {key: _json_number(value) for key, value in m.extra.items()
                  if isinstance(value, (int, float))},
    }


def _json_number(value: float) -> Optional[float]:
    """``value``, or None where it is not finite (JSON has no infinity): a
    percentile is infinite when more requests failed than it leaves out."""
    return value if math.isfinite(value) else None


def table_row(workload: str, m: Measurement) -> str:
    cells = [f"{workload:13s}"]
    for name in E2E_UNITS:
        cells.append(f"{name}={m.metrics[name]:.4g} {E2E_UNITS[name]}")
    if "serve_p99_ms" in m.extra:
        for name, unit in SERVE_UNITS.items():
            cells.append(f"{name}={m.extra[name]:.4g} {unit}")
        cells.append(f"(pooled p99 {m.extra['pooled_p99_ms']:.4g} ms,"
                     f" max {m.extra['max_ms']:.4g} ms)")
        cells.append(f"failed_share={m.extra['failed_share']:.4%}")
    else:
        cells.append("serve_p50_ms=n/a  serve_p99_ms=n/a  serve_capacity_rps=n/a"
                     "  failed_share=n/a")
    cells.append("oracles=" + ("ok" if not m.failures else "FAILED"))
    return "  ".join(cells)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            bound: str) -> Tuple[Measurement, Dict[str, float], Dict[str, str]]:
    """Run one workload; returns the measurement and its reported metrics."""
    runner = RUNNERS[workload]
    tmp = common.make_tmp()
    try:
        # separate directories: the traced servers must not reload the
        # untraced servers' persistent verdict caches
        plain, traced_tmp = os.path.join(tmp, "plain"), os.path.join(tmp, "traced")
        os.makedirs(plain)
        with common.on_cpus(common.one_cpu()):
            m = runner(plain, seed, seconds, False, bound)
        if not trace:
            return m, dict(m.metrics), dict(E2E_UNITS)
        os.makedirs(traced_tmp)
        with common.on_cpus(common.one_cpu()):
            traced = runner(traced_tmp, seed, seconds, True, bound)
        traced.failures = m.failures + traced.failures
        values = per_layer(workload, traced, m)
        units = {name: _layer_unit(name) for name in values}
        return traced, values, units
    finally:
        common.remove_tmp(tmp)


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), (".s", "s"), ("_s", "s"), ("_bytes", "bytes"),
                         ("ratio", "ratio"), ("share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run record to this file")
    parser.add_argument("--bound", default="large", choices=sorted(oracles.VERIFY_EXPECTED),
                        help="enumeration bound (smaller bounds are for self-tests)")
    args = parser.parse_args(argv)
    try:
        common.require_source()
        if args.workload == "all":
            rows, correct = [], True
            for workload in WORKLOADS:
                m, _metrics, _units = measure(workload, args.seed, args.seconds, False,
                                              args.bound)
                correct = correct and not m.failures
                for failure in m.failures:
                    print(f"{workload}: oracle failed: {failure}", file=sys.stderr)
                rows.append(table_row(workload, m))
            print("\n".join(rows))
            return 0 if correct else 1
        m, metrics, units = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.bound)
    except common.BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    for failure in m.failures:
        print(f"{args.workload}: oracle failed: {failure}", file=sys.stderr)
    if not args.trace:
        print(table_row(args.workload, m))
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace), m, metrics)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1)
    print("record " + json.dumps(record, allow_nan=False))
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": _json_number(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }, allow_nan=False))
    return 0 if not m.failures else 1


if __name__ == "__main__":
    sys.exit(main())
