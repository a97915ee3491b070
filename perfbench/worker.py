"""One benchmark process: set up, say ``ready``, do its work, exit.

Usage (the harness in ``run.py`` starts it; run from the repository root)::

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py verify  --out RESULT.json --run-dir DIR --bound large \
        --limit 4000 --seconds 20
    python3 perfbench/worker.py explore --out RESULT.json
    ... [--trace SPANS.bin]

The process prints ``ready`` on stdout once its imports are done and the
kernel is resolved, then one yardstick sample (``common.yardstick_s``);
the harness times process start to ``ready`` as set-up time and reads the
process's peak memory when it exits.  Each verify unit and explore request
is bracketed by two more yardstick samples, which the harness uses to
scale the run's times to the nominal speed.  ``verify`` runs
the adaptive exhaustive pipeline over the first ``--limit`` checked tests
of the bound, again and again for ``--seconds``, each unit timed on its
own; ``explore`` runs one cold exploration round (a fresh ``Session`` per
request, each request timed).  With ``--trace`` the layer wrappers are
installed around the work (for ``verify``: around one unit, after an
untraced warm-up unit) and the spans are written to the given file
afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402  (perfbench/, the script's own directory)

#: The explore round: (session backend, model space), in order.
EXPLORE_ROUND = (("explicit", "deps"), ("explicit", "no_deps"), ("sat", "deps"))


def _vectors(result) -> dict:
    return {
        name: "".join("1" if allowed else "0" for allowed in vector)
        for name, vector in result.vectors.items()
    }


def _verify_unit(args, run_dir: str, recorder) -> dict:
    """One adaptive pipeline run over the first ``args.limit`` checked tests."""
    from repro.pipeline.run import PipelineConfig, run_pipeline

    config = PipelineConfig(
        bound=args.bound, space="no_deps", adaptive=True, jobs=1, run_dir=run_dir,
        limit=args.limit,
    )
    before = common.yardstick_s()
    started = time.perf_counter()
    if recorder is None:
        report = run_pipeline(config)
    else:
        with recorder.span("bench.verify"):
            report = run_pipeline(config)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "yardsticks": [before, common.yardstick_s()],
        "run_dir": run_dir,
        "report": {
            "complete": report.complete,
            "matches_template": report.matches_template,
            "classes": [list(cls) for cls in report.equivalence_classes],
            "edges": [list(edge) for edge in report.hasse_edges],
            "template_classes": [list(cls) for cls in report.template_classes],
            "template_edges": [list(edge) for edge in report.template_hasse_edges],
            "raw_tests": report.raw_tests,
            "unique_tests": report.unique_tests,
            "profile_skips": report.profile_skips,
            "frontier_skips": report.frontier_skips,
            "checks_performed": report.checks_performed,
            "model_names": list(report.model_names),
            "stats": report.stats.as_dict(),
        },
    }


def verify(args, trace_path) -> dict:
    """Pipeline units, each with its own run directory.

    Untraced, units run back to back until ``args.seconds`` have passed
    (at least two).  Traced, one untraced warm-up unit runs first and then
    a single traced one, so the traced unit is as warm as the untraced
    units it is compared with.
    """
    units = []
    started = time.perf_counter()
    if trace_path is None:
        while len(units) < 2 or time.perf_counter() - started < args.seconds:
            units.append(_verify_unit(args, f"{args.run_dir}-{len(units)}", None))
        return {"units": units}
    import tracing

    units.append(_verify_unit(args, f"{args.run_dir}-0", None))
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        units.append(_verify_unit(args, f"{args.run_dir}-1", recorder))
    finally:
        tracing.uninstall(installed)
    recorder.dump(trace_path)
    return {"units": units}


def explore(args, recorder) -> dict:
    from repro.api.requests import ExploreRequest
    from repro.api.session import Session

    requests = []
    started = time.perf_counter()
    for backend, space in EXPLORE_ROUND:
        session = Session(backend=backend)
        before = common.yardstick_s()
        request_started = time.perf_counter()
        if recorder is None:
            result = session.run(ExploreRequest(space=space))
        else:
            with recorder.span("bench.explore"):
                result = session.run(ExploreRequest(space=space))
        wall = time.perf_counter() - request_started
        requests.append(
            {
                "backend": backend,
                "space": space,
                "wall_s": wall,
                "yardsticks": [before, common.yardstick_s()],
                "classes": [list(cls) for cls in result.equivalence_classes],
                "edges": [[edge.weaker, edge.stronger] for edge in result.hasse_edges],
                "vectors": _vectors(result),
                "stats": session.stats.as_dict(),
            }
        )
    return {"wall_s": time.perf_counter() - started, "requests": requests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("probe", "verify", "explore"))
    parser.add_argument("--out")
    parser.add_argument("--run-dir")
    parser.add_argument("--bound", default="large")
    parser.add_argument("--limit", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    import repro.api.session  # noqa: F401  (the explore and serve imports)
    import repro.pipeline.run  # noqa: F401
    from repro.native.backend import resolve_kernel

    kernel = resolve_kernel("auto").name
    print("ready", flush=True)
    print(f"yardstick {common.yardstick_s()!r}", flush=True)
    if args.task == "probe":
        return 0
    if args.task == "verify":
        result = verify(args, args.trace)
    elif args.trace:
        import tracing

        recorder = tracing.Recorder()
        installed = tracing.install(recorder)
        result = explore(args, recorder)
        tracing.uninstall(installed)
        recorder.dump(args.trace)
    else:
        result = explore(args, None)
    result["kernel"] = kernel
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
