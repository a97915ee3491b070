"""The benchmark's own tests: every workload at a tiny size, and the oracles.

Run from the repository root (the file is not collected by a plain
``pytest`` run, so the tier-1 suite does not pay for it)::

    python3 -m pytest -q perfbench/selftest.py

The workloads run at the ``small`` bound with a one-second window (a few
hundred serve requests); the negative tests show that each oracle rejects
a flipped verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.require_source()

import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--bound", "small"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, lines
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_reports_every_metric(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    assert run.per_layer_names() == [entry["name"] for entry in _spec()["per_layer"]]


# ----------------------------------------------------------------------
# each oracle rejects a flipped verdict
# ----------------------------------------------------------------------
def test_verify_oracle_rejects_a_flipped_verdict(tmp_path):
    run_dir = str(tmp_path / "run")
    args = argparse.Namespace(bound="small", limit=None)
    report = worker._verify_unit(args, run_dir, None)["report"]
    assert oracles.check_verify(report, run_dir, "small") == []

    # Models in one class agree on every row, so flipping one model's bit
    # in one row must split the class.
    cls = next(cls for cls in report["classes"] if len(cls) > 1)
    index = report["model_names"].index(cls[0])
    shard_dir = os.path.join(run_dir, "shards")
    path = os.path.join(shard_dir, sorted(os.listdir(shard_dir))[0])
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    row = next(record for record in records if "verdicts" in record)
    bits = row["verdicts"]
    row["verdicts"] = bits[:index] + ("0" if bits[index] == "1" else "1") + bits[index + 1:]
    with open(path, "w") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)
    failures = oracles.check_verify(report, run_dir, "small")
    assert any("another partition" in failure for failure in failures)


def test_explore_oracle_rejects_a_flipped_verdict():
    requests = worker.explore(argparse.Namespace(), None)["requests"]
    assert oracles.check_explore(requests) == []
    sat = next(r for r in requests if r["backend"] == "sat")
    name = sorted(sat["vectors"])[0]
    vector = sat["vectors"][name]
    sat["vectors"][name] = ("0" if vector[0] == "1" else "1") + vector[1:]
    failures = oracles.check_explore(requests)
    assert "explicit and sat verdicts differ on the 90-model space" in failures


def test_serve_oracle_rejects_a_flipped_verdict():
    import serve_mix
    from repro.api.serialize import to_json
    from repro.api.session import Session

    reference = Session(backend="enumeration")
    line = json.dumps({"op": "check", "test": "L1", "model": "M4044"}, sort_keys=True)
    truth = Session().run(run_request(line))
    response = {"ok": True, "op": "check", "result": to_json(truth), "stats": {}}
    assert serve_mix.check_responses(reference, [(line, json.dumps(response))]) == []
    response["result"]["allowed"] = not response["result"]["allowed"]
    mismatches = serve_mix.check_responses(reference, [(line, json.dumps(response))])
    assert oracles.check_serve(mismatches)


def run_request(line: str):
    from repro.api.requests import request_from_json

    return request_from_json(json.loads(line))


# ----------------------------------------------------------------------
# tracing and records
# ----------------------------------------------------------------------
def test_tracing_self_time_and_restore(tmp_path):
    from repro.engine import engine as engine_module

    original = engine_module.CheckEngine.check
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    assert engine_module.CheckEngine.check is not original
    with recorder.span("outer"):
        with recorder.span("inner"):
            sum(range(10000))
    tracing.uninstall(installed)
    assert engine_module.CheckEngine.check is original
    path = str(tmp_path / "spans.bin")
    recorder.dump(path)
    summary = tracing.summarize([path])
    names, threads = tracing.load(path)
    _name, _parent, start, end = threads[0]
    outer, inner = end[0] - start[0], end[1] - start[1]
    assert summary["layers"]["inner"]["s"] == pytest.approx(inner / 1e9)
    assert summary["layers"]["outer"]["s"] == pytest.approx((outer - inner) / 1e9)
    assert summary["unattributed_s"] == pytest.approx((outer - inner) / 1e9)


def test_times_scale_with_the_yardstick():
    nominal = common.YARDSTICK_S
    # a machine twice as slow doubles both the work and the yardstick
    assert common.at_nominal_speed(2.0, [2 * nominal] * 3) == pytest.approx(1.0)
    # the wildest tenth of the samples at either end is left out
    samples = [nominal] * 18 + [nominal / 50, 50 * nominal]
    assert common.at_nominal_speed(1.0, samples) == pytest.approx(1.0)
    assert common.yardstick_s() > 0


def test_serve_inputs_follow_the_seed():
    import serve_mix
    from repro.api.session import Session

    reference = Session(backend="enumeration")
    first, second, other = (serve_mix.Inputs(seed, "small", 100, reference)
                            for seed in (5, 5, 6))
    lines = [[inputs.request(kind) for kind in inputs.kinds(300)]
             for inputs in (first, second, other)]
    assert lines[0] == lines[1]
    assert lines[0] != lines[2]


def test_mix_balances_server_time_and_keeps_its_order():
    import serve_mix

    counts = serve_mix.mix_counts({"named": 1.0, "hot": 2.0, "miss": 4.0,
                                   "compare": 8.0, "synthesize": 400.0})
    assert counts == {"named": 52, "hot": 27, "miss": 13, "compare": 7, "synthesize": 1}
    # compare is cheaper than hot and miss: the three share equally
    counts = serve_mix.mix_counts({"named": 1.0, "hot": 2.0, "miss": 2.0,
                                   "compare": 1.0, "synthesize": 400.0})
    assert counts["hot"] == counts["miss"] == counts["compare"]
    assert sum(serve_mix.MIX.values()) == 100
    ordered = [serve_mix.MIX[kind] for kind in serve_mix.KINDS]
    assert ordered == sorted(ordered, reverse=True)


def test_compare_refuses_records_of_different_kernels(tmp_path, capsys):
    record = {"workload": "verify-large", "trace": 0, "kernel": "bigint",
              "metrics": {"wall_s": 1.0}}
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(record))
    new.write_text(json.dumps(dict(record, kernel="native")))
    assert compare.main([str(base), str(new)]) == 2
    assert "invalid comparison" in capsys.readouterr().out
