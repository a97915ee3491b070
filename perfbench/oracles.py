"""Correctness oracles: each returns a list of failures, empty when correct."""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

#: What the adaptive pipeline must find, per bound, on the 36-model space,
#: when it stops after ``limit`` checked tests (None: the whole bound).
#: ``large`` is the paper's completeness claim: the naive tests induce the
#: template suite's partition, and the first 4,000 checked ones (about
#: 25,000 raw tests of 439,414) already do.  ``small`` is too small to
#: (24 classes).
VERIFY_EXPECTED = {
    "large": {"limit": 4000, "classes": 30, "edges": 64, "matches_template": True},
    "small": {"limit": None, "classes": 24, "edges": 52, "matches_template": False},
}

#: (backend, space) -> (classes, Hasse edges) of one exploration.
EXPLORE_EXPECTED = {
    ("explicit", "deps"): (82, 223),
    ("explicit", "no_deps"): (30, 64),
    ("sat", "deps"): (82, 223),
}


def _partition(classes, edges) -> Tuple[frozenset, frozenset]:
    return (
        frozenset(frozenset(cls) for cls in classes),
        frozenset(tuple(edge) for edge in edges),
    )


def refold_shards(run_dir: str, model_names: Sequence[str]):
    """Fold every verdict row the run wrote to its shard files.

    Returns ``(accumulator, counts)`` with counts of rows, profile-skip and
    frontier-skip records.
    """
    from repro.pipeline.report import PartitionAccumulator

    accumulator = PartitionAccumulator(model_names)
    counts = {"rows": 0, "skip": 0, "frontier": 0}
    shard_dir = os.path.join(run_dir, "shards")
    for name in sorted(os.listdir(shard_dir)):
        with open(os.path.join(shard_dir, name)) as handle:
            for text in handle:
                record = json.loads(text)
                if "verdicts" in record:
                    mask = 0
                    for index, bit in enumerate(record["verdicts"]):
                        if bit == "1":
                            mask |= 1 << index
                    accumulator.fold_row(mask)
                    counts["rows"] += 1
                elif "skip" in record:
                    counts["skip"] += 1
                elif "frontier" in record:
                    counts["frontier"] += 1
    return accumulator, counts


def check_verify(report: Dict[str, object], run_dir: str, bound: str) -> List[str]:
    """The exhaustive pipeline's result, and the verdict rows it wrote."""
    from repro.generation.enumeration import count_naive_tests
    from repro.pipeline.run import BOUNDS

    expected = VERIFY_EXPECTED[bound]
    failures = []
    if not report["complete"]:
        failures.append("run incomplete (quarantined shards)")
    if report["matches_template"] != expected["matches_template"]:
        failures.append(f"matches_template is {report['matches_template']}")
    if len(report["classes"]) != expected["classes"]:
        failures.append(f"{len(report['classes'])} classes, expected {expected['classes']}")
    if len(report["edges"]) != expected["edges"]:
        failures.append(f"{len(report['edges'])} edges, expected {expected['edges']}")
    accounted = report["unique_tests"] + report["profile_skips"] + report["frontier_skips"]
    if accounted != report["raw_tests"]:
        failures.append(f"unique + skips = {accounted} != raw_tests {report['raw_tests']}")
    naive = count_naive_tests(BOUNDS[bound])
    limit = expected["limit"]
    if limit is None and report["raw_tests"] != naive:
        failures.append(f"raw_tests {report['raw_tests']} != count_naive_tests {naive}")
    if limit is not None and report["raw_tests"] > naive:
        failures.append(f"raw_tests {report['raw_tests']} > count_naive_tests {naive}")
    if limit is not None and report["unique_tests"] != limit:
        failures.append(f"{report['unique_tests']} tests checked, the limit is {limit}")

    accumulator, counts = refold_shards(run_dir, report["model_names"])
    refolded = _partition(accumulator.equivalence_classes(), accumulator.hasse_edges())
    if refolded != _partition(report["classes"], report["edges"]):
        failures.append("the shard files' verdict rows induce another partition than reported")
    if expected["matches_template"] and refolded != _partition(
        report["template_classes"], report["template_edges"]
    ):
        failures.append("the shard files' verdict rows do not induce the template partition")
    for key, field in (("rows", "unique_tests"), ("skip", "profile_skips"),
                       ("frontier", "frontier_skips")):
        if counts[key] != report[field]:
            failures.append(f"shard files hold {counts[key]} {key} records, report {field}="
                            f"{report[field]}")
    return failures


def _classes_from_vectors(vectors: Dict[str, str]) -> frozenset:
    groups: Dict[str, List[str]] = {}
    for name, vector in vectors.items():
        groups.setdefault(vector, []).append(name)
    return frozenset(frozenset(names) for names in groups.values())


def check_explore(requests: Sequence[Dict[str, object]]) -> List[str]:
    """One exploration round: class and edge counts, classes that follow
    from the verdicts, and identical results from the explicit and sat
    backends."""
    failures = []
    by_key = {}
    for request in requests:
        key = (request["backend"], request["space"])
        by_key[key] = request
        classes, edges = EXPLORE_EXPECTED[key]
        if (len(request["classes"]), len(request["edges"])) != (classes, edges):
            failures.append(
                f"{key}: {len(request['classes'])} classes / {len(request['edges'])} edges, "
                f"expected {classes} / {edges}"
            )
        if _classes_from_vectors(request["vectors"]) != _partition(request["classes"], [])[0]:
            failures.append(f"{key}: classes do not follow from the verdicts")
    explicit, sat = by_key[("explicit", "deps")], by_key[("sat", "deps")]
    if explicit["vectors"] != sat["vectors"]:
        failures.append("explicit and sat verdicts differ on the 90-model space")
    if _partition(explicit["classes"], explicit["edges"]) != _partition(
        sat["classes"], sat["edges"]
    ):
        failures.append("explicit and sat partitions differ on the 90-model space")
    return failures


def check_serve(mismatches: Sequence[str]) -> List[str]:
    """Server responses against the single-threaded reference session."""
    return [f"serve response mismatch: {message}" for message in mismatches[:20]] + (
        [f"... and {len(mismatches) - 20} more"] if len(mismatches) > 20 else []
    )
