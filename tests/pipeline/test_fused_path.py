"""The adaptive pipeline's fused checked-test path and its shared pair table.

The fused path indexes an enumerated test straight from its item tuples
(:meth:`IndexedExecution.from_items`), reads every model's po-pair mask off
the pair-class table (:meth:`PairTable.mask_groups`) and answers the column
through the shared mask-verdict loop.  Its oracle is
``check_column(test_from_items(...))``: index fields, masks, verdict rows
and the check/search/derive counters must all coincide.
"""

import os
import random

import pytest

from repro.cache.verdict import VerdictCache
from repro.checker.kernel import IndexedExecution
from repro.compile import compile_model
from repro.compile.pair_table import PairTable
from repro.core.model import MemoryModel
from repro.core.parametric import model_space
from repro.core.predicates import NO_DEP_PREDICATES, PredicateSet, unary
from repro.engine.engine import CheckEngine
from repro.generation.enumeration import (
    _abstract_items,
    _canonical_locations,
    _outcome_choices,
    _thread_shapes,
    enumerate_raw_naive_items,
)
from repro.generation.enumeration import test_from_items as _test_from_items
from repro.native.backend import native_available
from repro.pipeline import run as pipeline_run
from repro.pipeline.adaptive import AdaptiveSpace, reduce_core
from repro.pipeline.run import BOUNDS, PipelineConfig, PipelineError, run_pipeline

KERNELS = ["bigint", "python"] + (["native"] if native_available() else [])

SPACES = {
    "no_deps": model_space(include_data_dependencies=False),
    "deps": model_space(include_data_dependencies=True),
}

RAW_SMALL = list(enumerate_raw_naive_items(BOUNDS["small"]))


def _large_sample(count, seed=20111):
    """A seeded sample of ``large``-bound tests, drawn shape by shape."""
    rng = random.Random(seed)
    shapes = _thread_shapes(BOUNDS["large"])
    sample = []
    while len(sample) < count:
        combination = (rng.choice(shapes), rng.choice(shapes))
        if _canonical_locations(combination) is None:
            continue
        outcome = [rng.choice(values) for values in _outcome_choices(combination)]
        sample.append((f"S{len(sample)}", _abstract_items(combination, outcome)))
    return sample


CORPUS = RAW_SMALL + _large_sample(400)

INDEX_FIELDS = (
    "n", "thread_of", "po_before", "same_thread", "_pos_in_thread", "loads",
    "stores", "locations", "stores_at", "location_of", "same_location",
    "rf_candidates", "infeasible", "po_pairs", "all_pairs_mask",
)


def _mask(column):
    return sum(1 << index for index, allowed in enumerate(column) if allowed)


# ----------------------------------------------------------------------
# IndexedExecution.from_items and PairTable.mask_groups vs the IR path
# ----------------------------------------------------------------------
def test_from_items_fields_equal_the_execution_built_index():
    for name, items in CORPUS:
        built = IndexedExecution(_test_from_items(items, name).execution())
        fused = IndexedExecution.from_items(items, name)
        for field in INDEX_FIELDS:
            assert getattr(fused, field) == getattr(built, field), (name, field)
        if not built.infeasible:
            assert fused.coherence_orders_at == built.coherence_orders_at


def test_from_items_builds_events_and_execution_on_demand():
    name, items = RAW_SMALL[-1]
    fused = IndexedExecution.from_items(items, name)
    assert fused._execution is None
    built = IndexedExecution(_test_from_items(items, name).execution())
    assert [event.uid for event in fused.events] == [event.uid for event in built.events]
    assert fused.execution.read_values == built.execution.read_values


@pytest.mark.parametrize("space", sorted(SPACES))
def test_mask_groups_equal_the_compiled_masks(space):
    compiled = [compile_model(model) for model in SPACES[space]]
    table = PairTable.build(compiled)
    assert table is not None
    for name, items in CORPUS:
        indexed = IndexedExecution(_test_from_items(items, name).execution())
        expected = {}
        for index, model in enumerate(compiled):
            mask = model.mask_program(indexed)
            expected[mask] = expected.get(mask, 0) | (1 << index)
        assert table.mask_groups(items) == expected, name


# ----------------------------------------------------------------------
# the fused row vs its check_column oracle, per kernel
# ----------------------------------------------------------------------
_COUNTERS = (
    "checks_performed", "executions_evaluated", "candidate_spaces_built",
    "native_searches", "fallback_searches", "derived_verdicts",
)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("space", sorted(SPACES))
def test_fused_rows_and_counters_equal_check_column(kernel, space):
    models = SPACES[space]
    table = AdaptiveSpace.build(models).table
    fused, oracle = CheckEngine(kernel=kernel), CheckEngine(kernel=kernel)
    for name, items in CORPUS:
        row = fused.check_mask_groups(
            IndexedExecution.from_items(items, name), table.mask_groups(items), derive=True
        )
        column = oracle.check_column(_test_from_items(items, name), models, derive=True)
        assert row == _mask(column), name
    for counter in _COUNTERS:
        assert getattr(fused.stats, counter) == getattr(oracle.stats, counter), counter
    assert fused.stats.derived_verdicts > 0
    assert fused.stats.compile_cache_hits == 0 < oracle.stats.compile_cache_hits


# ----------------------------------------------------------------------
# the pair table's vocabulary: predicate objects, not names
# ----------------------------------------------------------------------
ACCESS_AND_DEP_MODELS = [
    MemoryModel("ACC", "MemAccess(x) & MemAccess(y)"),
    MemoryModel("DEP", "Dep(x, y) | (Write(x) & Write(y)) | Fence(x) | Fence(y)"),
    MemoryModel("SAME", "(MemAccess(x) & SameAddr(x, y)) | (Read(x) & MemAccess(y))"),
    MemoryModel("DATA", "DataDep(x, y) | CtrlDep(x, y) | (Read(x) & Read(y))"),
]


def test_memaccess_and_dep_spaces_are_tabulable_and_match_brute():
    assert AdaptiveSpace.build(ACCESS_AND_DEP_MODELS) is not None
    brute = run_pipeline(
        PipelineConfig(bound="tiny", kernel="bigint"), models=ACCESS_AND_DEP_MODELS
    )
    adaptive = run_pipeline(
        PipelineConfig(bound="tiny", kernel="bigint", adaptive=True, audit_rate=1.0),
        models=ACCESS_AND_DEP_MODELS,
    )
    assert adaptive.equivalence_classes == brute.equivalence_classes
    assert adaptive.hasse_edges == brute.hasse_edges
    assert len(adaptive.equivalence_classes) > 1


def test_a_custom_predicate_sharing_a_builtin_name_is_not_tabulable():
    writes_named_read = unary("Read", lambda execution, event: event.is_write)
    vocabulary = PredicateSet(
        [writes_named_read] + [p for p in NO_DEP_PREDICATES if p.name != "Read"]
    )
    model = MemoryModel("ODD", "Read(x) & Read(y)", predicates=vocabulary)
    assert AdaptiveSpace.build(SPACES["no_deps"][:3] + [model]) is None


# ----------------------------------------------------------------------
# _thread_profile's refinement grouping vs a per-model reference
# ----------------------------------------------------------------------
def _reference_thread_profile(space, thread):
    """The per-model grouping: one forced-edge tuple per model."""
    n = len(thread)
    retained = [i for i in range(n) if thread[i][3]]
    remap = {position: i for i, position in enumerate(retained)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = {
        (i, j): space.table.label(thread[i][0], thread[j][0], thread[i][1], thread[j][1])
        for (i, j) in pairs
    }
    groups = {}
    for m in range(space.num_models):
        key = tuple(1 if labels[pair] >> m & 1 else 0 for pair in pairs)
        groups[key] = groups.get(key, 0) | (1 << m)
    merged = {}
    for key, mask in groups.items():
        edges = {pair for pair, bit in zip(pairs, key) if bit}
        changed = True
        while changed:
            changed = False
            for (i, j) in pairs:
                if (i, j) not in edges and any(
                    (i, k) in edges and (k, j) in edges for k in range(i + 1, j)
                ):
                    edges.add((i, j))
                    changed = True
        projected = tuple(
            sorted((remap[i], remap[j]) for (i, j) in edges if i in remap and j in remap)
        )
        merged[projected] = merged.get(projected, 0) | mask
    signature = tuple(sorted((mask, proj) for proj, mask in merged.items()))
    return tuple(thread[i][:3] for i in retained), signature


@pytest.mark.parametrize("space", sorted(SPACES))
def test_thread_profiles_match_the_per_model_reference(space):
    adaptive = AdaptiveSpace.build(SPACES[space])
    threads = {
        tuple(thread) for _name, items in RAW_SMALL for thread in reduce_core(items)
    }
    assert len(threads) > 50
    for thread in threads:
        assert adaptive._thread_profile(thread) == _reference_thread_profile(adaptive, thread)


# ----------------------------------------------------------------------
# the pipeline: parallel workers, audits
# ----------------------------------------------------------------------
_REPORT_FIELDS = (
    "equivalence_classes", "hasse_edges", "matches_template", "raw_tests",
    "unique_tests", "checks_performed", "profile_skips", "frontier_skips", "complete",
)


def test_parallel_adaptive_report_equals_serial(tmp_path, monkeypatch):
    # Honor --jobs 2 even on a single-CPU host, so the workers really run.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = {}
    for jobs in (1, 2):
        reports[jobs] = run_pipeline(
            PipelineConfig(
                bound="small", kernel="bigint", adaptive=True, jobs=jobs,
                run_dir=str(tmp_path / f"jobs{jobs}"),
            )
        )
    for field in _REPORT_FIELDS:
        assert getattr(reports[2], field) == getattr(reports[1], field), field
    for counter in _COUNTERS:
        assert getattr(reports[2].stats, counter) == getattr(reports[1].stats, counter)
    # both took the fused path: no model was resolved per column
    assert reports[1].stats.compile_cache_hits == reports[2].stats.compile_cache_hits == 0
    shards = sorted(os.listdir(tmp_path / "jobs1" / "shards"))
    assert shards == sorted(os.listdir(tmp_path / "jobs2" / "shards"))
    for shard in shards:
        assert (tmp_path / "jobs1" / "shards" / shard).read_text() == (
            tmp_path / "jobs2" / "shards" / shard
        ).read_text()


def test_full_audit_catches_a_wrong_pair_table_entry(monkeypatch):
    build = PairTable.build.__func__

    def corrupted(cls, compiled_models):
        table = build(cls, compiled_models)
        if table is not None:
            table.labels[("W", "R", False)] ^= 1  # flip model 0's W->R edge
        return table

    monkeypatch.setattr(PairTable, "build", classmethod(corrupted))
    with pytest.raises(PipelineError, match="audit failed: the folded row"):
        run_pipeline(
            PipelineConfig(bound="small", kernel="bigint", adaptive=True, audit_rate=1.0)
        )


def test_row_audits_stay_out_of_the_report_counters():
    plain = run_pipeline(PipelineConfig(bound="small", kernel="bigint", adaptive=True))
    audited = run_pipeline(
        PipelineConfig(bound="small", kernel="bigint", adaptive=True, audit_rate=1.0)
    )
    assert audited.audits_performed == audited.profile_skips + audited.frontier_skips
    # only the skip audits add checks: 36 per re-checked skipped test
    assert audited.checks_performed == plain.checks_performed + 36 * audited.audits_performed


def test_an_engine_with_a_verdict_cache_takes_the_fused_path():
    config = PipelineConfig(bound="small", kernel="bigint", adaptive=True)
    plain = run_pipeline(config)
    cached = run_pipeline(
        config,
        engine=CheckEngine(backend="explicit", kernel="bigint", verdict_cache=VerdictCache()),
    )
    for field in _REPORT_FIELDS:
        assert getattr(cached, field) == getattr(plain, field), field
    assert cached.stats.compile_cache_hits == 0
    assert cached.stats.verdict_cache_hits == cached.stats.verdict_cache_misses == 0


@pytest.mark.parametrize("backend", ["explicit", "sat"])
def test_folded_rows_are_audited_only_on_the_fused_path(monkeypatch, backend):
    calls = []
    column_mask = pipeline_run._column_mask

    def counting(engine, test, models, derive=False):
        calls.append(test.name)
        return column_mask(engine, test, models, derive)

    monkeypatch.setattr(pipeline_run, "_column_mask", counting)
    report = run_pipeline(
        PipelineConfig(bound="tiny", backend=backend, adaptive=True, audit_rate=1.0)
    )
    # Every checked test goes through check_column once: as the oracle
    # re-check of its fused row (explicit) or as its shard check (sat, where
    # a re-check would compare check_column with itself).  Every skipped
    # test goes through once more as a skip audit.
    assert len(calls) == len(set(calls)) == report.unique_tests + report.audits_performed
