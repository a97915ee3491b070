"""Session tests: declarative dispatch, batching, and cross-call cache reuse."""

import pytest

from repro.api import (
    CheckRequest,
    CompareRequest,
    ExploreRequest,
    OutcomesRequest,
    Session,
)
from repro.checker.outcomes import OutcomeSet
from repro.checker.result import CheckResult
from repro.comparison.compare import ComparisonResult, Relation
from repro.comparison.exploration import ExplorationResult

KNOWN = ("M1010", "M1044", "M4044", "M4144", "M4444")


def test_check_request_resolves_names():
    session = Session()
    result = session.run(CheckRequest(test="A", model="TSO"))
    assert isinstance(result, CheckResult)
    assert result.allowed and result.test_name == "A" and result.model_name == "TSO"
    assert not session.run(CheckRequest(test="A", model="SC")).allowed


def test_check_request_with_witness():
    session = Session()
    result = session.run(CheckRequest(test="A", model="TSO", witness=True))
    assert result.witness is not None
    forbidden = session.run(CheckRequest(test="A", model="SC", witness=True))
    assert forbidden.witness is None


def test_compare_request():
    session = Session()
    result = session.run(CompareRequest(first="TSO", second="x86", suite="no_deps"))
    assert isinstance(result, ComparisonResult)
    assert result.relation is Relation.EQUIVALENT
    stronger = session.run(CompareRequest(first="SC", second="M4044", suite="no_deps"))
    assert stronger.relation is Relation.STRONGER


def test_explore_request_over_explicit_models():
    session = Session()
    result = session.run(ExploreRequest(models=KNOWN, suite="no_deps"))
    assert isinstance(result, ExplorationResult)
    assert result.strongest_models() == ["M4444"]
    assert {model.name for model in result.models} == set(KNOWN)


def test_outcomes_request():
    session = Session()
    result = session.run(OutcomesRequest(test="L7", model="SC"))
    assert isinstance(result, OutcomeSet)
    assert result.model_name == "SC" and result.test_name == "L7"
    assert len(result) == 3  # store buffering: SC forbids exactly r1=0 & r2=0
    tso = session.run(OutcomesRequest(test="L7", model="TSO"))
    assert len(tso) == 4


# ----------------------------------------------------------------------
# cache reuse across calls (the point of a session)
# ----------------------------------------------------------------------
def test_reused_session_gets_engine_cache_hits_across_runs():
    session = Session()
    compare = session.run(CompareRequest(first="SC", second="TSO", suite="no_deps"))

    before = session.stats.snapshot()
    explore = session.run(ExploreRequest(space="no_deps"))
    delta = session.stats.since(before)

    # The compare already evaluated every suite test's execution; the
    # exploration must answer all of them from the shared context cache.
    assert delta.context_cache_hits > 0
    assert delta.executions_evaluated == 0

    # Results are identical to what fresh sessions compute.
    fresh_compare = Session().run(CompareRequest(first="SC", second="TSO", suite="no_deps"))
    fresh_explore = Session().run(ExploreRequest(space="no_deps"))
    assert compare == fresh_compare
    assert explore.vectors == fresh_explore.vectors
    assert explore.equivalence_classes == fresh_explore.equivalence_classes
    assert explore.hasse_edges == fresh_explore.hasse_edges


def test_check_compare_explore_in_one_session_share_caches():
    session = Session()
    session.run(CheckRequest(test="L1", model="TSO"))
    session.run(CompareRequest(first="SC", second="TSO", suite="no_deps"))
    before = session.stats.snapshot()
    session.run(ExploreRequest(space="no_deps"))
    assert session.stats.since(before).context_cache_hits > 0
    # hit counters grow monotonically across the whole conversation
    assert session.stats.context_cache_hits > session.stats.executions_evaluated


def test_repeated_compare_requests_reuse_verdict_vectors():
    session = Session()
    first = session.run(CompareRequest(first="SC", second="TSO", suite="no_deps"))
    before = session.stats.snapshot()
    second = session.run(CompareRequest(first="SC", second="TSO", suite="no_deps"))
    # The comparator memoizes whole verdict vectors: no new checks at all.
    assert session.stats.since(before).checks_performed == 0
    assert first == second


def test_compare_cache_tells_apart_inline_models_sharing_a_name():
    from repro.api.serialize import model_to_json
    from repro.core.catalog import SC, TSO

    session = Session()
    as_sc = model_to_json(SC.renamed("X"))
    as_tso = model_to_json(TSO.renamed("X"))
    first = session.run(CompareRequest(first=as_sc, second="SC", suite="no_deps"))
    assert first.relation is Relation.EQUIVALENT
    # Same name, different formula, same long-lived comparator: the cached
    # verdict vector of the first "X" must not answer for the second.
    second = session.run(CompareRequest(first=as_tso, second="SC", suite="no_deps"))
    fresh = Session().run(CompareRequest(first=as_tso, second="SC", suite="no_deps"))
    assert second == fresh
    assert second.relation is Relation.WEAKER
    assert {"L7", "L8"} <= set(second.only_first)


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
def test_run_batch_shares_contexts_and_reports_aggregate_stats():
    session = Session()
    batch = session.run_batch(
        [
            CheckRequest(test="A", model="TSO"),
            CheckRequest(test="A", model="SC"),
            CompareRequest(first="TSO", second="x86", suite="no_deps"),
        ]
    )
    assert len(batch) == 3
    assert batch[0].allowed and not batch[1].allowed
    assert batch[2].equivalent
    # The second check reuses the first check's context.
    assert batch.stats.context_cache_hits > 0
    assert batch.stats.checks_performed >= 2
    # The aggregate equals the sum of the per-request deltas by construction;
    # the batch's counters must not exceed the session's cumulative counters.
    assert batch.stats.checks_performed <= session.stats.checks_performed


def test_batch_results_match_individual_runs():
    batch = Session().run_batch(
        [
            CheckRequest(test="L1", model="PSO"),
            OutcomesRequest(test="L7", model="TSO"),
        ]
    )
    individual_check = Session().run(CheckRequest(test="L1", model="PSO"))
    individual_outcomes = Session().run(OutcomesRequest(test="L7", model="TSO"))
    assert batch[0] == individual_check
    assert batch[1] == individual_outcomes


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_sat_backend_session_agrees_with_explicit():
    explicit = Session(backend="explicit")
    sat = Session(backend="sat")
    request = ExploreRequest(models=KNOWN, suite="no_deps")
    explicit_result = explicit.run(request)
    sat_result = sat.run(request)
    assert explicit_result.vectors == sat_result.vectors
    assert sat.stats.solver_calls > 0


def test_unknown_request_type_is_rejected():
    with pytest.raises(TypeError):
        Session().run(object())


def test_registered_models_are_usable_in_requests():
    from repro.core.model import MemoryModel

    session = Session()
    session.models.register(MemoryModel("FencesOnly", "Fence(x) | Fence(y)"))
    result = session.run(CompareRequest(first="FencesOnly", second="SC", suite="no_deps"))
    assert result.relation is Relation.WEAKER
