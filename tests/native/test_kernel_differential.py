"""Differential validation of the word-array kernel backends.

Every kernel backend (``bigint``, ``python``, and — when the C extension is
built — ``native``) must be *bit-identical*: same verdicts, and the same
:data:`~repro.checker.kernel.KernelWitness` (or both ``None``) for every
execution and model.  Backends differ only in the search (mask evaluation
is shared; ``tests/checker`` pins it against the reference formula
evaluator).  The hypothesis suite here drives all available backends over
random litmus tests and random parametric models and asserts exact
equality, and the word-level tests pin the
:class:`~repro.native.words.WordReachability` engine against the bigint
:class:`~repro.checker.kernel.ReachabilityKernel` at the 64-bit word
boundaries (n = 63, 64, 65) where packing bugs live.

The suite is deliberately runnable without the C extension — the native
backend joins the differential automatically when importable, so the
``REPRO_KERNEL=python`` CI leg still proves python vs bigint identity.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.checker.kernel import IndexedExecution, KernelSearch, ReachabilityKernel
from repro.native.backend import native_available, resolve_kernel
from repro.native.problem import kernel_problem
from repro.native.words import WORD_BITS, WordReachability, word_count
from repro.native.wordsearch import word_search

from tests.conftest import parametric_models, small_litmus_tests

#: Every backend available in this environment, bigint first (the reference).
BACKENDS = [resolve_kernel("bigint"), resolve_kernel("python")]
if native_available():
    BACKENDS.append(resolve_kernel("native"))

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# full-backend differential: witnesses, verdicts
# ----------------------------------------------------------------------
@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_all_backends_return_identical_witnesses(test, model):
    memory_model = model.to_memory_model()
    execution = test.execution()
    indexed = IndexedExecution(execution)
    if indexed.infeasible:
        return
    po_edges = indexed.po_edge_pairs(memory_model)
    reference = KernelSearch(indexed, po_edges).run()
    for backend in BACKENDS:
        witness = backend.search(IndexedExecution(execution), po_edges)
        assert witness == reference, backend.name


@_SETTINGS
@given(test=small_litmus_tests(), model=parametric_models())
def test_all_backends_agree_on_verdicts(test, model):
    memory_model = model.to_memory_model()
    execution = test.execution()
    indexed = IndexedExecution(execution)
    if indexed.infeasible:
        verdicts = {
            backend.name: backend.search(IndexedExecution(execution), []) is None
            for backend in BACKENDS
        }
        # Infeasible executions never have a witness on any backend.
        assert all(verdicts.values()), verdicts
        return
    po_edges = indexed.po_edge_pairs(memory_model)
    reference = None
    for backend in BACKENDS:
        allowed = backend.allowed(IndexedExecution(execution), po_edges)
        if reference is None:
            reference = allowed
        else:
            assert allowed == reference, backend.name


# ----------------------------------------------------------------------
# word-boundary reachability differential (n = 63, 64, 65)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [5, 63, 64, 65])
def test_word_reachability_matches_bigint_kernel(n):
    """Random edge insertions with interleaved undo, compared row by row."""
    rng = random.Random(64 * n)
    words = WordReachability(n)
    bigint = ReachabilityKernel(n)
    marks = []
    for step in range(300):
        if marks and rng.random() < 0.2:
            word_mark, bigint_mark = marks.pop(rng.randrange(len(marks)))
            words.undo_to(word_mark)
            bigint.undo_to(bigint_mark)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.3:
                marks.append((words.mark(), bigint.mark()))
            assert words.add_edge(u, v) == bigint.add_edge(u, v), (step, u, v)
    for i in range(n):
        assert words.row(i) == bigint.reach[i], i
    for u in (0, n - 1, n // 2):
        for v in (0, n - 1, n // 2):
            assert words.has_path(u, v) == bigint.has_path(u, v)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_word_reachability_undo_is_exact(n):
    """Undo must restore the word array byte-for-byte, not just semantically."""
    rng = random.Random(n)
    kernel = WordReachability(n)
    for _ in range(50):
        kernel.add_edge(rng.randrange(n), rng.randrange(n))
    snapshot = bytes(kernel.reach)
    mark = kernel.mark()
    for _ in range(100):
        kernel.add_edge(rng.randrange(n), rng.randrange(n))
    kernel.undo_to(mark)
    assert bytes(kernel.reach) == snapshot
    kernel.undo_to(0)
    assert all(word == 0 for word in kernel.reach)


def test_word_count_covers_boundaries():
    assert word_count(0) == 1  # never a zero-length buffer
    assert word_count(1) == 1
    assert word_count(WORD_BITS) == 1
    assert word_count(WORD_BITS + 1) == 2
    assert word_count(2 * WORD_BITS) == 2
    assert word_count(2 * WORD_BITS + 1) == 3


def test_transitive_chain_crosses_word_boundary():
    """A path threaded through bits 62..66 exercises cross-word propagation."""
    n = 70
    kernel = WordReachability(n)
    bigint = ReachabilityKernel(n)
    chain = list(range(60, 70)) + [0]
    for u, v in zip(chain, chain[1:]):
        assert kernel.add_edge(u, v)
        assert bigint.add_edge(u, v)
    assert kernel.has_path(60, 0) and bigint.has_path(60, 0)
    # Closing the cycle must be rejected by both without mutating state.
    before = bytes(kernel.reach)
    assert not kernel.add_edge(0, 60)
    assert not bigint.add_edge(0, 60)
    assert bytes(kernel.reach) == before


# ----------------------------------------------------------------------
# word_search is the executable spec of the C search
# ----------------------------------------------------------------------
def test_word_search_matches_kernel_search_on_named_tests():
    from repro.core.parametric import model_space
    from repro.generation.named_tests import L_TESTS, TEST_A

    models = model_space(include_data_dependencies=False)[:12]
    for test in [TEST_A] + list(L_TESTS):
        execution = test.execution()
        indexed = IndexedExecution(execution)
        if indexed.infeasible:
            continue
        for model in models:
            po_edges = indexed.po_edge_pairs(model)
            expected = KernelSearch(indexed, po_edges).run()
            problem = kernel_problem(IndexedExecution(execution))
            assert word_search(problem, po_edges) == expected


@pytest.mark.skipif(not native_available(), reason="C extension not built")
def test_native_backend_reports_native():
    import os

    backend = resolve_kernel("native")
    assert backend.name == "native"
    assert backend.is_native
    auto = resolve_kernel("auto")
    if "REPRO_KERNEL" in os.environ:
        # auto honours the env override (e.g. the CI pure-Python leg)
        assert auto.name == os.environ["REPRO_KERNEL"]
    else:
        assert auto.name == "native"  # auto prefers the extension when built
