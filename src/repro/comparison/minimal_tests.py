"""Minimal distinguishing test sets.

Section 4.2 reports that nine litmus tests (L1..L9) suffice to distinguish
every pair of non-equivalent models in the explored space.  This module
computes such sets from scratch (greedy weighted set cover over the pairs of
non-equivalent models) and verifies candidate sets such as the paper's nine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.comparison.compare import EngineSpec, ModelComparator
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine

#: An unordered pair of model names.
ModelPair = Tuple[str, str]


@dataclass(frozen=True)
class DistinguishingSetResult:
    """A set of tests together with the pairs each test distinguishes."""

    test_names: Tuple[str, ...]
    covered_pairs: int
    total_pairs: int
    uncovered: Tuple[ModelPair, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.uncovered


def _distinguishable_pairs(
    models: Sequence[MemoryModel], comparator: ModelComparator
) -> Tuple[List[ModelPair], Dict[str, Set[ModelPair]]]:
    """Return the non-equivalent pairs and, per test, the pairs it separates."""
    vectors = {model.name: comparator.verdict_vector(model) for model in models}
    pairs: List[ModelPair] = []
    per_test: Dict[str, Set[ModelPair]] = {test.name: set() for test in comparator.tests}
    names = [model.name for model in models]
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            if vectors[first] == vectors[second]:
                continue
            pair = (first, second)
            pairs.append(pair)
            for test, a, b in zip(comparator.tests, vectors[first], vectors[second]):
                if a != b:
                    per_test[test.name].add(pair)
    return pairs, per_test


def find_minimal_distinguishing_set(
    models: Sequence[MemoryModel],
    tests: Sequence[LitmusTest],
    checker: Optional[EngineSpec] = None,
    seed_tests: Sequence[LitmusTest] = (),
) -> DistinguishingSetResult:
    """Greedily select tests until every non-equivalent pair is distinguished.

    ``seed_tests`` are added to the candidate pool (useful for asking "how far
    do the paper's nine tests go, and what else is needed?").  Greedy set
    cover is within a logarithmic factor of optimal, which in this problem's
    tiny instances routinely finds the true minimum.
    """
    pool: List[LitmusTest] = list(tests)
    names = {test.name for test in pool}
    for test in seed_tests:
        if test.name not in names:
            pool.append(test)
            names.add(test.name)
    comparator = ModelComparator(pool, CheckEngine.ensure(checker))
    pairs, per_test = _distinguishable_pairs(models, comparator)

    uncovered: Set[ModelPair] = set(pairs)
    selected: List[str] = []
    while uncovered:
        best_name = max(per_test, key=lambda name: (len(per_test[name] & uncovered), -len(selected)))
        gain = per_test[best_name] & uncovered
        if not gain:
            break  # remaining pairs cannot be covered by the pool
        selected.append(best_name)
        uncovered -= gain
    return DistinguishingSetResult(
        test_names=tuple(selected),
        covered_pairs=len(pairs) - len(uncovered),
        total_pairs=len(pairs),
        uncovered=tuple(sorted(uncovered)),
    )


def verify_distinguishing_set(
    models: Sequence[MemoryModel],
    candidate_tests: Sequence[LitmusTest],
    reference_tests: Sequence[LitmusTest],
    checker: Optional[EngineSpec] = None,
) -> DistinguishingSetResult:
    """Check whether ``candidate_tests`` distinguish every non-equivalent pair.

    Non-equivalence is judged with respect to ``reference_tests`` (typically
    the full template suite): two models that the reference suite separates
    must also be separated by some candidate test for the candidate set to be
    complete.
    """
    engine = CheckEngine.ensure(checker)
    reference = ModelComparator(list(reference_tests), engine)
    reference_vectors = {model.name: reference.verdict_vector(model) for model in models}

    # Sharing the engine lets the candidate comparator reuse the contexts of
    # every candidate test that also appears in the reference suite.
    candidates = ModelComparator(list(candidate_tests), engine)
    candidate_vectors = {model.name: candidates.verdict_vector(model) for model in models}

    names = [model.name for model in models]
    total = 0
    uncovered: List[ModelPair] = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            if reference_vectors[first] == reference_vectors[second]:
                continue
            total += 1
            if candidate_vectors[first] == candidate_vectors[second]:
                uncovered.append((first, second))
    return DistinguishingSetResult(
        test_names=tuple(test.name for test in candidate_tests),
        covered_pairs=total - len(uncovered),
        total_pairs=total,
        uncovered=tuple(uncovered),
    )
