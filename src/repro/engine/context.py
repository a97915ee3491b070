"""Per-test cached state shared by every model of an exploration.

A :class:`TestContext` owns everything about one litmus test that does *not*
depend on the memory model being checked:

* the evaluated :class:`~repro.core.execution.Execution` (or the evaluation
  error when the candidate outcome is malformed) — evaluated exactly once,
  however many models are checked against the test;
* the :class:`~repro.checker.kernel.IndexedExecution` the kernel-based
  explicit backend searches over (events as ints, relations as bitmasks);
* the enumerated read-from candidate lists, coherence orders and per-order
  coherence-position maps the enumeration oracle iterates over;
* the model-independent CNF skeleton and the persistent incremental
  :class:`~repro.sat.solver.SatSolver` the SAT backend instantiates per
  model through assumption literals, reusing learned clauses across models.

Model-*dependent* but recomputation-heavy facts are cached too: the po-pair
truth vector (bitmask) a model forces on this test, and its derived forms
(kernel index pairs, event triples), are keyed by the model's **IR digest**
(:mod:`repro.compile`) — semantic identity, not object identity — so
repeated checks of the same (test, model) pair stop recomputing them, warm
caches survive model re-registration, and an inline model document resent
to a ``serve`` session hits the same entries as the original.  The mask is
shared between the explicit and SAT strategies (the SAT backend derives its
assumption literals from the same vector the kernel search consumes).
Cache hits are surfaced through :class:`~repro.engine.engine.EngineStats`.

Everything is built lazily so a context only pays for the strategy that
actually uses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.checker.encoder import Encoding, encode_skeleton
from repro.checker.kernel import IndexedExecution, kernel_allowed
from repro.checker.relations import (
    CoherenceOrder,
    HbEdge,
    coherence_position_map,
    enumerate_coherence_orders,
    read_from_candidates,
)
from repro.compile import CompiledModel, compile_model, forced_po_pairs
from repro.core.events import Event
from repro.core.execution import Execution, ExecutionError
from repro.core.expr import ExprError
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.native.backend import resolve_kernel
from repro.sat.solver import SatSolver

#: An edge between kernel event indices.
IndexEdge = Tuple[int, int]

#: Context methods accept either form; raw models are compiled on the fly.
ModelLike = Union[MemoryModel, CompiledModel]

#: The mask evaluator for callers without a kernel (the SAT strategy,
#: synthesis).  Every backend evaluates masks the same way.
MASK_KERNEL = resolve_kernel("bigint")


def as_compiled(model: ModelLike) -> CompiledModel:
    """Coerce a model argument to its compiled form."""
    if isinstance(model, CompiledModel):
        return model
    return compile_model(model)


class TestContext:
    """Cached model-independent state for one litmus test."""

    def __init__(self, test: LitmusTest) -> None:
        self.test = test
        self.execution: Optional[Execution] = None
        self.error: str = ""
        try:
            self.execution = test.execution()
        except (ExecutionError, ExprError) as error:
            self.error = f"execution cannot be evaluated: {error}"

        # Kernel-strategy caches, keyed by the model's IR digest (semantic
        # identity): structurally equal models — re-registered, resent over
        # serve, or simply distinct objects — share one entry.
        self._indexed: Optional[IndexedExecution] = None
        self._po_masks: Dict[str, int] = {}
        self._po_pairs_by_digest: Dict[str, List[IndexEdge]] = {}
        self._po_edges_by_digest: Dict[str, List[HbEdge]] = {}
        # Kernel verdicts keyed by the po-edge tuple that produced them.
        # Distinct models frequently force the *same* program-order edges on
        # a small test (the verdict depends on nothing else), so a whole
        # model space often needs only a handful of kernel searches per test.
        self._kernel_verdicts: Dict[Tuple[IndexEdge, ...], bool] = {}

        # Enumeration-strategy caches.
        self._loads: Optional[List[Event]] = None
        self._rf_candidate_lists: Optional[List[List[Optional[Event]]]] = None
        self._coherence_orders: Optional[List[CoherenceOrder]] = None
        self._coherence_positions: Optional[List[Dict[Event, int]]] = None

        # SAT-strategy caches.
        self._skeleton: Optional[Encoding] = None
        self._solver: Optional[SatSolver] = None

    # ------------------------------------------------------------------
    # kernel-strategy caches
    # ------------------------------------------------------------------
    @property
    def candidate_space_built(self) -> bool:
        """True once some strategy has built its candidate space."""
        return (
            self._indexed is not None
            or self._rf_candidate_lists is not None
            or self._skeleton is not None
        )

    def indexed(self) -> IndexedExecution:
        """Return the bitset-indexed execution, building it once."""
        assert self.execution is not None
        if self._indexed is None:
            self._indexed = IndexedExecution(self.execution)
        return self._indexed

    def po_mask(self, model: ModelLike, stats=None) -> int:
        """Return the model's po-pair truth vector over the indexed execution.

        This is the one model-dependent quantity both the explicit kernel
        and the SAT assumptions derive from.  Cached by IR digest; a hit
        increments ``stats.po_edge_cache_hits``.  Every backend computes
        the same mask, so the digest cache is shared between them.
        """
        compiled = as_compiled(model)
        digest = compiled.digest
        mask = self._po_masks.get(digest)
        if mask is not None:
            if stats is not None:
                stats.po_edge_cache_hits += 1
            return mask
        mask = self._po_masks[digest] = MASK_KERNEL.po_pair_mask(self.indexed(), compiled)
        return mask

    def po_masks_column(self, compiled_models, stats=None, kernel=MASK_KERNEL) -> List[int]:
        """Return the whole column's po-pair masks, batch-evaluating misses.

        The streaming pipeline answers each test for the full model space
        exactly once, so the common case is every digest missing; the
        misses go through one :meth:`~repro.native.backend.KernelBackend.
        po_pair_masks` call for the column.  Hits count toward
        ``stats.po_edge_cache_hits`` exactly like :meth:`po_mask`.
        """
        masks = self._po_masks
        missing = []
        for compiled in compiled_models:
            if compiled.digest not in masks:
                missing.append(compiled)
            elif stats is not None:
                stats.po_edge_cache_hits += 1
        if missing:
            for compiled, mask in zip(missing, kernel.po_pair_masks(self.indexed(), missing)):
                masks[compiled.digest] = mask
        return [masks[compiled.digest] for compiled in compiled_models]

    def po_edge_pairs(self, model: ModelLike, stats=None, kernel=MASK_KERNEL) -> List[IndexEdge]:
        """Return the model's program-order edges as kernel index pairs.

        Cached by IR digest; a hit increments ``stats.po_edge_cache_hits``.
        The miss path is deliberately flat — one digest lookup per cache,
        the mask evaluated inline — because the streaming pipeline hits it
        once per (test, model) with nothing warm.  A missing mask is
        evaluated by ``kernel``'s :meth:`~repro.native.backend.
        KernelBackend.po_pair_mask`.
        """
        compiled = model if isinstance(model, CompiledModel) else compile_model(model)
        digest = compiled.digest
        pairs = self._po_pairs_by_digest.get(digest)
        if pairs is not None:
            if stats is not None:
                stats.po_edge_cache_hits += 1
            return pairs
        indexed = self.indexed()
        mask = self._po_masks.get(digest)
        if mask is None:
            mask = self._po_masks[digest] = kernel.po_pair_mask(indexed, compiled)
        pairs = [pair for p, pair in enumerate(indexed.po_pairs) if (mask >> p) & 1]
        self._po_pairs_by_digest[digest] = pairs
        return pairs

    def kernel_verdict(self, pairs: List[IndexEdge], kernel=None, stats=None) -> bool:
        """Return (computing once per distinct po-edge set) the kernel verdict.

        The explicit kernel's verdict depends on the indexed execution and
        the po edges alone, and ``po_edge_pairs`` emits edges in a fixed
        scan order, so the edge tuple is a sound memo key across models —
        distinct models frequently force identical edges on a small test.
        It is also sound across kernel backends (they are bit-identical),
        so the memo is shared; an *actual* search (a memo miss) increments
        ``stats.native_searches`` or ``stats.fallback_searches`` by where
        it ran.
        """
        key = tuple(pairs)
        verdict = self._kernel_verdicts.get(key)
        if verdict is None:
            if kernel is None:
                verdict = kernel_allowed(self.indexed(), pairs)
            else:
                verdict = kernel.allowed(self.indexed(), pairs)
                if stats is not None:
                    if kernel.is_native:
                        stats.native_searches += 1
                    else:
                        stats.fallback_searches += 1
            self._kernel_verdicts[key] = verdict
        return verdict

    def program_order_edges(self, model: ModelLike, stats=None) -> List[HbEdge]:
        """Return the model's program-order edges as event triples.

        Cached by IR digest; a hit increments ``stats.po_edge_cache_hits``.
        Deliberately computed through the per-pair evaluator lowering, not
        the bitmask one, so the enumeration oracle stays independent of the
        kernel's vectorised path.
        """
        assert self.execution is not None
        compiled = as_compiled(model)
        edges = self._po_edges_by_digest.get(compiled.digest)
        if edges is not None:
            if stats is not None:
                stats.po_edge_cache_hits += 1
            return edges
        edges = [
            (earlier, later, "po")
            for earlier, later in forced_po_pairs(self.execution, compiled)
        ]
        self._po_edges_by_digest[compiled.digest] = edges
        return edges

    # ------------------------------------------------------------------
    # enumeration-strategy caches
    # ------------------------------------------------------------------
    def read_from_space(self) -> Tuple[List[Event], List[List[Optional[Event]]]]:
        """Return (loads, per-load read-from candidates), computing once."""
        assert self.execution is not None
        if self._rf_candidate_lists is None:
            self._loads = self.execution.loads()
            self._rf_candidate_lists = [
                read_from_candidates(self.execution, load) for load in self._loads
            ]
        return self._loads, self._rf_candidate_lists

    def coherence_orders(self) -> List[CoherenceOrder]:
        """Return every admissible per-location store order, computing once."""
        assert self.execution is not None
        if self._coherence_orders is None:
            self._coherence_orders = list(enumerate_coherence_orders(self.execution))
        return self._coherence_orders

    def coherence_positions(self, stats=None) -> List[Dict[Event, int]]:
        """Return per-order store-position maps aligned with
        :meth:`coherence_orders`, computing once.

        A cached return increments ``stats.coherence_cache_hits``: every hit
        is a ``forced_edges`` sweep that skipped rebuilding the maps.
        """
        if self._coherence_positions is None:
            self._coherence_positions = [
                coherence_position_map(coherence) for coherence in self.coherence_orders()
            ]
        elif stats is not None:
            stats.coherence_cache_hits += 1
        return self._coherence_positions

    # ------------------------------------------------------------------
    # SAT-strategy caches
    # ------------------------------------------------------------------
    def skeleton(self) -> Encoding:
        """Return the model-independent CNF skeleton, encoding once."""
        assert self.execution is not None
        if self._skeleton is None:
            self._skeleton = encode_skeleton(self.execution)
        return self._skeleton

    def solver(self) -> SatSolver:
        """Return the persistent incremental solver over the skeleton."""
        if self._solver is None:
            self._solver = SatSolver(self.skeleton().cnf)
        return self._solver
