"""Flattened, model-independent search problems for the word-array kernels.

A :class:`KernelProblem` is everything :class:`~repro.checker.kernel.
KernelSearch` derives from an :class:`~repro.checker.kernel.IndexedExecution`
— the decision plan, the per-location coherence orders, the per-load
read-from candidates, program order — flattened into tuples, typed arrays
and word buffers that both the pure-Python word search
(:mod:`repro.native.wordsearch`) and the C extension consume directly.

Building it is the word-array form of the caching the bigint path gets from
``IndexedExecution.coherence_orders_at``: the problem is computed once per
execution (memoized on the ``IndexedExecution`` itself) and shared by every
model and every backend checked against that execution, so differential
runs between backends don't re-flatten per check.

The plan replicates ``KernelSearch``'s construction *exactly* — locations
in ``ix.locations`` order skipping storeless ones, each location's loads in
``ix.loads`` position order right after its coherence decision, coherence
orders in ``coherence_orders_at`` enumeration order, read-from candidates
in ``rf_candidates`` order — because witness identity across backends (a
tested guarantee) depends on identical decision iteration.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.checker.kernel import IndexedExecution
from repro.native.words import int_to_words, word_count

#: plan-step kinds in the flattened plan arrays
PLAN_CO = 0
PLAN_RF = 1


class KernelProblem:
    """One execution's search problem, flattened for the word-array kernels."""

    __slots__ = (
        "indexed",
        "n",
        "nw",
        "plan_kinds",
        "plan_args",
        "slot_locations",
        "slot_of_location",
        "co_orders",
        "load_slot",
        "po_words",
        "_native",
    )

    def __init__(self, indexed: IndexedExecution) -> None:
        self.indexed = indexed
        self.n = indexed.n
        self.nw = word_count(indexed.n)

        # The decision plan, flattened: kinds as PLAN_CO/PLAN_RF, arguments
        # as a coherence-slot index or a load position.  Slots number the
        # locations that have stores, in plan (= ``ix.locations``) order.
        loads_of: Dict[Optional[str], List[int]] = {}
        for position, load in enumerate(indexed.loads):
            loads_of.setdefault(indexed.location_of[load], []).append(position)
        kinds: List[int] = []
        args: List[int] = []
        slot_locations: List[str] = []
        coherence = indexed.coherence_orders_at if not indexed.infeasible else {}
        co_orders: List[Tuple[Tuple[int, ...], ...]] = []
        for location in indexed.locations:
            if not indexed.stores_at[location]:
                continue
            slot = len(slot_locations)
            slot_locations.append(location)
            co_orders.append(coherence.get(location, ()))
            kinds.append(PLAN_CO)
            args.append(slot)
            for position in loads_of.get(location, ()):
                kinds.append(PLAN_RF)
                args.append(position)
        self.plan_kinds = array("b", kinds)
        self.plan_args = array("i", args)
        self.slot_locations: Tuple[str, ...] = tuple(slot_locations)
        self.slot_of_location: Dict[str, int] = {
            location: slot for slot, location in enumerate(slot_locations)
        }
        #: per slot: the location's po-respecting store orders (index tuples)
        self.co_orders: Tuple[Tuple[Tuple[int, ...], ...], ...] = tuple(co_orders)
        #: per load position: the coherence slot of its location (-1 if storeless)
        self.load_slot = array(
            "i",
            (
                self.slot_of_location.get(indexed.location_of[load], -1)
                for load in indexed.loads
            ),
        )

        #: program order as one flat word buffer: row i = po_before[i]
        if self.nw == 1:
            # litmus-sized executions: every row is one word already
            po_words = array("Q", indexed.po_before)
        else:
            po_words = array("Q")
            for mask in indexed.po_before:
                po_words.extend(int_to_words(mask, self.nw))
        self.po_words = po_words

        self._native = None

    # ------------------------------------------------------------------
    def native(self):
        """Return (building once) the C-extension mirror of this problem."""
        if self._native is None:
            from repro.native import _kernelmod  # ImportError surfaces to caller

            indexed = self.indexed
            co_count = array("i")
            co_len = array("i")
            co_off = array("q")
            co_flat = array("i")
            for orders in self.co_orders:
                co_count.append(len(orders))
                co_len.append(len(orders[0]) if orders else 0)
                co_off.append(len(co_flat))
                for order in orders:
                    co_flat.extend(order)
            rf_off = array("i", [0])
            rf_flat = array("i")
            for candidates in indexed.rf_candidates:
                rf_flat.extend(candidates)
                rf_off.append(len(rf_flat))
            self._native = _kernelmod.Problem(
                self.n,
                len(indexed.loads),
                len(self.plan_kinds),
                len(self.slot_locations),
                self.plan_kinds.tobytes(),
                self.plan_args.tobytes(),
                co_count.tobytes(),
                co_len.tobytes(),
                co_off.tobytes(),
                co_flat.tobytes(),
                array("i", indexed.loads).tobytes(),
                self.load_slot.tobytes(),
                rf_off.tobytes(),
                rf_flat.tobytes(),
                array("i", indexed.thread_of).tobytes(),
                self.po_words.tobytes(),
            )
        return self._native

    def edges_to_bytes(self, po_edges) -> bytes:
        """Flatten an edge list into the int32 pair buffer the C search takes."""
        return array("i", chain.from_iterable(po_edges)).tobytes()

    def witness(self, rf_choice, co_slot_choice):
        """Rebuild a :data:`~repro.checker.kernel.KernelWitness` from the
        flattened search result (rf sources + chosen order index per slot)."""
        indexed = self.indexed
        coherence: Dict[str, Tuple[int, ...]] = {
            location: () for location in indexed.locations
        }
        for slot, location in enumerate(self.slot_locations):
            coherence[location] = self.co_orders[slot][co_slot_choice[slot]]
        return tuple(rf_choice), coherence


def kernel_problem(indexed: IndexedExecution) -> KernelProblem:
    """Return the execution's flattened problem, built once and memoized."""
    problem = getattr(indexed, "_kernel_problem", None)
    if problem is None:
        problem = KernelProblem(indexed)
        indexed._kernel_problem = problem
    return problem
