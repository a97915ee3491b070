"""Pair-class tabulation of a model space over the straight-line fragment.

Within the enumeration fragment (loads, stores and full fences with literal
addresses, no registers read) a must-not-reorder formula's truth value on a
same-thread program-order pair depends only on the pair's *class*: the two
event kinds and, for two memory accesses, whether they share a location.
The dependency atoms are uniformly false there — which is what makes the
90-model dependency space tabulable too.

:class:`PairTable` evaluates every compiled model once per class (the 13
``PAIR_CLASSES``) and stores, per class, the bitmask of models that force the edge.
Two consumers read the one tabulation:

* the adaptive prefilter (:mod:`repro.pipeline.adaptive`) labels the pairs
  of a reduced thread to build its profile;
* the fused checked-test path (:meth:`PairTable.mask_groups`) transposes the
  per-pair labels of an enumerated test into per-model po-pair masks — the
  same masks the IR lowering computes over an
  :class:`~repro.checker.kernel.IndexedExecution`, without walking any DAG.

The table is keyed on predicate *objects*, not names, so a custom predicate
that merely shares a built-in's name makes the model untabulable instead of
silently taking the built-in's truth value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predicates import (
    ANY_DEP,
    CTRL_DEP,
    DATA_DEP,
    FENCE,
    MEMORY_ACCESS,
    READ,
    SAME_ADDR,
    WRITE,
    Predicate,
)

#: One pair class: (kind of the earlier event, kind of the later one,
#: same location); fences have no address, so their classes are never same.
PairClass = Tuple[str, str, bool]

#: Truth assignment of the pair-atom vocabulary for one pair class.
PairAssignment = Dict[Tuple[Predicate, Tuple[str, ...]], bool]

EVENT_KINDS = ("R", "W", "F")

PAIR_CLASSES: Tuple[PairClass, ...] = tuple(
    (kind_x, kind_y, same)
    for kind_x in EVENT_KINDS
    for kind_y in EVENT_KINDS
    for same in (False, True)
    if not (same and "F" in (kind_x, kind_y))
)

#: Per thread, event tuples whose first two fields are (kind, location):
#: enumeration items ``(kind, location, value)`` or the prefilter's reduced
#: ``(kind, location, value, retained)`` events.
Items = Sequence[Sequence[Tuple]]


def pair_assignment(kind_x: str, kind_y: str, same: bool) -> PairAssignment:
    """Truth assignment for the binary must-not-reorder vocabulary."""
    assign: PairAssignment = {}
    for var, kind in (("x", kind_x), ("y", kind_y)):
        assign[(READ, (var,))] = kind == "R"
        assign[(WRITE, (var,))] = kind == "W"
        assign[(FENCE, (var,))] = kind == "F"
        assign[(MEMORY_ACCESS, (var,))] = kind in ("R", "W")
    assign[(SAME_ADDR, ("x", "y"))] = same
    for dependency in (DATA_DEP, CTRL_DEP, ANY_DEP):
        assign[(dependency, ("x", "y"))] = False
    return assign


def eval_ir(node, assign: PairAssignment) -> bool:
    """Evaluate a compiled formula IR under a pair-atom assignment.

    Raises ``KeyError`` (unknown atom) or ``ValueError`` (opaque node) when
    the model falls outside the tabulated fragment; :meth:`PairTable.build`
    treats either as ineligibility.
    """
    kind = node.kind
    if kind == "true":
        return True
    if kind == "false":
        return False
    if kind in ("atom", "natom"):
        value = assign[(node.predicate, node.args)]
        return (not value) if kind == "natom" else value
    if kind == "and":
        return all(eval_ir(child, assign) for child in node.children)
    if kind == "or":
        return any(eval_ir(child, assign) for child in node.children)
    raise ValueError(f"node kind {kind!r} is outside the tabulated fragment")


class PairTable:
    """Per pair class, the bitmask of models (bit = position) forcing the edge.

    Build with :meth:`build`, which returns ``None`` when any model falls
    outside the tabulated vocabulary (opaque callables, predicates beyond
    Read/Write/Fence/MemAccess/SameAddr/DataDep/CtrlDep/Dep).
    """

    def __init__(self, labels: Dict[PairClass, int], num_models: int) -> None:
        #: pair class -> bitmask of the models forcing that pair's edge
        self.labels = labels
        self.full_mask = (1 << num_models) - 1

    @classmethod
    def build(cls, compiled_models: Sequence[object]) -> Optional["PairTable"]:
        """Tabulate compiled models; None when any is not tabulable."""
        roots = []
        for compiled in compiled_models:
            if compiled.kind != "formula":
                return None
            roots.append(compiled.root)
        labels: Dict[PairClass, int] = {}
        try:
            for pair_class in PAIR_CLASSES:
                assign = pair_assignment(*pair_class)
                mask = 0
                for index, root in enumerate(roots):
                    if eval_ir(root, assign):
                        mask |= 1 << index
                labels[pair_class] = mask
        except (KeyError, ValueError):
            return None
        return cls(labels, len(roots))

    def label(self, kind_x: str, kind_y: str, loc_x: object, loc_y: object) -> int:
        """The models forcing the edge between two same-thread events."""
        if kind_x == "F" or kind_y == "F":
            return self.labels[(kind_x, kind_y, False)]
        return self.labels[(kind_x, kind_y, loc_x == loc_y)]

    def mask_groups(self, items: Items) -> Dict[int, int]:
        """A test's po-pair masks, grouped: mask -> models.

        Pairs are numbered like ``IndexedExecution.po_pairs`` (per thread,
        earlier event first).  Pairs with equal labels are merged first;
        the model set is then refined by each distinct label, so every
        group is the set of models sharing one po-pair mask — the column's
        mask dedup, computed without a per-model pass.
        """
        label = self.label
        pairs_of_label: Dict[int, int] = {}
        position = 0
        for thread in items:
            for u in range(len(thread)):
                kind_u, loc_u = thread[u][0], thread[u][1]
                for v in range(u + 1, len(thread)):
                    key = label(kind_u, thread[v][0], loc_u, thread[v][1])
                    pairs_of_label[key] = pairs_of_label.get(key, 0) | (1 << position)
                    position += 1
        groups: List[Tuple[int, int]] = [(self.full_mask, 0)]
        for models, pairs in pairs_of_label.items():
            refined: List[Tuple[int, int]] = []
            for group, mask in groups:
                forcing = group & models
                if forcing:
                    refined.append((forcing, mask | pairs))
                if forcing != group:
                    refined.append((group & ~models, mask))
            groups = refined
        return {mask: group for group, mask in groups}
