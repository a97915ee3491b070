"""Spans around calls into the program's layers, recorded from outside it.

The traced run wraps each layer's public functions without touching the
program: :func:`install` replaces the attribute *where the caller looks it
up* (a module global imported into the caller's namespace, or a method on
its class) with a timing wrapper, and :func:`uninstall` puts the original
back.  Every call records one span: a name, a start, an end and the span
that was open on the same thread when it began (its parent).

Spans are kept in memory in per-thread columnar arrays (24 bytes a span,
no lock on the hot path) and written out once, at the end, by
:meth:`Recorder.dump`.  :func:`summarize` reads such a file back and turns
it into per-layer self times (a span's duration minus the part its direct
children cover) and call counts; the self time of the root spans is the
time no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from array import array
from typing import Callable, Dict, Iterable, List, Tuple

#: Every wrapped call point: (owner, attribute, span name).  ``owner`` is
#: ``"module"`` or ``"module:Class"``.  Where a caller imported a function
#: into its own namespace, that namespace is the owner, because that is
#: where the call looks the name up.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # generation
    ("repro.pipeline.run", "enumerate_raw_naive_items", "generation.enumerate_raw"),
    ("repro.pipeline.run", "test_from_items", "generation.test_from_items"),
    # pipeline: adaptive prefilter, fold, checkpoint
    ("repro.pipeline.adaptive:AdaptiveSpace", "profile", "pipeline.adaptive.profile"),
    ("repro.pipeline.adaptive:AdaptiveSpace", "groups", "pipeline.adaptive.groups"),
    ("repro.pipeline.run", "profile_digest", "pipeline.adaptive.profile_digest"),
    ("repro.pipeline.report:PartitionAccumulator", "fold_row", "pipeline.report.fold_row"),
    ("repro.pipeline.report:PartitionAccumulator", "can_refine", "pipeline.report.can_refine"),
    ("repro.pipeline.run", "_write_adaptive_shard", "pipeline.run.checkpoint_write"),
    ("repro.pipeline.run", "_write_shard", "pipeline.run.checkpoint_write"),
    ("repro.pipeline.adaptive:PartitionCheckpoint", "write", "pipeline.run.checkpoint_write"),
    # engine
    ("repro.engine.engine:CheckEngine", "check_column", "engine.check_column"),
    ("repro.engine.engine:CheckEngine", "check", "engine.check"),
    ("repro.engine.engine:CheckEngine", "context", "engine.context"),
    # compile: the engine and the test context import compile_model at
    # load time; the adaptive space, the verdict cache, the SAT encoder and
    # the checker import it at call time from the package or its module
    ("repro.engine.engine", "compile_model", "compile.compiled"),
    ("repro.engine.context", "compile_model", "compile.compiled"),
    ("repro.compile", "compile_model", "compile.compiled"),
    ("repro.compile.compiler", "compile_model", "compile.compiled"),
    # kernel backends (bigint inherits po_pair_masks from the base class)
    ("repro.native.backend:BigintKernelBackend", "search", "native.search"),
    ("repro.native.backend:WordKernelBackend", "search", "native.search"),
    ("repro.native.backend:NativeKernelBackend", "search", "native.search"),
    ("repro.native.backend:KernelBackend", "po_pair_masks", "native.po_pair_masks"),
    ("repro.native.backend:WordKernelBackend", "po_pair_masks", "native.po_pair_masks"),
    ("repro.native.backend:NativeKernelBackend", "po_pair_masks", "native.po_pair_masks"),
    ("repro.native.backend:BigintKernelBackend", "po_pair_mask", "native.po_pair_mask"),
    ("repro.native.backend:WordKernelBackend", "po_pair_mask", "native.po_pair_mask"),
    ("repro.native.backend:NativeKernelBackend", "po_pair_mask", "native.po_pair_mask"),
    # sat
    ("repro.sat.solver:SatSolver", "solve", "sat.solve"),
    # comparison and synthesis
    ("repro.api.session", "explore_models", "comparison.explore_models"),
    ("repro.comparison.exploration", "explore_models", "comparison.explore_models"),
    ("repro.comparison.compare:ModelComparator", "compare", "comparison.compare"),
    ("repro.synth.engine:SynthesisEngine", "synthesize", "synth.synthesize"),
    # api and io (serve imports to_json / request_from_json; the test
    # registry imports parse_litmus at call time from its module)
    ("repro.api.serve", "to_json", "api.serialize.to_json"),
    ("repro.api.serve", "request_from_json", "api.request_from_json"),
    ("repro.io.parser", "parse_litmus", "io.parse_litmus"),
    # serve structure: request roots, the worker-side root, worker waits
    ("repro.api.serve", "handle_request_line", "serve.handle_request_line"),
    ("repro.api.serve", "_dispatch", "serve.dispatch"),
    ("repro.api.serve", "_fast_check", "serve.fast_check"),
    ("repro.api.serve:_Job", "wait", "serve.wait_worker"),
)

#: Call points whose span name carries the request's op.
SESSION_RUN = ("repro.api.session:Session", "run", "api.session.run")

#: Wrapped generators: one span per ``next()``.
GENERATOR_SPANS = frozenset(("generation.enumerate_raw",))


class _ThreadSpans:
    """One thread's spans, as parallel arrays; ``top`` is the open span."""

    __slots__ = ("name", "parent", "start", "end", "top")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.top = -1


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._threads: List[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def spans(self) -> _ThreadSpans:
        """This thread's span arrays (created on first use)."""
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def begin(self, nid: int) -> Tuple[_ThreadSpans, int, int]:
        spans = self.spans()
        index = len(spans.name)
        spans.name.append(nid)
        spans.parent.append(spans.top)
        spans.start.append(0)
        spans.end.append(0)
        parent = spans.top
        spans.top = index
        spans.start[index] = time.perf_counter_ns()
        return spans, index, parent

    @staticmethod
    def end(spans: _ThreadSpans, index: int, parent: int) -> None:
        spans.end[index] = time.perf_counter_ns()
        spans.top = parent

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the benchmark's roots)."""
        return _SpanContext(self, self.name_id(name))

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        with self._lock:
            threads = list(self._threads)
        header = {"names": self.names, "threads": [len(spans.name) for spans in threads]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for spans in threads:
                for column in (spans.name, spans.parent, spans.start, spans.end):
                    column.tofile(handle)


class _SpanContext:
    def __init__(self, recorder: Recorder, nid: int) -> None:
        self.recorder = recorder
        self.nid = nid

    def __enter__(self) -> "_SpanContext":
        self._state = self.recorder.begin(self.nid)
        return self

    def __exit__(self, *exc: object) -> None:
        Recorder.end(*self._state)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap_call(recorder: Recorder, name: str, fn: Callable) -> Callable:
    nid = recorder.name_id(name)
    begin, end = recorder.begin, Recorder.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            end(*state)

    return wrapper


def _wrap_generator(recorder: Recorder, name: str, fn: Callable) -> Callable:
    nid = recorder.name_id(name)
    begin, end = recorder.begin, Recorder.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            state = begin(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end(*state)
            yield item

    return wrapper


def _wrap_session_run(recorder: Recorder, name: str, fn: Callable) -> Callable:
    begin, end = recorder.begin, Recorder.end
    ids: Dict[object, int] = {}

    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        op = getattr(request, "op", None)
        nid = ids.get(op)
        if nid is None:
            nid = ids[op] = recorder.name_id(f"{name}.{op}")
        state = begin(nid)
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            end(*state)

    return wrapper


def _owner(spec: str) -> object:
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Installed:
    """The originals replaced by :func:`install`, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object, bool]] = []


def install(recorder: Recorder) -> Installed:
    """Wrap every layer call point; returns what :func:`uninstall` undoes."""
    installed = Installed()
    targets = [(spec, attr, name, _wrap_call) for spec, attr, name in LAYER_TARGETS]
    targets.append(SESSION_RUN + (_wrap_session_run,))
    for spec, attr, name, wrap in targets:
        if name in GENERATOR_SPANS:
            wrap = _wrap_generator
        owner = _owner(spec)
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, wrap(recorder, name, original))
        installed.patches.append((owner, attr, original, own))
    return installed


def uninstall(installed: Installed) -> None:
    for owner, attr, original, own in reversed(installed.patches):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    installed.patches.clear()


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------
def load(path: str) -> Tuple[List[str], List[Tuple[array, array, array, array]]]:
    """Read a :meth:`Recorder.dump` file: names and per-thread arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        threads = []
        for length in header["threads"]:
            columns = []
            for typecode in ("i", "i", "q", "q"):
                column = array(typecode)
                column.fromfile(handle, length)
                columns.append(column)
            threads.append(tuple(columns))
    return header["names"], threads


def summarize(paths: Iterable[str], within: str = "") -> Dict[str, object]:
    """Self time and call count per span name, over one or more dumps.

    Returns ``{"layers": {name: {"s": self seconds, "calls": n}},
    "unattributed_s": root self seconds, "spans": total, "within":
    {name: calls}}``, where ``within`` counts only the calls made (at any
    depth) inside a span named ``within``.
    """
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    calls_within: Dict[str, int] = {}
    unattributed_ns = 0
    total = 0
    for path in paths:
        names, threads = load(path)
        within_id = names.index(within) if within in names else -2
        for name_col, parent_col, start_col, end_col in threads:
            n = len(name_col)
            total += n
            # A parent is always recorded before its children.
            inside = bytearray(n)
            for i in range(n):
                parent = parent_col[i]
                if parent >= 0 and (inside[parent] or name_col[parent] == within_id):
                    inside[i] = 1
                    name = names[name_col[i]]
                    calls_within[name] = calls_within.get(name, 0) + 1
            durations = [end_col[i] - start_col[i] for i in range(n)]
            own = list(durations)
            for i in range(n):
                parent = parent_col[i]
                if parent >= 0:
                    own[parent] -= durations[i]
            by_id_ns = [0] * len(names)
            by_id_calls = [0] * len(names)
            for i in range(n):
                nid = name_col[i]
                by_id_ns[nid] += own[i]
                by_id_calls[nid] += 1
                if parent_col[i] < 0:
                    unattributed_ns += own[i]
            for nid, name in enumerate(names):
                if by_id_calls[nid]:
                    self_ns[name] = self_ns.get(name, 0) + by_id_ns[nid]
                    calls[name] = calls.get(name, 0) + by_id_calls[nid]
    layers = {
        name: {"s": self_ns[name] / 1e9, "calls": calls[name]} for name in sorted(calls)
    }
    return {
        "layers": layers,
        "unattributed_s": unattributed_ns / 1e9,
        "spans": total,
        "within": calls_within,
    }


#: The request ops the serve and explore workloads send through Session.run.
SESSION_OPS = ("check", "compare", "explore", "synthesize")


def layer_names() -> List[str]:
    """Every span name the traced run can produce, in table order."""
    names: List[str] = []
    for _spec, _attr, name in LAYER_TARGETS:
        if name not in names:
            names.append(name)
    names.extend(f"{SESSION_RUN[2]}.{op}" for op in SESSION_OPS)
    return names
