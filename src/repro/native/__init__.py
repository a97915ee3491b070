"""Word-array native checking kernels.

This package lowers the hot loop of the explicit checker — the
decide/propagate/undo search of :mod:`repro.checker.kernel` — from
unbounded Python ints to fixed-width arrays of 64-bit words, behind one
:class:`~repro.native.backend.KernelBackend` interface with three
implementations: the original ``bigint`` reference, a pure-Python
word-array port (``python``), and a C extension fast path (``native``,
:mod:`repro.native._kernelmod`, built optionally by ``setup.py``).
Po-pair masks are evaluated the same way for every backend, by the IR
lowering of :mod:`repro.compile.lower_masks`.

See ``docs/architecture.md`` ("Kernel backends") for the word layout,
the selection order and the build-fallback semantics.
"""

from repro.native.backend import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    BigintKernelBackend,
    KernelBackend,
    NativeKernelBackend,
    WordKernelBackend,
    native_available,
    native_import_error,
    resolve_kernel,
)
from repro.native.problem import KernelProblem, kernel_problem
from repro.native.words import WORD_BITS, WordReachability, word_count

__all__ = [
    "KERNEL_CHOICES",
    "KERNEL_ENV",
    "BigintKernelBackend",
    "KernelBackend",
    "KernelProblem",
    "NativeKernelBackend",
    "WordKernelBackend",
    "WordReachability",
    "WORD_BITS",
    "kernel_problem",
    "native_available",
    "native_import_error",
    "resolve_kernel",
    "word_count",
]
