"""Helpers shared by the benchmark's workloads: processes, paths, statistics."""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Iterator, Optional, Sequence, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for run directories, spans and caches, inside the checkout
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def require_source() -> None:
    """Fail unless the program's source tree is next to the benchmark."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no program source under {os.path.join(ROOT, 'src')}")
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))


def child_env(root: str = ROOT) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The program under test must resolve its own kernel: never inherit a pin.
    env.pop("REPRO_KERNEL", None)
    env.pop("REPRO_FAULTS", None)
    return env


def make_tmp() -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only when no other run is using it
    except OSError:
        pass


def try_reap(process: subprocess.Popen):
    """Reap ``process`` if it has ended: its resource usage, else None.

    Use this instead of ``Popen.poll``, which reaps without keeping the
    resource usage (peak RSS) that only the reaping wait reports.
    """
    pid, status, rusage = os.wait4(process.pid, os.WNOHANG)
    if pid != process.pid:
        return None
    process.returncode = os.waitstatus_to_exitcode(status)
    return rusage


def reap(process: subprocess.Popen, timeout: float):
    """Wait for ``process`` and return its resource usage (peak RSS etc.).

    Kills the process if it has not ended within ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        rusage = try_reap(process)
        if rusage is not None:
            return rusage
        if time.monotonic() > deadline:
            process.kill()
            pid, status, rusage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"process {process.args!r} did not end within {timeout:g}s")
        time.sleep(0.005)


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


#: The yardstick's time at the nominal speed, in seconds: the median of
#: its samples on the two-vCPU VM the benchmark was defined on (single
#: samples there ranged from 0.020 to 0.042 s within seconds).
YARDSTICK_S = 0.03
#: iterations of each phase of the yardstick
YARDSTICK_N = 40_000
#: keys of the yardstick's large table (a few MB, beyond the core's caches)
YARDSTICK_KEYS = 50_021
_LARGE: dict = {}


def _yardstick(n: int) -> int:
    """A fixed pure-Python loop: arithmetic on a small table, then scattered
    updates of a table too large for the core's caches.

    It never imports the program, so a slower program does not slow it
    down; a slower machine does, as it slows the program's Python code,
    whether a neighbour takes the core or the memory behind it.
    """
    small: dict = {}
    total = 0
    for i in range(n):
        key = i & 1023
        small[key] = small.get(key, 0) + (i * i) % 7
        total += abs(key - 512)
    large = _LARGE
    for i in range(n):
        key = (i * 7919) % YARDSTICK_KEYS
        large[key] = large[key] + (i & 15)
    for i in range(0, n, 3):
        key = (i * 104729) % YARDSTICK_KEYS
        large[key] = large[key] ^ i
    return total


def yardstick_s() -> float:
    """One timed run of the yardstick: a sample of the machine's speed."""
    if not _LARGE:
        _LARGE.update(dict.fromkeys(range(YARDSTICK_KEYS), 0))
    started = time.perf_counter()
    _yardstick(YARDSTICK_N)
    return time.perf_counter() - started


def one_cpu() -> Optional[Set[int]]:
    """The one CPU the benchmark and the program run on, or None.

    The host slows each virtual CPU on its own, so the yardstick must run
    on the CPU that does the work.  The harness pins itself to the first
    CPU it may use while it measures; every process and thread it starts
    (workers, servers, the serve load generator) inherits that.  None
    where the platform cannot pin.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    return {min(os.sched_getaffinity(0))}


@contextlib.contextmanager
def on_cpus(cpus: Optional[Set[int]]) -> Iterator[None]:
    """Run the calling thread, and what it starts, on ``cpus`` only."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def at_nominal_speed(seconds: float, yardsticks: Sequence[float]) -> float:
    """``seconds``, measured in a run whose yardstick samples were
    ``yardsticks``, scaled to the yardstick's nominal speed.

    The benchmark shares its host with other tenants, and the host's speed
    drifts by up to half for minutes at a time.  The yardstick, sampled on
    the benchmark's CPU throughout the same run, slows down with it, so the
    scaled time follows the program's cost rather than the neighbours'
    load.  A unit of work lasts seconds and so pays the host's mean
    slowdown over that time; the yardstick's mean over the run estimates
    that, where its median would jump between a fast and a slow state.
    The top and bottom tenth of the samples are left out of the mean.
    """
    ordered = sorted(yardsticks)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return seconds * YARDSTICK_S / (sum(kept) / len(kept))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (an ``inf`` sample counts as a miss)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def commit(root: str = ROOT) -> Optional[str]:
    """The checkout's git commit, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()
