"""Compare two run records written by ``run.py --record``.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base and new value and its change.  For end-to-end
metrics it also prints the bound ``BENCHMARK.json`` allows and whether the
change exceeds it.  Records of different workloads, trace modes or
resolved kernels are not comparable: the comparison is reported as invalid
and the exit code is 2.  Exit code 1 means some metric got worse by more
than its bound.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _bounds() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry for entry in spec["end_to_end"]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    for field in ("workload", "trace", "kernel"):
        if base[field] != new[field]:
            print(f"invalid comparison: {field} {base[field]!r} vs {new[field]!r}")
            return 2
    bounds = _bounds()
    worse = False
    for name, before in base["metrics"].items():
        after = new["metrics"].get(name)
        if after is None:
            continue
        change = (after - before) / before if before else 0.0
        line = f"{name:45s} {before:12.5g} -> {after:12.5g}  {change:+8.2%}"
        entry = bounds.get(name)
        if entry is not None:
            sign = 1.0 if entry["better"] == "lower" else -1.0
            exceeded = sign * change > entry["bound"]
            worse = worse or exceeded
            line += f"  bound {entry['bound']:.0%}" + ("  WORSE" if exceeded else "")
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
