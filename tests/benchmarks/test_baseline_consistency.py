"""The committed perf baseline must name benchmarks that CI actually runs.

``benchmarks/check_regression.py`` fails when a baselined benchmark is
missing from the fresh results, so a benchmark retired from its module (or
a module dropped from CI's benchmark-smoke step) while its baseline entry
stays breaks the gate.  This test reads the baseline, the CI workflow and
the benchmark modules statically — no benchmark runs — and checks every
baselined ``module::test`` against them.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_baseline.json"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _baselined():
    """``(module path, test function)`` for every baseline entry."""
    names = json.loads(BASELINE.read_text())["benchmarks"]
    entries = []
    for name in names:
        module, _, test = name.partition("::")
        entries.append((name, module, test.split("[", 1)[0]))
    return entries


def _smoke_step_modules():
    """The benchmark modules listed in CI's benchmark-smoke step."""
    lines = CI_WORKFLOW.read_text().splitlines()
    start = next(
        index for index, line in enumerate(lines) if re.search(r"- name: Benchmark smoke", line)
    )
    step = []
    for line in lines[start + 1 :]:
        if re.match(r"\s*- name:", line):
            break
        step.append(line)
    return set(re.findall(r"benchmarks/\w+\.py", "\n".join(step)))


def _test_functions(module_path):
    tree = ast.parse((ROOT / module_path).read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_ci_benchmark_smoke_runs_every_baselined_module():
    baselined = _baselined()
    assert baselined
    smoke = _smoke_step_modules()
    missing = sorted({name for name, module, _ in baselined if module not in smoke})
    assert missing == []


def test_every_baselined_benchmark_is_defined_in_its_module():
    defined = {}
    missing = []
    for name, module, test in _baselined():
        if module not in defined:
            path = ROOT / module
            defined[module] = _test_functions(module) if path.exists() else set()
        if test not in defined[module]:
            missing.append(name)
    assert missing == []
