"""The benchmark tracer's call points must exist in the program.

``perfbench/tracing.py`` wraps layer functions by name (``module`` or
``module:Class`` plus an attribute).  Only ``perfbench/run.py --trace 1``
installs those wrappers, and the test suite never runs it, so a rename or
deletion under ``src/`` would break the traced run without failing a test.
This test reads the tracer's target tables, without installing anything,
and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).parent.parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(spec, attr):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name, None)
    return callable(getattr(owner, attr, None))


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    targets = [(spec, attr) for spec, attr, _ in tracing.LAYER_TARGETS]
    targets.append(tracing.SESSION_RUN[:2])
    missing = [target for target in targets if not _resolves(*target)]
    assert missing == []
