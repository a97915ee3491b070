"""CI workflow invocations of the package must find it.

Several CI jobs install nothing and run the package from the ``src/``
layout, so every ``python -m repro...`` in a workflow needs
``PYTHONPATH=src`` on its own command; one stage of a pipe does not
inherit it from another.
"""

import re
from pathlib import Path

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"
MODULE_RUN = re.compile(r"python3? -m repro\b")


def test_every_module_run_sets_pythonpath():
    files = sorted(WORKFLOWS.glob("*.yml"))
    assert files
    missing = []
    for path in files:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for match in MODULE_RUN.finditer(line):
                if not line[: match.start()].rstrip().endswith("PYTHONPATH=src"):
                    missing.append(f"{path.name}:{number}: {line.strip()}")
    assert not missing, "\n".join(missing)
