"""The package's runtime import footprint: the standard library and numpy.

Every process that runs the simulator (the CLI, the examples, each bench
child) pays for what ``import repro`` pulls in, in start-up time and in
resident memory.  This test keeps a heavy runtime dependency from coming
back unnoticed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.core, repro.obs, repro.parallel, repro.serving
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_pulls_in_only_stdlib_and_numpy():
    # Modules already loaded before the import (site hooks, ``.pth`` files)
    # belong to the interpreter's start-up, not to the package.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    imported = json.loads(out)
    assert "repro" in imported
    foreign = [
        name for name in imported
        if name not in ("repro", "numpy") and name not in sys.stdlib_module_names
    ]
    assert foreign == [], f"import repro pulls in non-stdlib modules: {foreign}"
